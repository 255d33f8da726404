"""The Cayley map and image-membership diagnostics.

``cayley`` carries skew-Hermitian matrices to unitary matrices that avoid
eigenvalue -1; on a tangent matrix of one of the supported families the
image additionally lands in the embedded copy of the symmetric space,
which :func:`verify_image` checks numerically.  The map is its own
inverse, ``X = (1 - g)(1 + g)^{-1}``, so no separate inverse is provided.
"""

from __future__ import annotations

import functools

import numpy as np

from .linalg import _LastFinite, antitranspose, as_matrix, max_abs
from .spaces import CHECK_TOL, SpaceSpec, ViolationReport, _check_ambient, involution_apply, layout


def cayley(X) -> np.ndarray:
    """``(1 - X) (1 + X)^{-1}`` via a linear solve.

    For skew-Hermitian ``X`` the factor ``1 + X`` is always invertible
    (the spectrum is purely imaginary) and the result is unitary.  The two
    factors commute, so solving from the left is equivalent.  The result
    is a new writable array, a copy of the image :func:`_cayley` keeps.
    """
    return _cayley(as_matrix(X)).copy()


def _cayley(X: np.ndarray) -> np.ndarray:
    """:func:`cayley` of an already validated matrix.

    The last finite image is kept, keyed on the exact bytes of ``X``, so
    the routes and a later :func:`cayley` of the same tangent share one
    solve; a kept image is read-only.
    """
    return _LAST_IMAGE.get(X.tobytes(), _solve, X)


def _solve(X: np.ndarray) -> np.ndarray:
    """``(1 - X) (1 + X)^{-1}`` by one solve; a singular ``1 + X`` raises ``ValueError``."""
    eye = _identity(X.shape[0])
    try:
        g = np.linalg.solve(eye + X, eye - X)
    except np.linalg.LinAlgError as exc:
        raise ValueError("1 + X is numerically singular; input is not skew-Hermitian") from exc
    return g


#: The last finite image :func:`_cayley` solved for.
_LAST_IMAGE = _LastFinite()


@functools.lru_cache(maxsize=64)
def _identity(n: int) -> np.ndarray:
    """The complex ``n x n`` identity, read-only because every caller shares it."""
    eye = np.eye(n, dtype=complex)
    eye.flags.writeable = False
    return eye


def verify_image(spec: SpaceSpec, g, tol: float = CHECK_TOL) -> ViolationReport:
    """Check ``g`` against the defining equations of the embedded space.

    Reported violations: unitarity ``g* g = 1``, compatibility of the
    involution with inversion, ``det g = 1``, and the reflection
    ``antitranspose(g) * twist = g^{-1}`` (``orthogonal_structure`` or
    ``symplectic_structure``) where the family has one.
    """
    return _verify_image(spec, as_matrix(g), tol)


def _verify_image(spec: SpaceSpec, g: np.ndarray, tol: float = CHECK_TOL) -> ViolationReport:
    """:func:`verify_image` of an already validated matrix."""
    _check_ambient(spec, g)
    eye = _identity(spec.ambient)
    ginv = np.linalg.inv(g)
    v = {
        "unitary": max_abs(g.conj().T @ g - eye),
        "involution_inverts": max_abs(involution_apply(spec, g) - ginv),
        "determinant_one": abs(complex(np.linalg.det(g)) - 1.0),
    }
    twist = layout(spec).twist
    if twist is not None:
        key = "orthogonal_structure" if spec.so_like else "symplectic_structure"
        v[key] = max_abs(antitranspose(g) * twist - ginv)
    return ViolationReport(violations=v, tolerance=tol)
