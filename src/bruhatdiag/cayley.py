"""The Cayley map and image-membership diagnostics.

``cayley`` carries skew-Hermitian matrices to unitary matrices that avoid
eigenvalue -1; on a tangent matrix of one of the supported families the
image additionally lands in the embedded copy of the symmetric space,
which :func:`verify_image` checks numerically.  The map is its own
inverse, ``X = (1 - g)(1 + g)^{-1}``, so no separate inverse is provided.
"""

from __future__ import annotations

import numpy as np

from .linalg import antitranspose, as_matrix, max_abs
from .spaces import SpaceSpec, ViolationReport, _sp_twist, involution_apply


def cayley(X) -> np.ndarray:
    """``(1 - X) (1 + X)^{-1}`` via a linear solve.

    For skew-Hermitian ``X`` the factor ``1 + X`` is always invertible
    (the spectrum is purely imaginary) and the result is unitary.  The two
    factors commute, so solving from the left is equivalent.
    """
    return _cayley(as_matrix(X))


def _cayley(X: np.ndarray) -> np.ndarray:
    """:func:`cayley` of an already validated matrix."""
    n = X.shape[0]
    eye = np.eye(n, dtype=complex)
    try:
        g = np.linalg.solve(eye + X, eye - X)
    except np.linalg.LinAlgError as exc:
        raise ValueError("1 + X is numerically singular; input is not skew-Hermitian") from exc
    return g


def verify_image(spec: SpaceSpec, g, tol: float = 1e-9) -> ViolationReport:
    """Check ``g`` against the defining equations of the embedded space.

    Reported violations: unitarity ``g* g = 1``, compatibility of the
    involution with inversion, ``det g = 1``, and the orthogonal or
    symplectic reflection condition where the family has one.
    """
    g = as_matrix(g)
    N = spec.ambient
    if g.shape != (N, N):
        raise ValueError(f"matrix has shape {g.shape}, ambient size is {N}")
    eye = np.eye(N, dtype=complex)
    ginv = np.linalg.inv(g)
    v = {
        "unitary": max_abs(g.conj().T @ g - eye),
        "involution_inverts": max_abs(involution_apply(spec, g) - ginv),
        "determinant_one": abs(complex(np.linalg.det(g)) - 1.0),
    }
    if spec.so_like:
        v["orthogonal_structure"] = max_abs(antitranspose(g) - ginv)
    elif spec.sp_like:
        v["symplectic_structure"] = max_abs(antitranspose(ginv) * _sp_twist(N) - g)
    return ViolationReport(violations=v, tolerance=tol)
