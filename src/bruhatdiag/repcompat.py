"""Conjugacy between the standard and antidiagonal matrix realizations.

The orthogonal and symplectic algebras are realized here as fixed-point
sets of involutions built from the antitranspose, because those preserve
the strict triangular split.  This module verifies numerically that the
realizations are conjugate to the textbook ones:

* orthogonal: ``A -> -A^t`` versus ``A -> -antitranspose(A)``, intertwined
  by ``P = (J + i 1) / sqrt(2)``;
* symplectic: ``A -> -J_sp^{-1} A^t J_sp`` versus the sign-twisted
  antidiagonal involution, intertwined by the block-reversal permutation
  (first half fixed, second half reversed), which satisfies
  ``S J_sp^{-1} S^t = I_{n,n} J`` exactly.
"""

from __future__ import annotations

import numpy as np

from .linalg import antitranspose, leading_signature, max_abs, reversal_matrix
from .spaces import ViolationReport

#: Largest relative deviation from an intertwining identity that
#: :func:`verify_conjugacy` accepts.
CONJUGACY_TOL = 1e-10


def theta_standard(A) -> np.ndarray:
    """Negated transpose; fixed points are the standard orthogonal algebra."""
    return -np.asarray(A, dtype=complex).T


def theta_antidiagonal(A) -> np.ndarray:
    """Negated antitranspose; fixed points form the triangular-compatible
    orthogonal realization used throughout this package."""
    return -antitranspose(A)


def theta_symplectic_standard(A) -> np.ndarray:
    """Involution fixing the standard symplectic algebra (even size)."""
    A = np.asarray(A, dtype=complex)
    n2 = A.shape[0]
    if n2 % 2:
        raise ValueError("symplectic involutions need even size")
    J_sp = _symplectic_form(n2 // 2)
    return -np.linalg.solve(J_sp, A.T @ J_sp)


def theta_symplectic_antidiagonal(A) -> np.ndarray:
    """Sign-twisted antidiagonal involution fixing the symplectic realization."""
    A = np.asarray(A, dtype=complex)
    n2 = A.shape[0]
    if n2 % 2:
        raise ValueError("symplectic involutions need even size")
    I = leading_signature(n2, n2 // 2)
    return -I @ antitranspose(A) @ I


def _symplectic_form(n: int) -> np.ndarray:
    J_sp = np.zeros((2 * n, 2 * n), dtype=complex)
    J_sp[:n, n:] = np.eye(n)
    J_sp[n:, :n] = -np.eye(n)
    return J_sp


def conjugator(n: int) -> np.ndarray:
    """The unitary ``(J + i 1)/sqrt(2)`` intertwining the orthogonal pair."""
    if n < 1:
        raise ValueError("size must be at least 1")
    return (reversal_matrix(n) + 1j * np.eye(n)) / np.sqrt(2.0)


def symplectic_conjugator(n: int) -> np.ndarray:
    """Permutation intertwining the symplectic pair at size 2n.

    Columns 1..n stay put; column n+j moves to position 2n+1-j.  This
    choice carries the symplectic form onto the sign-twisted antidiagonal
    one without any scaling, so the intertwining identity is exact.
    """
    if n < 1:
        raise ValueError("size must be at least 1")
    S = np.zeros((2 * n, 2 * n), dtype=complex)
    for j in range(n):
        S[j, j] = 1.0
        S[2 * n - 1 - j, n + j] = 1.0
    return S


def _random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def verify_conjugacy(n: int, samples: int = 100, *,
                     rng: np.random.Generator) -> ViolationReport:
    """Check the conjugacy identities on random matrices.

    For each sample ``A``: the antidiagonal involution must agree with the
    conjugated standard one; for real skew-symmetric ``A`` (a fixed point
    of the standard involution) the conjugated matrix must be fixed by the
    antidiagonal involution.  The symplectic identity is checked at size
    ``2n`` with its own conjugator.

    Returns the worst relative deviations ``max_orthogonal_dev``,
    ``max_orthogonal_fixed_dev`` and ``max_symplectic_dev``, judged at
    :data:`CONJUGACY_TOL`.
    """
    P = conjugator(n)
    P_inv = P.conj().T
    S = symplectic_conjugator(n)
    S_inv = S.T

    worst = 0.0
    worst_fixed = 0.0
    worst_sp = 0.0
    for _ in range(samples):
        A = _random_complex(rng, (n, n))
        lhs = theta_antidiagonal(A)
        rhs = P @ theta_standard(P_inv @ A @ P) @ P_inv
        worst = max(worst, max_abs(lhs - rhs) / max(1.0, max_abs(A)))

        R = rng.standard_normal((n, n))
        K = R - R.T  # real skew-symmetric: fixed by the standard involution
        B = P @ K.astype(complex) @ P_inv
        worst_fixed = max(worst_fixed,
                          max_abs(theta_antidiagonal(B) - B) / max(1.0, max_abs(K)))

        C = _random_complex(rng, (2 * n, 2 * n))
        lhs_sp = theta_symplectic_antidiagonal(C)
        rhs_sp = S @ theta_symplectic_standard(S_inv @ C @ S) @ S_inv
        worst_sp = max(worst_sp, max_abs(lhs_sp - rhs_sp) / max(1.0, max_abs(C)))

    return ViolationReport({"max_orthogonal_dev": worst,
                            "max_orthogonal_fixed_dev": worst_fixed,
                            "max_symplectic_dev": worst_sp}, CONJUGACY_TOL)
