"""Boundary sampling shared by the tests: inputs placed on purpose at a
chosen distance from a cell wall instead of avoided by redrawing."""

import numpy as np


def wall_scales(X, deltas):
    """``(k, t)`` placing ``t X`` at relative distance δ from each wall of
    ``X``'s ray, past it for δ > 0: ``det(1 + t I_k X) = prod(1 + t λ)`` over the eigenvalues
    λ of ``I_k X``, so every real negative λ puts a wall at ``t = -1/λ``."""
    N = X.shape[0]
    for k in range(1, N + 1):
        flip = np.where(np.arange(N) < k, -1.0, 1.0)
        for lam in np.linalg.eigvals(flip[:, None] * X):
            if lam.real < 0 and abs(lam.imag) <= 1e-9 * abs(lam):
                for delta in deltas:
                    yield k, -(1.0 + delta) / lam.real
