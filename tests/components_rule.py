"""The component rule as one family-free statement, for a brute force over
all 2**N sign vectors: an oracle for
:func:`bruhatdiag.components.enumerate_components` that reads inertia, not
the generator's combinatorics."""

import itertools

import numpy as np

from bruhatdiag.spaces import involution_matrix, layout


def admissible(spec, signs) -> bool:
    """Whether ``signs`` represents a component: the swapped middle pair
    (σ = 0) stays +1, ``signs`` is mirror-symmetric under a reflection, an
    ``so`` reflection puts an even number of -1 on the first-half positions
    whose mirror has the opposite σ, and ``diag(signs) I`` has the
    positive-eigenvalue count of the involution matrix ``I`` (Sylvester)."""
    N, sigma, twist = spec.ambient, layout(spec).signs, layout(spec).twist
    if any(s < 0 for s, t in zip(signs, sigma) if t == 0):
        return False
    if twist is not None and tuple(signs) != tuple(signs[::-1]):
        return False
    if spec.so_like and sum(signs[i] < 0 and sigma[i] * sigma[N - 1 - i] < 0
                            for i in range(N // 2)) % 2:
        return False
    I = involution_matrix(spec)
    positives = [np.count_nonzero(np.linalg.eigvalsh(A) > 0) for A in (np.diag(signs) @ I, I)]
    return positives[0] == positives[1]


def brute_force(spec) -> list[tuple[int, ...]]:
    """Every admissible sign vector, '+' before '-' as the enumeration orders them."""
    return [s for s in itertools.product((1, -1), repeat=spec.ambient) if admissible(spec, s)]
