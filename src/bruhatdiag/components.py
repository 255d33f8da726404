"""Connected-component representatives of the generic stratum.

Each representative is a diagonal +/-1 matrix recorded as its sign vector.
The admissible vectors are generated from three classes of positions read
off the involution's signs and its reflection (see
:func:`enumerate_components`), a witness tangent supported on the negative
positions is built by a greedy pairing, and the scaling limit of the
diagonal factor along that witness is checked numerically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .bruhat import _screened_ratios
from .linalg import as_matrix, relative_gap
from .spaces import SpaceSpec, _flipped_stack, layout

#: Geometric grid of scaling parameters for limit checks.
DEFAULT_GRID = (10.0, 100.0, 1000.0)

# the grid as the one read-only float array every limit check scales by
_GRID = np.array(DEFAULT_GRID)
_GRID.flags.writeable = False

#: A limit check converges when the deviation at the last grid point is
#: computed and at most this.
LIMIT_TOL = 1e-3


@dataclass(frozen=True)
class ComponentRep:
    """A sign vector representative together with its negative index set."""

    spec: SpaceSpec
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.signs) != self.spec.ambient:
            raise ValueError("sign vector length must match the ambient size")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

    @property
    def alpha(self) -> tuple[int, ...]:
        """1-based positions carrying -1."""
        return tuple(i + 1 for i, s in enumerate(self.signs) if s == -1)

    @property
    def is_identity(self) -> bool:
        return all(s == 1 for s in self.signs)

    def label(self) -> str:
        return "".join("+" if s == 1 else "-" for s in self.signs)


def _signs_from_alpha(N: int, alpha: Iterable[int]) -> tuple[int, ...]:
    signs = [1] * N
    for i in alpha:
        signs[i - 1] = -1
    return tuple(signs)


def enumerate_components(spec: SpaceSpec) -> list[ComponentRep]:
    """All component representatives, identity first, in sign-string order.

    With σ the involution's signs (:func:`~bruhatdiag.spaces.layout`), a
    position i is free where σ is nonzero and, under a reflection, i comes
    before its mirror N + 1 - i.  The free positions whose mirror has the
    opposite sign are *cross*; the others split by sign into *minus* and
    *plus*.  A representative is -1 on any subset of *cross* (even-sized
    under ``so``) and on j positions each of *minus* and *plus*, and on the
    mirror of each under a reflection.  The swapped middle pair (σ = 0)
    stays +1, the canonical coset representative.
    """
    N = spec.ambient
    lay = layout(spec)
    sigma, reflected, even = lay.signs, lay.twist is not None, spec.so_like
    free = [i for i in range(1, N + 1) if sigma[i - 1] and not (reflected and 2 * i >= N + 1)]
    cross = [i for i in free if reflected and sigma[N - i] == -sigma[i - 1]]
    minus, plus = ([i for i in free if i not in cross and sigma[i - 1] == sign]
                   for sign in (-1, 1))
    balanced = [(*minus_part, *plus_part) for j in range(min(len(minus), len(plus)) + 1)
                for minus_part in itertools.combinations(minus, j)
                for plus_part in itertools.combinations(plus, j)]
    alphas = [(*sub, *part) for sub in _subsets(cross) if not (even and len(sub) % 2)
              for part in balanced]
    if reflected:
        alphas = [(*alpha, *[N + 1 - i for i in alpha]) for alpha in alphas]

    # +1 before -1 is descending order; no two vectors are equal
    signs = sorted((_signs_from_alpha(N, alpha) for alpha in alphas), reverse=True)
    return [ComponentRep(spec, s) for s in signs]


def _subsets(items) -> Iterable[tuple]:
    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


class WitnessError(RuntimeError):
    """No admissible pairing of the negative positions exists.

    Exactly the representatives of :func:`enumerate_components` admit one;
    any other sign vector, a mirror-asymmetric one too, raises this.
    """


def construct_witness(rep: ComponentRep) -> np.ndarray:
    """A tangent supported on the negative positions of ``rep``.

    Pairs the negative positions greedily (smallest open index with the
    largest partner of opposite involution sign, so never the swapped
    middle pair of sign 0, and for ``so`` never across the antidiagonal),
    placing ``+1 / -1`` in the paired slots; with a reflection the mirrored
    pair gets the pair's negated reflection sign, ``-twist[i, j]`` of the
    spec's :func:`~bruhatdiag.spaces.layout` (``-1`` for ``so``).  The
    resulting matrix passes :func:`validate_tangent` and its principal
    block on the negative positions is invertible.
    """
    spec = rep.spec
    N = spec.ambient
    X = np.zeros((N, N), dtype=complex)
    lay = layout(spec)
    signs, twist = lay.signs, lay.twist
    so_like = spec.so_like
    remaining = list(rep.alpha)
    while remaining:
        i = remaining[0]
        partners = [j for j in remaining[1:] if signs[i - 1] * signs[j - 1] < 0
                    and not (so_like and j == N + 1 - i)]
        if not partners:
            raise WitnessError(
                f"no admissible partner for position {i} in {rep.label()}")
        j = max(partners)
        X[i - 1, j - 1] = 1.0
        X[j - 1, i - 1] = -1.0
        remaining.remove(i)
        remaining.remove(j)
        if twist is not None:
            i2, j2 = N + 1 - j, N + 1 - i
            if {i2, j2} != {i, j}:
                if i2 not in remaining or j2 not in remaining:
                    raise WitnessError(f"mirrored pair ({i2}, {j2}) not open in {rep.label()}")
                s = -twist[i - 1, j - 1]
                X[i2 - 1, j2 - 1] = s
                X[j2 - 1, i2 - 1] = -s
                remaining.remove(i2)
                remaining.remove(j2)
    return X


@dataclass
class LimitReport:
    """Deviation of the scaled diagonal from the target signs per grid point.

    Deviations are measured as ``|d_k - sign_k| / max(1, |d_k|)``, the
    :func:`~bruhatdiag.linalg.relative_gap` of ``d_k`` from its sign, so the
    two members of a reciprocal pair of entries score identically; a
    ``None`` deviation marks a grid point where the scaled tangent was
    non-generic and was skipped.  A skipped last point means the check did
    not converge, whatever the earlier points read.  ``t_grid`` records the
    ``t`` of each deviation.
    """

    rep: ComponentRep
    t_grid: tuple[float, ...]
    deviations: list[Optional[float]]

    @property
    def converged(self) -> bool:
        last = self.deviations[-1]
        return last is not None and last <= LIMIT_TOL


def limit_check(rep: ComponentRep, X=None) -> LimitReport:
    """Evaluate the diagonal along ``t X``, t in :data:`DEFAULT_GRID`, and
    compare against the signs.

    Each grid point needs only the ``cayley_det`` entries: the flipped
    stack ``det(1 + I_k tX)``, its cutoffs and its checked ratios.  ``X``
    is validated once and the stacks of every grid point come from one ray
    call (:func:`~bruhatdiag.spaces._flipped_stack` with the grid as
    ``scales``, a read-only float array of positive factors built at import,
    passed on to :func:`~bruhatdiag.linalg._flipped_determinants`): one
    split plan from ``X`` itself, its kept block gathered once and scaled
    per point, and one batched determinant call.  An ``X`` that is not
    zero on the spec's zero block raises ``ValueError``, and so does a
    scaled entry that would overflow; the bound that decides it is the
    largest grid point times the largest real or imaginary part of the
    kept block.  The
    check, the ratios and the deviations of all grid points are then one
    vectorized pass over the ``(grid, N + 1)`` table, with one ``np.hypot``
    of it for the magnitudes and the cutoffs alike; a refused point reads
    ``None``.  The Cayley image and the minor-identity residual, which
    :func:`~bruhatdiag.bruhat.diagonal_via_cayley` would also build, are
    not computed.
    """
    if X is None:
        X = construct_witness(rep)
    dets = _flipped_stack(rep.spec, as_matrix(X), _GRID)
    refused, d = _screened_ratios(dets)
    deviations = relative_gap(d, np.array(rep.signs, dtype=float)).max(axis=-1).tolist()
    if refused is not None:
        deviations = [None if step else dev
                      for step, dev in zip(refused[0].tolist(), deviations)]
    return LimitReport(rep=rep, t_grid=DEFAULT_GRID, deviations=deviations)
