"""Connected-component representatives of the generic stratum.

Each representative is a diagonal +/-1 matrix recorded as its sign vector.
The admissible vectors are generated constructively per family (equal
counts across the blocks the involution exchanges, reflection symmetry
where the family demands it), a witness tangent supported on the negative
positions is built by a greedy pairing, and the scaling limit of the
diagonal factor along that witness is checked numerically.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .bruhat import _check_ambient, _screened_ratios
from .linalg import flipped_determinants
from .spaces import FAMILY, SpaceSpec, _position_signs, zero_block

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


@functools.lru_cache(maxsize=64)
def _part_labels(spec: SpaceSpec) -> tuple[Optional[int], ...]:
    """Per-position label: the involution's sign, which tells apart the two
    block families it exchanges, and None for the exempt middle positions.
    Built once per spec, as a tuple because every caller shares it."""
    return tuple(sign or None for sign in _position_signs(spec))


def _signs_from_alpha(N: int, alpha: Iterable[int]) -> tuple[int, ...]:
    signs = [1] * N
    for i in alpha:
        signs[i - 1] = -1
    return tuple(signs)


def _mirrored(N: int, positions: Iterable[int]) -> set[int]:
    out = set()
    for i in positions:
        out.add(i)
        out.add(N + 1 - i)
    return out


def enumerate_components(spec: SpaceSpec) -> list[ComponentRep]:
    """All component representatives, identity first, in sign-string order.

    Generation is constructive from the block structure:

    * two mirrored blocks (DIII, CI): every reflection-symmetric vector,
      with an even count in each block for the orthogonal type.
    * otherwise equally many -1 in two parts: the two blocks (AIII), or,
      mirrored, the outer part and the centre's free half (CII, BDI).  The
      free half stops before an odd middle entry, which stays positive,
      and the doubly-odd layout pins the two middle entries to +1 as the
      canonical coset representative.
    """
    N = spec.ambient
    fam = FAMILY[spec.family]
    sizes = fam.sizes(spec)
    outer = range(1, sizes[0] + 1)
    alphas: list[set[int]] = []

    if len(sizes) == 2 and fam.reflection:
        for sub in _subsets(outer):
            if fam.reflection == "sp" or len(sub) % 2 == 0:
                alphas.append(_mirrored(N, sub))
    else:
        signs = _position_signs(spec)
        last = N // 2 if fam.reflection else N
        inner = [i for i in range(sizes[0] + 1, last + 1) if signs[i - 1]]
        for j in range(min(len(outer), len(inner)) + 1):
            for out_part in itertools.combinations(outer, j):
                for in_part in itertools.combinations(inner, j):
                    alpha = set(out_part) | set(in_part)
                    alphas.append(_mirrored(N, alpha) if fam.reflection else alpha)

    reps = [ComponentRep(spec, _signs_from_alpha(N, a)) for a in alphas]
    reps.sort(key=lambda r: tuple(0 if s == 1 else 1 for s in r.signs))
    return reps


def _subsets(items) -> Iterable[tuple]:
    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


class WitnessError(RuntimeError):
    """No admissible pairing of the negative positions exists.

    Representatives produced by :func:`enumerate_components` always admit
    one; seeing this error means an internally inconsistent sign vector.
    """


def construct_witness(rep: ComponentRep) -> np.ndarray:
    """A tangent supported on the negative positions of ``rep``.

    Pairs the negative positions greedily (smallest open index with the
    largest admissible partner), placing ``+1 / -1`` in the paired slots;
    reflection-constrained families get the mirrored pair filled by the
    family rule.  The resulting matrix passes :func:`validate_tangent`
    and its principal block on the negative positions is invertible.
    """
    spec = rep.spec
    N = spec.ambient
    X = np.zeros((N, N), dtype=complex)
    if rep.is_identity:
        return X

    labels = _part_labels(spec)
    so_like, sp_like = spec.so_like, spec.sp_like
    half = N // 2
    remaining = list(rep.alpha)

    def admissible(i: int, j: int) -> bool:
        li, lj = labels[i - 1], labels[j - 1]
        if li is None or lj is None or li == lj:
            return False
        if so_like and j == N + 1 - i:
            return False
        return True

    while remaining:
        i = remaining[0]
        partners = [j for j in remaining[1:] if admissible(i, j)]
        if not partners:
            raise WitnessError(
                f"no admissible partner for position {i} in {rep.label()}")
        j = max(partners)
        X[i - 1, j - 1] = 1.0
        X[j - 1, i - 1] = -1.0
        remaining.remove(i)
        remaining.remove(j)
        if so_like or sp_like:
            i2, j2 = N + 1 - j, N + 1 - i
            if {i2, j2} != {i, j}:
                if so_like:
                    s = -1.0
                else:
                    sgn_i = -1.0 if i <= half else 1.0
                    sgn_j = -1.0 if j <= half else 1.0
                    s = -sgn_i * sgn_j
                X[i2 - 1, j2 - 1] = s
                X[j2 - 1, i2 - 1] = -s
                remaining.remove(i2)
                remaining.remove(j2)
    return X


@dataclass
class LimitReport:
    """Deviation of the scaled diagonal from the target signs per grid point.

    Deviations are measured as ``|d_k - sign_k| / max(1, |d_k|)`` so the
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
    call (:func:`~bruhatdiag.linalg.flipped_determinants` with the grid as
    ``scales``, one read-only float array built at import and checked on
    every call): one split plan from ``X`` itself, its kept block gathered
    once and scaled per point, and one batched determinant call.  A scaled
    entry that would overflow raises ``ValueError``; the bound that decides
    it is the largest grid point times the largest real or imaginary part
    of the kept block.  The check, the ratios and the deviations of all
    grid points are then one vectorized pass over the ``(grid, N + 1)``
    table, with one ``np.hypot`` of it for the magnitudes and the cutoffs
    alike; a refused point reads ``None``.  The Cayley image and the
    minor-identity residual, which
    :func:`~bruhatdiag.bruhat.diagonal_via_cayley` would also build, are
    not computed.
    """
    if X is None:
        X = construct_witness(rep)
    _check_ambient(X, rep.spec)
    dets = flipped_determinants(X, zero_block(rep.spec), _GRID)
    refused, d = _screened_ratios(dets)
    deviations = (np.abs(d - np.array(rep.signs, dtype=float))
                  / np.maximum(1.0, np.abs(d))).max(axis=-1).tolist()
    if refused is not None:
        deviations = [None if step else dev
                      for step, dev in zip(refused[0].tolist(), deviations)]
    return LimitReport(rep=rep, t_grid=DEFAULT_GRID, deviations=deviations)
