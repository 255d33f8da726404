"""Connected-component representatives of the generic stratum.

Each representative is a diagonal +/-1 matrix recorded as its sign vector.
The admissible vectors are generated constructively per family (equal
counts across the blocks the involution exchanges, reflection symmetry
where the family demands it), a witness tangent supported on the negative
positions is built by a greedy pairing, and the scaling limit of the
diagonal factor along that witness is checked numerically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .bruhat import GENERIC_TOL, NonGenericError, _check_ambient, _flipped_ratios
from .linalg import as_matrix, flipped_determinants
from .spaces import SpaceSpec

#: Default geometric grid of scaling parameters for limit checks.
DEFAULT_GRID = (10.0, 100.0, 1000.0)

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

    def matrix(self) -> np.ndarray:
        return np.diag(np.array(self.signs, dtype=complex))


def _part_labels(spec: SpaceSpec) -> list[Optional[str]]:
    """Per-position label: 'a' and 'b' for the two block families the
    involution exchanges, None for the exempt middle positions."""
    N = spec.ambient
    fam = spec.family
    labels: list[Optional[str]] = [None] * N
    if fam == "AIII":
        for i in range(spec.m):
            labels[i] = "a"
        for i in range(spec.m, N):
            labels[i] = "b"
    elif fam in ("DIII", "CI"):
        for i in range(spec.n):
            labels[i] = "a"
        for i in range(spec.n, N):
            labels[i] = "b"
    elif fam == "CII":
        p = spec.p
        for i in range(N):
            labels[i] = "a" if (i < p or i >= N - p) else "b"
    elif fam == "BDI_even":
        h = spec.p // 2
        for i in range(N):
            labels[i] = "a" if (i < h or i >= N - h) else "b"
    else:
        n1, n2 = (spec.p - 1) // 2, (spec.q - 1) // 2
        for i in range(N):
            if i < n1 or i >= N - n1:
                labels[i] = "a"
            elif n1 <= i < n1 + n2 or N - n1 - n2 <= i < N - n1:
                labels[i] = "b"
            # the two central positions stay None: quotiented away
    return labels


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

    Generation is constructive family by family:

    * AIII: equally many -1 in the two diagonal blocks.
    * DIII: reflection-symmetric with an even count in each block.
    * CI: every reflection-symmetric vector.
    * CII / BDI: reflection-symmetric with the count in the central part
      equal to the count in the outer part; an odd central block keeps its
      middle entry positive, and the doubly-odd layout pins the two middle
      entries to +1 as the canonical coset representative.
    """
    N = spec.ambient
    fam = spec.family
    alphas: list[set[int]] = []

    if fam == "AIII":
        uppers = list(range(1, spec.m + 1))
        lowers = list(range(spec.m + 1, N + 1))
        for j in range(spec.m + 1):
            for up in itertools.combinations(uppers, j):
                for lo in itertools.combinations(lowers, j):
                    alphas.append(set(up) | set(lo))
    elif fam == "CI":
        for sub in _subsets(range(1, spec.n + 1)):
            alphas.append(_mirrored(N, sub))
    elif fam == "DIII":
        for sub in _subsets(range(1, spec.n + 1)):
            if len(sub) % 2 == 0:
                alphas.append(_mirrored(N, sub))
    else:
        if fam == "CII":
            outer_free = list(range(1, spec.p + 1))
            center_free = list(range(spec.p + 1, spec.p + spec.q + 1))
        elif fam == "BDI_even":
            h = spec.p // 2
            outer_free = list(range(1, h + 1))
            center_free = list(range(h + 1, h + spec.q // 2 + 1))
        else:
            n1, n2 = (spec.p - 1) // 2, (spec.q - 1) // 2
            outer_free = list(range(1, n1 + 1))
            center_free = list(range(n1 + 1, n1 + n2 + 1))
        for j in range(min(len(outer_free), len(center_free)) + 1):
            for out_part in itertools.combinations(outer_free, j):
                for cen_part in itertools.combinations(center_free, j):
                    alphas.append(_mirrored(N, out_part) | _mirrored(N, cen_part))

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
    not converge, whatever the earlier points read.
    """

    rep: ComponentRep
    t_grid: tuple[float, ...]
    deviations: list[Optional[float]]
    final_tol: float

    @property
    def computed(self) -> list[float]:
        return [d for d in self.deviations if d is not None]

    @property
    def monotone(self) -> bool:
        seq = self.computed
        return all(b <= a * (1 + 1e-12) + 1e-15 for a, b in zip(seq, seq[1:]))

    @property
    def converged(self) -> bool:
        last = self.deviations[-1] if self.deviations else None
        return last is not None and last <= self.final_tol


def limit_check(rep: ComponentRep, X=None,
                t_grid: Sequence[float] = DEFAULT_GRID,
                final_tol: float = LIMIT_TOL) -> LimitReport:
    """Evaluate the diagonal along ``t X`` and compare against the signs.

    Each grid point needs only the ``cayley_det`` entries: one flipped
    stack ``det(1 + I_k tX)``, its cutoffs and its checked ratios.  The
    Cayley image and the minor-identity residual, which
    :func:`~bruhatdiag.bruhat.diagonal_via_cayley` would also build, are
    not computed.
    """
    spec = rep.spec
    if X is None:
        X = construct_witness(rep)
    X = np.asarray(X, dtype=complex)
    target = np.array(rep.signs, dtype=float)
    deviations: list[Optional[float]] = []
    for t in t_grid:
        if rep.is_identity:
            deviations.append(0.0)
            continue
        tX = as_matrix(t * X)
        _check_ambient(tX, spec)
        try:
            d = _flipped_ratios(flipped_determinants(tX), GENERIC_TOL, "cayley_det")
        except NonGenericError:
            deviations.append(None)
            continue
        dev = float(np.max(np.abs(d - target) / np.maximum(1.0, np.abs(d))))
        deviations.append(dev)
    return LimitReport(rep=rep, t_grid=tuple(float(t) for t in t_grid),
                       deviations=deviations, final_tol=final_tol)
