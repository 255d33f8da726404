"""Unpivoted LDU factorization and the diagonal factor by several routes.

For a generic matrix (all leading principal minors nonzero) the
factorization ``g = L D U`` with unit-triangular ``L``, ``U`` is unique and
``D`` consists of the telescoping minor ratios.  In Cayley coordinates the
same diagonal is a ratio of determinants ``det(1 + I_k X)`` with ``I_k``
the leading sign flip, and each of those determinants expands into a sum
of principal minors of ``X``.  :data:`ROUTES` computes the one quantity
along five independent paths so they can be cross checked:

* ``gauss``          -- elimination pivots (no row exchanges)
* ``minor_ratio``    -- leading principal minor ratios of ``g``
* ``cayley_det``     -- sign-flipped determinant ratios in ``X``
* ``fredholm``       -- principal-minor expansion of those determinants
* ``coroot_product`` -- determinant ratios raised to an integer exponent table

Each route is one function of an :class:`_Input`, one record per input
that serves every route run on it, in :func:`cross_check`,
:func:`check_draw`, :func:`run_route` and the ``diagonal_via_*`` functions.
Only bitwise-identical recomputation is shared, never one route's result.

A route returns a report only for an input that is generic at every
step, and otherwise raises :class:`NonGenericError` with the step.
``gauss`` and ``minor_ratio`` cut leading minors of ``g`` on ``g``'s
scale; the other three cut every ``det(1 + I_k X)``, k = 1..N, on the
scale of ``det(1 + X)``, and ``cayley_det`` and ``coroot_product`` share
one check of one stack, so they refuse the same inputs at the same step.

The flipped stack is split on the spec's zero block T
(:func:`~bruhatdiag.spaces._flipped_stack`); a matrix that is not zero on
T is refused with ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cayley import _cayley, _verify_image
from .linalg import (
    EXPANSION_CAP,
    _minor_expansion,
    array_to_json,
    as_matrix,
    max_abs,
    relative_gap,
)
from .spaces import SpaceSpec, _draw_tangent, _flipped_stack, coroots

#: Coefficient of the scale-aware genericity cutoffs: a leading minor of a
#: matrix with max-norm M counts as vanishing when |minor| <= GENERIC_TOL * M**k,
#: and det(1 + I_k X) when it is at most GENERIC_TOL * |det(1 + X)|.
GENERIC_TOL = 1e-10


class NonGenericError(ValueError):
    """A leading minor (or sign-flipped determinant) vanished at step ``index``."""

    def __init__(self, index: int, magnitude: float, route: str):
        self.index = index
        self.magnitude = magnitude
        self.route = route
        super().__init__(
            f"non-generic input: |minor| = {magnitude:.3e} at step {index} ({route})")


def _minor_cutoffs(A) -> np.ndarray:
    """Cutoff for the k-th leading minor: GENERIC_TOL * (max-norm)**k, k = 1..n."""
    return GENERIC_TOL * max_abs(A) ** np.arange(1, A.shape[0] + 1)


def _screened_ratios(values: np.ndarray, cutoffs=None):
    """The genericity check and telescoping ratios of a determinant table,
    or of every table in a stack of them, in one vectorized pass.

    ``values`` has shape ``(..., n + 1)``, and step k = 1..n is refused when
    ``|values[..., k]| <= cutoffs[..., k - 1]``; without ``cutoffs`` the
    table is a flipped one, whose cutoffs come from the same magnitudes, so
    ``np.hypot`` runs once over it.  Magnitudes come from ``np.hypot``,
    which rounds as ``abs(complex)`` does, and the first refused k of each
    table is found by ``argmax``; a NaN magnitude or cutoff refuses
    nothing, as a scalar comparison would not.

    Returns ``(refusals, ratios)``.  ``refusals`` is None when no table
    refuses a step, else the first refused step of each table (0 for a
    table with none) and its magnitude.  ``ratios`` holds
    ``values[..., k] / values[..., k - 1]``, k = 1..n, of every table that
    refuses nothing, and NaN in a table that refuses, whose divisions are
    never made.
    """
    mag = np.hypot(values.real, values.imag)
    if cutoffs is None:
        # det(1 + I_k X) = det(g[k]) det(1 + X) and the unitary image g has
        # max-norm at most 1: the image cutoff rescaled by |det(1 + X)|
        cutoffs = GENERIC_TOL * np.maximum(mag[..., :1], 1e-300)
    mag = mag[..., 1:]
    fail = mag <= cutoffs
    # the first True of the flattened table, if any; cheaper than fail.any()
    # on the short tables of a single draw
    if not fail.size or not fail.flat[fail.argmax()]:
        return None, values[..., 1:] / values[..., :-1]
    first = fail.argmax(axis=-1)[..., None]
    refused = fail.any(axis=-1)
    ratios = np.divide(values[..., 1:], values[..., :-1], where=~refused[..., None],
                       out=np.full(mag.shape, np.nan, dtype=complex))
    steps = np.where(refused, first[..., 0] + 1, 0)
    return (steps, np.take_along_axis(mag, first, axis=-1)[..., 0]), ratios


def _passed(route: str, refusals, ratios) -> np.ndarray:
    """``ratios`` of one :func:`_screened_ratios` table; its first refused
    step raises :class:`NonGenericError` with its magnitude and ``route``."""
    if refusals is None:
        return ratios
    raise NonGenericError(int(refusals[0]), float(refusals[1]), route)


@dataclass
class LDUFactorization:
    """Unit lower L, diagonal D, unit upper U with ``L @ D @ U`` the input."""

    L: np.ndarray
    D: np.ndarray
    U: np.ndarray


@dataclass
class DiagonalReport:
    """Diagonal entries with their method tag.

    A route returns a report only for an input that is generic at every
    step; otherwise it raises :class:`NonGenericError`.  ``product`` is
    the product of the entries, which equals the determinant of the
    underlying group element.  The ``cayley_det`` route also attaches its
    minor-identity residual (`lemma3_residual`), which is not part of the
    JSON form.
    """

    method: str
    entries: np.ndarray
    product: complex
    lemma3_residual: Optional[float] = None

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "entries": array_to_json(self.entries),
            "product": array_to_json(self.product),
        }


def _report(method: str, entries: np.ndarray) -> DiagonalReport:
    entries = np.asarray(entries, dtype=complex)
    return DiagonalReport(method=method, entries=entries, product=complex(entries.prod()))


def _ratio_report(route: str, values: np.ndarray, cutoffs=None) -> DiagonalReport:
    """The report of ``route`` from its determinant table ``values``, screened
    on ``cutoffs`` (flipped cutoffs when None)."""
    return _report(route, _passed(route, *_screened_ratios(values, cutoffs)))


def _eliminate(A: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
    """Unpivoted elimination of ``A`` in place; returns the pivots.

    Step k divides column k below the diagonal by the pivot, stores those
    multipliers there and updates only ``A[k+1:, k+1:]``, so on return
    the strict lower triangle holds ``L`` and the upper triangle holds
    ``D U``.  The running product of the pivots is the k-th leading
    minor; the first that falls to its cutoff (``_minor_cutoffs`` of the
    input) raises :class:`NonGenericError` with step k.
    """
    n = A.shape[0]
    minor = 1.0 + 0.0j
    for k in range(n):
        pivot = A[k, k]
        minor *= pivot
        if abs(minor) <= cutoffs[k]:
            raise NonGenericError(k + 1, abs(minor), "gauss")
        if k + 1 < n:
            mult = A[k + 1:, k] / pivot
            A[k + 1:, k] = mult
            A[k + 1:, k + 1:] -= np.outer(mult, A[k, k + 1:])
    return A.diagonal().copy()


def ldu(g) -> LDUFactorization:
    """Triangular factorization by elimination without row exchanges.

    Pivoting is deliberately absent: a vanishing pivot means the input
    sits outside the top cell, and the failing step index is the witness,
    reported through :class:`NonGenericError`.
    """
    A = as_matrix(g).copy()
    pivots = _eliminate(A, _minor_cutoffs(A))
    L = np.tril(A, -1)
    np.fill_diagonal(L, 1.0)
    U = (np.triu(A).T / pivots).T
    np.fill_diagonal(U, 1.0)  # complex self-division is not exactly 1
    return LDUFactorization(L=L, D=np.diag(pivots), U=U)


def _leading_minors(g: np.ndarray) -> np.ndarray:
    """``det(g[k])``, k = 0..n, of a validated matrix (the empty minor is 1),
    each block straight to LAPACK."""
    n = g.shape[0]
    out = np.empty(n + 1, dtype=complex)
    out[0] = 1.0
    for k in range(1, n + 1):
        out[k] = np.linalg.det(g[:k, :k])
    return out


def _lemma3_residual(dets: np.ndarray, minors: np.ndarray) -> float:
    """Worst relative residual of the minor identity
    ``det(g[k]) det(1 + X) = det(1 + I_k X)`` over k = 1..n, from the flipped
    stack ``dets`` and the leading ``minors`` of ``g = cayley(X)``."""
    scale = np.maximum(1.0, np.abs(dets[1:]))
    return float((np.abs(minors[1:] * dets[0] - dets[1:]) / scale).max(initial=0.0))


class _Input:
    """One input of the routes, a validated ``X`` with its ``spec`` or a
    validated ``g`` alone, with each table the routes share built the first
    time one reads it: ``g = cayley(X)``, validated once, its minor cutoffs
    and leading minors, the split stack ``dets`` and its one screened pass.
    A ``g`` or ``dets`` built already, such as a draw's stack, is passed in."""

    __slots__ = ("X", "spec", "_g", "_cutoffs", "_minors", "_dets", "_screened")

    def __init__(self, X=None, spec=None, g=None, dets=None):
        self.X, self.spec, self._g, self._dets = X, spec, g, dets
        self._cutoffs = self._minors = self._screened = None

    @property
    def g(self) -> np.ndarray:
        if self._g is None:
            self._g = as_matrix(_cayley(self.X))
        return self._g

    @property
    def cutoffs(self) -> np.ndarray:
        if self._cutoffs is None:
            self._cutoffs = _minor_cutoffs(self.g)
        return self._cutoffs

    @property
    def minors(self) -> np.ndarray:
        if self._minors is None:
            self._minors = _leading_minors(self.g)
        return self._minors

    @property
    def dets(self) -> np.ndarray:
        if self._dets is None:
            self._dets = _flipped_stack(self.spec, self.X)
        return self._dets

    @property
    def screened(self):
        if self._screened is None:
            self._screened = _screened_ratios(self.dets)
        return self._screened


def _gauss(t: _Input) -> DiagonalReport:
    return _report("gauss", _eliminate(t.g.copy(), t.cutoffs))


def _minor_ratio(t: _Input) -> DiagonalReport:
    return _ratio_report("minor_ratio", t.minors, t.cutoffs)


def _cayley_det(t: _Input) -> DiagonalReport:
    report = _report("cayley_det", _passed("cayley_det", *t.screened))
    report.lemma3_residual = _lemma3_residual(t.dets, t.minors)
    return report


def _fredholm(t: _Input) -> DiagonalReport:
    return _ratio_report("fredholm", _minor_expansion(t.X))


def _coroot_product(t: _Input) -> DiagonalReport:
    _passed("coroot_product", *t.screened)  # refuses as cayley_det does
    E = coroots(t.spec)
    ratios = t.dets[1:len(E) + 1] / t.dets[0]
    return _report("coroot_product", np.prod(ratios[:, None] ** E, axis=0))


#: Every route by name, in cross-check order: one function of an :class:`_Input`.
ROUTES = {"gauss": _gauss, "minor_ratio": _minor_ratio, "cayley_det": _cayley_det,
          "fredholm": _fredholm, "coroot_product": _coroot_product}


def diagonal_via_gauss(g) -> DiagonalReport:
    """Diagonal as the elimination pivots; ``L`` and ``U`` are never built."""
    return _gauss(_Input(g=as_matrix(g)))


def diagonal_via_minors(g) -> DiagonalReport:
    """Diagonal as the telescoping ratios of leading principal minors."""
    return _minor_ratio(_Input(g=as_matrix(g)))


def diagonal_via_cayley(X, spec: SpaceSpec) -> DiagonalReport:
    """Diagonal of the Cayley image directly from ``det(1 + I_k X)`` ratios.

    Also evaluates, as a side diagnostic, the worst relative residual of
    the minor identity ``det(g[k]) det(1 + X) = det(1 + I_k X)`` over k,
    building ``g = cayley(X)`` and its leading minors only once the ratios
    have passed the genericity check.
    """
    return _cayley_det(_Input(as_matrix(X), spec))


def diagonal_via_fredholm(X) -> DiagonalReport:
    """Same ratios with every determinant built from principal minors.

    The 2**n principal minors of ``X`` are computed once and each
    ``det(1 + I_k X)`` is their sum with the signs of flip k (see
    :func:`~bruhatdiag.linalg.flipped_minor_expansion`).  A minor is
    factored only if the nonzero pattern of ``X`` itself allows it to be
    nonzero: on a bipartite pattern, such as a tangent of AIII, DIII, CI,
    CII or BDI_even, the minors on subsets with unequal counts of the two
    colours are identically 0 (Frobenius-König) and are skipped, which
    changes no bit of the output.  Only principal submatrices of ``X`` are
    factorized, never ``1 + I_k X``, so this route is capped at
    :data:`~bruhatdiag.linalg.EXPANSION_CAP` and serves as the independent
    combinatorial oracle for :func:`diagonal_via_cayley`.
    """
    return _fredholm(_Input(as_matrix(X)))


def diagonal_via_coroots(spec: SpaceSpec, X) -> DiagonalReport:
    """Diagonal as a product of determinant ratios raised to integer exponents.

    Entry ``j`` is the product over k of
    ``(det(1 + I_k X)/det(1 + X)) ** E[k-1, j]`` with ``E`` the family's
    exponent table (:func:`~bruhatdiag.spaces.coroots`).  The exponents
    are integers, so the arithmetic stays in integer powers only and no
    root branch is ever chosen.  Requires ``X`` to be a tangent of
    ``spec``.  The whole stack is checked as :func:`diagonal_via_cayley`
    checks it, so the two routes refuse the same inputs at the same step,
    even at indices no exponent reads.
    """
    return _coroot_product(_Input(as_matrix(X), spec))


def run_route(route: str, X, spec: SpaceSpec) -> DiagonalReport:
    """The report of the :data:`ROUTES` entry ``route`` on a tangent ``X`` of
    ``spec``, as its ``diagonal_via_*`` function gives it on ``X`` or, for
    ``gauss`` and ``minor_ratio``, on ``cayley(X)``."""
    return ROUTES[route](_Input(as_matrix(X), spec))


def _run_routes(t: _Input) -> dict[str, DiagonalReport]:
    """Every :data:`ROUTES` entry on ``t``, ``fredholm`` within the expansion cap."""
    return {name: route(t) for name, route in ROUTES.items()
            if route is not _fredholm or t.X.shape[0] <= EXPANSION_CAP}


def cross_check(X, spec: SpaceSpec) -> dict[str, DiagonalReport]:
    """Run every applicable route on a tangent matrix, on one :class:`_Input`.

    Returns a dict keyed by method tag, in :data:`ROUTES` order.  The
    Fredholm route joins only when ``X`` is within the expansion cap.
    Each report and each error equals the one the standalone route gives.
    """
    return _run_routes(_Input(as_matrix(X), spec))


def max_cross_gap(reports: dict[str, DiagonalReport]) -> float:
    """Worst entrywise :func:`~bruhatdiag.linalg.relative_gap` over all pairs
    of reports.

    All ordered pairs are compared at once; the gap is symmetric and a
    report against itself gives 0, so the maximum is the pairwise one, and
    a finite result equals a scalar loop over the pairs exactly.  A NaN
    gap makes the result NaN, so a route that returned NaN never reads as
    agreement.
    """
    if not reports:
        return 0.0
    n = min(len(r.entries) for r in reports.values())
    E = np.stack([r.entries[:n] for r in reports.values()])
    return float(relative_gap(E[:, None], E[None]).max(initial=0.0))


@dataclass(frozen=True)
class Draw:
    """One checked random draw: every route's report, the worst gap
    between them (:func:`max_cross_gap`) and the worst membership
    violation of the image (:func:`~bruhatdiag.cayley.verify_image`)."""

    reports: dict[str, DiagonalReport]
    gap: float
    membership: float


def check_draw(spec: SpaceSpec, rng: np.random.Generator, radius: float = 0.7) -> Draw:
    """Draw a tangent of ``spec`` as :func:`~bruhatdiag.spaces.random_coordinates`
    does, on the same stream, and check it.

    The routes read the stack the draw was accepted on and the membership
    check reads their image ``g = cayley(X)``; the result equals
    :func:`cross_check`, :func:`max_cross_gap` and ``verify_image``.
    """
    _, X, dets = _draw_tangent(spec, rng, radius)
    t = _Input(X, spec, dets=dets)  # the draw loop validated X
    reports = _run_routes(t)
    membership = max(_verify_image(spec, t.g).violations.values())
    return Draw(reports, max_cross_gap(reports), membership)
