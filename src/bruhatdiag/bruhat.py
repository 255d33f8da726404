"""Unpivoted LDU factorization and the diagonal factor by several routes.

For a generic matrix (all leading principal minors nonzero) the
factorization ``g = L D U`` with unit-triangular ``L``, ``U`` is unique and
``D`` consists of the telescoping minor ratios.  In Cayley coordinates the
same diagonal is a ratio of determinants ``det(1 + I_k X)`` with ``I_k``
the leading sign flip, and each of those determinants expands into a sum
of principal minors of ``X``.  The routes below compute the one quantity
along independent paths so they can be cross checked:

* ``diagonal_via_gauss``      -- elimination pivots (no row exchanges)
* ``diagonal_via_minors``     -- leading principal minor ratios of ``g``
* ``diagonal_via_cayley``     -- sign-flipped determinant ratios in ``X``
* ``diagonal_via_fredholm``   -- principal-minor expansion of those determinants
* ``diagonal_via_coroots``    -- determinant ratios raised to an integer exponent table

Each route reads one determinant table: the leading minors of ``g`` for
``minor_ratio``, the stacked ``det(1 + I_k X)`` for ``cayley_det`` and
``coroot_product``, the principal-minor table for ``fredholm``.
:func:`cross_check` builds ``g = cayley(X)``, the leading minors and the
flipped stack once per tangent and hands them to every report that reads
them, including the minor-identity residual of ``cayley_det``; only
bitwise-identical recomputation is shared, never one route's result with
another route.

A route returns a report only for an input that is generic at every
step, and otherwise raises :class:`NonGenericError` with the step.
``gauss`` and ``minor_ratio`` cut leading minors of ``g`` on ``g``'s
scale; ``cayley_det``, ``fredholm`` and ``coroot_product`` cut every
``det(1 + I_k X)``, k = 1..N, on the scale of ``det(1 + X)`` through one
check, so the two routes that read the flipped stack refuse the same
inputs at the same step.  :func:`_ratio_report` is the one path from a
table to a report for ``minor_ratio``, ``cayley_det``, ``fredholm`` and
the refusal of ``coroot_product``; ``gauss`` keeps its in-loop check and
``coroot_product`` its powers of ``dets[k] / dets[0]``.

:func:`check_draw` is the one checked random draw, as ``bruhatdiag
verify`` and the acceptance sweep make it: the rejection loop of
:func:`~bruhatdiag.spaces.random_coordinates` hands over the tangent and
flipped stack it accepted the draw on, and one ``g = cayley(X)`` serves
the routes and the membership check, so a draw builds each once.

The routes that read the flipped stack take the family spec of ``X`` and
build it with :func:`~bruhatdiag.spaces._flipped_stack`, the one place a
stack is split on the spec's zero block T, as the draw loop and the limit
checks do.  A tangent is zero on ``T x T`` and on its zero rows, so each
``det(1 + I_k X)`` is the ``p x p`` determinant of a Schur complement on
the unit block ``(1 + I_k X)_TT`` (see
:func:`~bruhatdiag.linalg.flipped_determinants`); a matrix that is not
zero on T is refused with ``ValueError``.  ``cayley_det`` and
``coroot_product`` still read ``X`` alone, never ``g``.
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
    flipped_minor_expansion,
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
    """The report of ``route``: the ratios ``values[k] / values[k - 1]`` of its
    determinant table, k = 1..n, from one :func:`_screened_ratios` pass
    (flipped cutoffs when ``cutoffs`` is None); the first refused step
    raises :class:`NonGenericError` with its magnitude and ``route``."""
    refused, ratios = _screened_ratios(values, cutoffs)
    if refused is not None:
        step, magnitude = refused
        raise NonGenericError(int(step), float(magnitude), route)
    return _report(route, ratios)


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


def diagonal_via_gauss(g) -> DiagonalReport:
    """Diagonal as the elimination pivots; ``L`` and ``U`` are never built."""
    g = as_matrix(g)
    return _report("gauss", _eliminate(g.copy(), _minor_cutoffs(g)))


def _leading_minors(g: np.ndarray) -> np.ndarray:
    """``det(g[k])``, k = 0..n, of a validated matrix (the empty minor is 1),
    each block straight to LAPACK: the table :func:`cross_check` shares
    between ``minor_ratio`` and the ``cayley_det`` minor-identity residual."""
    n = g.shape[0]
    out = np.empty(n + 1, dtype=complex)
    out[0] = 1.0
    for k in range(1, n + 1):
        out[k] = np.linalg.det(g[:k, :k])
    return out


def diagonal_via_minors(g) -> DiagonalReport:
    """Diagonal as the telescoping ratios of leading principal minors."""
    g = as_matrix(g)
    return _ratio_report("minor_ratio", _leading_minors(g), _minor_cutoffs(g))


def _lemma3_residual(dets: np.ndarray, minors: np.ndarray) -> float:
    """Worst relative residual of the minor identity
    ``det(g[k]) det(1 + X) = det(1 + I_k X)`` over k = 1..n, from the flipped
    stack ``dets`` and the leading ``minors`` of ``g = cayley(X)``."""
    scale = np.maximum(1.0, np.abs(dets[1:]))
    return float((np.abs(minors[1:] * dets[0] - dets[1:]) / scale).max(initial=0.0))


def diagonal_via_cayley(X, spec: SpaceSpec) -> DiagonalReport:
    """Diagonal of the Cayley image directly from ``det(1 + I_k X)`` ratios.

    Also evaluates, as a side diagnostic, the worst relative residual of
    the minor identity ``det(g[k]) det(1 + X) = det(1 + I_k X)`` over k.
    Called on its own, the route builds ``g = cayley(X)`` and its leading
    minors for that residual once the ratios have passed the genericity
    check; :func:`cross_check` builds the same report from the ``g``,
    minors and flipped stack it shares with the other routes.
    """
    X = as_matrix(X)
    dets = _flipped_stack(spec, X)
    report = _ratio_report("cayley_det", dets)
    report.lemma3_residual = _lemma3_residual(dets, _leading_minors(_cayley(X)))
    return report


def diagonal_via_fredholm(X) -> DiagonalReport:
    """Same ratios with every determinant built from principal minors.

    The 2**n principal minors of ``X`` are computed once and each
    ``det(1 + I_k X)`` is their sum with the signs of flip k (see
    :func:`~bruhatdiag.linalg.flipped_minor_expansion`).  A minor is
    factored only if the nonzero pattern of ``X`` itself allows it to be
    nonzero: on a bipartite pattern, such as a tangent of AIII, DIII, CI,
    CII or BDI_even, the minors on subsets with unequal counts of the two
    colours are identically 0 (Frobenius-König) and are skipped, which
    changes no bit of the output.  Only principal
    submatrices of ``X`` are factorized, never ``1 + I_k X``, so this
    route is capped at :data:`~bruhatdiag.linalg.EXPANSION_CAP` and serves
    as the independent combinatorial oracle for :func:`diagonal_via_cayley`.
    """
    return _ratio_report("fredholm", flipped_minor_expansion(X))


def _coroot_report(spec: SpaceSpec, dets: np.ndarray) -> DiagonalReport:
    """Report of a flipped stack ``dets`` that has passed the flipped check."""
    E = coroots(spec)
    ratios = dets[1:len(E) + 1] / dets[0]
    return _report("coroot_product", np.prod(ratios[:, None] ** E, axis=0))


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
    dets = _flipped_stack(spec, as_matrix(X))
    _ratio_report("coroot_product", dets)  # refuses as cayley_det does
    return _coroot_report(spec, dets)


def cross_check(X, spec: SpaceSpec) -> dict[str, DiagonalReport]:
    """Run every applicable route on a tangent matrix.

    Returns a dict keyed by method tag.  The Fredholm route joins only
    when ``X`` is within the expansion cap.

    ``g = cayley(X)``, its leading minors and the flipped stack
    ``det(1 + I_k X)`` are built once here: ``gauss`` reads ``g``,
    ``minor_ratio`` and the ``cayley_det`` residual read the minors,
    ``cayley_det`` and ``coroot_product`` read the stack, which is
    checked once, for ``cayley_det``: ``coroot_product`` applies the same
    check to the same stack, so it cannot refuse what ``cayley_det``
    passed.  Each report and each error equals the one the standalone
    route gives.  ``X`` and ``g`` are validated once each, and the minor
    cutoffs of ``g`` are computed once, for ``gauss`` and ``minor_ratio``.
    """
    X = as_matrix(X)
    return _cross_check(X, spec, _cayley(X))


def _cross_check(X: np.ndarray, spec: SpaceSpec, g: np.ndarray,
                 dets: Optional[np.ndarray] = None) -> dict[str, DiagonalReport]:
    """:func:`cross_check` on the validated ``X`` with its image ``g``, which
    is validated here, and, if already built, its flipped stack ``dets``;
    a missing stack is built after ``gauss`` and ``minor_ratio``, so errors
    come in the same order."""
    g = as_matrix(g)
    cutoffs = _minor_cutoffs(g)
    minors = _leading_minors(g)
    out = {
        "gauss": _report("gauss", _eliminate(g.copy(), cutoffs)),
        "minor_ratio": _ratio_report("minor_ratio", minors, cutoffs),
    }
    if dets is None:
        dets = _flipped_stack(spec, X)
    out["cayley_det"] = _ratio_report("cayley_det", dets)
    out["cayley_det"].lemma3_residual = _lemma3_residual(dets, minors)
    if X.shape[0] <= EXPANSION_CAP:
        out["fredholm"] = _ratio_report("fredholm", _minor_expansion(X))
    out["coroot_product"] = _coroot_report(spec, dets)
    return out


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

    The tangent and flipped stack the draw was accepted on, and one image
    ``g = cayley(X)``, serve every route and the membership check; the
    result equals :func:`cross_check`, :func:`max_cross_gap` and
    ``verify_image(spec, cayley(X))`` on the drawn ``X``.
    """
    _, X, dets = _draw_tangent(spec, rng, radius)
    g = _cayley(X)  # the draw loop validated X
    reports = _cross_check(X, spec, g, dets)  # validates g
    membership = max(_verify_image(spec, g).violations.values())
    return Draw(reports, max_cross_gap(reports), membership)
