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
* ``diagonal_via_coroots``    -- determinant ratios raised to exponent vectors

Each route reads one determinant table: the leading minors of ``g`` for
``minor_ratio``, the stacked ``det(1 + I_k X)`` for ``cayley_det`` and
``coroot_product``, the principal-minor table for ``fredholm``.
:func:`cross_check` builds ``g = cayley(X)``, the leading minors and the
flipped stack once per tangent and hands them to every report that reads
them, including the minor-identity residual of ``cayley_det``; only
bitwise-identical recomputation is shared, never one route's result with
another route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cayley import cayley
from .linalg import (
    EXPANSION_CAP,
    as_matrix,
    complex_to_pair,
    flipped_determinants,
    flipped_minor_expansion,
    max_abs,
    principal_minor_terms,
)
from .spaces import CorootSystem, SpaceSpec, coroots

#: Coefficient of the scale-aware genericity cutoff: a leading minor of a
#: matrix with max-norm M counts as vanishing when |minor| <= GENERIC_TOL * M**k.
GENERIC_TOL = 1e-10


class NonGenericError(ValueError):
    """A leading minor (or sign-flipped determinant) vanished at step ``index``."""

    def __init__(self, index: int, magnitude: float, route: str):
        self.index = index
        self.magnitude = magnitude
        self.route = route
        super().__init__(
            f"non-generic input: |minor| = {magnitude:.3e} at step {index} ({route})")


class BranchAmbiguityError(ArithmeticError):
    """A half exponent met a ratio without a positive real value."""


def _minor_cutoffs(A, tol_factor: float) -> np.ndarray:
    """Cutoff for the k-th leading minor: tol * (max-norm)**k, k = 1..n."""
    n = np.asarray(A).shape[0]
    scale = max_abs(A)
    if scale == 0.0:
        return np.zeros(n)
    return tol_factor * scale ** np.arange(1, n + 1)


def _flipped_cutoffs(det_plus: complex, n: int, tol_factor: float) -> np.ndarray:
    """Cutoffs for |det(1 + I_k X)|, k = 1..n.

    The minor identity det(1 + I_k X) = det(g[k]) det(1 + X) reduces
    genericity of a tangent to genericity of its unitary image, whose
    max-norm is at most 1; so the image cutoff rescales by |det(1 + X)|.
    """
    return np.full(n, tol_factor * max(abs(det_plus), 1e-300))


def _checked_ratios(values: np.ndarray, cutoffs: np.ndarray, route: str) -> np.ndarray:
    """Telescoping ratios ``values[k] / values[k - 1]``, k = 1..n.

    Every ``|values[k]|`` must clear ``cutoffs[k - 1]``; the first that
    does not raises :class:`NonGenericError` with step k and ``route``.
    """
    for k in range(1, len(values)):
        if abs(values[k]) <= cutoffs[k - 1]:
            raise NonGenericError(k, abs(values[k]), route)
    return values[1:] / values[:-1]


def _flipped_ratios(dets: np.ndarray, tol_factor: float, route: str) -> np.ndarray:
    """Checked ratios of the flipped determinants ``det(1 + I_k X)``, k = 0..n."""
    return _checked_ratios(dets, _flipped_cutoffs(dets[0], len(dets) - 1, tol_factor), route)


def _check_ambient(X: np.ndarray, spec: SpaceSpec) -> None:
    if X.shape[0] != spec.ambient:
        raise ValueError(f"matrix has shape {X.shape}, ambient size is {spec.ambient}")


@dataclass
class LDUFactorization:
    """Unit lower L, diagonal D, unit upper U with ``L @ D @ U`` the input."""

    L: np.ndarray
    D: np.ndarray
    U: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.L @ self.D @ self.U

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.D).copy()


@dataclass
class DiagonalReport:
    """Diagonal entries with their method tag and genericity flags.

    ``product`` is the product of the entries, which equals the
    determinant of the underlying group element.  Extra diagnostics
    (`lemma3_residual`, `min_abs_minor`) are attached by some routes and
    are not part of the JSON form.
    """

    method: str
    entries: np.ndarray
    generic: list[bool]
    product: complex
    lemma3_residual: Optional[float] = None
    min_abs_minor: Optional[float] = None

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "entries": [complex_to_pair(z) for z in self.entries],
            "generic": list(self.generic),
            "product": complex_to_pair(self.product),
        }


def _report(method: str, entries: np.ndarray, generic, **extra) -> DiagonalReport:
    entries = np.asarray(entries, dtype=complex)
    return DiagonalReport(
        method=method,
        entries=entries,
        generic=[bool(b) for b in generic],
        product=complex(np.prod(entries)) if entries.size else 1.0 + 0.0j,
        **extra,
    )


def ldu(g, tol_factor: float = GENERIC_TOL) -> LDUFactorization:
    """Triangular factorization by elimination without row exchanges.

    Pivoting is deliberately absent: a vanishing pivot means the input
    sits outside the top cell, and the failing step index is the witness,
    reported through :class:`NonGenericError`.
    """
    A = as_matrix(g).copy()
    n = A.shape[0]
    cutoffs = _minor_cutoffs(A, tol_factor)
    L = np.eye(n, dtype=complex)
    minor = 1.0 + 0.0j
    pivots = np.zeros(n, dtype=complex)
    for k in range(n):
        pivot = A[k, k]
        minor *= pivot
        if abs(minor) <= cutoffs[k]:
            raise NonGenericError(k + 1, abs(minor), "gauss")
        pivots[k] = pivot
        if k + 1 < n:
            mult = A[k + 1:, k] / pivot
            L[k + 1:, k] = mult
            A[k + 1:, k:] -= np.outer(mult, A[k, k:])
    U = np.triu(A)
    D = np.diag(pivots)
    U = (U.T / pivots).T
    np.fill_diagonal(U, 1.0)  # complex self-division is not exactly 1
    return LDUFactorization(L=L, D=D, U=U)


def diagonal_via_gauss(g, tol_factor: float = GENERIC_TOL) -> DiagonalReport:
    fac = ldu(g, tol_factor=tol_factor)
    entries = fac.diagonal
    return _report("gauss", entries, [True] * len(entries))


def leading_minors(g) -> np.ndarray:
    """``det(g[k])`` for k = 0..n, with the empty minor equal to 1.

    ``g`` is validated once and each block goes straight to LAPACK.  This
    is the table :func:`cross_check` shares between ``minor_ratio`` and
    the ``cayley_det`` minor-identity residual.
    """
    g = as_matrix(g)
    n = g.shape[0]
    out = np.empty(n + 1, dtype=complex)
    out[0] = 1.0
    for k in range(1, n + 1):
        out[k] = np.linalg.det(g[:k, :k])
    return out


def point_genericity(g, tol_factor: float = GENERIC_TOL) -> list[bool]:
    """Per-k flags: leading principal minor k of ``g`` clears the cutoff."""
    g = as_matrix(g)
    minors = leading_minors(g)[1:]
    cutoffs = _minor_cutoffs(g, tol_factor)
    return [bool(abs(m) > c) for m, c in zip(minors, cutoffs)]


def _minor_ratio_report(g: np.ndarray, minors: np.ndarray,
                        tol_factor: float) -> DiagonalReport:
    entries = _checked_ratios(minors, _minor_cutoffs(g, tol_factor), "minor_ratio")
    return _report(
        "minor_ratio", entries, [True] * len(entries),
        min_abs_minor=float(np.abs(minors[1:]).min()) if len(minors) > 1 else None,
    )


def diagonal_via_minors(g, tol_factor: float = GENERIC_TOL) -> DiagonalReport:
    """Diagonal as the telescoping ratios of leading principal minors."""
    g = as_matrix(g)
    return _minor_ratio_report(g, leading_minors(g), tol_factor)


def _clears_cutoffs(dets: np.ndarray, cutoffs: np.ndarray) -> list[bool]:
    """Per-k flags ``|dets[k]| > cutoffs[k - 1]``, k = 1..n."""
    return [bool(abs(d) > c) for d, c in zip(dets[1:], cutoffs)]


def tangent_genericity(X, tol_factor: float = GENERIC_TOL) -> list[bool]:
    """Per-k flags: |det(1 + I_k X)| clears the cutoff, k = 1..n."""
    X = as_matrix(X)
    dets = flipped_determinants(X)
    return _clears_cutoffs(dets, _flipped_cutoffs(dets[0], X.shape[0], tol_factor))


def _cayley_det_report(dets: np.ndarray, entries: np.ndarray,
                       minors: np.ndarray) -> DiagonalReport:
    """Report of the checked ``dets`` ratios ``entries``, with the minor-identity
    residual taken against the leading ``minors`` of ``g = cayley(X)``."""
    if len(dets) > 1:
        scale = np.maximum(1.0, np.abs(dets[1:]))
        residual = float((np.abs(minors[1:] * dets[0] - dets[1:]) / scale).max())
    else:
        residual = 0.0
    return _report(
        "cayley_det", entries, [True] * len(entries),
        lemma3_residual=residual,
        min_abs_minor=float(np.abs(dets[1:]).min()) if len(dets) > 1 else None,
    )


def diagonal_via_cayley(X, spec: Optional[SpaceSpec] = None,
                        tol_factor: float = GENERIC_TOL) -> DiagonalReport:
    """Diagonal of the Cayley image directly from ``det(1 + I_k X)`` ratios.

    Also evaluates, as a side diagnostic, the worst relative residual of
    the minor identity ``det(g[k]) det(1 + X) = det(1 + I_k X)`` over k.
    Called on its own, the route builds ``g = cayley(X)`` and its leading
    minors for that residual once the ratios have passed the genericity
    check; :func:`cross_check` builds the same report from the ``g``,
    minors and flipped stack it shares with the other routes.
    """
    X = as_matrix(X)
    if spec is not None:
        _check_ambient(X, spec)
    dets = flipped_determinants(X)
    entries = _flipped_ratios(dets, tol_factor, "cayley_det")
    return _cayley_det_report(dets, entries, leading_minors(cayley(X)))


def diagonal_via_fredholm(X, cap: int = EXPANSION_CAP,
                          tol_factor: float = GENERIC_TOL) -> DiagonalReport:
    """Same ratios with every determinant built from principal minors.

    The 2**n principal minors of ``X`` are computed once and each
    ``det(1 + I_k X)`` is their sum with the signs of flip k (see
    :func:`~bruhatdiag.linalg.flipped_minor_expansion`).  Only principal
    submatrices of ``X`` are factorized, never ``1 + I_k X``, so this
    route is capped and serves as the independent combinatorial oracle
    for :func:`diagonal_via_cayley`.
    """
    dets = flipped_minor_expansion(X, cap)
    entries = _flipped_ratios(dets, tol_factor, "fredholm")
    return _report("fredholm", entries, [True] * len(entries))


def unbalanced_minor_max(X, m: int) -> float:
    """Largest |principal minor| of ``X`` picking unequal counts from the
    leading ``m`` rows and the trailing rows.

    For a matrix whose diagonal blocks at the split ``m`` vanish, every
    such minor is zero: only square off-diagonal sub-blocks contribute to
    the expansion of ``det(1 + I_k X)``.
    """
    X = as_matrix(X)
    worst = 0.0
    for alpha, minor in principal_minor_terms(X):
        upper = sum(1 for i in alpha if i <= m)
        if upper != len(alpha) - upper:
            worst = max(worst, abs(minor))
    return worst


def _coroot_report(spec: SpaceSpec, dets: np.ndarray, tol_factor: float) -> DiagonalReport:
    N = spec.ambient
    system: CorootSystem = coroots(spec)
    cutoffs = _flipped_cutoffs(dets[0], N, tol_factor)
    if abs(dets[0]) <= tol_factor:
        raise NonGenericError(0, abs(dets[0]), "coroot_product")
    needed = set(system.product_indices)
    if system.terminal_index is not None:
        needed.add(system.terminal_index)
    for k in sorted(needed):
        if abs(dets[k]) <= cutoffs[k - 1]:
            raise NonGenericError(k, abs(dets[k]), "coroot_product")

    ratios = dets / dets[0]
    entries = np.ones(N, dtype=complex)
    for k in system.product_indices:
        exps = system.vector(k)
        nz = exps != 0
        entries[nz] *= ratios[k] ** exps[nz]
    if system.terminal_index is not None:
        r = ratios[system.terminal_index]
        for j, num in enumerate(system.terminal_numerators):
            if num == 0:
                continue
            if num % 2 == 0:
                entries[j] *= r ** (num // 2)
            else:
                # Odd numerator would need a square root of the ratio.
                if abs(r.imag) > 1e-12 * abs(r) or r.real <= 0:
                    raise BranchAmbiguityError(
                        f"half exponent {num}/2 on non-positive ratio {r!r}")
                entries[j] *= np.sqrt(r.real) ** num
    return _report("coroot_product", entries, _clears_cutoffs(dets, cutoffs))


def diagonal_via_coroots(spec: SpaceSpec, X,
                         tol_factor: float = GENERIC_TOL) -> DiagonalReport:
    """Diagonal as a product of determinant ratios raised to exponent vectors.

    Entry ``j`` is the product over the family's ratio indices ``k`` of
    ``(det(1 + I_k X)/det(1 + X)) ** e_k[j]``.  The terminal factor's
    exponents arrive as halves; for every family here the numerators are
    even, so the arithmetic stays in integer powers and no root branch is
    ever chosen.  Requires ``X`` to be a tangent of ``spec``.
    """
    X = as_matrix(X)
    _check_ambient(X, spec)
    return _coroot_report(spec, flipped_determinants(X), tol_factor)


def relative_gap(a, b) -> float:
    """Scale-aware gap |a - b| / max(1, |a|, |b|) between two complex values."""
    a, b = complex(a), complex(b)
    return abs(a - b) / max(1.0, abs(a), abs(b))


def cross_check(X, spec: Optional[SpaceSpec] = None,
                cap: int = EXPANSION_CAP,
                tol_factor: float = GENERIC_TOL) -> dict[str, DiagonalReport]:
    """Run every applicable route on a tangent matrix.

    Returns a dict keyed by method tag.  The Fredholm route joins only
    when the ambient size is within the expansion cap; the exponent
    product route joins when a family spec is supplied.

    ``g = cayley(X)``, its leading minors and the flipped stack
    ``det(1 + I_k X)`` are built once here: ``gauss`` reads ``g``,
    ``minor_ratio`` and the ``cayley_det`` residual read the minors,
    ``cayley_det`` and ``coroot_product`` read the stack.  Each report
    and each error equals the one the standalone route gives.
    """
    X = as_matrix(X)
    g = cayley(X)
    minors = leading_minors(g)
    dets = flipped_determinants(X)
    out = {
        "gauss": diagonal_via_gauss(g, tol_factor),
        "minor_ratio": _minor_ratio_report(g, minors, tol_factor),
    }
    if spec is not None:
        _check_ambient(X, spec)
    out["cayley_det"] = _cayley_det_report(
        dets, _flipped_ratios(dets, tol_factor, "cayley_det"), minors)
    if X.shape[0] <= cap:
        out["fredholm"] = diagonal_via_fredholm(X, cap, tol_factor)
    if spec is not None:
        out["coroot_product"] = _coroot_report(spec, dets, tol_factor)
    return out


def max_cross_gap(reports: dict[str, DiagonalReport]) -> float:
    """Worst entrywise :func:`relative_gap` over all pairs of reports.

    All ordered pairs are compared at once; the gap is symmetric and a
    report against itself gives 0, so the maximum is the pairwise one.
    Magnitudes use ``np.hypot`` because it rounds as Python's
    ``abs(complex)`` does (``np.abs`` can differ in the last bit), and
    ``np.fmax`` skips NaN gaps as the scalar ``max`` does, so the result
    equals the :func:`relative_gap` loop exactly.
    """
    if not reports:
        return 0.0
    n = min(len(r.entries) for r in reports.values())
    E = np.stack([r.entries[:n] for r in reports.values()])
    mag = np.hypot(E.real, E.imag)
    diff = E[:, None] - E[None]
    scale = np.fmax(np.fmax(1.0, mag[:, None]), mag[None])
    gaps = np.hypot(diff.real, diff.imag) / scale
    return float(np.fmax.reduce(gaps, axis=None, initial=0.0))
