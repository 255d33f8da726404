"""Closed-form fixtures for low-dimensional spaces, checked against every
route of :func:`~bruhatdiag.bruhat.cross_check` on seeded random payloads.

Two layout-driven details are easy to get wrong and worth stating:

* quaternionic projective line: each coordinate occupies two slots of the
  layout, so the size-two minors double and the linear terms of the middle
  entries carry coefficient 2;
* odd-dimensional real projective space: with the central torus slot
  holding ``diag(is, -is)``, the two unimodular middle entries come out in
  the order ``(1 - is)/(1 + is)`` then ``(1 + is)/(1 - is)``, as the
  piecewise determinant list forces.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .bruhat import cross_check
from .linalg import relative_gap
from .spaces import (Coordinates, SpaceSpec, ViolationReport, _disc_sample, aiii,
                     build_tangent, cii, diii)

GOLDEN_RADIUS = 0.5
GOLDEN_DRAWS = 50
GOLDEN_TOL = 1e-9


def cpn_closed_form(zs) -> np.ndarray:
    """Diagonal for the complex projective space in graph coordinates.

    Entry k is a ratio of signed square-norm sums; the first entry at
    n = 1 is the height function in stereographic coordinates.
    """
    zs = np.asarray(zs, dtype=complex)
    n = zs.size
    a = np.abs(zs) ** 2
    F = np.empty(n + 2, dtype=float)
    F[0] = 1.0 + a.sum()
    for k in range(1, n + 2):
        F[k] = 1.0 + a[: k - 1].sum() - a[k - 1:].sum()
    return (F[1:] / F[:-1]).astype(complex)


def so6u3_closed_form(z11, z12, z21) -> np.ndarray:
    """Six-entry diagonal for the n = 3 orthogonal case."""
    a, b, c = abs(z11) ** 2, abs(z21) ** 2, abs(z12) ** 2
    d1 = (1 - a + b - c) / (1 + a + b + c)
    d2 = ((1 + a + b - c) * (1 - a - b - c)) / ((1 - a + b - c) * (1 + a + b + c))
    d3 = (1 - a - b - c) / (1 + a + b - c)
    return np.array([d1, d2, d3, 1 / d3, 1 / d2, 1 / d1], dtype=complex)


def hp1_closed_form(z1, z2) -> np.ndarray:
    """Diagonal for the quaternionic projective line."""
    a, b = abs(z1) ** 2, abs(z2) ** 2
    d1 = (1 - a - b) / (1 + a + b)
    d2 = (1 + 2 * a - 2 * b + (a + b) ** 2) / (1 - (a + b) ** 2)
    return np.array([d1, d2, 1 / d2, 1 / d1], dtype=complex)


def rp_even_closed_form(zs) -> np.ndarray:
    """Diagonal for even real projective space from its piecewise determinants.

    The layout doubles each coordinate row/column, so every square norm
    appears with coefficient 2 and the flipped determinants are piecewise
    constant-plus-partial-sums.
    """
    zs = np.asarray(zs, dtype=complex)
    n = zs.size
    a = np.abs(zs) ** 2
    F = np.empty(2 * n + 2, dtype=float)
    F[0] = 1.0 + 2.0 * a.sum()
    for k in range(1, 2 * n + 2):
        if k <= n:
            F[k] = 1.0 + 2.0 * a[: n - k].sum()
        elif k == n + 1:
            F[k] = 1.0
        else:
            F[k] = 1.0 + 2.0 * a[: k - (n + 1)].sum()
    return (F[1:] / F[:-1]).astype(complex)


def rp_odd_closed_form(zs, s: float) -> np.ndarray:
    """Diagonal for odd real projective space.

    The doubled coordinates carry coefficient 4; the central torus
    parameter s produces the unimodular phase pair in the middle.
    """
    zs = np.asarray(zs, dtype=complex)
    n = zs.size
    a = np.abs(zs) ** 2
    F = np.empty(2 * n + 3, dtype=complex)
    F[0] = 1.0 + s * s + 4.0 * a.sum()
    for k in range(1, 2 * n + 3):
        if k < n:
            F[k] = 1.0 + s * s + 4.0 * a[: n - k].sum()
        elif k == n:
            F[k] = 1.0 + s * s
        elif k == n + 1:
            F[k] = (1.0 - 1j * s) ** 2
        elif k == n + 2:
            F[k] = 1.0 + s * s
        else:
            F[k] = 1.0 + s * s + 4.0 * a[: k - (n + 2)].sum()
    return F[1:] / F[:-1]


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    """Worst entrywise :func:`~bruhatdiag.linalg.relative_gap` of ``a`` from ``b``."""
    return float(relative_gap(a, b).max(initial=0.0))


# Each case turns one draw ``zs`` (and, for rp_odd, a torus parameter drawn
# after it) into the spec, its tangent and the closed form it must reproduce.

def _cpn_case(rng, zs):
    spec = aiii(1, zs.size)
    X = build_tangent(spec, Coordinates(family="AIII", Z=zs.reshape(1, -1)))
    return spec, X, cpn_closed_form(zs)


def _so6u3_case(rng, zs):
    z11, z12, z21 = zs
    Z = np.array([[z11, z12, 0.0], [z21, 0.0, -z12], [0.0, -z21, -z11]])
    spec = diii(3)
    X = build_tangent(spec, Coordinates(family="DIII", Z=Z))
    return spec, X, so6u3_closed_form(z11, z12, z21)


def _hp1_case(rng, zs):
    z1, z2 = zs
    coords = Coordinates(family="CII", Z1=np.array([[z1]]), Z2=np.array([[z2]]))
    spec = cii(1, 1)
    return spec, build_tangent(spec, coords), hp1_closed_form(z1, z2)


def _rp_even_case(rng, zs):
    n = zs.size
    Z = zs[::-1].reshape(n, 1)  # layout stores the coordinates bottom-up
    spec = SpaceSpec("BDI_even", p=2 * n, q=1)
    X = build_tangent(spec, Coordinates(family="BDI_even", Z=Z))
    return spec, X, rp_even_closed_form(zs)


def _rp_odd_case(rng, zs):
    s = float(rng.uniform(-GOLDEN_RADIUS, GOLDEN_RADIUS))
    n = zs.size
    coords = Coordinates(
        family="BDI_oddodd",
        Z1=np.zeros((n, 0)), Z2=np.zeros((n, 0)),
        w1=zs[::-1].copy(), w2=np.zeros(0), s=s,
    )
    spec = SpaceSpec("BDI_oddodd", p=2 * n + 1, q=1)
    X = build_tangent(spec, coords)
    return spec, X, rp_odd_closed_form(zs, s)


#: Suite -> (number of coordinates drawn, in turn; the case they feed).
_SUITES: dict[str, tuple[tuple[int, ...], Callable]] = {
    "cpn": ((1, 2, 3, 4), _cpn_case),
    "so6u3": ((3,), _so6u3_case),
    "hp1": ((2,), _hp1_case),
    "rp_even": ((1, 2, 3), _rp_even_case),
    "rp_odd": ((1, 2, 3), _rp_odd_case),
    "rp6": ((3,), _rp_even_case),
    "rp5": ((2,), _rp_odd_case),
}

#: Per-suite tolerance; the projective-space ratio formula is benign enough
#: to hold an extra digit.
_SUITE_TOL = {name: GOLDEN_TOL for name in _SUITES}
_SUITE_TOL["cpn"] = 1e-10


def suite_names() -> tuple[str, ...]:
    return tuple(sorted(_SUITES))


def run_suite(name: str, draws: int = GOLDEN_DRAWS, seed: int = 0) -> ViolationReport:
    """Compare one suite's closed form against every route.

    Returns the worst relative deviation of any route over every draw,
    keyed ``max_deviation``, judged at the suite's own tolerance.
    """
    if name not in _SUITES:
        raise ValueError(f"unknown golden suite {name!r}; choose from {suite_names()}")
    rng = np.random.default_rng(seed)
    sizes, case = _SUITES[name]
    worst = 0.0
    for n in sizes:
        for _ in range(draws):
            spec, X, closed = case(rng, _disc_sample(rng, (n,), GOLDEN_RADIUS))
            for report in cross_check(X, spec).values():
                worst = max(worst, _rel(report.entries, closed))
    return ViolationReport({"max_deviation": worst}, _SUITE_TOL[name])
