"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import numpy as np
import pytest

from bruhatdiag.bruhat import (
    NonGenericError,
    check_draw,
    diagonal_via_cayley,
    diagonal_via_coroots,
    diagonal_via_minors,
    ldu,
)
from bruhatdiag.cayley import cayley, verify_image
from bruhatdiag.components import construct_witness, enumerate_components, limit_check
from bruhatdiag.golden import run_suite
from bruhatdiag.repcompat import theta_antidiagonal, verify_conjugacy
from bruhatdiag.spaces import (
    Coordinates,
    SpaceSpec,
    aiii,
    build_tangent,
    ci,
    cii,
    diii,
    random_coordinates,
)

from components_rule import brute_force
from test_repcompat import preserves_triangular_split

FAMILY_CASES = [
    aiii(2, 3), diii(3), ci(3), cii(2, 2),
    SpaceSpec("BDI_even", p=4, q=3), SpaceSpec("BDI_oddodd", p=3, q=3),
]

DRAWS = 200
RADIUS = 0.7


def _report(number: int, ok: bool, detail: str):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def route_sweep():
    """200 seeded draws per family case with every route cross-checked."""
    results = {}
    for idx, spec in enumerate(FAMILY_CASES):
        rng = np.random.default_rng(1000 + idx)
        worst_gap = 0.0
        worst_lemma = 0.0
        for _ in range(DRAWS):
            draw = check_draw(spec, rng, RADIUS)
            assert list(draw.reports) == ["gauss", "minor_ratio", "cayley_det",
                                          "fredholm", "coroot_product"]
            worst_gap = max(worst_gap, draw.gap)
            worst_lemma = max(worst_lemma, draw.reports["cayley_det"].lemma3_residual)
        results[spec.family] = (worst_gap, worst_lemma)
    return results


def test_criterion_1_route_equivalence(route_sweep):
    worst = max(gap for gap, _ in route_sweep.values())
    detail = (f"max relative gap among gauss/minor/cayley/fredholm/coroot over "
              f"{DRAWS} draws x {len(FAMILY_CASES)} families = {worst:.3e} (tol 1e-8)")
    _report(1, worst <= 1e-8, detail)


def test_criterion_2_minor_identity(route_sweep):
    worst = max(lemma for _, lemma in route_sweep.values())
    detail = (f"max relative residual of det(g[k]) det(1+X) = det(1+I_k X) "
              f"= {worst:.3e} (tol 1e-9)")
    _report(2, worst <= 1e-9, detail)


def test_criterion_3_membership():
    worst = 0.0
    for idx, spec in enumerate(FAMILY_CASES):
        rng = np.random.default_rng(2000 + idx)
        for _ in range(1000):
            X = build_tangent(spec, random_coordinates(spec, rng, RADIUS))
            report = verify_image(spec, cayley(X), tol=1e-9)
            worst = max(worst, max(report.violations.values()))
    detail = (f"max membership violation over 1000 draws x "
              f"{len(FAMILY_CASES)} families = {worst:.3e} (tol 1e-9)")
    _report(3, worst <= 1e-9, detail)


def test_criterion_4_golden_closed_forms():
    worst_name, worst, tol = "", 0.0, 0.0
    ok = True
    for name in ("cpn", "so6u3", "hp1", "rp6", "rp5"):
        result = run_suite(name, draws=50, seed=0)
        ok &= result.ok
        if result.violations["max_deviation"] >= worst:
            worst_name, worst, tol = name, result.violations["max_deviation"], result.tolerance
    detail = (f"closed forms vs every route, 50 draws each at each suite's "
              f"tolerance; worst suite {worst_name} at {worst:.3e} (tol {tol:.0e})")
    _report(4, ok, detail)


def test_criterion_5_sphere_quantitative():
    z = np.sqrt(1.0 / 3.0)
    spec = aiii(1, 1)
    X = build_tangent(spec, Coordinates(family="AIII", Z=np.array([[z]])))
    d = diagonal_via_cayley(X, spec).entries
    ok = abs(d[0] - 0.5) <= 1e-12 and abs(d[1] - 2.0) <= 1e-12

    rep = enumerate_components(spec)[1]  # the all-negative representative
    W = construct_witness(rep)
    worst = 0.0
    for t in (10.0, 100.0, 1000.0):
        dt = diagonal_via_cayley(t * W, spec).entries
        # closed form d(t) = diag((1-t^2)/(1+t^2), its reciprocal):
        # scale-normalized deviation from the signs is exactly 2/(1+t^2)
        # for both entries; the raw offsets are 2/(1+t^2) and 2/(t^2-1)
        dev = np.abs(dt - (-1.0)) / np.maximum(1.0, np.abs(dt))
        worst = max(worst, np.abs(dev - 2.0 / (1.0 + t * t)).max())
        worst = max(worst, abs(abs(dt[0] + 1.0) - 2.0 / (1.0 + t * t)))
        worst = max(worst, abs(abs(dt[1] + 1.0) - 2.0 / (t * t - 1.0)))
    ok &= worst <= 1e-12
    detail = (f"diag(1/2, 2) at |z|^2 = 1/3 and witness deviations 2/(1+t^2) "
              f"per entry; worst residual {worst:.3e} (tol 1e-12)")
    _report(5, ok, detail)


def test_criterion_6_component_enumeration():
    ok = len(enumerate_components(aiii(1, 1))) == 2
    for n in (1, 2, 3):
        reps = enumerate_components(SpaceSpec("BDI_even", p=2 * n, q=1))
        ok &= len(reps) == 1 and reps[0].is_identity

    small = [
        aiii(1, 1), aiii(1, 2), aiii(2, 2), aiii(2, 3), aiii(3, 3),
        diii(2), diii(3), diii(4), ci(1), ci(2), ci(3), ci(4),
        cii(1, 1), cii(1, 2), cii(2, 2),
        SpaceSpec("BDI_even", p=2, q=1), SpaceSpec("BDI_even", p=4, q=3),
        SpaceSpec("BDI_even", p=4, q=4), SpaceSpec("BDI_even", p=6, q=2),
        SpaceSpec("BDI_oddodd", p=3, q=3), SpaceSpec("BDI_oddodd", p=3, q=5),
        SpaceSpec("BDI_oddodd", p=5, q=1), SpaceSpec("BDI_oddodd", p=7, q=1),
    ]
    checked = 0
    converged = True
    for spec in small:
        assert spec.ambient <= 8
        got = [r.signs for r in enumerate_components(spec)]
        ok &= got == brute_force(spec)
        for rep in enumerate_components(spec):
            if rep.is_identity:
                continue
            checked += 1
            report = limit_check(rep)
            converged &= report.converged
    ok &= converged
    detail = (f"counts, inertia-rule brute force over {len(small)} specs, and "
              f"{checked} witness limits converged at 1e-3")
    _report(6, ok, detail)


def test_criterion_7_representation_conjugacy():
    worst = 0.0
    ok = True
    for n in range(2, 9):
        report = verify_conjugacy(n, samples=100, rng=np.random.default_rng(n))
        worst = max(worst, report.violations["max_orthogonal_dev"],
                    report.violations["max_orthogonal_fixed_dev"],
                    report.violations["max_symplectic_dev"])
        ok &= report.ok
    for n in range(2, 9):
        ok &= preserves_triangular_split(theta_antidiagonal, n)
    detail = (f"conjugacy at n = 2..8, 100 samples each, worst deviation "
              f"{worst:.3e} (tol 1e-10); triangular split preserved exactly")
    _report(7, ok, detail)


def test_criterion_8_nongenericity_detection():
    spec = aiii(1, 1)
    X = build_tangent(spec, Coordinates(family="AIII", Z=np.array([[1.0]])))
    g = cayley(X)
    indices = []
    for call in (lambda: diagonal_via_minors(g),
                 lambda: diagonal_via_cayley(X, spec),
                 lambda: diagonal_via_coroots(spec, X),
                 lambda: ldu(g)):
        try:
            call()
            indices.append(None)
        except NonGenericError as err:
            indices.append(err.index)
    ok = indices == [1, 1, 1, 1]
    detail = ("unit-circle coordinate refused at k = 1 by the minor, determinant "
              f"and exponent-product routes and by elimination: steps {indices}")
    _report(8, ok, detail)
