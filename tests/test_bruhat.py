import dataclasses
import itertools

import numpy as np
import pytest

from bruhatdiag import bruhat
from bruhatdiag.bruhat import (
    NonGenericError,
    cross_check,
    diagonal_via_cayley,
    diagonal_via_coroots,
    diagonal_via_fredholm,
    diagonal_via_gauss,
    diagonal_via_minors,
    flipped_determinants,
    ldu,
    max_cross_gap,
    point_genericity,
    relative_gap,
    tangent_genericity,
    unbalanced_minor_max,
)
from bruhatdiag.cayley import cayley
from bruhatdiag.linalg import (
    EXPANSION_CAP,
    ExpansionLimitError,
    det,
    leading_signature,
    submatrix,
)
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

FAMILY_CASES = [
    aiii(2, 3), diii(3), ci(3), cii(2, 2),
    SpaceSpec("BDI_even", p=4, q=3), SpaceSpec("BDI_oddodd", p=3, q=3),
]


def _sphere_tangent(z):
    return build_tangent(aiii(1, 1), Coordinates(family="AIII", Z=np.array([[z]])))


class TestLdu:
    def test_identity(self):
        fac = ldu(np.eye(3))
        assert np.array_equal(fac.L, np.eye(3))
        assert np.array_equal(fac.D, np.eye(3))
        assert np.array_equal(fac.U, np.eye(3))

    def test_rotation_is_nongeneric_at_one(self):
        g = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(NonGenericError) as err:
            ldu(g)
        assert err.value.index == 1

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            fac = ldu(g)
            assert np.abs(fac.reconstruct() - g).max() <= 1e-9 * max(1, np.abs(g).max())
            assert np.abs(np.tril(fac.U, -1)).max() == 0.0
            assert np.abs(np.triu(fac.L, 1)).max() == 0.0
            assert np.array_equal(np.diag(fac.L), np.ones(6))
            assert np.array_equal(np.diag(fac.U), np.ones(6))

    def test_diagonal_matches_minor_ratios(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        fac = ldu(g)
        report = diagonal_via_minors(g)
        assert np.abs(fac.diagonal - report.entries).max() <= 1e-9 * np.abs(report.entries).max()


class TestDiagonalRoutes:
    def test_identity_all_ones(self):
        for report in (
            diagonal_via_minors(np.eye(4)),
            diagonal_via_cayley(np.zeros((4, 4))),
            diagonal_via_fredholm(np.zeros((4, 4))),
        ):
            assert np.abs(report.entries - 1.0).max() == 0.0
            assert report.product == 1.0

    def test_already_diagonal(self):
        report = diagonal_via_minors(np.diag([2.0 + 1.0j, 0.5]))
        assert report.entries[0] == pytest.approx(2.0 + 1.0j)
        assert report.entries[1] == pytest.approx(0.5)

    def test_sphere_closed_value(self):
        # |z|^2 = 1/3 gives diag(1/2, 2)
        X = _sphere_tangent(np.sqrt(1.0 / 3.0))
        for report in (
            diagonal_via_cayley(X),
            diagonal_via_minors(cayley(X)),
            diagonal_via_fredholm(X),
        ):
            assert abs(report.entries[0] - 0.5) <= 1e-12
            assert abs(report.entries[1] - 2.0) <= 1e-12

    def test_method_tags(self):
        X = _sphere_tangent(0.25)
        reports = cross_check(X, aiii(1, 1))
        assert set(reports) == {"gauss", "minor_ratio", "cayley_det",
                                "fredholm", "coroot_product"}
        for tag, report in reports.items():
            assert report.method == tag

    def test_routes_agree_across_families(self):
        rng = np.random.default_rng(6)
        for spec in FAMILY_CASES:
            for _ in range(20):
                X = build_tangent(spec, random_coordinates(spec, rng))
                gap = max_cross_gap(cross_check(X, spec))
                assert gap <= 1e-8, (spec.family, gap)

    def test_fredholm_cap(self):
        with pytest.raises(ExpansionLimitError):
            diagonal_via_fredholm(np.zeros((11, 11)))

    def test_telescoping_product_is_group_determinant(self):
        rng = np.random.default_rng(12)
        for spec in FAMILY_CASES:
            X = build_tangent(spec, random_coordinates(spec, rng))
            g = cayley(X)
            report = diagonal_via_minors(g)
            assert abs(report.product - det(g)) <= 1e-8
            assert abs(report.product - 1.0) <= 1e-8  # embedded points are special unitary

    def test_reciprocal_pairing_on_reflection_families(self):
        rng = np.random.default_rng(14)
        for spec in FAMILY_CASES:
            if spec.family == "AIII":
                continue
            N = spec.ambient
            X = build_tangent(spec, random_coordinates(spec, rng))
            d = diagonal_via_cayley(X).entries
            for k in range(N):
                assert abs(abs(d[k] * d[N - 1 - k]) - 1.0) <= 1e-9

    def test_real_entries_on_inner_families(self):
        rng = np.random.default_rng(15)
        for spec in FAMILY_CASES:
            if spec.family == "BDI_oddodd":
                continue
            X = build_tangent(spec, random_coordinates(spec, rng))
            d = diagonal_via_cayley(X).entries
            assert np.abs(d.imag).max() <= 1e-9

    def test_oddodd_middle_entries_unimodular(self):
        rng = np.random.default_rng(16)
        spec = SpaceSpec("BDI_oddodd", p=3, q=3)
        X = build_tangent(spec, random_coordinates(spec, rng))
        d = diagonal_via_cayley(X).entries
        mid = spec.ambient // 2
        assert abs(abs(d[mid - 1]) - 1.0) <= 1e-9
        assert abs(abs(d[mid]) - 1.0) <= 1e-9
        assert abs(d[mid - 1].imag) > 1e-6  # genuinely complex for generic s


class TestMinorIdentity:
    def test_lemma_residuals_small(self):
        rng = np.random.default_rng(21)
        for spec in FAMILY_CASES:
            for _ in range(10):
                X = build_tangent(spec, random_coordinates(spec, rng))
                report = diagonal_via_cayley(X)
                assert report.lemma3_residual <= 1e-9

    def test_lemma_on_general_skew_hermitian(self):
        # the identity needs only skew-Hermitian input, not a family tangent
        rng = np.random.default_rng(22)
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        X = 0.3 * (A - A.conj().T)
        g = cayley(X)
        dets = flipped_determinants(X)
        for k in range(1, 6):
            lhs = det(g[:k, :k]) * dets[0]
            assert abs(lhs - dets[k]) <= 1e-10 * max(1.0, abs(dets[k]))


class TestSignRule:
    def test_square_blocks_carry_parity_sign(self):
        # each balanced index set contributes a nonnegative minor times
        # (-1)**(number of its elements at or below the flip level)
        rng = np.random.default_rng(30)
        spec = aiii(2, 3)
        m, N = 2, 5
        Z = random_coordinates(spec, rng).Z
        X = build_tangent(spec, Coordinates(family="AIII", Z=Z))
        for k in range(N + 1):
            Ik = leading_signature(N, k)
            total = 1.0 + 0.0j
            for size in range(1, N + 1):
                for alpha in itertools.combinations(range(1, N + 1), size):
                    upper = [i for i in alpha if i <= m]
                    lower = [i - m for i in alpha if i > m]
                    term = det(submatrix(Ik @ X, alpha, alpha))
                    if len(upper) != len(lower):
                        assert abs(term) <= 1e-12
                        continue
                    W = submatrix(Z, upper, lower)
                    base = det(W @ W.conj().T)
                    sign = -1.0 if sum(1 for i in alpha if i <= k) % 2 else 1.0
                    assert abs(term - sign * base) <= 1e-10
                    total += term
            assert abs(total - flipped_determinants(X)[k]) <= 1e-9

    def test_unbalanced_minors_vanish(self):
        rng = np.random.default_rng(31)
        spec = aiii(2, 2)
        X = build_tangent(spec, random_coordinates(spec, rng))
        assert unbalanced_minor_max(X, 2) == 0.0


class TestCorootRoute:
    def test_matches_cayley_route_everywhere(self):
        rng = np.random.default_rng(41)
        for spec in FAMILY_CASES:
            for _ in range(10):
                X = build_tangent(spec, random_coordinates(spec, rng))
                a = diagonal_via_coroots(spec, X).entries
                b = diagonal_via_cayley(X).entries
                assert max(relative_gap(x, y) for x, y in zip(a, b)) <= 1e-9

    def test_zero_tangent(self):
        spec = cii(1, 1)
        X = np.zeros((4, 4))
        assert np.abs(diagonal_via_coroots(spec, X).entries - 1.0).max() == 0.0

    def test_complex_middle_entries_handled(self):
        # integer exponents act directly on complex ratios; no branch cut
        spec = SpaceSpec("BDI_oddodd", p=5, q=1)
        coords = Coordinates(family="BDI_oddodd",
                             Z1=np.zeros((2, 0)), Z2=np.zeros((2, 0)),
                             w1=np.array([0.2 + 0.1j, -0.3j]), w2=np.zeros(0), s=0.4)
        X = build_tangent(spec, coords)
        a = diagonal_via_coroots(spec, X).entries
        b = diagonal_via_cayley(X).entries
        assert max(relative_gap(x, y) for x, y in zip(a, b)) <= 1e-10
        assert abs(a[2].imag) > 1e-3


class TestGenericity:
    def test_zero_tangent_fully_generic(self):
        assert tangent_genericity(np.zeros((4, 4))) == [True] * 4

    def test_unit_circle_coordinate_degenerates(self):
        X = _sphere_tangent(1.0)
        flags = tangent_genericity(X)
        assert flags[0] is False
        g = cayley(X)
        assert point_genericity(g)[0] is False

    def test_all_routes_report_the_failing_index(self):
        X = _sphere_tangent(1.0)
        g = cayley(X)
        for call in (
            lambda: diagonal_via_minors(g),
            lambda: diagonal_via_cayley(X),
            lambda: diagonal_via_fredholm(X),
            lambda: ldu(g),
            lambda: diagonal_via_gauss(g),
        ):
            with pytest.raises(NonGenericError) as err:
                call()
            assert err.value.index == 1

    def test_random_draws_generic_with_small_radius(self):
        rng = np.random.default_rng(50)
        spec = aiii(2, 3)
        for _ in range(50):
            X = build_tangent(spec, random_coordinates(spec, rng, radius=0.5))
            assert all(tangent_genericity(X))


def _expansion_reference(A):
    """det(1 + A) as the size-by-size sum of principal minors, one gather
    per index set: the loop the batched expansion replaced."""
    n = A.shape[0]
    total = 1.0 + 0.0j
    for size in range(1, n + 1):
        subsets = list(itertools.combinations(range(n), size))
        stack = np.empty((len(subsets), size, size), dtype=complex)
        for t, alpha in enumerate(subsets):
            ix = np.array(alpha)
            stack[t] = A[np.ix_(ix, ix)]
        total += complex(np.linalg.det(stack).sum())
    return total


def _random_skew_hermitian(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.3 * (A - A.conj().T)


def _count_det_calls(monkeypatch):
    """Record the shape of every array passed to ``np.linalg.det``."""
    shapes = []
    real_det = np.linalg.det

    def counting_det(a):
        shapes.append(np.shape(a))
        return real_det(a)

    monkeypatch.setattr(np.linalg, "det", counting_det)
    return shapes


class TestSharedDeterminantCore:
    def test_fredholm_bitwise_equal_to_per_flip_expansion(self):
        rng = np.random.default_rng(60)
        for n in range(1, 11):
            X = _random_skew_hermitian(rng, n)
            dets = np.array([_expansion_reference(leading_signature(n, k) @ X)
                             for k in range(n + 1)])
            report = diagonal_via_fredholm(X)
            assert np.array_equal(report.entries, dets[1:] / dets[:-1]), n

    def test_fredholm_empty_matrix(self):
        report = diagonal_via_fredholm(np.zeros((0, 0)))
        assert report.entries.shape == (0,)
        assert report.product == 1.0

    def test_stacked_flips_bitwise_equal_to_per_flip_loop(self):
        rng = np.random.default_rng(61)
        for N in (0, 1, 5, 20, 50):
            X = _random_skew_hermitian(rng, N)
            eye = np.eye(N, dtype=complex)
            loop = [det(eye + leading_signature(N, k) @ X) for k in range(N + 1)]
            assert np.array_equal(flipped_determinants(X), np.array(loop)), N

    def test_max_cross_gap_equals_pairwise_loop(self):
        def loop(reports):
            tags = sorted(reports)
            worst = 0.0
            for i, a in enumerate(tags):
                for b in tags[i + 1:]:
                    for x, y in zip(reports[a].entries, reports[b].entries):
                        worst = max(worst, relative_gap(x, y))
            return worst

        rng = np.random.default_rng(62)
        for spec in FAMILY_CASES:
            for _ in range(20):
                X = build_tangent(spec, random_coordinates(spec, rng))
                reports = cross_check(X, spec)
                assert max_cross_gap(reports) == loop(reports), spec.family
        # a NaN gap is skipped, as the scalar max skips it
        bad = dict(reports)
        entries = reports["gauss"].entries.copy()
        entries[0] = np.nan
        bad["gauss"] = dataclasses.replace(reports["gauss"], entries=entries)
        assert max_cross_gap(bad) == loop(bad)
        assert max_cross_gap({}) == 0.0

    def test_fredholm_takes_one_det_call_per_subset_size(self, monkeypatch):
        rng = np.random.default_rng(63)
        for n in (1, 4, 7, 10):
            X = _random_skew_hermitian(rng, n)
            shapes = _count_det_calls(monkeypatch)
            diagonal_via_fredholm(X)
            assert len(shapes) == n
            assert [s[1:] for s in shapes] == [(k, k) for k in range(1, n + 1)]

    def test_cross_check_stacks_flipped_determinants_at_most_twice(self, monkeypatch):
        rng = np.random.default_rng(64)
        for spec in FAMILY_CASES:
            X = build_tangent(spec, random_coordinates(spec, rng))
            N = spec.ambient
            shapes = _count_det_calls(monkeypatch)
            cross_check(X, spec)
            assert 1 <= shapes.count((N + 1, N, N)) <= 2, spec.family


LARGE_CASES = [aiii(10, 10), aiii(5, 45)]


def _count_linalg_calls(monkeypatch):
    """Record the shape of every ``np.linalg.det`` argument and every
    ``np.linalg.solve`` call."""
    det_shapes, solves = _count_det_calls(monkeypatch), []
    real_solve = np.linalg.solve

    def counting_solve(a, b):
        solves.append(np.shape(a))
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return det_shapes, solves


def _standalone_routes(X, spec):
    """Every route called on its own, in :func:`cross_check` order."""
    g = cayley(X)
    routes = {
        "gauss": lambda: diagonal_via_gauss(g),
        "minor_ratio": lambda: diagonal_via_minors(g),
        "cayley_det": lambda: diagonal_via_cayley(X, spec),
    }
    if X.shape[0] <= EXPANSION_CAP:
        routes["fredholm"] = lambda: diagonal_via_fredholm(X)
    routes["coroot_product"] = lambda: diagonal_via_coroots(spec, X)
    return routes


def _first_refusal(X, spec):
    for route in _standalone_routes(X, spec).values():
        try:
            route()
        except NonGenericError as exc:
            return exc
    return None


class TestSharedTables:
    def test_cross_check_reports_equal_standalone_routes_bitwise(self):
        rng = np.random.default_rng(70)
        for spec in FAMILY_CASES + LARGE_CASES:
            for _ in range(3):
                X = build_tangent(spec, random_coordinates(spec, rng))
                reports = cross_check(X, spec)
                alone = {tag: route() for tag, route in _standalone_routes(X, spec).items()}
                assert list(reports) == list(alone), spec.family
                for tag, r in reports.items():
                    a = alone[tag]
                    assert r.method == a.method == tag
                    assert r.entries.tobytes() == a.entries.tobytes(), (spec, tag)
                    assert r.generic == a.generic, (spec, tag)
                    assert r.product == a.product, (spec, tag)
                    assert r.lemma3_residual == a.lemma3_residual, (spec, tag)
                    assert r.min_abs_minor == a.min_abs_minor, (spec, tag)

    def test_cross_check_builds_each_table_once(self, monkeypatch):
        rng = np.random.default_rng(71)
        for spec in FAMILY_CASES + LARGE_CASES:
            X = build_tangent(spec, random_coordinates(spec, rng))
            N = spec.ambient
            det_shapes, solves = _count_linalg_calls(monkeypatch)
            cross_check(X, spec)
            assert det_shapes.count((N + 1, N, N)) == 1, spec.family
            for k in range(1, N + 1):
                assert det_shapes.count((k, k)) == 1, (spec.family, k)
            assert len(solves) == 1, spec.family

    def test_refusal_matches_first_refusing_route(self):
        # the CP^2 boundary |z|^2 = 1 fails at gauss; near-boundary AIII(1, 2)
        # draws and AIII(50, 50) draws may pass gauss and fail later routes
        spec = aiii(1, 2)
        boundary = build_tangent(spec, Coordinates(family="AIII", Z=np.array([[1.0, 0.0]])))
        with pytest.raises(NonGenericError) as err:
            cross_check(boundary, spec)
        assert (err.value.route, err.value.index) == ("gauss", 1)

        rng = np.random.default_rng(72)
        cases = []
        for _ in range(300):
            z = np.exp(2j * np.pi * rng.uniform(size=2)) * np.sqrt(rng.dirichlet([1, 1]))
            z *= 1 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-16, -6)
            cases.append((build_tangent(spec, Coordinates(family="AIII", Z=z[None, :])), spec))
        big = aiii(50, 50)
        cases += [(build_tangent(big, random_coordinates(big, rng)), big) for _ in range(2)]
        refused = set()
        for X, spec in cases:
            want = _first_refusal(X, spec)
            if want is None:
                cross_check(X, spec)
                continue
            with pytest.raises(NonGenericError) as err:
                cross_check(X, spec)
            got = err.value
            assert (got.route, got.index, got.magnitude) == (
                want.route, want.index, want.magnitude)
            refused.add(got.route)
        assert "gauss" in refused

    def test_spec_mismatch_raises_after_gauss_and_minor_ratio(self, monkeypatch):
        built = []
        real_report = bruhat._report

        def recording_report(method, *args, **kwargs):
            built.append(method)
            return real_report(method, *args, **kwargs)

        monkeypatch.setattr(bruhat, "_report", recording_report)
        rng = np.random.default_rng(73)
        X = build_tangent(aiii(2, 3), random_coordinates(aiii(2, 3), rng))
        with pytest.raises(ValueError, match="ambient size is 4"):
            cross_check(X, aiii(2, 2))
        assert built == ["gauss", "minor_ratio"]
        # a tangent that gauss refuses still raises from gauss first
        boundary = build_tangent(aiii(1, 2), Coordinates(family="AIII", Z=np.array([[1.0, 0.0]])))
        with pytest.raises(NonGenericError) as err:
            cross_check(boundary, aiii(2, 2))
        assert err.value.route == "gauss"
