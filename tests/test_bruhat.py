import dataclasses
import itertools
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatdiag import bruhat, cli, linalg, spaces
from bruhatdiag.bruhat import (
    NonGenericError,
    check_draw,
    cross_check,
    diagonal_via_cayley,
    diagonal_via_coroots,
    diagonal_via_fredholm,
    diagonal_via_gauss,
    diagonal_via_minors,
    ldu,
    max_cross_gap,
)
from bruhatdiag.cayley import cayley, verify_image
from bruhatdiag.components import (
    DEFAULT_GRID,
    ComponentRep,
    construct_witness,
    enumerate_components,
    limit_check,
)
from bruhatdiag.linalg import (
    EXPANSION_CAP,
    ExpansionLimitError,
    det,
    flipped_determinants,
    leading_signature,
)
from bruhatdiag.spaces import (
    FAMILY,
    Coordinates,
    SpaceSpec,
    aiii,
    build_tangent,
    ci,
    cii,
    diii,
    random_coordinates,
    spec_from_family,
    zero_block,
)
from walls import wall_scales

FAMILY_CASES = [
    aiii(2, 3), diii(3), ci(3), cii(2, 2),
    SpaceSpec("BDI_even", p=4, q=3), SpaceSpec("BDI_oddodd", p=3, q=3),
]
#: The ``bruhatdiag verify`` layouts.
FAMILY_DEFAULTS = [spec_from_family(f, **FAMILY[f].defaults) for f in FAMILY]


def relative_gap(a, b) -> float:
    """Scalar reference for the gaps of ``max_cross_gap``: |a - b| / max(1, |a|, |b|)."""
    a, b = complex(a), complex(b)
    return abs(a - b) / max(1.0, abs(a), abs(b))


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
            assert np.abs(fac.L @ fac.D @ fac.U - g).max() <= 1e-9 * max(1, np.abs(g).max())
            assert np.abs(np.tril(fac.U, -1)).max() == 0.0
            assert np.abs(np.triu(fac.L, 1)).max() == 0.0
            assert np.array_equal(np.diag(fac.L), np.ones(6))
            assert np.array_equal(np.diag(fac.U), np.ones(6))

    def test_elimination_kernel_matches_reference_bitwise(self):
        def reference_ldu(g):
            # the factorization as written before the in-place kernel
            A = np.array(g, dtype=complex)
            n = A.shape[0]
            L = np.eye(n, dtype=complex)
            pivots = np.zeros(n, dtype=complex)
            for k in range(n):
                pivots[k] = pivot = A[k, k]
                if k + 1 < n:
                    mult = A[k + 1:, k] / pivot
                    L[k + 1:, k] = mult
                    A[k + 1:, k:] -= np.outer(mult, A[k, k:])
            U = (np.triu(A).T / pivots).T
            np.fill_diagonal(U, 1.0)
            return L, np.diag(pivots), U

        rng = np.random.default_rng(2)
        for spec in FAMILY_CASES + [aiii(10, 10), aiii(5, 45)]:
            for _ in range(5):
                g = cayley(build_tangent(spec, random_coordinates(spec, rng)))
                fac = ldu(g)
                for got, want in zip((fac.L, fac.D, fac.U), reference_ldu(g)):
                    assert got.tobytes() == want.tobytes(), spec
                entries = diagonal_via_gauss(g).entries
                assert entries.tobytes() == np.diag(fac.D).tobytes(), spec
        assert diagonal_via_gauss(np.zeros((0, 0))).entries.shape == (0,)

    def test_gauss_refuses_at_the_ldu_step(self):
        g = np.diag([1.0, 2.0, 0.0, 3.0]).astype(complex)
        for call in (ldu, diagonal_via_gauss):
            with pytest.raises(NonGenericError) as err:
                call(g)
            assert (err.value.index, err.value.route) == (3, "gauss")

    def test_diagonal_matches_minor_ratios(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        fac = ldu(g)
        report = diagonal_via_minors(g)
        assert np.abs(np.diag(fac.D) - report.entries).max() <= 1e-9 * np.abs(report.entries).max()


class TestDiagonalRoutes:
    def test_identity_all_ones(self):
        for report in (
            diagonal_via_minors(np.eye(4)),
            diagonal_via_cayley(np.zeros((4, 4)), aiii(2, 2)),
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
            diagonal_via_cayley(X, aiii(1, 1)),
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
            d = diagonal_via_cayley(X, spec).entries
            for k in range(N):
                assert abs(abs(d[k] * d[N - 1 - k]) - 1.0) <= 1e-9

    def test_real_entries_on_inner_families(self):
        rng = np.random.default_rng(15)
        for spec in FAMILY_CASES:
            if spec.family == "BDI_oddodd":
                continue
            X = build_tangent(spec, random_coordinates(spec, rng))
            d = diagonal_via_cayley(X, spec).entries
            assert np.abs(d.imag).max() <= 1e-9

    def test_oddodd_middle_entries_unimodular(self):
        rng = np.random.default_rng(16)
        spec = SpaceSpec("BDI_oddodd", p=3, q=3)
        X = build_tangent(spec, random_coordinates(spec, rng))
        d = diagonal_via_cayley(X, spec).entries
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
                report = diagonal_via_cayley(X, spec)
                assert report.lemma3_residual <= 1e-9

    def test_lemma_on_general_skew_hermitian(self):
        # the identity needs only skew-Hermitian input, not a family tangent
        rng = np.random.default_rng(22)
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        X = 0.3 * (A - A.conj().T)
        g = cayley(X)
        dets = _flip_loop(X)
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
                    idx = np.array(alpha) - 1
                    term = det((Ik @ X)[np.ix_(idx, idx)])
                    if len(upper) != len(lower):
                        assert abs(term) <= 1e-12
                        continue
                    W = Z[np.ix_(np.array(upper) - 1, np.array(lower) - 1)]
                    base = det(W @ W.conj().T)
                    sign = -1.0 if sum(1 for i in alpha if i <= k) % 2 else 1.0
                    assert abs(term - sign * base) <= 1e-10
                    total += term
            assert abs(total - _flip_loop(X)[k]) <= 1e-9

    def test_unbalanced_minors_vanish(self):
        # the diagonal blocks at the split m vanish, so a principal minor
        # taking unequal counts from the leading m rows and the rest is zero
        rng = np.random.default_rng(31)
        spec = aiii(2, 2)
        m, N = 2, 4
        X = build_tangent(spec, random_coordinates(spec, rng))
        unbalanced = 0
        for size in range(1, N + 1):
            for alpha in itertools.combinations(range(N), size):
                upper = sum(1 for i in alpha if i < m)
                if upper != size - upper:
                    unbalanced += 1
                    assert det(X[np.ix_(alpha, alpha)]) == 0.0, alpha
        assert unbalanced == 2 ** N - 6


class TestCorootRoute:
    def test_matches_cayley_route_everywhere(self):
        rng = np.random.default_rng(41)
        for spec in FAMILY_CASES:
            for _ in range(10):
                X = build_tangent(spec, random_coordinates(spec, rng))
                a = diagonal_via_coroots(spec, X).entries
                b = diagonal_via_cayley(X, spec).entries
                assert max(relative_gap(x, y) for x, y in zip(a, b)) <= 1e-9

    def test_one_product_equals_a_loop_over_rows(self):
        # reference: each ratio raised only where its exponent row is nonzero
        rng = np.random.default_rng(43)
        for spec in FAMILY_CASES + [diii(1), diii(2), SpaceSpec("BDI_oddodd", p=1, q=1)]:
            E = spaces.coroots(spec)
            for _ in range(10):
                X = build_tangent(spec, random_coordinates(spec, rng))
                dets = spaces._flipped_stack(spec, X)
                ratios = dets / dets[0]
                want = np.ones(spec.ambient, dtype=complex)
                for k, row in enumerate(E, start=1):
                    want[row != 0] *= ratios[k] ** row[row != 0]
                got = diagonal_via_coroots(spec, X).entries
                assert got.tobytes() == want.tobytes(), spec

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
        b = diagonal_via_cayley(X, spec).entries
        assert max(relative_gap(x, y) for x, y in zip(a, b)) <= 1e-10
        assert abs(a[2].imag) > 1e-3


def _outcome(route):
    """``None`` when ``route()`` returns, else the ``(index, magnitude)`` it
    refused with."""
    try:
        route()
    except NonGenericError as exc:
        return exc.index, exc.magnitude
    return None


class TestGenericity:
    def test_zero_tangent_fully_generic(self):
        diagonal_via_cayley(np.zeros((4, 4)), aiii(2, 2))

    def test_all_routes_report_the_failing_index(self):
        X = _sphere_tangent(1.0)
        g = cayley(X)
        for call in (
            lambda: diagonal_via_minors(g),
            lambda: diagonal_via_cayley(X, aiii(1, 1)),
            lambda: diagonal_via_fredholm(X),
            lambda: diagonal_via_coroots(aiii(1, 1), X),
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
            diagonal_via_cayley(X, spec)

    def test_coroot_and_cayley_routes_refuse_alike_at_walls(self):
        # The 30th raw CII(1, 2) draw of seed 7, 1e-10 past its step-5 wall:
        # dets[5] falls to the cutoff, and no exponent vector reads step 5.
        spec = cii(1, 2)
        rng = np.random.default_rng(7)
        for _ in range(30):
            coords = spaces._sample_coordinates(spec, rng, 0.7)
        X = 0.8816150712639457 * build_tangent(spec, coords)
        refusal = _outcome(lambda: diagonal_via_cayley(X, spec))
        assert refusal is not None and refusal[0] == 5
        assert _outcome(lambda: diagonal_via_coroots(spec, X)) == refusal

        refused = returned = 0
        for seed, spec in enumerate(FAMILY_DEFAULTS + [cii(1, 2)]):
            rng = np.random.default_rng(seed)
            for _ in range(20):
                X = build_tangent(spec, random_coordinates(spec, rng))
                for k, t in wall_scales(X, (0.0, 1e-12, -1e-12, 1e-10)):
                    tX = t * X
                    a = _outcome(lambda: diagonal_via_cayley(tX, spec))
                    b = _outcome(lambda: diagonal_via_coroots(spec, tX))
                    assert a == b, (spec, k, t)
                    refused += a is not None
                    returned += a is None
        assert refused and returned


def _scalar_checked_ratios(values, cutoffs):
    """The per-step loop the vectorized check replaced: ``(k, |values[k]|)``
    of the first refused step, or the ratios."""
    for k in range(1, len(values)):
        if abs(values[k]) <= cutoffs[k - 1]:
            return k, abs(values[k])
    return values[1:] / values[:-1]


def _scalar_flipped_cutoffs(values):
    return np.full(len(values) - 1, bruhat.GENERIC_TOL * max(abs(values[0]), 1e-300))


def _near(cutoff):
    """Magnitudes at ``cutoff``, one ulp below and one ulp above it."""
    return [cutoff, np.nextafter(cutoff, 0.0), np.nextafter(cutoff, np.inf)]


_HEADS = st.sampled_from([1.0, 0.0, -2.5j, 3e-7 + 2e-7j, 1e300, 1e-300, np.inf,
                          complex(np.nan, 0.0), complex(np.inf, np.nan)])
_FINITE = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _flipped_table(draw, n):
    """A flipped table of length n + 1 whose steps sit at, just below and
    just above its cutoff, or are NaN, inf, zero or ordinary."""
    head = draw(_HEADS | _FINITE)
    # np.hypot, not abs(): on CPython 3.11 abs() of a complex with a NaN
    # part can raise OverflowError from a stale errno of an earlier libm call
    cutoff = bruhat.GENERIC_TOL * max(np.hypot(head.real, head.imag), 1e-300)
    special = [0.0, np.nan, np.inf, complex(np.inf, np.nan), -np.inf * 1j]
    if np.isfinite(cutoff):
        special += [m * unit for m in _near(cutoff) for unit in (1.0, -1j, complex(0.6, 0.8))]
    return np.array([head] + [draw(st.sampled_from(special) | _FINITE) for _ in range(n)],
                    dtype=complex)


def _assert_same_outcome(got_step, got_magnitude, got_ratios, want):
    if isinstance(want, tuple):
        assert (got_step, got_magnitude) == want
        assert np.isnan(got_ratios).all()
    else:
        assert got_step == 0
        assert got_ratios.tobytes() == want.tobytes()


class TestVectorizedCheck:
    """The vectorized genericity check against the scalar loop it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 8).flatmap(_flipped_table))
    def test_one_flipped_table_equals_the_scalar_loop(self, values):
        with np.errstate(all="ignore"):
            want = _scalar_checked_ratios(values, _scalar_flipped_cutoffs(values))
            refused, ratios = bruhat._screened_ratios(values)
            step, magnitude = (0, None) if refused is None else map(float, refused)
            _assert_same_outcome(step, magnitude, ratios, want)
            try:
                got = bruhat._flipped_ratios(values, "cayley_det")
            except NonGenericError as exc:
                assert (exc.index, exc.magnitude) == want
                assert exc.route == "cayley_det"
            else:
                assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 8).flatmap(
        lambda n: st.lists(_flipped_table(n), min_size=1, max_size=len(DEFAULT_GRID))))
    def test_stack_of_flipped_tables_equals_the_scalar_loop_per_row(self, tables):
        stack = np.stack(tables)
        with np.errstate(all="ignore"):
            refused, ratios = bruhat._screened_ratios(stack)
            assert ratios.shape == (len(tables), stack.shape[1] - 1)
            for row, values in enumerate(tables):
                want = _scalar_checked_ratios(values, _scalar_flipped_cutoffs(values))
                if refused is None:
                    step, magnitude = 0, None
                else:
                    step, magnitude = int(refused[0][row]), float(refused[1][row])
                _assert_same_outcome(step, magnitude if step else None, ratios[row], want)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.lists(_FINITE, min_size=n + 1, max_size=n + 1),
        st.lists(st.sampled_from([0.0, 1e-10, 2.5, np.nan, np.inf]),
                 min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n))))
    def test_per_step_cutoffs_equal_the_scalar_loop(self, case):
        # minor_ratio cuts each step on its own cutoff: plant values at it
        values, cutoffs, plant = (np.array(a) for a in case)
        values = values.astype(complex)
        cutoffs = cutoffs.astype(float)
        for k, how in enumerate(plant):
            if how and np.isfinite(cutoffs[k]):
                values[k + 1] = _near(cutoffs[k])[how - 1] * 1j
        with np.errstate(all="ignore"):
            want = _scalar_checked_ratios(values, cutoffs)
            try:
                got = bruhat._checked_ratios(values, cutoffs, "minor_ratio")
            except NonGenericError as exc:
                assert (exc.index, exc.magnitude) == want
            else:
                assert got.tobytes() == want.tobytes()


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
    def test_fredholm_empty_matrix(self):
        report = diagonal_via_fredholm(np.zeros((0, 0)))
        assert report.entries.shape == (0,)
        assert report.product == 1.0

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
        # a NaN gap is not skipped, as the scalar max would skip it: the worst
        # gap is NaN, so a route that returned NaN never reads as agreement
        bad = dict(reports)
        entries = reports["gauss"].entries.copy()
        entries[0] = np.nan
        bad["gauss"] = dataclasses.replace(reports["gauss"], entries=entries)
        assert np.isnan(max_cross_gap(bad))
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
        # a dense draw keeps every row, so each determinant is p x p, p = N - |T|
        rng = np.random.default_rng(64)
        for spec, p in zip(FAMILY_CASES, (2, 3, 3, 4, 3, 4)):
            X = build_tangent(spec, random_coordinates(spec, rng))
            N = spec.ambient
            assert N - np.count_nonzero(zero_block(spec)) == p
            shapes = _count_det_calls(monkeypatch)
            cross_check(X, spec)
            assert 1 <= shapes.count((N + 1, p, p)) <= 2, spec.family


def _flip_loop(A):
    """``det(1 + I_k A)`` for k = 0..n, one ``np.linalg.det`` of the full
    ``n x n`` matrix per flip: a reference for any matrix, tangent or not."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    eye = np.eye(n)
    rows = np.arange(n)[:, None]
    return np.array([np.linalg.det(np.where(rows < k, eye - A, eye + A))
                     for k in range(n + 1)])


def _block_rep(n, negatives):
    """AIII(n, n) representative with ``-1`` at ``negatives`` in each block."""
    signs = [-1 if i in negatives else 1 for i in range(n)]
    return ComponentRep(aiii(n, n), tuple(signs) * 2)


class TestDistinctFlips:
    def test_degenerate_sizes(self):
        zero = np.zeros((6, 6), dtype=complex)
        block = zero_block(aiii(3, 3))
        assert flipped_determinants(zero, block).tobytes() == _flip_loop(zero).tobytes()
        assert np.array_equal(flipped_determinants(zero, block), np.ones(7))
        empty = np.zeros((0, 0))
        no_block = np.zeros(0, dtype=bool)
        assert flipped_determinants(empty, no_block).tobytes() == _flip_loop(empty).tobytes()
        assert flipped_determinants(empty, no_block).tolist() == [1.0]

    def test_only_distinct_flips_are_factorized(self, monkeypatch):
        # 8 nonzero rows, 4 of them outside the zero block: 9 flips of 4 x 4
        rep = _block_rep(60, range(4))
        shapes = _count_det_calls(monkeypatch)
        report = limit_check(rep)
        assert report.converged
        assert shapes == [(len(DEFAULT_GRID), 9, 4, 4)]
        # a dense draw still stacks every flip, of p x p on its zero block
        rng = np.random.default_rng(81)
        for spec in FAMILY_CASES:
            X = build_tangent(spec, random_coordinates(spec, rng))
            N = spec.ambient
            p = N - np.count_nonzero(zero_block(spec))
            shapes.clear()
            flipped_determinants(X, zero_block(spec))
            assert shapes == [(N + 1, p, p)], spec.family

    def test_limit_check_allocates_no_dense_grid_stack(self):
        # the AIII(60, 60) j = 4 witness keeps 8 of 120 rows: its ray scales
        # an 8 x 8 block, never the (3, 120, 120) stack of t * X
        rep = _block_rep(60, range(4))
        X = construct_witness(rep)
        dense = len(DEFAULT_GRID) * X.nbytes
        assert dense == 691200
        limit_check(rep, X)  # the split plan is cached after the first call
        tracemalloc.start()
        try:
            report = limit_check(rep, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.converged
        assert peak < dense, peak

    def test_non_tangent_is_refused(self):
        # a matrix nonzero on the zero block is no tangent of the spec: every
        # route that reads the flipped stack refuses it
        rng = np.random.default_rng(83)
        for spec in FAMILY_CASES + [aiii(5, 45)]:
            block = zero_block(spec)
            X = build_tangent(spec, random_coordinates(spec, rng))
            i = np.flatnonzero(block)[-1]
            rep = ComponentRep(spec, (1,) * spec.ambient)
            non_tangents = []
            for value in (1e-300, 0.25j):
                A = X.copy()
                A[i, i] = value
                non_tangents.append(A)
            non_tangents.append(_random_skew_hermitian(rng, spec.ambient))
            for A in non_tangents:
                for call in (lambda: flipped_determinants(A, block),
                             lambda: flipped_determinants(A, block, DEFAULT_GRID),
                             lambda: cross_check(A, spec),
                             lambda: diagonal_via_cayley(A, spec),
                             lambda: diagonal_via_coroots(spec, A),
                             lambda: limit_check(rep, A)):
                    with pytest.raises(ValueError, match="nonzero on its zero block"):
                        call()
            # a block mask of the wrong size
            with pytest.raises(ValueError, match="zero_block has"):
                flipped_determinants(X[1:, 1:], block)

    def test_split_stack_equals_full_stack_with_zero_rows(self):
        rng = np.random.default_rng(84)
        for spec in FAMILY_CASES + [aiii(5, 45)]:
            block = zero_block(spec)
            X = build_tangent(spec, random_coordinates(spec, rng))
            for drop in ([0], [spec.ambient - 1], list(range(0, spec.ambient, 2))):
                A = X.copy()
                A[drop] = 0.0
                A[:, drop] = 0.0
                split, full = flipped_determinants(A, block), _flip_loop(A)
                assert np.allclose(split, full, rtol=1e-13, atol=0), (spec.family, drop)
                # a zero row leaves its flip's determinant equal to the previous one
                assert all(split[k + 1] == split[k] for k in drop), (spec.family, drop)
        # the zero matrix keeps no row: every determinant is the empty 1
        assert flipped_determinants(np.zeros((6, 6)), zero_block(aiii(3, 3))).tolist() == [1.0] * 7

    def test_ray_equals_per_point_calls_bitwise(self, monkeypatch):
        # a ray plans on the matrix, as a call on each scaled copy would
        shapes = _count_det_calls(monkeypatch)
        rng = np.random.default_rng(86)
        for spec in FAMILY_DEFAULTS:
            block = zero_block(spec)
            N = spec.ambient
            X = build_tangent(spec, random_coordinates(spec, rng))
            no_p, no_t, rows = X.copy(), X.copy(), X.copy()
            no_p[~block] = 0.0
            no_t[block] = 0.0
            rows[::3] = 0.0
            for A in (X, no_p, no_t, rows, np.zeros_like(X)):
                shapes.clear()
                got = flipped_determinants(A, block, DEFAULT_GRID)
                assert got.shape == (len(DEFAULT_GRID), N + 1)
                stacked = shapes[0]
                for t, dets in zip(DEFAULT_GRID, got):
                    assert dets.tobytes() == flipped_determinants(t * A, block).tobytes(), spec
                if A is no_p:
                    assert stacked[-1] == 0, spec

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ray_validates_its_matrix_scales_and_scaled_entries(self):
        X = build_tangent(aiii(2, 3), random_coordinates(aiii(2, 3), np.random.default_rng(89)))
        block = zero_block(aiii(2, 3))
        for bad in ([[1.0]], [1.0, 0.0], [-1.0], [np.nan]):
            with pytest.raises(ValueError, match="scales must be"):
                flipped_determinants(X, block, bad)
        with pytest.raises(ValueError, match="square"):
            flipped_determinants(np.stack([X, X]), block, [1.0])
        with pytest.raises(ValueError, match="finite"):
            flipped_determinants(np.full((5, 5), np.nan), block, [1.0])
        # an entry that overflows at one scale raises, as a call on t * X does
        big = 1e306 * X
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            flipped_determinants(1000.0 * big, block)
        with pytest.raises(ValueError, match="finite"):
            flipped_determinants(big, block, [1.0, 1000.0])
        # an empty ray has no rows
        assert flipped_determinants(X, block, []).shape == (0, 6)

    def test_ray_bound_refuses_exactly_where_the_scaled_entries_overflow(self):
        # the ray decides overflow from max(scales) * max|Re, Im| before any
        # product is formed; the check it replaced formed every t * A under
        # np.errstate and tested the result for finiteness
        def products_overflow(A, scales):
            with np.errstate(over="ignore", invalid="ignore"):
                return not np.isfinite(scales[:, None, None] * A).all()

        spec = aiii(2, 3)
        block = zero_block(spec)
        X = build_tangent(spec, random_coordinates(spec, np.random.default_rng(90)))
        i, j = np.flatnonzero(~block)[0], np.flatnonzero(block)[0]
        big = np.finfo(float).max
        values = [np.nan, np.inf, complex(0.5, -np.inf), 1e-300]
        for t in DEFAULT_GRID:
            edge = big / t
            for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)):
                values += [x, -x, complex(0.5, x), complex(-x, -x)]
        rays = [[t] for t in DEFAULT_GRID] + [list(DEFAULT_GRID), [1e-30], [np.inf], []]
        refused = kept = 0
        for value in values:
            A = X.copy()
            A[i, j], A[j, i] = value, -np.conj(value)
            finite = np.isfinite(A).all()
            for ray in rays:
                scales = np.array(ray, dtype=float)
                if products_overflow(A, scales):
                    refused += 1
                    with pytest.raises(ValueError, match="finite"):
                        linalg._on_ray(A, scales)
                    with pytest.raises(ValueError, match="finite"):  # no determinant is taken
                        flipped_determinants(A, block, scales)
                else:
                    kept += 1
                    got = linalg._on_ray(A, scales)
                    assert got.tobytes() == (scales[:, None, None] * A).tobytes()
                    if not finite:  # validation refuses it before the ray
                        with pytest.raises(ValueError, match="finite"):
                            flipped_determinants(A, block, scales)
        assert (refused, kept) == (131, 149)
        # one just below each grid point's edge passes, one just above refuses
        for t in DEFAULT_GRID:
            edge = big / t
            below, above = np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)
            assert not products_overflow(np.array([[below]]), np.array([t]))
            assert products_overflow(np.array([[above]]), np.array([t]))
        # a scale that underflows an entry to zero keeps its row
        A = X.copy()
        A[i, j], A[j, i] = 1e-300, -1e-300
        got = flipped_determinants(A, block, [1e-30])
        assert got.tobytes() == flipped_determinants(A, block, [1e-30, 1.0])[:1].tobytes()
        assert np.isfinite(got).all()
        # an empty kept block has no entries to overflow, even at an
        # infinite scale
        zero = np.zeros((6, 6))
        assert flipped_determinants(zero, zero_block(aiii(3, 3)), [np.inf]).tolist() == [[1.0] * 7]

    def test_one_row_outside_block_keeps_per_flip_products_bitwise(self):
        # with p = 1 a single product over the flips would be a matrix-vector
        # one, which rounds differently from one dot product per flip
        def schur_loop(A, block):
            order = np.concatenate([np.flatnonzero(~block), np.flatnonzero(block)])
            B, p, n = A[np.ix_(order, order)], np.count_nonzero(~block), A.shape[0]
            dets = []
            for k in range(n + 1):
                s = np.where(order < k, -1.0, 1.0)
                inner = B[:p, :p] - (B[:p, p:] * s[p:]) @ B[p:, :p]
                dets.append(np.linalg.det(np.eye(p) + s[:p, None] * inner))
            return np.array(dets)

        rng = np.random.default_rng(88)
        for spec in (aiii(1, 2), aiii(1, 4), aiii(1, 9)):
            block = zero_block(spec)
            for _ in range(10):
                X = build_tangent(spec, random_coordinates(spec, rng))
                want = schur_loop(X, block).tobytes()
                assert flipped_determinants(X, block).tobytes() == want, spec
                ray = flipped_determinants(X, block, [1.0, 2.0])
                assert ray[0].tobytes() == want, spec

    @pytest.mark.filterwarnings("ignore:overflow encountered in det:RuntimeWarning",
                                "ignore:invalid value encountered in det:RuntimeWarning")
    def test_limit_deviations_equal_a_loop_over_grid_points(self):
        reps = enumerate_components(aiii(5, 5)) + enumerate_components(ci(8))
        reps += [_block_rep(60, range(j)) for j in range(4, 61, 8)]
        for rep in reps:
            X = construct_witness(rep)
            target = np.array(rep.signs, dtype=float)
            want = []
            for t in DEFAULT_GRID:
                try:
                    d = bruhat._flipped_ratios(spaces._flipped_stack(rep.spec, t * X),
                                               "cayley_det")
                except NonGenericError:
                    want.append(None)
                    continue
                want.append(float(np.max(np.abs(d - target) / np.maximum(1.0, np.abs(d)))))
            assert limit_check(rep, X).deviations == want, rep.label()
        # j = 52 and 60 overflow at t = 1000, which skips that grid point only
        for rep in reps[-2:]:
            deviations = limit_check(rep).deviations
            assert deviations[-1] is None and None not in deviations[:-1], rep.label()

    def test_zero_block_is_the_larger_sign_class_and_cached(self):
        for spec, T in ((aiii(2, 3), [2, 3, 4]), (aiii(2, 2), [2, 3]),
                        (cii(2, 1), [0, 1, 4, 5]), (SpaceSpec("BDI_even", p=4, q=3), [0, 1, 5, 6]),
                        (SpaceSpec("BDI_oddodd", p=3, q=3), [0, 5]),
                        (SpaceSpec("BDI_oddodd", p=3, q=5), [1, 2, 5, 6])):
            block = zero_block(spec)
            assert np.flatnonzero(block).tolist() == T, spec
            assert block is zero_block(spec)
            assert not block.flags.writeable
            X = build_tangent(spec, random_coordinates(spec, np.random.default_rng(85)))
            assert not X[np.ix_(block, block)].any()

    def test_limit_deviations_match_extended_precision(self):
        # a witness pairs rows (i, j) with X[i, j] = 1 = -X[j, i], so flip k
        # has det = prod over pairs of 1 + s_i s_j t**2; evaluated in 30 digits
        def reference_deviations(rep, X):
            target = np.array(rep.signs, dtype=float)
            pairs = list(zip(*np.nonzero(np.triu(X != 0))))
            devs = []
            for t in DEFAULT_GRID:
                dets = []
                for k in range(X.shape[0] + 1):
                    s = [-1 if i < k else 1 for i in range(X.shape[0])]
                    dets.append(mpmath.fprod(1 + s[i] * s[j] * mpmath.mpf(t) ** 2
                                             for i, j in pairs))
                d = np.array([float(dets[k] / dets[k - 1]) for k in range(1, len(dets))])
                devs.append(float(np.max(np.abs(d - target) / np.maximum(1.0, np.abs(d)))))
            return devs

        rng = np.random.default_rng(82)
        reps = [_block_rep(20, range(j)) for j in (1, 5, 10, 19, 20)]
        reps += [_block_rep(20, set(rng.choice(20, j, replace=False).tolist()))
                 for j in (2, 7, 13)]
        for rep in reps:
            X = construct_witness(rep)
            assert np.all(X == -X.T) and np.all(np.count_nonzero(X, axis=1) <= 1)
            assert np.all(np.abs(X[X != 0]) == 1)
            got = limit_check(rep, X).deviations
            want = reference_deviations(rep, X)
            assert np.allclose(got, want, rtol=0, atol=1e-12), rep.label()


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
                    assert r.product == a.product, (spec, tag)
                    assert r.lemma3_residual == a.lemma3_residual, (spec, tag)

    def test_cross_check_builds_each_table_once(self, monkeypatch):
        rng = np.random.default_rng(71)
        for spec in FAMILY_CASES + LARGE_CASES:
            X = build_tangent(spec, random_coordinates(spec, rng))
            N = spec.ambient
            p = N - np.count_nonzero(zero_block(spec))
            det_shapes, solves = _count_linalg_calls(monkeypatch)
            cross_check(X, spec)
            assert det_shapes.count((N + 1, p, p)) == 1, spec.family
            for k in range(1, N + 1):
                assert det_shapes.count((k, k)) == 1, (spec.family, k)
            assert len(solves) == 1, spec.family

    def test_cross_check_validates_each_matrix_once(self, monkeypatch):
        # one finiteness pass over X and one over g = cayley(X), and one
        # table of minor cutoffs for gauss and minor_ratio
        passes, cutoffs = [], []
        real_isfinite, real_cutoffs = np.isfinite, bruhat._minor_cutoffs

        def counting_isfinite(a):
            passes.append(np.shape(a))
            return real_isfinite(a)

        def counting_cutoffs(g):
            cutoffs.append(np.shape(g))
            return real_cutoffs(g)

        rng = np.random.default_rng(74)
        cases = [build_tangent(spec, random_coordinates(spec, rng)) for spec in
                 FAMILY_CASES + LARGE_CASES]
        monkeypatch.setattr(np, "isfinite", counting_isfinite)
        monkeypatch.setattr(bruhat, "_minor_cutoffs", counting_cutoffs)
        for spec, X in zip(FAMILY_CASES + LARGE_CASES, cases):
            N = spec.ambient
            passes.clear()
            cutoffs.clear()
            cross_check(X, spec)
            assert passes == [(N, N), (N, N)], spec.family
            assert cutoffs == [(N, N)], spec.family
            # a checked draw: X in its rejection loop and g in the cross
            # check, whose validated g the membership check reads
            passes.clear()
            check_draw(spec, np.random.default_rng(75))
            assert passes.count((N, N)) == 2, spec.family

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


#: Each intermediate ``cross_check`` shares: the ``bruhat`` name that builds
#: it, the entry perturbed, and the routes that read it.
SHARED_INTERMEDIATES = {
    "g": ("_cayley", (0, 0), {"gauss", "minor_ratio"}),
    "leading minors": ("_leading_minors", 1, {"minor_ratio"}),
    "flipped stack": ("_flipped_stack", 1, {"cayley_det", "coroot_product"}),
    "minor expansion": ("_minor_expansion", 1, {"fredholm"}),
    "exponent table": ("coroots", (0, 0), {"coroot_product"}),
}

#: The six ``verify`` defaults and one layout above the expansion cap.
INDEPENDENCE_CASES = FAMILY_DEFAULTS + [aiii(5, 45)]


class TestRouteIndependence:
    """The routes are independent evidence only while each shared table
    feeds exactly the routes that read it: perturb one entry of one table
    by 1e-6 relative and exactly those routes move, far past ``--tol``."""

    @staticmethod
    def _assert_moves_exactly_its_routes(monkeypatch, name, module, attr, check):
        """Perturb table ``name`` where ``module.attr`` builds it; ``check(spec)``
        returns the reports of one fixed tangent of ``spec``."""
        _, entry, readers = SHARED_INTERMEDIATES[name]
        tol = cli._build_parser().parse_args(["verify"]).tol
        build = getattr(module, attr)
        calls = []

        def perturbed(*args):
            table = build(*args)
            # an integer exponent table is perturbed as floats, a real power
            table = table.astype(np.result_type(table, float))
            table[entry] *= 1 + 1e-6
            calls.append(attr)
            return table

        for spec in INDEPENDENCE_CASES:
            reports = check(spec)
            assert max_cross_gap(reports) <= tol, spec
            with monkeypatch.context() as patch:
                patch.setattr(module, attr, perturbed)
                calls.clear()
                moved_reports = check(spec)
            moved = {tag for tag, r in moved_reports.items()
                     if r.entries.tobytes() != reports[tag].entries.tobytes()}
            if name == "minor expansion" and spec.ambient > EXPANSION_CAP:
                assert not calls and not moved, spec  # fredholm does not run
                continue
            assert calls == [attr], spec
            assert moved == readers, (spec, moved)
            assert max_cross_gap(moved_reports) > tol, spec

    @pytest.mark.parametrize("name", list(SHARED_INTERMEDIATES))
    def test_one_perturbed_table_moves_exactly_its_routes(self, monkeypatch, name):
        rng = np.random.default_rng(76)
        tangents = {spec: build_tangent(spec, random_coordinates(spec, rng))
                    for spec in INDEPENDENCE_CASES}
        self._assert_moves_exactly_its_routes(
            monkeypatch, name, bruhat, SHARED_INTERMEDIATES[name][0],
            lambda spec: cross_check(tangents[spec], spec))

    @pytest.mark.parametrize("name", list(SHARED_INTERMEDIATES))
    def test_check_draw_perturbed_table_moves_exactly_its_routes(self, monkeypatch, name):
        # check_draw reads the stack its draw loop accepted; at this seed
        # every layout accepts its first payload, so the loop builds one
        module = spaces if name == "flipped stack" else bruhat
        self._assert_moves_exactly_its_routes(
            monkeypatch, name, module, SHARED_INTERMEDIATES[name][0],
            lambda spec: check_draw(spec, np.random.default_rng(77)).reports)


class TestCheckDraw:
    def test_equals_public_composition(self, monkeypatch):
        # the six `verify` defaults, AIII(5, 45), and AIII(2, 3) at seed 134,
        # whose first payload the rejection loop redraws
        samples = []
        real_sample = spaces._sample_coordinates

        def counting_sample(*args):
            samples.append(args[0])
            return real_sample(*args)

        monkeypatch.setattr(spaces, "_sample_coordinates", counting_sample)
        cases = [(spec, 0) for spec in FAMILY_DEFAULTS]
        cases += [(aiii(5, 45), 0), (aiii(2, 3), 134)]
        for spec, seed in cases:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                samples.clear()
                draw = check_draw(spec, rng)
                drawn = len(samples)
                X = build_tangent(spec, random_coordinates(spec, ref_rng))
                reports = cross_check(X, spec)
                assert len(samples) == 2 * drawn
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                assert list(draw.reports) == list(reports), spec.family
                for tag, r in reports.items():
                    d = draw.reports[tag]
                    assert d.entries.tobytes() == r.entries.tobytes(), (spec, tag)
                    assert (d.product, d.lemma3_residual) == (
                        r.product, r.lemma3_residual), (spec, tag)
                assert draw.gap == max_cross_gap(reports), spec.family
                assert draw.membership == max(
                    verify_image(spec, cayley(X)).violations.values()), spec.family
        samples.clear()
        check_draw(aiii(2, 3), np.random.default_rng(134))
        assert len(samples) == 2
