import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatdiag.linalg import (
    ExpansionLimitError,
    _flipped_determinants,
    _minor_expansion,
    _minor_plan,
    _subset_table,
    antitranspose,
    as_matrix,
    leading_signature,
    matrix_from_json,
    matrix_to_json,
)
from bruhatdiag.spaces import SpaceSpec, aiii, build_tangent, ci, cii, diii, random_coordinates


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _full_expansion(A):
    """Every principal minor factored, as the expansion did before it read
    the pattern of ``A``."""
    gathers, signs = _subset_table(A.shape[0])
    minors = np.concatenate([np.linalg.det(A.ravel().take(ix)) for ix in gathers])
    return 1 + (signs * minors).sum(axis=1)


def _kept_minors(A):
    """The plan's mask over the ``2**n - 1`` minors of ``A`` and its number
    of subset sizes."""
    plan = _minor_plan((A != 0).tobytes())
    assert not any(a.flags.writeable for pair in plan for a in pair)
    kept = np.zeros(2**A.shape[0] - 1, dtype=bool)
    for _, at in plan:
        kept[at] = True
    return kept, len(plan)


def _tangent(spec, seed):
    return build_tangent(spec, random_coordinates(spec, np.random.default_rng(seed)))


class TestDet:
    """The two determinant cores, the split stack and the minor expansion,
    against ``np.linalg.det`` of every ``1 + I_k A``."""

    def test_identity(self):
        # every flip of the zero matrix is the identity
        for n in (1, 3):
            zero, no_block = np.zeros((n, n), dtype=complex), np.zeros(n, dtype=bool)
            assert _flipped_determinants(zero, no_block).tolist() == [1.0] * (n + 1)
            assert _minor_expansion(zero).tolist() == [1.0] * (n + 1)

    def test_diagonal_signs(self):
        # flip k of diag(a) is prod(1 - a[:k]) * prod(1 + a[k:])
        a = np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.5j])
        want = [np.prod(1 - a[:k]) * np.prod(1 + a[k:]) for k in range(4)]
        no_block = np.zeros(3, dtype=bool)
        for got in (_flipped_determinants(np.diag(a), no_block), _minor_expansion(np.diag(a))):
            assert np.allclose(got, want, rtol=1e-15, atol=0)

    def test_empty_matrix(self):
        empty = np.zeros((0, 0), dtype=complex)
        assert _flipped_determinants(empty, np.zeros(0, dtype=bool)).tolist() == [1.0]
        assert _minor_expansion(empty).tolist() == [1.0]

    def test_agrees_with_minor_expansion(self):
        # oracle: the combinatorial expansion of det(1 + A)
        rng = np.random.default_rng(42)
        for _ in range(10):
            A = _random_complex(rng, (6, 6))
            direct = np.linalg.det(np.eye(6) + A)
            expanded = _minor_expansion(A)[0]
            assert abs(direct - expanded) <= 1e-9 * (1 + abs(direct))

    def test_multiplicative(self):
        # with A_TT = 0 the block (1 + I_k A)_TT is the identity, so det(1 + I_k A)
        # factors as det(1_T) times the determinant of its Schur complement
        rng = np.random.default_rng(7)
        block = np.arange(7) >= 3
        for _ in range(10):
            A = _random_complex(rng, (7, 7))
            A[np.ix_(block, block)] = 0.0
            split = _flipped_determinants(A, block)
            for k in range(8):
                full = np.linalg.det(np.eye(7) + leading_signature(7, k) @ A)
                assert abs(split[k] - full) <= 1e-12 * max(1.0, abs(full)), k


class TestTransposedViews:
    def test_results_equal_contiguous_copy_bitwise(self):
        rng = np.random.default_rng(12)
        for n in (4, 9):
            A = _random_complex(rng, (n, n))
            assert not A.T.flags.c_contiguous
            C = np.ascontiguousarray(A.T)
            no_block = np.zeros(n, dtype=bool)
            assert (_flipped_determinants(A.T, no_block).tobytes()
                    == _flipped_determinants(C, no_block).tobytes())
            assert _minor_expansion(A.T).tobytes() == _minor_expansion(C).tobytes()

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.5), complex(0.5, np.nan),
                                     complex(np.inf, 0.5), complex(0.5, -np.inf)],
                             ids=["nan_real", "nan_imag", "inf_real", "inf_imag"])
    def test_non_finite_part_rejected(self, bad):
        A = np.eye(3, dtype=complex)
        A[0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            as_matrix(A.T)


class TestAntitranspose:
    def test_identity_fixed(self):
        assert np.array_equal(antitranspose(np.eye(3)), np.eye(3))

    def test_e12_fixed_in_two_by_two(self):
        # entry (1,2) reflects across the antidiagonal onto itself
        E = np.zeros((2, 2), dtype=complex)
        E[0, 1] = 1.0
        assert np.array_equal(antitranspose(E), E)

    def test_anti_automorphism(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            A = _random_complex(rng, (5, 5))
            B = _random_complex(rng, (5, 5))
            lhs = antitranspose(A @ B)
            rhs = antitranspose(B) @ antitranspose(A)
            assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(lhs).max())

    def test_rectangular_shape(self):
        A = np.arange(6).reshape(2, 3).astype(complex)
        B = antitranspose(A)
        assert B.shape == (3, 2)
        # (1,1) of the result is (2,3) of the input, per the reflection
        assert B[0, 0] == A[1, 2]


class TestSignatureMatrix:
    def test_single_leading_run(self):
        S = leading_signature(3, 1)
        assert S.dtype == complex
        assert np.array_equal(S, np.diag([-1.0, 1.0, 1.0]))

    def test_zero_leading_run_is_identity(self):
        assert np.array_equal(leading_signature(3, 0), np.eye(3))
        assert leading_signature(0, 0).shape == (0, 0)

    def test_involution(self):
        S = leading_signature(6, 4)
        assert np.array_equal(S @ S, np.eye(6))

    def test_negative_run_rejected(self):
        with pytest.raises(ValueError):
            leading_signature(3, -1)

    def test_leading_signature_bounds(self):
        assert np.array_equal(leading_signature(3, 0), np.eye(3))
        with pytest.raises(ValueError):
            leading_signature(3, 4)


class TestPrincipalMinorExpansion:
    def test_zero_matrix(self):
        assert _minor_expansion(np.zeros((3, 3)))[0] == pytest.approx(1.0)

    def test_two_by_two_diagonal(self):
        a, b = 0.3 + 0.1j, -0.2 + 0.4j
        total = _minor_expansion(np.diag([a, b]))[0]
        assert total == pytest.approx(1 + a + b + a * b)

    def test_empty_matrix(self):
        assert np.array_equal(_minor_expansion(np.zeros((0, 0))), [1.0])

    def test_plan_gathers_every_principal_minor(self):
        rng = np.random.default_rng(9)
        A = _random_complex(rng, (5, 5))
        gathers, signs = _subset_table(5)
        assert signs.shape == (6, 2**5 - 1) and signs.flags.c_contiguous
        assert not any(a.flags.writeable for a in (*gathers, signs))
        for size, ix in enumerate(gathers, start=1):
            subsets = np.array(list(itertools.combinations(range(5), size)))
            assert np.array_equal(A.ravel().take(ix),
                                  A[subsets[:, :, None], subsets[:, None, :]])

    # layout, minors factored (of 2**N - 1), batched det calls (of N)
    @pytest.mark.parametrize("spec, factored, calls", [
        (aiii(2, 3), 9, 2), (diii(3), 19, 3), (ci(3), 19, 3), (cii(2, 2), 69, 4),
        (SpaceSpec("BDI_even", p=4, q=3), 34, 3), (aiii(5, 5), 251, 5),
    ], ids=["aiii_2_3", "diii_3", "ci_3", "cii_2_2", "bdi_even_4_3", "aiii_5_5"])
    def test_bipartite_tangent_factors_only_balanced_minors(self, spec, factored, calls,
                                                             monkeypatch):
        gathers, _ = _subset_table(spec.ambient)
        for seed in range(20):
            X = _tangent(spec, seed)
            kept, sizes = _kept_minors(X)
            assert (np.count_nonzero(kept), sizes) == (factored, calls)
            # every skipped minor is exactly 0 when factored all the same
            skipped = np.split(~kept, np.cumsum([len(ix) for ix in gathers])[:-1])
            for ix, off in zip(gathers, skipped):
                assert not np.linalg.det(X.ravel().take(ix[off])).any(), (spec, seed)
            assert _minor_expansion(X).tobytes() == _full_expansion(X).tobytes()
        dets = []
        real_det = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda a: dets.append(len(a)) or real_det(a))
        _minor_expansion(X)
        assert len(dets) == calls and sum(dets) == factored

    @pytest.mark.parametrize("make", [
        lambda: _tangent(SpaceSpec("BDI_oddodd", p=3, q=3), 0),
        lambda: _random_complex(np.random.default_rng(3), (6, 6)),
        lambda: _tangent(aiii(2, 3), 0) + np.diag([0, 0.25j, 0, 0, 0]),
        lambda: np.array([[0, 1, 0], [0, 0, 2], [3j, 0, 0]]),
    ], ids=["bdi_oddodd_torus", "dense", "one_diagonal_entry", "odd_cycle"])
    def test_pattern_that_is_not_bipartite_keeps_every_minor(self, make):
        X = as_matrix(make())
        n = X.shape[0]
        kept, sizes = _kept_minors(X)
        assert kept.all() and sizes == n
        # a size kept whole gathers with the shared table, not a copy
        gathers, _ = _subset_table(n)
        assert all(ix is g for (ix, _), g in zip(_minor_plan((X != 0).tobytes()), gathers))
        assert _minor_expansion(X).tobytes() == _full_expansion(X).tobytes()

    def test_cap_enforced(self):
        with pytest.raises(ExpansionLimitError):
            _minor_expansion(np.zeros((11, 11)))

    def test_identity_up_to_size_eight(self):
        rng = np.random.default_rng(8)
        for n in range(1, 9):
            for _ in range(3):
                A = _random_complex(rng, (n, n))
                direct = np.linalg.det(np.eye(n) + A)
                expanded = _minor_expansion(A)[0]
                assert abs(direct - expanded) <= 1e-9 * (1 + abs(direct))


@st.composite
def small_complex_matrices(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    vals = draw(
        st.lists(
            st.tuples(
                st.floats(-2.0, 2.0, allow_nan=False),
                st.floats(-2.0, 2.0, allow_nan=False),
            ),
            min_size=n * n,
            max_size=n * n,
        )
    )
    return np.array([complex(a, b) for a, b in vals]).reshape(n, n)


@settings(max_examples=60, deadline=None)
@given(small_complex_matrices())
def test_expansion_matches_direct_determinant(A):
    n = A.shape[0]
    direct = np.linalg.det(np.eye(n) + A)
    expanded = _minor_expansion(A)[0]
    assert abs(direct - expanded) <= 1e-9 * (1 + abs(direct))


@settings(max_examples=60, deadline=None)
@given(small_complex_matrices())
def test_antitranspose_involution(A):
    assert np.array_equal(antitranspose(antitranspose(A)), A)


def test_matrix_json_round_trip():
    rng = np.random.default_rng(3)
    A = _random_complex(rng, (4, 4))
    obj = matrix_to_json(A)
    assert obj["n"] == 4
    B = matrix_from_json(obj)
    assert np.array_equal(A, B)


def test_matrix_json_round_trip_of_the_empty_matrix():
    obj = matrix_to_json(np.zeros((0, 0)))
    assert obj == {"n": 0, "entries": []}
    assert matrix_from_json(obj).shape == (0, 0)


def test_matrix_json_rejects_bad_shapes():
    with pytest.raises(ValueError, match="entries"):
        matrix_from_json({"n": 2, "entries": [[[1, 0]]]})
    with pytest.raises(ValueError, match='"n"'):
        matrix_from_json({"entries": []})
    with pytest.raises(ValueError, match='field "n" must be non-negative, got -1'):
        matrix_from_json({"n": -1, "entries": []})
