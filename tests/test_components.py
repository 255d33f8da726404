import itertools

import numpy as np
import pytest

from bruhatdiag.bruhat import NonGenericError, diagonal_via_cayley
from bruhatdiag.components import (
    ComponentRep,
    LimitReport,
    construct_witness,
    enumerate_components,
    limit_check,
)
from bruhatdiag.linalg import det
from bruhatdiag.spaces import SpaceSpec, aiii, ci, cii, diii, validate_tangent

SMALL_SPECS = [
    aiii(1, 1), aiii(1, 2), aiii(2, 2), aiii(2, 3), aiii(3, 3), aiii(1, 3),
    diii(2), diii(3), diii(4),
    ci(1), ci(2), ci(3), ci(4),
    cii(1, 1), cii(1, 2), cii(2, 2), cii(1, 3),
    SpaceSpec("BDI_even", p=2, q=1), SpaceSpec("BDI_even", p=4, q=1),
    SpaceSpec("BDI_even", p=6, q=1), SpaceSpec("BDI_even", p=2, q=2),
    SpaceSpec("BDI_even", p=4, q=3), SpaceSpec("BDI_even", p=4, q=4),
    SpaceSpec("BDI_even", p=6, q=2), SpaceSpec("BDI_even", p=2, q=5),
    SpaceSpec("BDI_oddodd", p=1, q=1), SpaceSpec("BDI_oddodd", p=3, q=3),
    SpaceSpec("BDI_oddodd", p=3, q=5), SpaceSpec("BDI_oddodd", p=5, q=3),
    SpaceSpec("BDI_oddodd", p=5, q=1), SpaceSpec("BDI_oddodd", p=1, q=7),
]


def _decreasing(deviations) -> bool:
    """The computed deviations never grow along the grid, to rounding."""
    seq = [d for d in deviations if d is not None]
    return all(b <= a * (1 + 1e-12) + 1e-15 for a, b in zip(seq, seq[1:]))


# Independent statement of the admissibility rules, used to brute-force
# all 2**N sign vectors for comparison with the constructive enumeration.
def _admissible(spec: SpaceSpec, signs) -> bool:
    N = spec.ambient
    neg = [i for i in range(N) if signs[i] == -1]
    fam = spec.family
    if fam == "AIII":
        return sum(1 for i in neg if i < spec.m) == sum(1 for i in neg if i >= spec.m)
    if any(signs[i] != signs[N - 1 - i] for i in range(N)):
        return False
    if fam == "CI":
        return True
    if fam == "DIII":
        return sum(1 for i in neg if i < spec.n) % 2 == 0
    if fam == "CII":
        p = spec.p
        outer = sum(1 for i in neg if i < p or i >= N - p)
        return outer == len(neg) - outer
    if fam == "BDI_even":
        h = spec.p // 2
        outer = sum(1 for i in neg if i < h or i >= N - h)
        if spec.q % 2 == 1 and signs[(N - 1) // 2] == -1:
            return False
        return outer == len(neg) - outer
    # doubly odd: canonical representative keeps the two middle entries +1
    mid = N // 2 - 1
    if signs[mid] == -1 or signs[mid + 1] == -1:
        return False
    n1 = (spec.p - 1) // 2
    outer = sum(1 for i in neg if i < n1 or i >= N - n1)
    return outer == len(neg) - outer


def _brute_force(spec: SpaceSpec):
    out = []
    for signs in itertools.product((1, -1), repeat=spec.ambient):
        if _admissible(spec, signs):
            out.append(signs)
    out.sort(key=lambda s: tuple(0 if x == 1 else 1 for x in s))
    return out


class TestEnumeration:
    def test_sphere_has_two_components(self):
        reps = enumerate_components(aiii(1, 1))
        assert [r.label() for r in reps] == ["++", "--"]

    def test_rank_one_complex_projective_plane(self):
        # brute force over the 8 sign vectors leaves three representatives,
        # ordered lexicographically with '+' before '-'
        reps = enumerate_components(aiii(1, 2))
        assert [r.label() for r in reps] == ["+++", "-+-", "--+"]

    def test_even_real_projective_spaces_are_connected(self):
        for n in (1, 2, 3):
            reps = enumerate_components(SpaceSpec("BDI_even", p=2 * n, q=1))
            assert len(reps) == 1
            assert reps[0].is_identity

    def test_identity_is_always_first(self):
        for spec in SMALL_SPECS:
            reps = enumerate_components(spec)
            assert reps[0].is_identity

    def test_matches_brute_force(self):
        for spec in SMALL_SPECS:
            if spec.ambient > 8:
                continue
            got = [r.signs for r in enumerate_components(spec)]
            assert got == _brute_force(spec), spec

    def test_no_duplicates(self):
        for spec in SMALL_SPECS:
            labels = [r.label() for r in enumerate_components(spec)]
            assert len(labels) == len(set(labels))

    def test_reflection_symmetry_of_enumerated_vectors(self):
        for spec in SMALL_SPECS:
            if spec.family == "AIII":
                continue
            N = spec.ambient
            for rep in enumerate_components(spec):
                assert all(rep.signs[i] == rep.signs[N - 1 - i] for i in range(N))

    def test_alpha_matches_signs(self):
        rep = ComponentRep(aiii(1, 2), (-1, 1, -1))
        assert rep.alpha == (1, 3)


class TestWitness:
    def test_sphere_witness_is_plane_rotation(self):
        rep = enumerate_components(aiii(1, 1))[1]
        X = construct_witness(rep)
        assert np.array_equal(X, np.array([[0, 1], [-1, 0]], dtype=complex))

    def test_identity_witness_is_zero(self):
        rep = enumerate_components(aiii(2, 2))[0]
        assert np.abs(construct_witness(rep)).max() == 0.0

    def test_projective_plane_witness(self):
        rep = ComponentRep(aiii(1, 2), (-1, -1, 1))
        X = construct_witness(rep)
        assert abs(det(X[:2, :2]) - 1.0) <= 1e-15
        assert np.abs(X[:, 2]).max() == 0.0 and np.abs(X[2, :]).max() == 0.0
        assert validate_tangent(rep.spec, X, tol=1e-12).ok

    def test_all_witnesses_valid(self):
        for spec in SMALL_SPECS:
            for rep in enumerate_components(spec):
                X = construct_witness(rep)
                assert validate_tangent(spec, X, tol=1e-12).ok, (spec, rep.label())
                if rep.is_identity:
                    continue
                ia = np.array(rep.alpha) - 1
                assert abs(det(X[np.ix_(ia, ia)])) >= 1.0 - 1e-12
                outside = np.ones(X.shape, dtype=bool)
                outside[np.ix_(ia, ia)] = False
                if outside.any():
                    assert np.abs(X[outside]).max() == 0.0

    def test_entries_are_signed_units(self):
        for spec in SMALL_SPECS:
            for rep in enumerate_components(spec):
                X = construct_witness(rep)
                vals = np.abs(X[np.abs(X) > 0])
                if vals.size:
                    assert np.allclose(vals, 1.0)


class TestLimitCheck:
    def test_sphere_deviation_sequence(self):
        # closed form: deviation 2 / (1 + t^2) at every grid point
        rep = enumerate_components(aiii(1, 1))[1]
        report = limit_check(rep)
        expect = [2.0 / 101.0, 2.0 / 10001.0, 2.0 / 1000001.0]
        for got, want in zip(report.deviations, expect):
            assert got == pytest.approx(want, abs=1e-12)
        assert _decreasing(report.deviations) and report.converged

    def test_identity_rep_exact(self):
        rep = enumerate_components(diii(2))[0]
        report = limit_check(rep)
        assert report.deviations == [0.0, 0.0, 0.0]

    def test_identity_rep_checks_its_witness(self):
        # the identity goes through the same stack as every other representative
        rep = enumerate_components(aiii(1, 1))[0]
        assert rep.label() == "++"
        with pytest.raises(ValueError, match="ambient size is 2"):
            limit_check(rep, X=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="finite"):
            limit_check(rep, X=np.full((2, 2), np.nan))

    def test_alternating_projective_rep(self):
        rep = ComponentRep(aiii(1, 2), (-1, 1, -1))
        report = limit_check(rep)
        assert report.converged
        assert report.deviations[-1] <= 1e-3

    def test_every_component_converges(self):
        for spec in SMALL_SPECS:
            for rep in enumerate_components(spec):
                report = limit_check(rep)
                assert report.converged, (spec, rep.label(), report.deviations)
                assert _decreasing(report.deviations)

    def test_alternative_pairings_reach_the_same_signs(self):
        # the greedy pairing is one choice among several; a reversed greedy
        # (largest open index with smallest admissible partner) must drive
        # the diagonal to the same representative
        from bruhatdiag.components import _part_labels

        for spec in SMALL_SPECS:
            if spec.ambient > 6:
                continue
            labels = _part_labels(spec)
            N = spec.ambient
            for rep in enumerate_components(spec):
                if rep.is_identity:
                    continue
                X = _witness_reversed(rep, labels)
                if X is None:
                    continue
                if not validate_tangent(spec, X, tol=1e-12).ok:
                    continue
                report = limit_check(rep, X=X)
                assert report.converged, (spec, rep.label())

    def test_skipped_last_point_is_not_converged(self):
        rep = enumerate_components(aiii(1, 1))[1]
        report = LimitReport(rep=rep, t_grid=(10.0, 100.0, 1000.0),
                             deviations=[1e-2, 1e-4, None])
        assert not report.converged
        report.deviations = [None, None, 1e-4]
        assert report.converged

    def test_deviations_equal_cayley_route_bitwise(self):
        for spec in (aiii(3, 3), ci(4)):
            for rep in enumerate_components(spec):
                X = construct_witness(rep)
                report = limit_check(rep, X)
                target = np.array(rep.signs, dtype=float)
                expect = []
                for t in report.t_grid:
                    if rep.is_identity:
                        expect.append(0.0)
                        continue
                    try:
                        d = diagonal_via_cayley(t * X, spec).entries
                    except NonGenericError:
                        expect.append(None)
                        continue
                    expect.append(float(np.max(np.abs(d - target) / np.maximum(1.0, np.abs(d)))))
                assert report.deviations == expect, (spec, rep.label())

    def test_one_stacked_det_per_representative(self, monkeypatch):
        det_shapes, solves = [], []
        real_det, real_solve = np.linalg.det, np.linalg.solve
        monkeypatch.setattr(np.linalg, "det",
                            lambda a: det_shapes.append(np.shape(a)) or real_det(a))
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: solves.append(np.shape(a)) or real_solve(a, b))
        # every row of the all-negative witness is nonzero; 3 lie outside the zero block
        reps = enumerate_components(aiii(3, 3))
        report = limit_check(reps[-1], construct_witness(reps[-1]))
        assert det_shapes == [(len(report.t_grid), 7, 3, 3)]
        # the identity's zero witness keeps no row: one flip of 0 x 0 per grid point
        det_shapes.clear()
        assert limit_check(reps[0]).deviations == [0.0] * len(report.t_grid)
        assert det_shapes == [(len(report.t_grid), 1, 0, 0)]
        assert solves == []

    def test_shape_mismatch_raises(self):
        rep = enumerate_components(aiii(1, 1))[1]
        with pytest.raises(ValueError, match="ambient size is 2"):
            limit_check(rep, X=np.zeros((3, 3)))


def _witness_reversed(rep, labels):
    """Pair from the top down instead of bottom up."""
    spec = rep.spec
    N = spec.ambient
    X = np.zeros((N, N), dtype=complex)
    remaining = sorted(rep.alpha, reverse=True)
    so_like, sp_like = spec.so_like, spec.sp_like
    half = N // 2
    while remaining:
        i = remaining[0]
        partners = [
            j for j in remaining[1:]
            if labels[j - 1] is not None and labels[i - 1] is not None
            and labels[j - 1] != labels[i - 1]
            and not (so_like and j == N + 1 - i)
        ]
        if not partners:
            return None
        j = min(partners)
        lo, hi = min(i, j), max(i, j)
        X[lo - 1, hi - 1] = 1.0
        X[hi - 1, lo - 1] = -1.0
        remaining.remove(i)
        remaining.remove(j)
        if so_like or sp_like:
            i2, j2 = N + 1 - hi, N + 1 - lo
            if {i2, j2} != {lo, hi}:
                if so_like:
                    s = -1.0
                else:
                    sgn_lo = -1.0 if lo <= half else 1.0
                    sgn_hi = -1.0 if hi <= half else 1.0
                    s = -sgn_lo * sgn_hi
                X[i2 - 1, j2 - 1] = s
                X[j2 - 1, i2 - 1] = -s
                remaining.remove(i2)
                remaining.remove(j2)
    return X
