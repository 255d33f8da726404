import itertools

import numpy as np
import pytest

from bruhatdiag.bruhat import diagonal_via_cayley, diagonal_via_coroots
from bruhatdiag.components import _part_labels
from bruhatdiag.linalg import antitranspose, leading_signature
from bruhatdiag.spaces import (
    FAMILIES,
    FAMILY,
    Coordinates,
    CoordinateError,
    SpaceSpec,
    aiii,
    bdi,
    block_sizes,
    build_tangent,
    ci,
    cii,
    coordinates_from_json,
    coordinates_to_json,
    coroots,
    diii,
    involution_apply,
    involution_matrix,
    random_coordinates,
    spec_from_family,
    support_mask,
    validate_tangent,
    zero_coordinates,
)

ALL_SPECS = [
    aiii(1, 1), aiii(2, 3),
    diii(2), diii(3),
    ci(1), ci(3),
    cii(1, 1), cii(2, 2),
    SpaceSpec("BDI_even", p=4, q=3), SpaceSpec("BDI_even", p=2, q=1),
    SpaceSpec("BDI_oddodd", p=3, q=3), SpaceSpec("BDI_oddodd", p=5, q=1),
]


def _grid(family: str, max_ambient: int = 14) -> list[SpaceSpec]:
    """Every valid spec of ``family`` with ambient size at most ``max_ambient``."""
    names = FAMILY[family].params
    specs = []
    for values in itertools.product(range(1, max_ambient + 1), repeat=len(names)):
        try:
            spec = spec_from_family(family, **dict(zip(names, values)))
        except ValueError:
            continue
        if spec.ambient <= max_ambient:
            specs.append(spec)
    return specs


GRID = [spec for family in FAMILY for spec in _grid(family)]


class TestSpecValidation:
    def test_aiii_requires_m_le_n(self):
        with pytest.raises(ValueError, match="m <= n"):
            aiii(3, 2)

    def test_bdi_dispatch(self):
        assert bdi(4, 3).family == "BDI_even"
        assert bdi(3, 3).family == "BDI_oddodd"
        with pytest.raises(ValueError):
            bdi(3, 2)

    def test_bdi_even_parity(self):
        with pytest.raises(ValueError):
            SpaceSpec("BDI_even", p=3, q=2)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            SpaceSpec("AIV", n=2)

    def test_ambient_sizes(self):
        assert aiii(2, 3).ambient == 5
        assert diii(3).ambient == 6
        assert ci(3).ambient == 6
        assert cii(2, 2).ambient == 8
        assert SpaceSpec("BDI_even", p=4, q=3).ambient == 7
        assert SpaceSpec("BDI_oddodd", p=3, q=3).ambient == 6


class TestBuildTangent:
    def test_rank_one_grassmannian(self):
        z = 0.3 + 0.4j
        X = build_tangent(aiii(1, 1), Coordinates(family="AIII", Z=np.array([[z]])))
        expect = np.array([[0, z], [-np.conj(z), 0]])
        assert np.array_equal(X, expect)

    def test_zero_coordinates_give_zero(self):
        for spec in ALL_SPECS:
            X = build_tangent(spec, zero_coordinates(spec))
            assert np.abs(X).max() == 0.0

    def test_doubled_column_layout(self):
        # p = 2, q = 1 real case: single coordinate appears in four slots
        z = 0.25 - 0.5j
        spec = SpaceSpec("BDI_even", p=2, q=1)
        X = build_tangent(spec, Coordinates(family="BDI_even", Z=np.array([[z]])))
        expect = np.array([
            [0, z, 0],
            [-np.conj(z), 0, -z],
            [0, np.conj(z), 0],
        ])
        assert np.array_equal(X, expect)

    def test_odd_odd_low_dimensional_layout(self):
        # p = 3, q = 1: one outer coordinate plus the central torus parameter
        w, s = 0.3 + 0.1j, 0.5
        spec = SpaceSpec("BDI_oddodd", p=3, q=1)
        coords = Coordinates(family="BDI_oddodd",
                             Z1=np.zeros((1, 0)), Z2=np.zeros((1, 0)),
                             w1=np.array([w]), w2=np.zeros(0), s=s)
        X = build_tangent(spec, coords)
        wc = np.conj(w)
        expect = np.array([
            [0, w, -w, 0],
            [-wc, 1j * s, 0, w],
            [wc, 0, -1j * s, -w],
            [0, -wc, wc, 0],
        ])
        assert np.abs(X - expect).max() == 0.0

    def test_diii_payload_symmetry_enforced(self):
        Z = np.array([[0.1, 0.2], [0.3, 0.4]], dtype=complex)
        with pytest.raises(CoordinateError, match="antitranspose"):
            build_tangent(diii(2), Coordinates(family="DIII", Z=Z))

    def test_ci_payload_symmetry_enforced(self):
        Z = np.array([[0.1, 0.2], [0.3, 0.4]], dtype=complex)
        with pytest.raises(CoordinateError):
            build_tangent(ci(2), Coordinates(family="CI", Z=Z))

    def test_dimension_mismatch(self):
        with pytest.raises(CoordinateError, match="shape"):
            build_tangent(aiii(2, 3), Coordinates(family="AIII", Z=np.zeros((2, 2))))

    def test_family_mismatch(self):
        with pytest.raises(CoordinateError, match="tagged"):
            build_tangent(aiii(1, 1), Coordinates(family="CI", Z=np.zeros((1, 1))))

    def test_transposed_view_equals_contiguous_copy_bitwise(self):
        spec = aiii(3, 3)
        Z = random_coordinates(spec, np.random.default_rng(13)).Z.T
        assert not Z.flags.c_contiguous
        got = build_tangent(spec, Coordinates(family="AIII", Z=Z))
        want = build_tangent(spec, Coordinates(family="AIII", Z=np.ascontiguousarray(Z)))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.5), complex(0.5, np.nan),
                                     complex(np.inf, 0.5), complex(0.5, -np.inf)],
                             ids=["nan_real", "nan_imag", "inf_real", "inf_imag"])
    def test_non_finite_part_of_transposed_view_rejected(self, bad):
        Z = np.zeros((3, 2), dtype=complex)
        Z[2, 0] = bad
        with pytest.raises(CoordinateError, match="non-finite"):
            build_tangent(aiii(2, 3), Coordinates(family="AIII", Z=Z.T))


class TestValidateTangent:
    def test_random_builds_pass(self):
        rng = np.random.default_rng(5)
        for spec in ALL_SPECS:
            for _ in range(5):
                X = build_tangent(spec, random_coordinates(spec, rng))
                report = validate_tangent(spec, X, tol=1e-12)
                assert report.ok, (spec.family, report.violations)

    def test_identity_fails_skew_check(self):
        spec = aiii(1, 1)
        report = validate_tangent(spec, np.eye(2))
        assert not report.ok
        assert report.violations["skew_hermitian"] == pytest.approx(2.0)

    def test_perturbation_is_pinpointed(self):
        rng = np.random.default_rng(9)
        spec = diii(3)
        X = build_tangent(spec, random_coordinates(spec, rng))
        X = X.copy()
        X[0, 3] += 1e-3  # breaks skew-Hermitianity and the reflection pairing
        report = validate_tangent(spec, X, tol=1e-9)
        assert not report.ok
        assert report.violations["reflection"] == pytest.approx(1e-3, rel=1e-6)
        assert report.violations["skew_hermitian"] == pytest.approx(1e-3, rel=1e-6)

    def test_diii_antidiagonal_zero(self):
        rng = np.random.default_rng(1)
        X = build_tangent(diii(3), random_coordinates(diii(3), rng))
        anti = np.array([X[i, 5 - i] for i in range(6)])
        assert np.abs(anti).max() == 0.0


class TestInvolution:
    def test_matrix_is_involutive(self):
        for spec in ALL_SPECS:
            I = involution_matrix(spec)
            assert np.abs(I @ I - np.eye(spec.ambient)).max() == 0.0

    def test_diagonal_matrices_fixed_for_inner(self):
        spec = cii(2, 2)
        D = np.diag(np.arange(1, 9).astype(complex))
        assert np.array_equal(involution_apply(spec, D), D)

    def test_rank_one_sign_flip(self):
        z = 0.7 - 0.2j
        spec = aiii(1, 1)
        X = build_tangent(spec, Coordinates(family="AIII", Z=np.array([[z]])))
        out = involution_apply(spec, X)
        assert np.array_equal(out, -X)

    def test_double_application_identity(self):
        rng = np.random.default_rng(13)
        for spec in ALL_SPECS:
            A = rng.standard_normal((spec.ambient,) * 2) \
                + 1j * rng.standard_normal((spec.ambient,) * 2)
            back = involution_apply(spec, involution_apply(spec, A))
            assert np.abs(back - A).max() <= 1e-12 * max(1.0, np.abs(A).max())

    def test_outer_involution_negates_tangent(self):
        rng = np.random.default_rng(17)
        spec = SpaceSpec("BDI_oddodd", p=3, q=3)
        X = build_tangent(spec, random_coordinates(spec, rng))
        assert np.abs(involution_apply(spec, X) + X).max() <= 1e-12


class TestCoroots:
    def test_rank_two_unitary_case(self):
        sys = coroots(aiii(1, 2))
        assert [v.tolist() for v in sys.vectors] == [[1, -1, 0], [0, 1, -1]]
        assert sys.terminal_index is None

    def test_symplectic_n2(self):
        sys = coroots(ci(2))
        assert [v.tolist() for v in sys.vectors] == [
            [1, -1, 1, -1],
            [0, 1, -1, 0],
        ]
        assert sys.product_indices == (1, 2)

    def test_orthogonal_n2(self):
        sys = coroots(diii(2))
        assert [v.tolist() for v in sys.vectors] == [
            [1, -1, 1, -1],
            [1, 1, -1, -1],
        ]
        assert sys.terminal_index == 2
        # the half combination resolves to integer exponents
        assert sys.terminal_numerators.tolist() == [0, 2, -2, 0]

    def test_odd_ambient_terminal(self):
        sys = coroots(SpaceSpec("BDI_even", p=4, q=3))
        assert sys.terminal_index == 3
        assert sys.terminal_numerators.tolist() == [0, 0, 2, 0, -2, 0, 0]

    def test_all_vectors_traceless(self):
        for spec in ALL_SPECS:
            sys = coroots(spec)
            for v in sys.vectors:
                assert v.sum() == 0
            if sys.terminal_numerators is not None:
                assert sys.terminal_numerators.sum() == 0
                assert np.all(sys.terminal_numerators % 2 == 0)

    def test_product_form_holds_over_grid(self):
        # coroots() asserts even terminal numerators; its product form must
        # also reproduce the determinant-ratio diagonal on every layout
        rng = np.random.default_rng(41)
        terminal = 0
        for spec in GRID:
            sys = coroots(spec)
            if sys.terminal_numerators is not None:
                terminal += 1
                assert not np.any(sys.terminal_numerators % 2), spec
            X = build_tangent(spec, random_coordinates(spec, rng))
            a = diagonal_via_coroots(spec, X).entries
            b = diagonal_via_cayley(X, spec).entries
            assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) <= 1e-9, spec
        assert (len(GRID), terminal) == (154, 75)

    def test_each_system_built_once_and_read_only(self):
        for spec in ALL_SPECS:
            sys = coroots(spec)
            assert coroots(SpaceSpec(spec.family, **spec.params_dict())) is sys
            arrays = list(sys.vectors)
            if sys.terminal_numerators is not None:
                arrays.append(sys.terminal_numerators)
            for v in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    v[0] = 7

    def test_degenerate_corners(self):
        # the n = 1 orthogonal space is a point: empty exponent system
        assert coroots(diii(1)).vectors == ()
        # the smallest doubly-odd layout keeps its bare torus generator
        sys = coroots(SpaceSpec("BDI_oddodd", p=1, q=1))
        assert [v.tolist() for v in sys.vectors] == [[1, -1]]
        assert sys.terminal_index is None


class TestCoordinateJson:
    def test_round_trip(self):
        rng = np.random.default_rng(23)
        for spec in ALL_SPECS:
            coords = random_coordinates(spec, rng)
            obj = coordinates_to_json(spec, coords)
            spec2, coords2 = coordinates_from_json(obj)
            assert spec2 == spec
            assert np.abs(build_tangent(spec, coords)
                          - build_tangent(spec2, coords2)).max() == 0.0

    def test_missing_payload_field(self):
        with pytest.raises(ValueError, match='"Z"'):
            coordinates_from_json({"family": "AIII", "params": {"m": 1, "n": 1},
                                   "payload": {}})

    def test_integral_float_parameter_accepted(self):
        obj = {"family": "AIII", "params": {"m": 1.0, "n": 2}, "payload": {"Z": [[[0.5, 0], [0, 0]]]}}
        spec, _ = coordinates_from_json(obj)
        assert spec == aiii(1, 2) and type(spec.m) is int

    def test_random_entries_within_radius(self):
        rng = np.random.default_rng(31)
        coords = random_coordinates(aiii(2, 3), rng, radius=0.7)
        assert np.abs(coords.Z).max() <= 0.7

    def test_diii_random_payload_is_reflection_odd(self):
        rng = np.random.default_rng(37)
        coords = random_coordinates(diii(4), rng)
        assert np.abs(coords.Z + antitranspose(coords.Z)).max() == 0.0


# Hand-written per-family tables: the registry must derive the same layout.

def _ref_block_sizes(spec):
    fam = spec.family
    if fam == "AIII":
        return (spec.m, spec.n)
    if fam in ("DIII", "CI"):
        return (spec.n, spec.n)
    if fam == "CII":
        return (spec.p, spec.q, spec.q, spec.p)
    if fam == "BDI_even":
        h = spec.p // 2
        return (h, spec.q, h)
    n1, n2 = (spec.p - 1) // 2, (spec.q - 1) // 2
    return (n1, n2, 1, 1, n2, n1)


def _ref_involution_matrix(spec):
    fam = spec.family
    if fam == "AIII":
        return leading_signature(spec.ambient, spec.m)
    if fam in ("DIII", "CI"):
        return leading_signature(spec.ambient, spec.n)
    if fam == "CII":
        diag = [-1.0] * spec.p + [1.0] * (2 * spec.q) + [-1.0] * spec.p
        return np.diag(np.array(diag, dtype=complex))
    if fam == "BDI_even":
        h = spec.p // 2
        return np.diag(np.array([-1.0] * h + [1.0] * spec.q + [-1.0] * h, dtype=complex))
    n1, n2 = (spec.p - 1) // 2, (spec.q - 1) // 2
    diag = [1.0] * n1 + [-1.0] * n2 + [0.0, 0.0] + [-1.0] * n2 + [1.0] * n1
    I = np.diag(np.array(diag, dtype=complex))
    mid = n1 + n2
    I[mid, mid + 1] = 1.0
    I[mid + 1, mid] = 1.0
    return I


#: Block pairs (row block, column block) a tangent may fill.
_REF_SUPPORT_PAIRS = {
    "AIII": ((0, 1), (1, 0)),
    "DIII": ((0, 1), (1, 0)),
    "CI": ((0, 1), (1, 0)),
    "CII": ((0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)),
    "BDI_even": ((0, 1), (1, 0), (1, 2), (2, 1)),
    "BDI_oddodd": (
        (0, 1), (0, 2), (0, 3), (0, 4),
        (1, 0), (1, 2), (1, 3), (1, 5),
        (2, 0), (2, 1), (2, 2), (2, 4), (2, 5),
        (3, 0), (3, 1), (3, 3), (3, 4), (3, 5),
        (4, 0), (4, 2), (4, 3), (4, 5),
        (5, 1), (5, 2), (5, 3), (5, 4),
    ),
}


def _ref_support_mask(spec):
    starts = [0, *itertools.accumulate(_ref_block_sizes(spec))]
    mask = np.zeros((spec.ambient, spec.ambient), dtype=bool)
    for bi, bj in _REF_SUPPORT_PAIRS[spec.family]:
        mask[starts[bi]:starts[bi + 1], starts[bj]:starts[bj + 1]] = True
    return mask


def _ref_part_labels(spec):
    N = spec.ambient
    fam = spec.family
    labels = [None] * N
    if fam == "AIII":
        for i in range(N):
            labels[i] = "a" if i < spec.m else "b"
    elif fam in ("DIII", "CI"):
        for i in range(N):
            labels[i] = "a" if i < spec.n else "b"
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
    return labels


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_registry_covers_every_family():
    assert FAMILY.keys() == set(FAMILIES)


@pytest.mark.parametrize("family", list(FAMILY))
class TestFamilyRegistry:
    def test_block_sizes_and_ambient(self, family):
        for spec in _grid(family):
            assert block_sizes(spec) == _ref_block_sizes(spec), spec
            assert spec.ambient == sum(_ref_block_sizes(spec)), spec

    def test_involution_matrix(self, family):
        for spec in _grid(family):
            assert _same_bits(involution_matrix(spec), _ref_involution_matrix(spec)), spec

    def test_support_mask(self, family):
        for spec in _grid(family):
            assert _same_bits(support_mask(spec), _ref_support_mask(spec)), spec

    def test_part_labels_partition(self, family):
        # labels are compared by equality and None only, so the relation is what counts
        for spec in _grid(family):
            labels, ref = _part_labels(spec), _ref_part_labels(spec)
            assert [a is None for a in labels] == [r is None for r in ref], spec
            assert ([[a == b for b in labels] for a in labels]
                    == [[a == b for b in ref] for a in ref]), spec

    def test_defaults_give_a_valid_tangent(self, family):
        spec = spec_from_family(family, **FAMILY[family].defaults)
        assert spec.params_dict() == FAMILY[family].defaults
        X = build_tangent(spec, random_coordinates(spec, np.random.default_rng(3)))
        report = validate_tangent(spec, X, tol=1e-12)
        assert report.ok, report.violations
