import dataclasses
import itertools
import json
import warnings

import numpy as np
import pytest

from bruhatdiag import spaces
from bruhatdiag.bruhat import check_draw, diagonal_via_cayley, diagonal_via_coroots
from bruhatdiag.cayley import cayley, verify_image
from bruhatdiag.linalg import antitranspose, leading_signature
from bruhatdiag.spaces import (
    FAMILIES,
    FAMILY,
    Coordinates,
    CoordinateError,
    SpaceSpec,
    aiii,
    bdi,
    build_tangent,
    ci,
    cii,
    coordinates_from_json,
    coordinates_to_json,
    diii,
    involution_apply,
    involution_matrix,
    layout,
    random_coordinates,
    spec_from_family,
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

    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(1.0), np.bool_(True)])
    def test_non_integer_parameter_rejected(self, value):
        with pytest.raises(ValueError, match=r"^AIII parameter m must be an integer, got "):
            SpaceSpec("AIII", m=value, n=3)

    @pytest.mark.parametrize("spec", [
        lambda n: aiii(1, n), lambda n: ci(n), lambda n: cii(n, 1),
        lambda n: SpaceSpec("BDI_oddodd", p=1, q=n)],
        ids=["AIII", "CI", "CII", "BDI_oddodd"])
    def test_parameter_beyond_an_index_rejected(self, spec):
        # only the specs are made: matrices of these sizes cannot be allocated
        largest = np.iinfo(np.intp).max // 4  # odd, as BDI_oddodd's q must be
        assert spec(largest).ambient <= np.iinfo(np.intp).max
        for value in (largest + 1, 10**400):
            with pytest.raises(ValueError, match=r"parameter \w is too large for an array$"):
                spec(value)

    def test_numpy_integer_parameter_is_a_python_int(self):
        spec = SpaceSpec("AIII", m=np.int64(1), n=np.int32(2))
        assert type(spec.m) is int and type(spec.n) is int
        assert spec == aiii(1, 2) and hash(spec) == hash(aiii(1, 2))
        coords = random_coordinates(spec, np.random.default_rng(0))
        assert json.loads(json.dumps(coordinates_to_json(spec, coords)))["params"] == {"m": 1, "n": 2}


class TestLayout:
    def test_one_shared_read_only_record_per_spec(self):
        for spec in ALL_SPECS:
            lay = layout(spec)
            assert layout(SpaceSpec(spec.family, **spec.params_dict())) is lay
            tables = [a for a in vars(lay).values() if isinstance(a, np.ndarray)] + list(lay.plan)
            for a in tables:
                assert a.size
                with pytest.raises(ValueError, match="read-only"):
                    a.flat[0] = 0
            with pytest.raises(TypeError):
                lay.shapes["Z"] = (1, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                lay.twist = None
        assert involution_matrix(aiii(1, 1)).flags.writeable


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

    @pytest.mark.parametrize("s", [np.inf, -np.inf, np.nan])
    def test_non_finite_torus_parameter_rejected(self, s):
        spec = SpaceSpec("BDI_oddodd", p=3, q=1)
        coords = dataclasses.replace(zero_coordinates(spec), s=s)
        with pytest.raises(CoordinateError, match="s has non-finite entries"):
            build_tangent(spec, coords)

    def test_each_plan_built_once_and_read_only(self):
        for spec in ALL_SPECS:
            plan = layout(spec).plan
            assert layout(SpaceSpec(spec.family, **spec.params_dict())).plan is plan
            for a in plan:
                assert a.size
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0

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

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError, match=r"shape \(3, 3\), ambient size is 2"):
            validate_tangent(aiii(1, 1), np.eye(3))
        # a non-finite entry is refused before any product with the sign
        # tables, as verify_image refuses it, so numpy never warns
        for spec in (aiii(2, 2), diii(2), ci(2)):
            for bad in (1j * np.inf, np.nan):
                X = np.zeros((4, 4), dtype=complex)
                X[0, 3] = bad
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with pytest.raises(ValueError, match="matrix entries must be finite"):
                        validate_tangent(spec, X)
                assert caught == [], (spec, bad)

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

    def test_signed_permutation_equals_the_matrix_products(self):
        # the involution and the sp reflection's I_{N/2} are signed
        # permutations, applied without a matrix product
        rng = np.random.default_rng(19)
        for spec in GRID:
            N = spec.ambient
            I = involution_matrix(spec)
            A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            assert np.array_equal(involution_apply(spec, A), I @ A @ I), spec
            if FAMILY[spec.family].reflection == "sp":
                E = leading_signature(N, N // 2)
                assert np.array_equal(A * layout(spec).twist, E @ A @ E), spec

    def test_violations_equal_the_matrix_product_form_bitwise(self):
        def dense_violations(spec, X, g):
            N = spec.ambient
            I, E = involution_matrix(spec), leading_signature(N, N // 2)
            ginv = np.linalg.inv(g)
            tangent = np.abs(I @ X @ I + X).max()
            image = np.abs(I @ g @ I - ginv).max()
            if FAMILY[spec.family].reflection != "sp":
                return tangent, image, None, None
            return (tangent, image, np.abs(X + E @ antitranspose(X) @ E).max(),
                    np.abs(E @ antitranspose(ginv) @ E - g).max())

        rng = np.random.default_rng(23)
        for spec in ALL_SPECS:
            X = build_tangent(spec, random_coordinates(spec, rng))
            noise = rng.standard_normal(X.shape) + 1j * rng.standard_normal(X.shape)
            for Y in (X, X + 1e-3 * noise):
                g = cayley(Y)
                tangent, image = validate_tangent(spec, Y).violations, verify_image(spec, g).violations
                want = dense_violations(spec, Y, g)
                assert tangent["involution_anti_invariance"] == want[0], spec
                assert image["involution_inverts"] == want[1], spec
                if want[2] is not None:
                    assert tangent["reflection"] == want[2], spec
                    assert image["symplectic_structure"] == want[3], spec


class TestCoroots:
    def test_rank_two_unitary_case(self):
        assert layout(aiii(1, 2)).coroots.tolist() == [[1, -1, 0], [0, 1, -1]]

    def test_symplectic_n2(self):
        assert layout(ci(2)).coroots.tolist() == [
            [1, -1, 1, -1],
            [0, 1, -1, 0],
        ]

    def test_orthogonal_n2(self):
        # the last row is e_r - e_{N+1-r}: integer exponents, no halves
        assert layout(diii(2)).coroots.tolist() == [
            [1, -1, 1, -1],
            [0, 1, -1, 0],
        ]

    def test_odd_ambient_terminal(self):
        assert layout(SpaceSpec("BDI_even", p=4, q=3)).coroots.tolist() == [
            [1, -1, 0, 0, 0, 1, -1],
            [0, 1, -1, 0, 1, -1, 0],
            [0, 0, 1, 0, -1, 0, 0],
        ]

    def test_all_vectors_traceless(self):
        for spec in ALL_SPECS:
            assert not layout(spec).coroots.sum(axis=1).any(), spec

    def test_product_form_holds_over_grid(self):
        # the product form must reproduce the determinant-ratio diagonal on
        # every layout
        rng = np.random.default_rng(41)
        for spec in GRID:
            X = build_tangent(spec, random_coordinates(spec, rng))
            a = diagonal_via_coroots(spec, X).entries
            b = diagonal_via_cayley(X, spec).entries
            assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) <= 1e-9, spec
        assert len(GRID) == 154

    def test_last_row_is_the_halved_terminal_numerators(self):
        # on orthogonal layouts the last row is the coroot system's terminal
        # rule: even numerators, halved, (h_r - v_{r-1}) / 2 for even N and
        # h_r / 2 for odd N, with h_r and v_{r-1} written out below
        so_layouts = [spec for spec in GRID if spec.so_like and spec.ambient >= 3]
        assert len(so_layouts) == 75
        for spec in so_layouts:
            N = spec.ambient
            r = N // 2
            e = np.eye(N + 1, dtype=int)[:, 1:]  # e[j] is e_j, 1-based
            if N % 2 == 0:
                h_r = e[r - 1] + e[r] - e[r + 1] - e[r + 2]
                v = e[r - 1] - e[r] + e[N - r + 1] - e[N - r + 2]
                numerators = h_r - v
            else:
                numerators = 2 * e[r] - 2 * e[r + 2]
            assert layout(spec).coroots[-1].tolist() == (numerators // 2).tolist(), spec

    def test_each_system_built_once_and_read_only(self):
        for spec in ALL_SPECS:
            E = layout(spec).coroots
            assert layout(SpaceSpec(spec.family, **spec.params_dict())).coroots is E
            assert E.dtype.kind == "i" and E.shape == (len(E), spec.ambient)
            with pytest.raises(ValueError, match="read-only"):
                E[0, 0] = 7

    def test_degenerate_corners(self):
        # the n = 1 orthogonal space is a point: its one ratio is exactly 1
        assert layout(diii(1)).coroots.tolist() == [[1, -1]]
        # the smallest doubly-odd layout keeps its bare torus generator
        assert layout(SpaceSpec("BDI_oddodd", p=1, q=1)).coroots.tolist() == [[1, -1]]


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

    @pytest.mark.parametrize("obj", [[1], "AIII", None])
    def test_non_object_refused(self, obj):
        with pytest.raises(ValueError, match="^coordinates JSON must be an object$"):
            coordinates_from_json(obj)

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

    def test_non_finite_stack_is_redrawn(self, monkeypatch):
        # an all-inf stack clears the floor comparison; it must still be redrawn
        for value in (np.inf, complex(np.inf, np.nan), np.nan):
            monkeypatch.setattr(spaces, "_flipped_stack",
                                lambda spec, X, value=value: np.full(X.shape[0] + 1, value))
            with pytest.raises(ValueError, match="could not draw a well-conditioned payload"):
                random_coordinates(aiii(1, 2), np.random.default_rng(38))

    @pytest.mark.parametrize("radius", [0.0, -0.0, -0.7, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("draw", [random_coordinates, check_draw])
    def test_radius_not_finite_and_positive_is_refused_before_drawing(self, draw, radius):
        rng = np.random.default_rng(39)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"radius must be a finite number > 0, got {radius}$"):
            draw(aiii(1, 1), rng, radius)
        assert rng.bit_generator.state == state


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


def _ref_conj_antitranspose(A):
    return antitranspose(np.conj(A).T)


def _ref_build_tangent(spec, coords):
    """The per-family builders with hand-signed blocks that the plan replaced."""
    N = spec.ambient
    X = np.zeros((N, N), dtype=complex)
    fam = spec.family
    if fam in ("AIII", "DIII", "CI"):
        Z = np.asarray(coords.Z, dtype=complex)
        h = len(Z)
        X[:h, h:] = Z
        X[h:, :h] = -Z.conj().T
    elif fam == "CII":
        p, q = spec.p, spec.q
        Z1 = np.asarray(coords.Z1, dtype=complex)
        Z2 = np.asarray(coords.Z2, dtype=complex)
        s0, s1, s2, s3 = 0, p, p + q, p + 2 * q
        X[s0:s1, s1:s2] = Z1
        X[s0:s1, s2:s3] = Z2
        X[s1:s2, s0:s1] = -Z1.conj().T
        X[s1:s2, s3:] = antitranspose(Z2)
        X[s2:s3, s0:s1] = -Z2.conj().T
        X[s2:s3, s3:] = -antitranspose(Z1)
        X[s3:, s1:s2] = -_ref_conj_antitranspose(Z2)
        X[s3:, s2:s3] = _ref_conj_antitranspose(Z1)
    elif fam == "BDI_even":
        h, q = spec.p // 2, spec.q
        Z = np.asarray(coords.Z, dtype=complex)
        X[:h, h:h + q] = Z
        X[h:h + q, :h] = -Z.conj().T
        X[h:h + q, h + q:] = -antitranspose(Z)
        X[h + q:, h:h + q] = _ref_conj_antitranspose(Z)
    else:
        n1, n2 = (spec.p - 1) // 2, (spec.q - 1) // 2
        Z1 = np.asarray(coords.Z1, dtype=complex)
        Z2 = np.asarray(coords.Z2, dtype=complex)
        w1 = np.asarray(coords.w1, dtype=complex).reshape(n1, 1)
        w2 = np.asarray(coords.w2, dtype=complex).reshape(n2, 1)
        s = float(coords.s)
        b = list(itertools.accumulate(_ref_block_sizes(spec), initial=0))
        m1, m2 = b[2], b[3]
        X[b[0]:b[1], b[1]:b[2]] = Z1
        X[b[1]:b[2], b[0]:b[1]] = -Z1.conj().T
        X[b[0]:b[1], b[4]:b[5]] = Z2
        X[b[4]:b[5], b[0]:b[1]] = -Z2.conj().T
        X[b[1]:b[2], b[5]:b[6]] = -antitranspose(Z2)
        X[b[5]:b[6], b[1]:b[2]] = _ref_conj_antitranspose(Z2)
        X[b[4]:b[5], b[5]:b[6]] = -antitranspose(Z1)
        X[b[5]:b[6], b[4]:b[5]] = _ref_conj_antitranspose(Z1)
        X[b[0]:b[1], m1:m1 + 1] = w1
        X[b[0]:b[1], m2:m2 + 1] = -w1
        X[m1, b[0]:b[1]] = -w1.conj().ravel()
        X[m2, b[0]:b[1]] = w1.conj().ravel()
        X[m1, b[5]:b[6]] = antitranspose(w1).ravel()
        X[m2, b[5]:b[6]] = -antitranspose(w1).ravel()
        X[b[5]:b[6], m1:m1 + 1] = -antitranspose(w1.conj().T).reshape(n1, 1)
        X[b[5]:b[6], m2:m2 + 1] = antitranspose(w1.conj().T).reshape(n1, 1)
        X[b[1]:b[2], m1:m1 + 1] = w2
        X[b[1]:b[2], m2:m2 + 1] = w2
        X[m1, b[1]:b[2]] = -w2.conj().ravel()
        X[m2, b[1]:b[2]] = -w2.conj().ravel()
        X[m1, b[4]:b[5]] = -antitranspose(w2).ravel()
        X[m2, b[4]:b[5]] = -antitranspose(w2).ravel()
        X[b[4]:b[5], m1:m1 + 1] = antitranspose(w2.conj().T).reshape(n2, 1)
        X[b[4]:b[5], m2:m2 + 1] = antitranspose(w2.conj().T).reshape(n2, 1)
        X[m1, m1] = 1j * s
        X[m2, m2] = -1j * s
    return X


def _payload_variants(spec, rng):
    """A seeded draw, then its fields rounded to one decimal (many +-0.0) and
    negated; the torus parameter also at 0.0, -0.0 and -0.3."""
    coords = random_coordinates(spec, rng)
    fields = [f.name for f in dataclasses.fields(coords)
              if f.name not in ("family", "s") and getattr(coords, f.name) is not None]
    for rounded, negated in itertools.product((False, True), repeat=2):
        changes = {}
        for name in fields:
            value = getattr(coords, name)
            value = np.round(value, 1) if rounded else value
            changes[name] = -value if negated else value
        variant = dataclasses.replace(coords, **changes)
        yield variant
        if spec.family == "BDI_oddodd":
            for s in (0.0, -0.0, -0.3):
                yield dataclasses.replace(variant, s=s)


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


def _ref_disc_sample(rng, shape, radius):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=shape))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    return r * np.exp(1j * phi)


def _ref_sample_coordinates(spec, rng, radius):
    """The payload sampler as an entry loop: a self-symmetric ``Z`` one free
    entry at a time, row-major, each a radius then an angle; every other
    field drawn whole, all radii then all angles; ``s`` uniform."""
    shapes = layout(spec).shapes
    sign = FAMILY[spec.family].payload_sign
    if sign is not None:
        n = shapes["Z"][0]
        Z = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                if i + j > n - 1:
                    continue
                if i + j == n - 1:
                    # antidiagonal of Z: free for CI, forced zero for DIII
                    if sign > 0:
                        Z[i, j] = _ref_disc_sample(rng, (), radius)
                    continue
                z = _ref_disc_sample(rng, (), radius)
                Z[i, j] = z
                Z[n - 1 - j, n - 1 - i] = sign * z
        return {"Z": Z}
    return {name: float(rng.uniform(-radius, radius)) if name == "s"
            else _ref_disc_sample(rng, shape, radius) for name, shape in shapes.items()}


class TestSampler:
    """The payload sampler draws the stream of the entry loop bit for bit."""

    SPECS = ALL_SPECS + [diii(n) for n in range(1, 7)] + [ci(n) for n in range(1, 7)] + [
        SpaceSpec("BDI_oddodd", p=1, q=1), SpaceSpec("BDI_oddodd", p=3, q=1)]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: "{}{}".format(
        s.family, tuple(s.params_dict().values())))
    def test_candidates_equal_the_entry_loop(self, spec):
        for seed, radius in itertools.product((0, 5, 41), (0.7, 0.05, 2.5)):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                coords = spaces._sample_coordinates(spec, rng, radius)
                for name, ref in _ref_sample_coordinates(spec, ref_rng, radius).items():
                    got = getattr(coords, name)
                    if name == "s":
                        assert _same_bits(np.float64(got), np.float64(ref))
                    else:
                        assert _same_bits(got, ref), (name, seed, radius)
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("shape", [(), (0,), (4,), (2, 3), (0, 2)], ids=str)
    def test_disc_sample_equals_radii_then_angles(self, shape):
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        assert _same_bits(spaces._disc_sample(rng, shape, 0.3),
                          _ref_disc_sample(ref_rng, shape, 0.3))
        assert rng.random() == ref_rng.random()


def test_registry_covers_every_family():
    assert FAMILY.keys() == set(FAMILIES)


@pytest.mark.parametrize("family", list(FAMILY))
class TestFamilyRegistry:
    def test_block_sizes_and_ambient(self, family):
        for spec in _grid(family):
            assert FAMILY[family].sizes(spec) == _ref_block_sizes(spec), spec
            assert spec.ambient == sum(_ref_block_sizes(spec)), spec

    def test_build_matches_hand_signed_builders_bitwise(self, family):
        rng = np.random.default_rng(sum(map(ord, family)))
        for spec in _grid(family):
            for coords in _payload_variants(spec, rng):
                assert (build_tangent(spec, coords).tobytes()
                        == _ref_build_tangent(spec, coords).tobytes()), (spec, coords)

    def test_involution_matrix(self, family):
        for spec in _grid(family):
            assert _same_bits(involution_matrix(spec), _ref_involution_matrix(spec)), spec

    def test_support_mask(self, family):
        for spec in _grid(family):
            assert _same_bits(layout(spec).support, _ref_support_mask(spec)), spec

    def test_part_labels_partition(self, family):
        # the witness pairs positions by their involution signs, compared by
        # equality and 0 (the label None) only, so the relation is what counts
        for spec in _grid(family):
            labels, ref = layout(spec).signs, _ref_part_labels(spec)
            assert [a == 0 for a in labels] == [r is None for r in ref], spec
            assert ([[a == b for b in labels] for a in labels]
                    == [[a == b for b in ref] for a in ref]), spec

    def test_defaults_give_a_valid_tangent(self, family):
        spec = spec_from_family(family, **FAMILY[family].defaults)
        assert spec.params_dict() == FAMILY[family].defaults
        X = build_tangent(spec, random_coordinates(spec, np.random.default_rng(3)))
        report = validate_tangent(spec, X, tol=1e-12)
        assert report.ok, report.violations
