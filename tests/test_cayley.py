import numpy as np
import pytest

from bruhatdiag.cayley import cayley, verify_image
from bruhatdiag.spaces import (
    FAMILY,
    Coordinates,
    SpaceSpec,
    aiii,
    build_tangent,
    ci,
    cii,
    diii,
    involution_matrix,
    random_coordinates,
    spec_from_family,
)

SAMPLE_SPECS = [
    aiii(2, 3), diii(3), ci(3), cii(2, 2),
    SpaceSpec("BDI_even", p=4, q=3), SpaceSpec("BDI_oddodd", p=3, q=3),
]


class TestCayleyMap:
    def test_zero_maps_to_identity(self):
        assert np.array_equal(cayley(np.zeros((3, 3))), np.eye(3))

    def test_rotation_plane(self):
        # hand multiplication: (1-X)(1+X)^{-1} for the standard plane rotation
        X = np.array([[0.0, 1.0], [-1.0, 0.0]])
        g = cayley(X)
        expect = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.abs(g - expect).max() <= 1e-15

    def test_minor_from_coordinate_norm(self):
        # |z|^2 = 1/3 makes the leading minor (1 - 1/3)/(1 + 1/3) = 1/2
        z = np.sqrt(1.0 / 3.0)
        X = build_tangent(aiii(1, 1), Coordinates(family="AIII", Z=np.array([[z]])))
        g = cayley(X)
        assert abs(np.linalg.det(g[:1, :1]) - 0.5) <= 1e-12

    def test_unitary_on_random_tangents(self):
        rng = np.random.default_rng(2)
        for spec in SAMPLE_SPECS:
            X = build_tangent(spec, random_coordinates(spec, rng))
            g = cayley(X)
            assert np.abs(g.conj().T @ g - np.eye(spec.ambient)).max() <= 1e-10

    def test_transposed_view_equals_contiguous_copy_bitwise(self):
        rng = np.random.default_rng(5)
        for spec in SAMPLE_SPECS:
            X = build_tangent(spec, random_coordinates(spec, rng))
            assert cayley(X.T).tobytes() == cayley(np.ascontiguousarray(X.T)).tobytes()


#: The ``bruhatdiag verify`` defaults, one layout above the expansion cap and
#: layouts with unequal blocks or a larger size per family.
INERTIA_SPECS = [spec_from_family(f, **FAMILY[f].defaults) for f in FAMILY] + [
    aiii(5, 45), aiii(1, 4), diii(4), ci(4), cii(1, 2),
    SpaceSpec("BDI_even", p=2, q=5), SpaceSpec("BDI_oddodd", p=3, q=5),
]


class TestInvolutionInertia:
    @pytest.mark.parametrize("spec", INERTIA_SPECS, ids=lambda s: "{}{}".format(
        s.family, tuple(s.params_dict().values())))
    def test_g_times_involution_is_hermitian_with_its_inertia(self, spec):
        # on the image theta(g) = I g I = g^-1 = g*, so gI = (gI)* is unitary
        # and Hermitian, eigenvalues +-1, and gI = u I u* has the inertia of I
        I = involution_matrix(spec)
        positive = np.count_nonzero(np.linalg.eigvalsh(I) > 0)
        rng = np.random.default_rng(17)
        for radius in (0.7, 2.0):
            for _ in range(10):
                gI = cayley(build_tangent(spec, random_coordinates(spec, rng, radius))) @ I
                assert np.abs(gI - gI.conj().T).max() <= 1e-12, (spec, radius)
                eigs = np.linalg.eigvalsh((gI + gI.conj().T) / 2)
                assert np.count_nonzero(eigs > 0) == positive, (spec, radius)
                assert np.abs(eigs).min() >= 0.5, (spec, radius)


class TestCayleyInverse:
    def test_identity_maps_to_zero(self):
        # the map is its own inverse: g = 1 goes back to X = 0
        assert np.abs(cayley(np.eye(4))).max() == 0.0

    def test_round_trip(self):
        # the map is an involution: (1 - g)(1 + g)^{-1} recovers X
        rng = np.random.default_rng(3)
        spec = aiii(3, 3)
        for _ in range(10):
            X = build_tangent(spec, random_coordinates(spec, rng))
            back = cayley(cayley(X))
            assert np.abs(back - X).max() <= 1e-9


class TestVerifyImage:
    def test_all_families_pass(self):
        rng = np.random.default_rng(4)
        for spec in SAMPLE_SPECS:
            for _ in range(25):
                X = build_tangent(spec, random_coordinates(spec, rng))
                report = verify_image(spec, cayley(X), tol=1e-9)
                assert report.ok, (spec.family, report.violations)

    def test_identity_passes_every_spec(self):
        for spec in SAMPLE_SPECS:
            report = verify_image(spec, np.eye(spec.ambient))
            assert report.ok

    def test_diagonal_stretch_fails_unitarity(self):
        report = verify_image(aiii(1, 1), np.diag([2.0, 0.5]))
        assert not report.ok
        assert report.violations["unitary"] > 1.0

    def test_involution_inverts_on_image(self):
        # the computational content of the equivariance lemma
        rng = np.random.default_rng(8)
        for spec in SAMPLE_SPECS:
            X = build_tangent(spec, random_coordinates(spec, rng))
            report = verify_image(spec, cayley(X), tol=1e-10)
            assert report.violations["involution_inverts"] <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="ambient"):
            verify_image(aiii(1, 1), np.eye(3))
