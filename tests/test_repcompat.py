import numpy as np
import pytest

from bruhatdiag.linalg import leading_signature, reversal_matrix
from bruhatdiag.repcompat import (
    conjugator,
    symplectic_conjugator,
    theta_antidiagonal,
    theta_standard,
    theta_symplectic_antidiagonal,
    theta_symplectic_standard,
    verify_conjugacy,
)


def preserves_triangular_split(theta, n: int) -> bool:
    """Whether ``theta`` maps each of strict-lower / diagonal / strict-upper
    into itself, checked exactly on indicator supports."""
    lower = np.tri(n, k=-1, dtype=bool)
    for mask in (lower, np.eye(n, dtype=bool), lower.T):
        if np.any((theta(mask.astype(complex)) != 0) & ~mask):
            return False
    return True


class TestConjugator:
    def test_size_one(self):
        P = conjugator(1)
        assert P[0, 0] == pytest.approx((1 + 1j) / np.sqrt(2))

    def test_size_two(self):
        P = conjugator(2)
        expect = np.array([[1j, 1.0], [1.0, 1j]]) / np.sqrt(2)
        assert np.abs(P - expect).max() <= 1e-15

    def test_unitary(self):
        P = conjugator(6)
        assert np.abs(P @ P.conj().T - np.eye(6)).max() <= 1e-12

    @pytest.mark.parametrize("build,arg,message", [
        (conjugator, 0, "size must be at least 1"),
        (symplectic_conjugator, 0, "size must be at least 1"),
        (theta_symplectic_standard, np.zeros((3, 3)), "need even size"),
        (theta_symplectic_antidiagonal, np.zeros((3, 3)), "need even size"),
    ], ids=["conjugator", "symplectic_conjugator", "symplectic_standard",
            "symplectic_antidiagonal"])
    def test_malformed_size_raises(self, build, arg, message):
        with pytest.raises(ValueError, match=message):
            build(arg)


class TestInvolutions:
    def test_square_to_identity(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert np.array_equal(theta_standard(theta_standard(A)), A)
        assert np.array_equal(theta_antidiagonal(theta_antidiagonal(A)), A)
        B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert np.abs(theta_symplectic_antidiagonal(
            theta_symplectic_antidiagonal(B)) - B).max() == 0.0
        assert np.abs(theta_symplectic_standard(
            theta_symplectic_standard(B)) - B).max() <= 1e-12

    def test_antidiagonal_preserves_triangular_split(self):
        for n in (2, 3, 5, 8):
            assert preserves_triangular_split(theta_antidiagonal, n)

    def test_plain_transpose_does_not(self):
        assert not preserves_triangular_split(theta_standard, 3)

    def test_fixed_space_dimension(self):
        # fixed points of the antidiagonal involution span n(n-1)/2 dimensions
        rng = np.random.default_rng(5)
        n = 4
        samples = []
        for _ in range(40):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            samples.append(((A + theta_antidiagonal(A)) / 2).ravel())
        rank = np.linalg.matrix_rank(np.array(samples), tol=1e-10)
        assert rank == n * (n - 1) // 2


class TestConjugacy:
    def test_zero_matrix_trivial(self):
        P = conjugator(3)
        A = np.zeros((3, 3), dtype=complex)
        lhs = theta_antidiagonal(A)
        rhs = P @ theta_standard(P.conj().T @ A @ P) @ P.conj().T
        assert np.abs(lhs - rhs).max() == 0.0

    def test_report_passes(self):
        report = verify_conjugacy(3, samples=100, rng=np.random.default_rng(1))
        assert report.ok
        assert report.violations["max_orthogonal_dev"] <= 1e-10
        assert report.violations["max_orthogonal_fixed_dev"] <= 1e-10
        assert report.violations["max_symplectic_dev"] <= 1e-10

    def test_generator_is_required(self):
        with pytest.raises(TypeError):
            verify_conjugacy(3, samples=5)

    def test_real_skew_transport(self):
        rng = np.random.default_rng(2)
        R = rng.standard_normal((4, 4))
        K = (R - R.T).astype(complex)
        P = conjugator(4)
        B = P @ K @ P.conj().T
        assert np.abs(theta_antidiagonal(B) - B).max() <= 1e-10

    def test_symplectic_conjugator_form_transport(self):
        # the permutation carries the standard symplectic form exactly onto
        # the sign-twisted antidiagonal one
        for n in (1, 2, 3, 4):
            S = symplectic_conjugator(n)
            J_sp = np.zeros((2 * n, 2 * n), dtype=complex)
            J_sp[:n, n:] = np.eye(n)
            J_sp[n:, :n] = -np.eye(n)
            target = leading_signature(2 * n, n) @ reversal_matrix(2 * n)
            assert np.abs(S @ np.linalg.inv(J_sp) @ S.T - target).max() == 0.0

    def test_symplectic_conjugator_is_orthogonal(self):
        S = symplectic_conjugator(3)
        assert np.array_equal(S @ S.T, np.eye(6))
