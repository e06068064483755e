import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from enzspec.linalg import (
    LUFactors,
    SingularMatrixError,
    bilinear_dot,
    shift_invert_arnoldi,
    sym_eig_dense,
)


class TestLU:
    def test_identity(self):
        f = LUFactors(np.eye(4))
        b = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(f.solve(b), b)

    def test_row_swap_complex(self):
        f = LUFactors(np.array([[0, 1], [1, 0]], dtype=complex))
        x = f.solve(np.array([1.0 + 0j, 0.0]))
        assert np.allclose(x, [0.0, 1.0])

    def test_random_complex_residual(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
        b = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        x = LUFactors(a).solve(b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-10

    def test_singularity_reports_pivot(self):
        # an exactly zero pivot: SuperLU does not say where it sits
        a = np.eye(5)
        a[3, 3] = 0.0
        with pytest.raises(SingularMatrixError):
            LUFactors(a)
        # a near-zero pivot is reported by input column; the dense column 0
        # makes the fill-reducing ordering move it, so the elimination step
        # of that pivot is not 3
        a = 4.0 * np.eye(5)
        a[1:, 0] = 1.0
        a[3, 3] = 1e-20
        with pytest.raises(SingularMatrixError) as exc:
            LUFactors(a)
        assert exc.value.pivot_index == 3
        assert exc.value.pivot_value < 1e-12

    def test_sparse_path_large(self):
        # a sparse tridiagonal SPD system, larger than the dense fixtures above
        n = 1500
        main = 2.0 * np.ones(n)
        off = -np.ones(n - 1)
        a = scipy.sparse.diags([off, main, off], [-1, 0, 1], format="csc")
        f = LUFactors(a)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(n)
        x = f.solve(b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((20, 20))
        b = rng.standard_normal(20)
        x1 = LUFactors(a).solve(b)
        x2 = LUFactors(a).solve(b)
        assert np.array_equal(x1, x2)


class TestSymEig:
    def test_diagonal(self):
        w, x = sym_eig_dense(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(x.T @ x), np.eye(3), atol=1e-12)

    def test_two_by_two(self):
        w, _ = sym_eig_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((30, 30))
        a = 0.5 * (a + a.T)
        w, x = sym_eig_dense(a)
        assert np.abs(x @ np.diag(w) @ x.T - a).max() < 1e-9
        assert np.abs(x.T @ x - np.eye(30)).max() < 1e-10

    def test_generalized_b_normalization(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((12, 12))
        a = a + a.T
        c = rng.standard_normal((12, 12))
        b = c @ c.T + 12.0 * np.eye(12)
        w, x = sym_eig_dense(a, b)
        assert np.abs(x.T @ b @ x - np.eye(12)).max() < 1e-9
        assert np.abs(a @ x - b @ x @ np.diag(w)).max() < 1e-8

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eig_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestDots:
    def test_bilinear_vs_sesquilinear(self):
        u = np.array([1.0 + 1j, 2.0])
        v = np.array([1.0 - 1j, 1.0])
        assert bilinear_dot(u, v) == (1 + 1j) * (1 - 1j) + 2.0
        assert bilinear_dot(u, v) != np.vdot(u, v)   # the sesquilinear pairing


def pencil_oracle(a, b):
    """Independent dense generalized eigensolve (QZ) for small fixtures."""
    w = scipy.linalg.eig(a, b, right=False)
    return w


class TestShiftInvertArnoldi:
    def test_diagonal_standard(self):
        a = np.diag(np.arange(1.0, 11.0))
        sigma = 0.5
        f = LUFactors(a - sigma * np.eye(10))
        theta, _, _ = shift_invert_arnoldi(lambda v: f.solve(v), 10, 3, dtype=float)
        lam = np.sort(sigma + 1.0 / theta)
        assert np.allclose(lam, [1.0, 2.0, 3.0], atol=1e-10)

    def test_generalized_fixture(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        a = a + a.T
        b = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        sigma = 0.2
        f = LUFactors((a - sigma * b).astype(complex))
        theta, _, _ = shift_invert_arnoldi(lambda v: f.solve(b @ v), 4, 3)
        lam = sigma + 1.0 / theta
        oracle = pencil_oracle(a, b)
        for l in lam:
            assert np.min(np.abs(oracle - l)) < 1e-10

    def test_complex_mass(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 8))
        a = a + a.T
        b = np.diag(np.concatenate([np.ones(4), 0.1j * np.ones(4)])) + np.eye(8)
        sigma = 0.3 + 0.0j
        f = LUFactors(a - sigma * b)
        theta, _, _ = shift_invert_arnoldi(lambda v: f.solve(b @ v), 8, 3)
        lam = sigma + 1.0 / theta
        oracle = pencil_oracle(a, b)
        for l in lam:
            assert np.min(np.abs(oracle - l)) < 1e-8

    def test_deflation_removes_direction(self):
        # deflate the dominant eigenvector; next ones must be found instead
        a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        sigma = 0.9
        f = LUFactors(a - sigma * np.eye(5))
        e0 = np.zeros(5)
        e0[0] = 1.0

        def deflate(v):
            return v - np.dot(e0, v) * e0

        theta, _, _ = shift_invert_arnoldi(lambda v: f.solve(v), 5, 2,
                                           deflate=deflate, dtype=float)
        lam = np.sort(sigma + 1.0 / theta)
        assert np.allclose(lam, [2.0, 3.0], atol=1e-9)

    def test_deterministic(self):
        a = np.diag(np.arange(1.0, 9.0))
        f = LUFactors(a - 0.5 * np.eye(8))
        t1, v1, _ = shift_invert_arnoldi(lambda v: f.solve(v), 8, 3, dtype=float)
        t2, v2, _ = shift_invert_arnoldi(lambda v: f.solve(v), 8, 3, dtype=float)
        assert np.array_equal(t1, t2)
        assert np.array_equal(v1, v2)
