import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from enzspec import cascade as cascade_module
from enzspec import linalg
from enzspec.linalg import (
    ArnoldiError,
    LUFactors,
    SingularMatrixError,
    negative_pivots,
    shift_invert_arnoldi,
)
from enzspec.mesh import generate_disk_in_disk


class Counting:
    """Stands in for a factor's SuperLU object: records the shape of each
    right-hand side it solves, and adds noise * |X| (Frobenius norm of the
    whole solution) to every entry of the solution."""

    def __init__(self, exact, noise=0.0):
        self.exact, self.noise, self.shapes = exact, noise, []

    def solve(self, rhs):
        self.shapes.append(rhs.shape)
        x = self.exact.solve(rhs)
        return x + self.noise * np.linalg.norm(x) * np.ones_like(x)


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
        # makes the fill-reducing ordering move it (minimum degree eliminates
        # column 3 at step 1), so the elimination step of that pivot is not 3
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

    def test_refines_only_a_poor_solve(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((30, 30)) + 30.0 * np.eye(30)
        b = rng.standard_normal(30)
        f = LUFactors(a)
        exact = f._splu

        f._splu = counting = Counting(exact)
        x = f.solve(b)
        assert counting.shapes == [(30,)]   # backward error at roundoff: no refinement
        assert np.linalg.norm(a @ x - b) <= 1e-13 * np.linalg.norm(b)
        f._splu = counting = Counting(exact, 1e-9)
        x = f.solve(b)
        assert counting.shapes == [(30,), (30,)]   # a perturbed solve is refined once
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)
        # the 1-D rule, spelled out: one correction of the whole vector
        f._splu = Counting(exact, 1e-9)
        x0 = f._splu.solve(b)
        assert np.array_equal(x, x0 + f._splu.solve(b - f._mat @ x0))

    def test_refines_each_block_column_on_its_own(self):
        # the second column is 1e-8 the size of the first: noise at 1e-17 of
        # the block's norm is roundoff for the first column but a backward
        # error near 1e-9 for the second, which a block-wide max norm misses
        rng = np.random.default_rng(6)
        a = rng.standard_normal((30, 30)) + 30.0 * np.eye(30)
        b = np.column_stack([rng.standard_normal(30), 1e-8 * rng.standard_normal(30)])
        f = LUFactors(a)
        exact = f._splu
        f._splu = counting = Counting(exact, 1e-17)
        x = f.solve(b)
        assert counting.shapes == [(30, 2), (30, 1)]   # only the second column is refined
        for j in range(2):
            assert np.linalg.norm(a @ x[:, j] - b[:, j]) <= 1e-12 * np.linalg.norm(b[:, j])
        # the first column is left as the first solve gave it
        assert np.array_equal(x[:, 0], Counting(exact, 1e-17).solve(b)[:, 0])

    def test_csc_input_is_kept_not_copied(self):
        # the factor keeps a CSC input as it is; another format is converted
        a = scipy.sparse.random(40, 40, density=0.1, format="csc", random_state=3)
        a = (a + 4.0 * scipy.sparse.eye(40)).tocsc()
        assert np.shares_memory(LUFactors(a)._mat.data, a.data)
        csr = a.tocsr()
        lu = LUFactors(csr)
        assert lu._mat.format == "csc" and not np.shares_memory(lu._mat.data, csr.data)
        b = np.arange(40.0)
        assert np.linalg.norm(a @ lu.solve(b) - b) <= 1e-12 * np.linalg.norm(b)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((20, 20))
        b = rng.standard_normal(20)
        x1 = LUFactors(a).solve(b)
        x2 = LUFactors(a).solve(b)
        assert np.array_equal(x1, x2)


def unconditional_pivot_check(a, pivot_tol=1e-13):
    """(column, magnitude) of the first pivot of U, in the factorization
    LUFactors makes (the same SuperLU settings), that is at most
    pivot_tol * max(1, max |a_ij|), (None, 0.0) when SuperLU itself meets an
    exact zero, or None when every pivot passes."""
    m = scipy.sparse.csc_matrix(a)
    try:
        lu = scipy.sparse.linalg.splu(m, **linalg._SPLU_SETTINGS)
    except RuntimeError:
        return None, 0.0
    diag = np.abs(lu.U.diagonal())
    small = np.nonzero(diag <= pivot_tol * max(1.0, np.abs(m.data).max()))[0]
    if not len(small):
        return None
    return int(np.argsort(lu.perm_c)[small[0]]), float(diag[small[0]])


def pivot_family(count=320):
    """Seeded square matrices on both sides of the singularity threshold:
    planted tiny or zero pivots, rows that combine other rows, A - lambda I
    at exact eigvalsh eigenvalues, uniformly tiny or large scalings, and
    well-conditioned matrices."""
    rng = np.random.default_rng(2026)
    for i in range(count):
        n = int(rng.integers(4, 30))
        complex_case = i % 8 >= 4

        def sparse_random(density=0.3):
            r = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
            if complex_case:
                r = r + 1j * rng.standard_normal((n, n)) * (r != 0)
            return r

        kind = i % 5
        if kind == 0:
            # L D U with one planted pivot, rows and columns shuffled
            d = rng.uniform(0.5, 2.0, n).astype(complex if complex_case else float)
            d[rng.integers(n)] = rng.choice([0.0, 1e-30, 1e-18, 1e-15, 1e-14, 1e-13, 1e-12, 1e-9, 1e-4])
            lower = np.tril(sparse_random(0.4), -1) + np.eye(n)
            upper = np.triu(sparse_random(0.4), 1) + np.eye(n)
            a = (lower * d) @ upper
            a = a[rng.permutation(n)][:, rng.permutation(n)]
        elif kind == 1:
            # one row a combination of two others
            a = sparse_random() + n * np.eye(n)
            k, p, q = rng.choice(n, 3, replace=False)
            a[k] = rng.standard_normal() * a[p] + rng.standard_normal() * a[q]
        elif kind == 2:
            # a (Hermitian) matrix shifted by one of its eigenvalues
            s = sparse_random()
            s = s + s.conj().T
            lam = scipy.linalg.eigvalsh(s)[rng.integers(n)]
            a = s - lam * np.eye(n)
        elif kind == 3:
            # at 1e-16 and 1e-14 every pivot is below pivot_tol while
            # |A| |x| / |b| stays moderate: the gate needs its floor of 1
            scale = rng.choice([1e-16, 1e-14, 1e-12, 1.0, 1e6])
            a = scale * (sparse_random() + n * np.eye(n))
            if rng.random() < 0.5:
                a[rng.integers(n)] *= 1e-15
        else:
            a = sparse_random() + n * np.eye(n)
        yield a


class TestGatedPivotCheck:
    def test_agrees_with_unconditional_check(self):
        flagged = 0
        family = list(pivot_family())
        for a in family:
            expected = unconditional_pivot_check(a)
            try:
                LUFactors(a)
                got = None
            except SingularMatrixError as exc:
                got = exc.pivot_index, exc.pivot_value
            assert got == expected
            flagged += expected is not None
        assert len(family) >= 300
        assert 100 <= flagged <= len(family) - 50   # both sides of the threshold

    def test_factor_never_materialises_l_and_u(self):
        # reading U copies L and U into CSC arrays; the factor's peak must
        # stay under half of what that copy costs for scipy's default splu
        # of the same matrix, a scale that does not follow our ordering
        k = 200
        t = scipy.sparse.diags([-np.ones(k - 1), 2.0 * np.ones(k), -np.ones(k - 1)], [-1, 0, 1])
        lap = (scipy.sparse.kron(t, scipy.sparse.eye(k)) + scipy.sparse.kron(scipy.sparse.eye(k), t)).tocsc()

        def traced_peak(work):
            tracemalloc.start()
            try:
                result = work()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        f, peak = traced_peak(lambda: LUFactors(lap))
        _, read_u = traced_peak(lambda: scipy.sparse.linalg.splu(lap).U)
        assert peak < 0.5 * read_u
        b = np.ones(k * k)
        assert np.linalg.norm(lap @ f.solve(b) - b) <= 1e-10 * np.linalg.norm(b)


def test_factor_takes_the_shared_settings(monkeypatch):
    # the one splu call gets the matrix and exactly the package's settings
    calls = []
    splu = scipy.sparse.linalg.splu

    def capturing(*args, **kwargs):
        calls.append((len(args), kwargs))
        return splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", capturing)
    LUFactors(np.eye(3))
    assert calls == [(1, linalg._SPLU_SETTINGS)]
    assert linalg._SPLU_SETTINGS == {"permc_spec": "MMD_AT_PLUS_A", "relax": 1, "panel_size": 4,
                                     "options": {"SymmetricMode": True}}



class TestNegativePivots:
    def test_inertia_of_symmetric_matrices(self):
        # seeded sparse symmetric matrices, definite and indefinite, none
        # with an eigenvalue within 1e-3 of 0: the count is eigvalsh's.  Every
        # third is shifted to be positive definite, every third negative
        rng = np.random.default_rng(37)
        kinds = set()
        for i in range(60):
            n = int(rng.integers(5, 60))
            r = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
            a = r + r.T + np.diag(rng.uniform(-4.0, 4.0, n))
            a += (i % 3 - 1) * (np.abs(a).sum(axis=1).max() + 1.0) * np.eye(n)
            w = scipy.linalg.eigvalsh(a)
            if np.abs(w).min() < 1e-3:
                continue
            expected = int(np.count_nonzero(w < 0.0))
            assert negative_pivots(scipy.sparse.csr_matrix(a)) == expected
            kinds.add(min(expected, 1) + (expected == n))
        assert kinds == {0, 1, 2}

    def test_singular_matrix_is_refused(self):
        # the path-graph Laplacian has the constants as its kernel
        k = 12
        lap = scipy.sparse.diags([-np.ones(k - 1), 2.0 * np.ones(k), -np.ones(k - 1)],
                                 [-1, 0, 1]).tolil()
        lap[0, 0] = lap[k - 1, k - 1] = 1.0
        with pytest.raises(SingularMatrixError):
            negative_pivots(lap.tocsc())

    def test_zero_diagonal_is_refused(self):
        # nonsingular, but only off-diagonal pivots factor it
        with pytest.raises(SingularMatrixError):
            negative_pivots(scipy.sparse.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))

    def test_takes_the_shared_settings_with_diagonal_pivots(self, monkeypatch):
        calls = []
        splu = scipy.sparse.linalg.splu

        def capturing(*args, **kwargs):
            calls.append((len(args), kwargs))
            return splu(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", capturing)
        assert negative_pivots(scipy.sparse.csc_matrix(np.diag([1.0, -2.0, 3.0]))) == 1
        assert calls == [(1, {"diag_pivot_thresh": 0.0, **linalg._SPLU_SETTINGS})]

@pytest.fixture(scope="module")
def disk32_operators():
    """The cascade's direct-projection matrix (A_D + 0.05 A_S on the
    vertices off the outer boundary) and the complex shifted pencil
    A - 14.5 (M_D + (0.035+0.02i) M_S) on the 32-ring disk."""
    cascade = cascade_module.Cascade(generate_disk_in_disk(2.0, 32, 32))
    field = np.tile([1.0, 0.0], (cascade.mesh.n_triangles, 1))
    factored = []

    class Capturing(LUFactors):
        def __init__(self, matrix):
            factored.append(matrix)
            super().__init__(matrix)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cascade_module, "LUFactors", Capturing)
        cascade_module.direct_projection(cascade, field, 0.05)
    forms = cascade.forms
    pencil = forms.A - 14.5 * (forms.M_D + (0.035 + 0.02j) * forms.M_S)
    return {"projection": factored[0], "pencil": pencil}


@pytest.mark.parametrize("name", ["projection", "pencil"])
def test_fill_below_colamd(disk32_operators, name):
    # the matrices have symmetric structure: minimum degree on A^T + A must
    # cut the L + U fill of a COLAMD ordering well below 0.7 (about 0.5)
    mat = scipy.sparse.csc_matrix(disk32_operators[name])
    f = LUFactors(mat)
    colamd = scipy.sparse.linalg.splu(mat, permc_spec="COLAMD")
    assert f._splu.nnz <= 0.7 * colamd.nnz
    b = np.random.default_rng(7).standard_normal(mat.shape[0]).astype(mat.dtype)
    x = f.solve(b)
    assert np.linalg.norm(mat @ x - b) <= 1e-12 * np.linalg.norm(b)


def pencil_oracle(a, b):
    """Independent dense generalized eigensolve (QZ) for small fixtures."""
    w = scipy.linalg.eig(a, b, right=False)
    return w


@pytest.mark.parametrize("dtype", [float, complex])
def test_generic_vector_is_one_read_only_copy(dtype):
    # the factor's probe and ARPACK's start vector: the values of
    # default_rng(0), generated once per length and dtype
    v = linalg._start_vector(513, None, dtype)
    assert v is linalg._start_vector(513, None, dtype) and not v.flags.writeable
    ref = np.random.default_rng(0).uniform(-1.0, 1.0, 513).astype(dtype)
    assert v.dtype == ref.dtype and np.array_equal(v.view(np.uint8), ref.view(np.uint8))


class TestShiftInvertArnoldi:
    def test_error_counts_converged_pairs(self, monkeypatch):
        # a clustered spectrum that one restart cannot resolve
        monkeypatch.setattr(linalg, "_ARNOLDI_RESTARTS", 1)
        d = 1.0 + np.linspace(0.0, 1e-3, 400)
        with pytest.raises(ArnoldiError) as exc:
            shift_invert_arnoldi(lambda v: v / d, 400, 6, dtype=float)
        assert (exc.value.converged, exc.value.requested) == (0, 6)
        assert str(exc.value) == ("Arnoldi did not converge: converged 0 of 6 "
                                  "Ritz pairs within 1 restarts")

    def test_error_keeps_the_converged_pairs(self, monkeypatch):
        # three separated eigenvalues before a cluster: those three converge
        # in one restart, largest |theta| first, and come with the error
        monkeypatch.setattr(linalg, "_ARNOLDI_RESTARTS", 1)
        d = np.concatenate([[0.1, 0.2, 0.3], 1.0 + np.linspace(0.0, 1e-3, 397)])
        with pytest.raises(ArnoldiError) as exc:
            shift_invert_arnoldi(lambda v: v / d, 400, 6, dtype=float)
        assert (exc.value.converged, exc.value.requested) == (3, 6)
        assert np.allclose(exc.value.thetas, [10.0, 5.0, 10.0 / 3.0], rtol=1e-10, atol=0.0)
        for theta, v in zip(exc.value.thetas, exc.value.vectors.T):
            assert np.linalg.norm(v / d - theta * v) <= 1e-8 * abs(theta) * np.linalg.norm(v)

    def test_diagonal_standard(self):
        a = np.diag(np.arange(1.0, 11.0))
        sigma = 0.5
        f = LUFactors(a - sigma * np.eye(10))
        theta, _ = shift_invert_arnoldi(lambda v: f.solve(v), 10, 3, dtype=float)
        lam = np.sort(sigma + 1.0 / theta)
        assert np.allclose(lam, [1.0, 2.0, 3.0], atol=1e-10)

    def test_generalized_fixture(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        a = a + a.T
        b = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        sigma = 0.2
        f = LUFactors((a - sigma * b).astype(complex))
        theta, _ = shift_invert_arnoldi(lambda v: f.solve(b @ v), 4, 3)
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
        theta, _ = shift_invert_arnoldi(lambda v: f.solve(b @ v), 8, 3)
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

        theta, _ = shift_invert_arnoldi(lambda v: f.solve(v), 5, 2,
                                           deflate=deflate, dtype=float)
        lam = np.sort(sigma + 1.0 / theta)
        assert np.allclose(lam, [2.0, 3.0], atol=1e-9)

    def test_deterministic(self):
        a = np.diag(np.arange(1.0, 9.0))
        f = LUFactors(a - 0.5 * np.eye(8))
        t1, v1 = shift_invert_arnoldi(lambda v: f.solve(v), 8, 3, dtype=float)
        t2, v2 = shift_invert_arnoldi(lambda v: f.solve(v), 8, 3, dtype=float)
        assert np.array_equal(t1, t2)
        assert np.array_equal(v1, v2)
