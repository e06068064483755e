"""Linear-algebra kernels: sparse LU solves with refinement, symmetric
dense eigendecomposition, and a shift-invert Arnoldi iteration.

Matrices are plain scipy sparse (CSR) matrices.  Every factorization is a
SuperLU factorization with a fixed column ordering; dense eigenproblems
wrap LAPACK (via scipy).  The Arnoldi iteration, with its deterministic
start vector, deflation hook and reorthogonalization monitor, is
implemented here directly because the complex-symmetric pencils need
bilinear (unconjugated) handling that off-the-shelf eigensolvers do not
expose.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

__all__ = [
    "LUFactors",
    "SingularMatrixError",
    "ArnoldiError",
    "sym_eig_dense",
    "shift_invert_arnoldi",
    "bilinear_dot",
]


class SingularMatrixError(RuntimeError):
    """Raised when elimination meets a (near-)zero pivot.

    pivot_index is the column of the input matrix whose pivot was too
    small, or None when the factorization met an exactly zero pivot
    without saying where.
    """

    def __init__(self, pivot_index: int | None, pivot_value: float):
        where = "of unknown column" if pivot_index is None else f"in column {pivot_index}"
        super().__init__(f"singular matrix: pivot {where} has magnitude {pivot_value:.3e}")
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value


class ArnoldiError(RuntimeError):
    """Non-convergence of the shift-invert iteration; carries best residuals."""

    def __init__(self, residuals):
        super().__init__(f"Arnoldi did not converge; best residuals {residuals}")
        self.residuals = residuals


def bilinear_dot(u: np.ndarray, v: np.ndarray):
    """Unconjugated pairing u^T v (analytic in the entries)."""
    return np.dot(u, v)


class LUFactors:
    """Sparse LU factors of a square matrix with one step of iterative
    refinement.  Dense inputs are converted to CSC; the column ordering
    (COLAMD) is fixed, so repeated factorizations are deterministic.
    """

    def __init__(self, matrix, pivot_tol: float = 1e-13):
        mat = scipy.sparse.csc_matrix(matrix)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("LUFactors requires a square matrix")
        self.n = mat.shape[0]
        self._mat = mat.tocsr()
        try:
            splu = scipy.sparse.linalg.splu(mat, permc_spec="COLAMD",
                                            options={"SymmetricMode": False})
        except RuntimeError as exc:
            if "singular" not in str(exc):
                raise
            # SuperLU reports an exactly zero pivot without its position
            raise SingularMatrixError(None, 0.0) from exc
        diag = np.abs(splu.U.diagonal())
        scale = max(1.0, abs(mat).max())
        small = np.nonzero(diag <= pivot_tol * scale)[0]
        if len(small):
            # U's k-th pivot belongs to column perm_c^{-1}[k] of the input
            column = int(np.argsort(splu.perm_c)[small[0]])
            raise SingularMatrixError(column, float(diag[small[0]]))
        self._splu = splu

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b)
        x = self._splu.solve(b)
        # one step of iterative refinement
        r = b - self._mat @ x
        return x + self._splu.solve(r)


def sym_eig_dense(a: np.ndarray, b: np.ndarray | None = None,
                  sym_tol: float = 1e-12):
    """Eigendecomposition of a real symmetric matrix, optionally generalized
    against a symmetric positive definite b.  Eigenvalues ascending; the
    eigenvector matrix X satisfies X^T b X = I (or X^T X = I when b is None).
    """
    a = np.asarray(a, dtype=float)
    scale = max(1.0, np.abs(a).max())
    if np.abs(a - a.T).max() > sym_tol * scale:
        raise ValueError("matrix is not symmetric to the required tolerance")
    if b is None:
        w, x = scipy.linalg.eigh(a, check_finite=False)
        return w, x
    b = np.asarray(b, dtype=float)
    if np.abs(b - b.T).max() > sym_tol * max(1.0, np.abs(b).max()):
        raise ValueError("mass matrix is not symmetric to the required tolerance")
    w, x = scipy.linalg.eigh(a, b, check_finite=False)
    return w, x


def _orthonormal_start(n: int, deflate, dtype) -> np.ndarray:
    v = np.ones(n, dtype=dtype)
    if deflate is not None:
        v = deflate(v)
    nrm = np.linalg.norm(v)
    if nrm <= 1e-8 * np.sqrt(n):
        # the all-ones vector lies in the deflated space; fall back to a
        # fixed, seedless pseudo-random direction
        v = np.cos(np.arange(n, dtype=float)).astype(dtype)
        if deflate is not None:
            v = deflate(v)
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            raise ArnoldiError([np.inf])
    return v / nrm


def shift_invert_arnoldi(apply_op, n: int, count: int, deflate=None,
                         dtype=complex, tol: float = 1e-10,
                         krylov_dim: int | None = None, max_restarts: int = 4):
    """Arnoldi iteration on the (already shift-inverted) operator.

    apply_op(v) must compute (A - sigma B)^{-1} B v.  Returns the `count`
    Ritz pairs of largest |theta| as (thetas, vectors, residual_estimates);
    pencil eigenvalues follow as lambda = sigma + 1/theta.  The start vector
    is the all-ones vector (deflated, then normalized) for determinism.
    """
    if count >= n:
        raise ValueError("count must be smaller than the dimension")
    m = krylov_dim or min(n, max(2 * count + 16, 40))
    for attempt in range(max_restarts):
        mm = min(n, m * (attempt + 1))
        v0 = _orthonormal_start(n, deflate, dtype)
        V = np.zeros((n, mm + 1), dtype=dtype)
        H = np.zeros((mm + 1, mm), dtype=dtype)
        V[:, 0] = v0
        k = mm
        for j in range(mm):
            w = apply_op(V[:, j])
            if deflate is not None:
                w = deflate(w)
            # modified Gram-Schmidt with one full reorthogonalization pass
            for i in range(j + 1):
                h = np.vdot(V[:, i], w)
                H[i, j] += h
                w = w - h * V[:, i]
            for i in range(j + 1):
                h = np.vdot(V[:, i], w)
                H[i, j] += h
                w = w - h * V[:, i]
            beta = np.linalg.norm(w)
            H[j + 1, j] = beta
            if beta < 1e-14:
                k = j + 1
                break
            V[:, j + 1] = w / beta
        Hk = H[:k, :k]
        theta, S = np.linalg.eig(Hk)
        order = np.lexsort((theta.imag, theta.real, -np.abs(theta)))
        theta, S = theta[order], S[:, order]
        take = min(count, k)
        res = np.empty(take)
        for i in range(take):
            # last-subdiagonal residual estimate for the operator Ritz pair
            res[i] = abs(H[k, k - 1] * S[k - 1, i]) / max(abs(theta[i]), 1e-300)
        vecs = V[:, :k] @ S[:, :take]
        if take == count and (k < mm or np.all(res <= tol)):
            return theta[:take], vecs, res
    raise ArnoldiError(res.tolist())
