"""Linear-algebra kernels: sparse LU solves with conditional refinement
and shift-invert Arnoldi.

Matrices are plain scipy sparse (CSR) matrices.  Every factorization is a
SuperLU factorization with a fixed ordering: minimum degree on the structure
of A^T + A, in SuperLU's symmetric mode.  Every matrix the package factors
(A - sigma B and the bordered Neumann and projection systems) has symmetric
structure, and on these this ordering gives about half the fill of COLAMD.
Its pivot check is gated: one solve with a fixed probe vector measures the
growth |A||x|/|b|, and only a matrix that this flags has U's diagonal read
(which makes scipy keep CSC copies of L and U) for the exact small-pivot
test.  The Arnoldi iteration is ARPACK's implicitly restarted Arnoldi
(`scipy.sparse.linalg.eigs`) on a linear operator that applies the
shift-inverted pencil followed by the caller's deflation.  The bilinear
(unconjugated) handling of complex-symmetric pencils lives in that deflation
and in the caller's normalization; ARPACK itself only needs the operator and
a fixed start vector.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

__all__ = [
    "LUFactors",
    "SingularMatrixError",
    "ArnoldiError",
    "shift_invert_arnoldi",
]

# Singular-pivot threshold and solve backward error above which one step of
# refinement runs (see LUFactors); ARPACK's relative residual tolerance and
# restart limit (see shift_invert_arnoldi).
_PIVOT_TOL, _REFINE_TOL = 1e-13, 1e-14
_ARNOLDI_TOL, _ARNOLDI_RESTARTS = 1e-10, 300


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
    """Non-convergence of the shift-invert iteration; carries best residuals.

    The message lists the first six of them.
    """

    def __init__(self, residuals):
        listed = ", ".join(f"{r:.3e}" for r in residuals[:6])
        if len(residuals) > 6:
            listed += f", ... ({len(residuals) - 6} more)"
        super().__init__(f"Arnoldi did not converge; best residuals [{listed}]")
        self.residuals = residuals


class LUFactors:
    """Sparse LU factors of a square matrix.  A solve takes one step of
    iterative refinement only when its normwise backward error exceeds
    _REFINE_TOL.  The input is copied to CSC; the ordering (minimum degree
    on A^T + A, symmetric mode) is fixed, so repeated factorizations are
    deterministic.

    A pivot counts as singular when its magnitude is at most
    `_PIVOT_TOL * max(1, max |a_ij|)`.  Reading U's diagonal makes scipy
    keep CSC copies of L and U for the factor's whole life, so it is read
    only when one solve with a fixed probe vector b flags the matrix: the
    growth max(1, |A|_inf) |x|_inf / |b|_inf is non-finite or above
    `1e-5 / _PIVOT_TOL`.  A pivot that small puts its reciprocal into x, so
    the gate over-flags; the floor of 1 mirrors the check's own scale, so a
    matrix with only small entries (say 1e-14 I) is flagged too.  A flagged
    matrix gets the exact check.
    """

    def __init__(self, matrix):
        # a copy the factor owns: splu sums duplicates in place, and the
        # refinement residual needs the matrix as factored
        mat = scipy.sparse.csc_matrix(matrix, copy=True)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("LUFactors requires a square matrix")
        self.n = mat.shape[0]
        try:
            splu = scipy.sparse.linalg.splu(mat, permc_spec="MMD_AT_PLUS_A",
                                            options={"SymmetricMode": True})
        except RuntimeError as exc:
            if "singular" not in str(exc):
                raise
            # SuperLU reports an exactly zero pivot without its position
            raise SingularMatrixError(None, 0.0) from exc
        magnitudes = np.abs(mat.data)
        self._mat = mat
        self._norm_inf = float(np.bincount(mat.indices, weights=magnitudes,
                                           minlength=self.n).max(initial=0.0))
        # the probe takes the factor's dtype: splu promotes integer matrices
        probe = _start_vector(self.n, None, np.result_type(mat.dtype, np.float32))
        x = splu.solve(probe)
        growth = (max(1.0, self._norm_inf) * np.abs(x).max(initial=0.0)
                  / np.abs(probe).max(initial=0.0)) if self.n else 0.0
        if not growth <= 1e-5 / _PIVOT_TOL:
            diag = np.abs(splu.U.diagonal())
            scale = max(1.0, magnitudes.max(initial=0.0))
            small = np.nonzero(diag <= _PIVOT_TOL * scale)[0]
            if len(small):
                # U's k-th pivot belongs to column perm_c^{-1}[k] of the input
                column = int(np.argsort(splu.perm_c)[small[0]])
                raise SingularMatrixError(column, float(diag[small[0]]))
        self._splu = splu

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b)
        x = self._splu.solve(b)
        r = b - self._mat @ x
        # normwise backward error |r| / (|A| |x| + |b|), in the max norm
        scale = self._norm_inf * np.abs(x).max(initial=0.0) + np.abs(b).max(initial=0.0)
        if np.abs(r).max(initial=0.0) > _REFINE_TOL * scale:
            x = x + self._splu.solve(r)
        return x


def _start_vector(n: int, deflate, dtype) -> np.ndarray:
    """A fixed generic start vector, deflated.

    Not the all-ones vector: that one is symmetric under every mesh
    reflection, so its Krylov space never reaches the antisymmetric member
    of a double eigenvalue.
    """
    v = np.random.default_rng(0).uniform(-1.0, 1.0, n).astype(dtype)
    return v if deflate is None else deflate(v)


def _dense_ritz(op, n: int, count: int, dtype):
    """Eigenpairs of the operator formed column by column (small n)."""
    eye = np.eye(n, dtype=dtype)
    mat = np.column_stack([op(eye[:, j]) for j in range(n)])
    theta, vecs = np.linalg.eig(mat)
    order = np.lexsort((theta.imag, theta.real, -np.abs(theta)))[:count]
    theta, vecs = theta[order], vecs[:, order]
    res = np.linalg.norm(mat @ vecs - vecs * theta, axis=0) / np.maximum(np.abs(theta), 1e-300)
    return theta, vecs, res


def shift_invert_arnoldi(apply_op, n: int, count: int, deflate=None,
                         dtype=complex, krylov_dim: int | None = None):
    """ARPACK's implicitly restarted Arnoldi on the shift-inverted operator.

    apply_op(v) must compute (A - sigma B)^{-1} B v; `deflate`, when given,
    is applied to the start vector and to every operator output, so the
    Krylov space stays in the deflated subspace.  Returns the `count` Ritz
    pairs of largest |theta| as (thetas, vectors, residual_bounds); pencil
    eigenvalues follow as lambda = sigma + 1/theta.  ARPACK accepts a Ritz
    pair once its residual estimate is at most _ARNOLDI_TOL * |theta|, so
    each bound is _ARNOLDI_TOL.  The start vector is fixed, so repeated
    calls agree bit for bit.  ARPACK needs count < n - 1; larger counts
    form the operator densely.
    `krylov_dim` is ARPACK's ncv; _ARNOLDI_RESTARTS is its maxiter.
    """
    if count >= n:
        raise ValueError("count must be smaller than the dimension")

    def op(v):
        w = apply_op(v)
        return w if deflate is None else deflate(w)

    if count >= n - 1:
        return _dense_ritz(op, n, count, dtype)
    linop = scipy.sparse.linalg.LinearOperator((n, n), matvec=op, dtype=dtype)
    try:
        theta, vecs = scipy.sparse.linalg.eigs(
            linop, k=count, which="LM", v0=_start_vector(n, deflate, dtype),
            ncv=krylov_dim, tol=_ARNOLDI_TOL, maxiter=_ARNOLDI_RESTARTS)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        converged = len(exc.eigenvalues)
        raise ArnoldiError([_ARNOLDI_TOL] * converged + [np.inf] * (count - converged)) from None
    order = np.lexsort((theta.imag, theta.real, -np.abs(theta)))
    return theta[order], vecs[:, order], np.full(count, _ARNOLDI_TOL)
