"""Discrete spectra of the high-contrast pencil (A, M_D + delta*M_S).

Covers the delta = 0 limit problem, the complex-delta problem via
shift-invert Arnoldi with constant-mode deflation, the explicit dense
compact-operator route, and eigenvalue branch / cluster tracking along
paths in the complex delta plane.

All complex pairings are bilinear (unconjugated): the pencil is complex
symmetric, its eigenvectors for distinct eigenvalues satisfy u^T B v = 0,
and bilinear quantities stay analytic in delta.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .fem import AssembledForms
from .linalg import LUFactors, SingularMatrixError, shift_invert_arnoldi
from .mesh import INCLUSION, SHELL

__all__ = [
    "Pencil",
    "EigenPair",
    "Branch",
    "EigError",
    "TrackingAmbiguityError",
    "limit_spectrum",
    "delta_spectrum",
    "discrete_K0",
    "track_branch",
    "cluster_track",
]


class EigError(RuntimeError):
    pass


class TrackingAmbiguityError(EigError):
    """Raised when branch continuation cannot pick a unique successor
    (the branch has entered a cluster; switch to cluster tracking)."""


# _solve_pencil: the relative residual a harvested eigenpair must reach,
# and the most ARPACK runs before the verification rounds.
_RES_TOL, _MAX_ROUNDS = 1e-8, 6
# _block_step: the relative Ritz residuals it aims for and accepts, and the
# relative distance within which Ritz values count as one eigenvalue.
_RES_GOAL, _RES_ACCEPT, _SAME_VALUE = 1e-13, 1e-8, 1e-9
# track_branch: the eigenpairs its start harvests at delta = 0, and the
# overlap ratio above which two successors are ambiguous.
_START_COUNT, _AMBIGUITY_RATIO = 5, 0.9
# Pencil: the largest |delta| accepted; beyond it the shifted matrix
# A - sigma (M_D + delta M_S), with sigma growing like delta, overflows.
_DELTA_MAX = 1e100


@dataclass
class Pencil:
    """The generalized problem A v = lambda (M_D + delta M_S) v."""

    forms: AssembledForms
    delta: complex

    def __post_init__(self):
        # forms.areas holds the triangle areas of the mesh, computed once
        regions = self.forms.mesh.regions
        area_d = float(self.forms.areas[regions == INCLUSION].sum())
        area_s = float(self.forms.areas[regions == SHELL].sum())
        if not abs(self.delta) <= _DELTA_MAX:
            raise EigError(f"|delta| = {abs(self.delta):.3g} exceeds {_DELTA_MAX:g}")
        if abs(self.delta + area_d / area_s) < 1e-14:
            raise EigError("delta = -area(D)/area(shell): total mass direction degenerate")
        if abs(self.delta) >= area_d / area_s:
            warnings.warn(
                f"|delta| = {abs(self.delta):.3g} is outside the validated disk "
                f"|delta| < {area_d / area_s:.3g}; the solve proceeds but the "
                "mean functional's contraction bound no longer applies",
                stacklevel=2)

    @property
    def B(self):
        return self.forms.mass_delta(self.delta)


@dataclass
class EigenPair:
    lam: complex
    vector: np.ndarray
    residual: float


@dataclass
class Branch:
    """One eigenvalue family lambda(delta) sampled along a path."""

    delta_samples: list
    lambda_samples: list
    vectors: list = field(default_factory=list)


def _phase_fix(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    z = v[i]
    if z.real < 0 or (z.real == 0 and z.imag < 0):
        return -v
    return v


def _bilinear_normalize(v: np.ndarray, bmat) -> np.ndarray:
    """Scale v to v^T B v = 1, or to +-1 for a real v when B is indefinite."""
    q = v @ (bmat @ v)
    if abs(q) < 1e-14 * float(np.vdot(v, v).real):
        raise EigError("eigenvector is bilinearly isotropic; cannot normalize")
    v = v / cmath.sqrt(q) if np.iscomplexobj(v) else v / np.sqrt(abs(q))
    return _phase_fix(v)


def _rayleigh(amat, bmat, v):
    """(bilinear Rayleigh quotient, relative residual) of v, or None when
    v is bilinearly isotropic."""
    av = amat @ v
    bv = bmat @ v
    den = v @ bv
    if abs(den) < 1e-14 * float(np.vdot(v, v).real):
        return None
    lam = (v @ av) / den
    scale = np.linalg.norm(av) + abs(lam) * np.linalg.norm(bv)
    return lam, float(np.linalg.norm(av - lam * bv) / max(scale, 1e-300))


def _finite_count(forms: AssembledForms, delta) -> int:
    """Finite eigenvalues of (A, B_delta) once the constant mode is deflated:
    rank(B) - 1.  At delta = 0, B = M_D has rank equal to the number of
    vertices of inclusion triangles; otherwise B is nonsingular."""
    if delta == 0:
        return int(np.count_nonzero(forms.M_D.diagonal())) - 1
    return forms.mesh.n_vertices - 1


def _shifted_factor(acsr, bcsr, sigma, bump: float, delta) -> LUFactors:
    """LU factors of A - sigma B.  A singular shift (sigma at an eigenvalue)
    moves to sigma (1 + bump) + bump, at most twice."""
    for attempt in range(3):
        try:
            return LUFactors(acsr - sigma * bcsr)
        except SingularMatrixError:
            if attempt == 2:
                raise EigError(
                    f"delta={delta} puts the shifted pencil at a discrete resonance "
                    f"(singular factorization at shift {sigma})") from None
            sigma = sigma * (1.0 + bump) + bump


def _solve_pencil(forms: AssembledForms, delta: complex, target: complex, count: int):
    """Harvest the `count` eigenpairs of (A, B_delta) nearest `target`.

    Shift-invert ARPACK (`shift_invert_arnoldi`) runs on (A - sigma B)^{-1} B
    with the constant mode and every accepted eigenvector deflated
    bilinearly; the caches B p / p^T B p make each deflation a pair of dense
    products.  Each Ritz vector is first deflated against the accepted
    vectors: a copy of one of them leaves almost nothing and is dropped, and
    a further member of a degenerate eigenspace comes out bilinearly
    orthogonal to the members already held.  A candidate whose residual is
    not already far below _RES_TOL (above _RES_TOL / 1000) is polished by
    four steps of deflated inverse iteration, and is dropped if it still
    misses _RES_TOL.

    A Krylov space reaches a multiple eigenvalue's eigenspace only along its
    start vector's component there, so it can hold one copy and miss
    another.  Once `count` pairs are held, verification rounds run on the
    operator deflated by all of them, until a round finds nothing nearer the
    target than the count-th pair.  A round asks ARPACK for one Ritz pair in
    a 12-dimensional space: on the 8- and 16-ring meshes, two pairs in 16
    dimensions took a quarter more solves and found nothing more.
    """
    if count < 1:
        raise EigError("count must be >= 1")
    real_case = complex(delta).imag == 0.0 and complex(target).imag == 0.0
    if real_case:
        delta = float(np.real(delta))
    available = _finite_count(forms, delta)
    if count > available:
        raise EigError(f"count {count} exceeds the {available} finite eigenvalues "
                       f"of the deflated pencil at delta={delta}")
    pencil = Pencil(forms, delta)
    bmat = pencil.B
    n = forms.mesh.n_vertices
    dtype = float if real_case else complex
    sigma = float(np.real(target)) if real_case else complex(target)

    acsr = forms.A.astype(dtype)
    bcsr = bmat.astype(dtype)
    fac = _shifted_factor(acsr, bcsr, sigma, 1e-3, delta)

    ones = np.ones(n, dtype=dtype)
    b_ones = bcsr @ ones
    ones_q = ones @ b_ones
    if abs(ones_q) < 1e-14:
        raise EigError("total mass degenerate: delta = -area(D)/area(shell)")

    accepted: list[EigenPair] = []
    # deflation: v -> v - P (W^T v), columns p and B p / (p^T B p)
    basis = ones[:, None]
    weights = (b_ones / ones_q)[:, None]

    def deflate(v):
        return v - basis @ (weights.T @ v)

    def apply_op(v):
        return fac.solve(bcsr @ v)

    def distance(lam):
        return abs(lam - target)

    def harvest(k, krylov_dim, bound):
        """Accept the Ritz pairs of one ARPACK run that pass every check and
        lie nearer the target than `bound`, stopping when `count` pairs are
        held.  Returns the number accepted."""
        nonlocal basis, weights
        _, vecs, _ = shift_invert_arnoldi(apply_op, n, k, deflate=deflate, dtype=dtype,
                                          krylov_dim=krylov_dim)
        if real_case:
            # a real operator can still have complex Ritz vectors; the factor is real
            vecs = vecs.real
        added = 0
        for i in range(vecs.shape[1]):
            v = deflate(vecs[:, i])
            nv = np.linalg.norm(v)
            if not nv > 1e-3 * np.linalg.norm(vecs[:, i]):
                continue    # (almost) a copy of an accepted vector
            v = v / nv
            quotient = _rayleigh(acsr, bcsr, v)
            if quotient is not None and quotient[1] > 1e-3 * _RES_TOL:
                for _ in range(4):
                    w = deflate(apply_op(v))
                    nw = np.linalg.norm(w)
                    if nw == 0.0:
                        break
                    v = w / nw
                quotient = _rayleigh(acsr, bcsr, v)
            if quotient is None or not quotient[1] <= _RES_TOL or not distance(quotient[0]) < bound:
                continue
            lam, res = quotient
            v = _bilinear_normalize(v, bcsr)
            bv = bcsr @ v
            basis = np.column_stack([basis, v])
            weights = np.column_stack([weights, bv / (v @ bv)])
            accepted.append(EigenPair(float(np.real(lam)) if real_case else lam, v, res))
            added += 1
            if len(accepted) == count:
                break
        return added

    for _ in range(_MAX_ROUNDS):
        if len(accepted) == count or not harvest(
                min(count - len(accepted) + 4, available - len(accepted)), None, np.inf):
            break
    if len(accepted) < count:
        raise EigError(f"found only {len(accepted)} of {count} requested eigenpairs "
                       f"near target {target}")

    while len(accepted) < available:
        bound = sorted(distance(p.lam) for p in accepted)[count - 1]
        if not harvest(1, 12, bound):
            break

    accepted.sort(key=lambda p: (distance(p.lam), np.real(p.lam), np.imag(p.lam)))
    return accepted[:count]


def limit_spectrum(forms: AssembledForms, count: int):
    """Nonzero eigenvalues of the limit pencil (A, M_D), ascending.

    The constant mode (eigenvalue zero) is deflated away; eigenvectors come
    out M_D-bilinearly orthonormal with vanishing inclusion mean.
    """
    pairs = _solve_pencil(forms, 0.0, -1.0, count)
    pairs.sort(key=lambda p: np.real(p.lam))
    return pairs


def delta_spectrum(forms: AssembledForms, delta: complex, target: complex, count: int):
    """Eigenpairs of (A, M_D + delta M_S) nearest the target shift."""
    return _solve_pencil(forms, delta, target, count)


def discrete_K0(forms: AssembledForms, size_limit: int = 2000):
    """Spectrum of the dense discrete compact operator route.

    Diagonalizing (A, M) gives the discrete Laplacian eigenbasis; dropping
    the constant mode and sandwiching the inclusion mass (with its rank-one
    inclusion-mean correction, which encodes the constraint the constant
    mode leaves behind) between inverse square roots yields a symmetric PSD
    matrix whose nonzero eigenvalues are exactly the reciprocals of the
    limit-pencil eigenvalues.

    Returns (rho descending, operator matrix).
    """
    n = forms.mesh.n_vertices
    if n > size_limit:
        raise EigError(f"dense operator path limited to {size_limit} nodes, mesh has {n}")
    a = forms.A.toarray()
    m = forms.M.toarray()
    for name, mat in (("stiffness", a), ("mass", m)):
        if np.abs(mat - mat.T).max() > 1e-12 * max(1.0, np.abs(mat).max()):
            raise EigError(f"{name} matrix is not symmetric to the required tolerance")
    mu, x = scipy.linalg.eigh(a, m, check_finite=False)
    if mu[0] > 1e-8 or mu[1] < 1e-8:
        raise EigError("expected exactly one near-zero Laplacian mode (connected mesh)")
    xp = x[:, 1:]
    mup = mu[1:]
    md = forms.M_D.toarray()
    md1 = md @ np.ones(n)
    md_corr = md - np.outer(md1, md1) / md1.sum()
    core = xp.T @ md_corr @ xp
    s = 1.0 / np.sqrt(mup)
    k0 = s[:, None] * core * s[None, :]
    k0 = 0.5 * (k0 + k0.T)
    rho = scipy.linalg.eigh(k0, check_finite=False)[0]
    return rho[::-1].copy(), k0


def _slope(forms: AssembledForms, lam, v, bmat):
    """d lambda / d delta = -lambda v^T M_S v / v^T B v of an eigenpair."""
    return -lam * (v @ (forms.M_S @ v)) / (v @ (bmat @ v))


def _predict(history, delta):
    """Cubic Hermite extrapolation to delta through the last two
    (delta, lambda, d lambda / d delta) samples; the tangent line from one."""
    d1, l1, s1 = history[-1]
    if len(history) == 1 or history[-2][0] == d1:
        return l1 + s1 * (delta - d1)
    d0, l0, s0 = history[-2]
    h = d1 - d0
    t = (delta - d0) / h
    return ((1 + 2 * t) * (1 - t) ** 2 * l0 + t * (1 - t) ** 2 * h * s0
            + t * t * (3 - 2 * t) * l1 + t * t * (t - 1) * h * s1)


def _block_step(forms: AssembledForms, delta, sigma, block):
    """Ritz pairs of (A, B_delta) on the span that block inverse iteration
    with one factor of A - sigma B reaches from `block` (n x h).

    Each round solves (A - sigma B) W = B V for the whole block and takes a
    bilinear Rayleigh-Ritz step on span W.  Rounds stop once the largest
    relative Ritz residual reaches _RES_GOAL or falls by less than half; a
    residual still above _RES_ACCEPT raises TrackingAmbiguityError.
    Returns (B_delta, Ritz values, Ritz vectors scaled to v^T B v = 1).
    """
    real = complex(delta).imag == 0.0 and complex(sigma).imag == 0.0 and not np.iscomplexobj(block)
    if real:
        delta, sigma = float(np.real(delta)), float(np.real(sigma))
    dtype = float if real else complex
    bcsr = Pencil(forms, delta).B.astype(dtype)
    acsr = forms.A.astype(dtype)
    fac = _shifted_factor(acsr, bcsr, sigma, 1e-6, delta)
    bv, res = bcsr @ block, np.inf
    while True:
        q = np.linalg.qr(fac.solve(bv))[0]
        aq, bq = acsr @ q, bcsr @ q
        at, bt = q.T @ aq, q.T @ bq
        if real:
            # symmetric-definite: B-orthonormal Ritz vectors even inside a double
            theta, c = scipy.linalg.eigh(0.5 * (at + at.T), 0.5 * (bt + bt.T), check_finite=False)
        else:
            theta, c = np.linalg.eig(np.linalg.solve(bt, at))
        av, bv = aq @ c, bq @ c
        scale = np.linalg.norm(av, axis=0) + np.abs(theta) * np.linalg.norm(bv, axis=0)
        last, res = res, float(np.max(np.linalg.norm(av - bv * theta, axis=0) / scale))
        if res <= _RES_GOAL or not res <= 0.5 * last:
            break
    if not res <= _RES_ACCEPT:
        raise TrackingAmbiguityError(
            f"corrector at delta={delta} stopped at residual {res:.3e} (shift {sigma})")
    return bcsr, theta, np.column_stack([_bilinear_normalize(v, bcsr) for v in (q @ c).T])


def _match(values, targets):
    """Index of the value nearest each target in turn, each index used once."""
    free, out = list(range(len(values))), []
    for t in targets:
        out.append(free.pop(min(range(len(free)), key=lambda j: abs(values[free[j]] - t))))
    return out


def track_branch(forms: AssembledForms, lambda0: float, path) -> Branch:
    """Continue one eigenvalue branch along a delta path starting at 0.

    The start harvests _START_COUNT eigenpairs at delta = 0 and keeps the
    one nearest lambda0 in a block with every harvested copy of its
    eigenvalue (1e-6 relative), so a double eigenvalue travels as its
    two-dimensional eigenspace.  Each later step predicts lambda by cubic
    Hermite extrapolation through the last two samples (slopes
    -lambda v^T M_S v / v^T B v; the tangent line on the first step) and
    corrects the block with one factorization at the prediction
    (`_block_step`).  When the Ritz values agree to 1e-9 (relative) the
    successor is the bilinear projection of the previous vector onto the
    block; otherwise it is the Ritz vector maximizing the overlap
    |v_prev^T B_delta v|, and a second overlap above _AMBIGUITY_RATIO
    times the first, on a distinct eigenvalue, raises
    TrackingAmbiguityError.  So does a successor overlap below
    1 / hypot(1, _AMBIGUITY_RATIO), or a corrector that misses its residual
    bound: the branch has entered a cluster or jumped.
    """
    path = list(path)
    if abs(path[0]) > 1e-15:
        raise EigError("tracking path must start at delta = 0")
    start = _solve_pencil(forms, 0.0, lambda0 * (1.0 + 1e-4) + 1e-3, _START_COUNT)
    start.sort(key=lambda p: abs(p.lam - lambda0))
    lam, v = start[0].lam, start[0].vector
    block = np.column_stack([p.vector for p in start if abs(p.lam - lam) <= 1e-6 * abs(lam)])
    history = [(0.0, lam, _slope(forms, lam, v, forms.M_D))]
    branch = Branch(delta_samples=[0.0], lambda_samples=[lam], vectors=[v])
    min_overlap = 1.0 / math.hypot(1.0, _AMBIGUITY_RATIO)

    for delta in path[1:]:
        bmat, theta, block = _block_step(forms, delta, _predict(history, delta), block)
        if np.all(np.abs(theta - theta[0]) <= _SAME_VALUE * max(1.0, abs(theta[0]))):
            # one eigenvalue: inside a degenerate block the basis is arbitrary
            w = block @ np.linalg.solve(block.T @ (bmat @ block), block.T @ (bmat @ v))
            w = _bilinear_normalize(w, bmat)
            lam = _rayleigh(forms.A, bmat, w)[0]
        else:
            overlaps = np.abs(block.T @ (bmat @ v))
            best, second = np.argsort(-overlaps)[:2]
            distinct = abs(theta[best] - theta[second]) > _SAME_VALUE * max(1.0, abs(theta[best]))
            if distinct and overlaps[second] > _AMBIGUITY_RATIO * overlaps[best]:
                raise TrackingAmbiguityError(
                    f"ambiguous continuation at delta={delta}: overlaps "
                    f"{overlaps[best]:.3e} vs {overlaps[second]:.3e}")
            w, lam = block[:, best], theta[best]
        overlap = abs(v @ (bmat @ w))
        if overlap < min_overlap:
            raise TrackingAmbiguityError(
                f"continuation at delta={delta} lost the branch: overlap {overlap:.3e}")
        v = w
        history = [history[-1], (delta, lam, _slope(forms, lam, v, bmat))]
        branch.delta_samples.append(delta)
        branch.lambda_samples.append(lam)
        branch.vectors.append(v)
    return branch


def cluster_track(forms: AssembledForms, lambda0s, path):
    """Track an unordered eigenvalue cluster along a delta path.

    Returns (delta list, list of unordered lambda tuples, dict p -> s_p
    samples) with s_p(delta) = sum of lambda_i(delta)^p for p = 1..h.
    The symmetric functions are single-valued along closed circles even
    when the individual branches permute.

    One `delta_spectrum` harvest of h + 4 pairs at path[0] takes the
    eigenpair nearest each lambda0 in turn.  Every later step corrects the
    h-vector block with `_block_step`, shifted at the cluster mean
    predicted as in `track_branch`, and matches its Ritz values to the
    previous set the same way.
    """
    h = len(lambda0s)
    path = list(path)
    pairs = delta_spectrum(forms, path[0], sum(lambda0s) / h, h + 4)
    chosen = [pairs[i] for i in _match([p.lam for p in pairs], lambda0s)]
    lams = [p.lam for p in chosen]
    block = np.column_stack([p.vector for p in chosen])
    bmat, history, sets = forms.mass_delta(path[0]), [], []
    for k, delta in enumerate(path):
        if k:
            bmat, theta, block = _block_step(forms, delta, _predict(history, delta), block)
            order = _match(theta, lams)
            lams, block = [theta[i] for i in order], block[:, order]
        sets.append(tuple(lams))
        slopes = [_slope(forms, lam, v, bmat) for lam, v in zip(lams, block.T)]
        history = history[-1:] + [(delta, sum(lams) / h, sum(slopes) / h)]
    s = {p: np.array([sum(l**p for l in ls) for ls in sets]) for p in range(1, h + 1)}
    return path, sets, s
