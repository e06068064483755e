"""Discrete spectra of the high-contrast pencil (A, M_D + delta*M_S).

Covers the delta = 0 limit problem, the complex-delta problem via
shift-invert Arnoldi with constant-mode deflation, the explicit dense
compact-operator route, and one continuation loop that tracks a branch
along paths in the complex delta plane as its lambda-group (every copy of
its delta = 0 eigenvalue), reported by the copies' values and their mean.

Every spectrum and tracking call builds one `Pencil`, the data the rest
reads: `Pencil.B` is the one place that forms and checks B_delta, and
`_shifted` the one set-up of a shifted solve.

All complex pairings are bilinear (unconjugated): the pencil is complex
symmetric, its eigenvectors for distinct eigenvalues satisfy u^T B v = 0,
and bilinear quantities stay analytic in delta.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fem import AssembledForms, validated_radius, warn_outside_validated_disk
from .linalg import LUFactors, SingularMatrixError, shift_invert_arnoldi

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
]


class EigError(RuntimeError):
    pass


class TrackingAmbiguityError(EigError):
    """Raised when a continuation step's corrector stalls or the tracked set loses its span."""


# _solve_pencil: the relative residual a harvested eigenpair must reach,
# and the most ARPACK runs before the verification rounds.
_RES_TOL, _MAX_ROUNDS = 1e-8, 6
# _block_step: the relative Ritz residuals it aims for and accepts.
_RES_GOAL, _RES_ACCEPT = 1e-13, 1e-8
# track_branch: the eigenpairs its start harvests at delta = 0; _continue:
# the overlap ratio below which the tracked span counts as lost.
_START_COUNT, _AMBIGUITY_RATIO = 5, 0.9
# Pencil.B: the largest |delta| accepted; beyond it the shifted matrix
# A - sigma (M_D + delta M_S), with sigma growing like delta, overflows.
_DELTA_MAX = 1e100


class Pencil:
    """The generalized problem A v = lambda (M_D + delta M_S) v of one
    assembly: A, M_D, M_S, the vertex count n, the validated radius
    area(D)/area(S) and the rank of M_D (its nonzero diagonal entries, one
    per inclusion vertex).  `stiffness(dtype)` is A converted to dtype,
    once per dtype."""

    def __init__(self, forms: AssembledForms):
        self.A, self.M_D, self.M_S = forms.A, forms.M_D, forms.M_S
        self.n = forms.mesh.n_vertices
        self.radius = validated_radius(forms)
        self.md_rank = int(np.count_nonzero(forms.M_D.diagonal()))
        self.stiffness = functools.cache(forms.A.astype)

    def B(self, delta):
        """M_D + delta M_S.  Raises EigError when |delta| exceeds _DELTA_MAX
        or delta = -area(D)/area(S), where the total mass degenerates, and
        warns outside the validated disk."""
        if not abs(delta) <= _DELTA_MAX:
            raise EigError(f"|delta| = {abs(delta):.3g} exceeds {_DELTA_MAX:g}")
        # relative: on a large shell the area ratio itself is tiny
        if abs(delta + self.radius) < 1e-14 * self.radius:
            raise EigError("delta = -area(D)/area(shell): total mass direction degenerate")
        warn_outside_validated_disk(delta, self.radius)
        return self.M_D + delta * self.M_S


@dataclass
class EigenPair:
    lam: complex
    vector: np.ndarray
    residual: float


@dataclass
class Branch:
    """One lambda-group sampled along a path: at each sample the mean
    lambda(delta) of its copies, their eigenvectors as the columns of an
    array, and the copies' values in the order of those columns."""

    lambda_samples: list
    vectors: list
    copies: list


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


def _shifted(pencil: Pencil, delta, sigma, real: bool, count: int, bump: float):
    """Set-up of a solve for `count` eigenpairs of (A, B_delta) near sigma:
    with `real`, delta and sigma become floats and A, B stay real, else both
    are complex.  `count` must fit the rank(B) - 1 finite eigenvalues left
    once the constant mode is deflated (B = M_D at delta = 0, else B is
    nonsingular).  A singular shift (sigma at an eigenvalue) moves to
    sigma (1 + bump) + bump, at most twice.  Returns (delta, sigma,
    rank(B) - 1, A, B_delta, LU factors of A - sigma B)."""
    if real:
        delta, sigma = float(np.real(delta)), float(np.real(sigma))
    else:
        sigma = complex(sigma)
    available = (pencil.md_rank if delta == 0 else pencil.n) - 1
    if count > available:
        raise EigError(f"count {count} exceeds the {available} finite eigenvalues "
                       f"of the deflated pencil at delta={delta}")
    dtype = float if real else complex
    acsr, bcsr = pencil.stiffness(dtype), pencil.B(delta).astype(dtype, copy=False)
    shift = sigma
    for attempt in range(3):
        try:
            return delta, sigma, available, acsr, bcsr, LUFactors(acsr - shift * bcsr)
        except SingularMatrixError:
            if attempt == 2:
                raise EigError(
                    f"delta={delta} puts the shifted pencil at a discrete resonance "
                    f"(singular factorization at shift {shift})") from None
            shift = shift * (1.0 + bump) + bump


def _solve_pencil(pencil: Pencil, delta: complex, target: complex, count: int):
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

    `count` is a hard cut on the pairs sorted by distance: when the count-th
    nearest eigenvalue is one copy of a multiple eigenvalue whose other
    copies lie just beyond it, only the copies that fit are returned.  On
    the 8-ring disk at delta = 0.02623, count 6 around 14.5 returns one copy
    of the double 27.439249 and count 7 returns both.
    """
    if count < 1:
        raise EigError("count must be >= 1")
    real_case = complex(delta).imag == 0.0 and complex(target).imag == 0.0
    _, _, available, acsr, bcsr, fac = _shifted(pencil, delta, target, real_case, count, 1e-3)
    n, dtype = pencil.n, acsr.dtype
    ones = np.ones(n, dtype=dtype)
    b_ones = bcsr @ ones
    ones_q = ones @ b_ones

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
        _, vecs = shift_invert_arnoldi(apply_op, n, k, deflate=deflate, dtype=dtype,
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
    pairs = _solve_pencil(Pencil(forms), 0.0, -1.0, count)
    pairs.sort(key=lambda p: np.real(p.lam))
    return pairs


def delta_spectrum(forms: AssembledForms, delta: complex, target: complex, count: int):
    """Eigenpairs of (A, M_D + delta M_S) nearest the target shift."""
    return _solve_pencil(Pencil(forms), delta, target, count)


# discrete_K0: the most mesh nodes its dense eigendecompositions accept.
_DENSE_NODE_LIMIT = 2000


def discrete_K0(forms: AssembledForms):
    """Spectrum of the dense discrete compact operator route.

    Diagonalizing (A, M) gives the discrete Laplacian eigenbasis; dropping
    the constant mode and sandwiching the inclusion mass (with its rank-one
    inclusion-mean correction, which encodes the constraint the constant
    mode leaves behind) between inverse square roots yields a symmetric PSD
    matrix whose nonzero eigenvalues are exactly the reciprocals of the
    limit-pencil eigenvalues.

    Meshes above _DENSE_NODE_LIMIT nodes are refused.  Returns (rho
    descending, operator matrix).
    """
    n = forms.mesh.n_vertices
    if n > _DENSE_NODE_LIMIT:
        raise EigError(f"dense operator path limited to {_DENSE_NODE_LIMIT} nodes, "
                       f"mesh has {n}")
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


def _block_step(pencil: Pencil, delta, sigma, block):
    """Ritz pairs of (A, B_delta) on the span that block inverse iteration
    with one factor of A - sigma B reaches from `block` (n x h).

    Each round solves (A - sigma B) W = B V for the whole block and takes a
    bilinear Rayleigh-Ritz step on span W.  Rounds stop once the largest
    relative Ritz residual reaches _RES_GOAL or falls by less than half; a
    residual still above _RES_ACCEPT raises TrackingAmbiguityError.
    Returns (B_delta, Ritz values, Ritz vectors scaled to v^T B v = 1).
    """
    real = complex(delta).imag == 0.0 and complex(sigma).imag == 0.0 and not np.iscomplexobj(block)
    delta, sigma, _, acsr, bcsr, fac = _shifted(pencil, delta, sigma, real, block.shape[1], 1e-6)
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


def _continue(pencil: Pencil, lams, vecs, path):
    """Continue the eigenpairs (lams, columns of vecs) of (A, B_path[0])
    along path; returns one sample (lams, vecs) per point.

    Each step predicts the tracked values' mean (`_predict` on the means of
    lambda and of its slope -lambda v^T M_S v / v^T B v), corrects the
    vectors with one factorization there (`_block_step`), and takes as
    successors the Ritz pair nearest each tracked value (`_match`).  With p
    the bilinear projection of a previous vector v onto the successors'
    span W, |v^T B p| / sqrt|p^T B p| = sqrt|c^T (W^T B W)^-1 c|, c = W^T B
    v, below 1 / hypot(1, _AMBIGUITY_RATIO) raises TrackingAmbiguityError.
    The check is set-wise because a multiple eigenvalue's Ritz basis turns
    freely.
    """
    bmat, history, samples = pencil.B(path[0]), [], []
    for k, delta in enumerate(path):
        if k:
            bmat, theta, ritz = _block_step(pencil, delta, _predict(history, delta), vecs)
            order = _match(theta, lams)
            prev, lams, vecs = vecs, [theta[i] for i in order], ritz[:, order]
            bw = bmat @ vecs
            c = bw.T @ prev
            overlap = np.sqrt(np.min(np.abs(np.sum(c * np.linalg.solve(vecs.T @ bw, c), 0))))
            if not overlap >= 1.0 / math.hypot(1.0, _AMBIGUITY_RATIO):
                raise TrackingAmbiguityError(f"continuation at delta={delta}: the tracked "
                                             f"set lost its span (overlap {overlap:.3e})")
        samples.append((lams, vecs))
        slopes = [-lam * (v @ (pencil.M_S @ v)) / (v @ (bmat @ v)) for lam, v in zip(lams, vecs.T)]
        history = history[-1:] + [(delta, sum(lams) / len(lams), sum(slopes) / len(lams))]
    return samples


def track_branch(forms: AssembledForms, lambda0: float, path) -> Branch:
    """Continue the lambda-group of the limit eigenvalue nearest lambda0
    along a delta path starting at 0.

    The start harvests _START_COUNT eigenpairs at delta = 0 and keeps every
    copy (1e-6 relative) of the eigenvalue nearest lambda0: its group, the
    eigenvalues that leave that value as delta moves off 0.  `_continue`
    tracks the copies together, and each sample is their mean, which
    stays analytic in delta when the copies split or braid (Kato, ch. II
    section 2); the copies themselves are analytic only through their
    symmetric functions.
    """
    path = list(path)
    if not (path and abs(path[0]) <= 1e-15):
        raise EigError("tracking path must start at delta = 0")
    pencil = Pencil(forms)
    pairs = _solve_pencil(pencil, 0.0, lambda0 * (1.0 + 1e-4) + 1e-3, _START_COUNT)
    pairs.sort(key=lambda p: abs(p.lam - lambda0))
    group = [p for p in pairs if abs(p.lam - pairs[0].lam) <= 1e-6 * abs(pairs[0].lam)]
    samples = _continue(pencil, [p.lam for p in group],
                        np.column_stack([p.vector for p in group]), [0.0] + path[1:])
    return Branch([sum(ls) / len(ls) for ls, _ in samples], [vs for _, vs in samples],
                  [ls for ls, _ in samples])

