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
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fem import AssembledForms
from .linalg import LUFactors, SingularMatrixError, bilinear_dot, shift_invert_arnoldi, sym_eig_dense
from .mesh import INCLUSION, SHELL

__all__ = [
    "Pencil",
    "EigenPair",
    "SpectralCluster",
    "Branch",
    "EigError",
    "TrackingAmbiguityError",
    "limit_spectrum",
    "delta_spectrum",
    "discrete_K0",
    "track_branch",
    "cluster_track",
    "find_clusters",
]


class EigError(RuntimeError):
    pass


class TrackingAmbiguityError(EigError):
    """Raised when branch continuation cannot pick a unique successor
    (the branch has entered a cluster; switch to cluster tracking)."""


@dataclass
class Pencil:
    """The generalized problem A v = lambda (M_D + delta M_S) v."""

    forms: AssembledForms
    delta: complex

    def __post_init__(self):
        area_d = self.forms.mesh.region_area(INCLUSION)
        area_s = self.forms.mesh.region_area(SHELL)
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
class SpectralCluster:
    members: list          # of EigenPair
    gap: float             # distance to the nearest eigenvalue outside

    @property
    def multiplicity(self) -> int:
        return len(self.members)


@dataclass
class Branch:
    """One eigenvalue family lambda(delta) sampled along a path."""

    delta_samples: list
    lambda_samples: list
    vectors: list = field(default_factory=list)
    radius: float | None = None
    taylor: np.ndarray | None = None


def _phase_fix(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    z = v[i]
    if z.real < 0 or (z.real == 0 and z.imag < 0):
        return -v
    return v


def _bilinear_normalize(v: np.ndarray, bmat) -> np.ndarray:
    """Scale v to v^T B v = 1, or to +-1 for a real v when B is indefinite."""
    q = bilinear_dot(v, bmat @ v)
    if abs(q) < 1e-14 * float(np.vdot(v, v).real):
        raise EigError("eigenvector is bilinearly isotropic; cannot normalize")
    v = v / cmath.sqrt(q) if np.iscomplexobj(v) else v / np.sqrt(abs(q))
    return _phase_fix(v)


def _rayleigh(amat, bmat, v):
    """(bilinear Rayleigh quotient, relative residual) of v, or None when
    v is bilinearly isotropic."""
    av = amat @ v
    bv = bmat @ v
    den = bilinear_dot(v, bv)
    if abs(den) < 1e-14 * float(np.vdot(v, v).real):
        return None
    lam = bilinear_dot(v, av) / den
    scale = np.linalg.norm(av) + abs(lam) * np.linalg.norm(bv)
    return lam, float(np.linalg.norm(av - lam * bv) / max(scale, 1e-300))


def _finite_count(forms: AssembledForms, delta) -> int:
    """Finite eigenvalues of (A, B_delta) once the constant mode is deflated:
    rank(B) - 1.  At delta = 0, B = M_D has rank equal to the number of
    vertices of inclusion triangles; otherwise B is nonsingular."""
    if delta == 0:
        return int(np.count_nonzero(forms.M_D.diagonal())) - 1
    return forms.mesh.n_vertices - 1


def _solve_pencil(forms: AssembledForms, delta: complex, target: complex, count: int,
                  res_tol: float = 1e-8, max_rounds: int = 6):
    """Harvest the `count` eigenpairs of (A, B_delta) nearest `target`.

    Shift-invert ARPACK (`shift_invert_arnoldi`) runs on (A - sigma B)^{-1} B
    with the constant mode and every accepted eigenvector deflated
    bilinearly; the caches B p / p^T B p make each deflation a pair of dense
    products.  Each Ritz vector is first deflated against the accepted
    vectors: a copy of one of them leaves almost nothing and is dropped, and
    a further member of a degenerate eigenspace comes out bilinearly
    orthogonal to the members already held.  A candidate whose residual is
    not already far below `res_tol` (above res_tol / 1000) is polished by
    four steps of deflated inverse iteration, and is dropped if it still
    misses `res_tol`.

    A Krylov space reaches a multiple eigenvalue's eigenspace only along its
    start vector's component there, so it can hold one copy and miss
    another.  Once `count` pairs are held, verification rounds run on the
    operator deflated by all of them, until a round finds nothing nearer the
    target than the count-th pair.  A round asks ARPACK for one Ritz pair in
    a 12-dimensional space: on the 8- and 16-ring meshes, two pairs in 16
    dimensions took a quarter more solves and found nothing more.
    """
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
    fac = None
    for bump in range(3):
        try:
            fac = LUFactors(acsr - sigma * bcsr)
            break
        except SingularMatrixError:
            if bump == 2:
                raise EigError(
                    f"delta={delta} puts the shifted pencil at a discrete resonance "
                    f"(singular factorization at shift {sigma})") from None
            sigma = sigma * (1.0 + 1e-3) + 1e-3

    ones = np.ones(n, dtype=dtype)
    b_ones = bcsr @ ones
    ones_q = bilinear_dot(ones, b_ones)
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
                                          tol=1e-10, krylov_dim=krylov_dim)
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
            if quotient is not None and quotient[1] > 1e-3 * res_tol:
                for _ in range(4):
                    w = deflate(apply_op(v))
                    nw = np.linalg.norm(w)
                    if nw == 0.0:
                        break
                    v = w / nw
                quotient = _rayleigh(acsr, bcsr, v)
            if quotient is None or not quotient[1] <= res_tol or not distance(quotient[0]) < bound:
                continue
            lam, res = quotient
            v = _bilinear_normalize(v, bcsr)
            bv = bcsr @ v
            basis = np.column_stack([basis, v])
            weights = np.column_stack([weights, bv / bilinear_dot(v, bv)])
            accepted.append(EigenPair(float(np.real(lam)) if real_case else lam, v, res))
            added += 1
            if len(accepted) == count:
                break
        return added

    for _ in range(max_rounds):
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
    if count < 1:
        raise EigError("count must be >= 1")
    pairs = _solve_pencil(forms, 0.0, -1.0, count)
    pairs.sort(key=lambda p: np.real(p.lam))
    return pairs


def delta_spectrum(forms: AssembledForms, delta: complex, target: complex, count: int):
    """Eigenpairs of (A, M_D + delta M_S) nearest the target shift."""
    if count < 1:
        raise EigError("count must be >= 1")
    area_d = forms.mesh.region_area(INCLUSION)
    area_s = forms.mesh.region_area(SHELL)
    if abs(delta + area_d / area_s) < 1e-14:
        raise EigError("delta = -area(D)/area(shell): total mass direction degenerate")
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
    mu, x = sym_eig_dense(a, m)
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
    rho, _ = sym_eig_dense(k0)
    return rho[::-1].copy(), k0


def find_clusters(pairs, rel_tol: float = 1e-6):
    """Group eigenpairs whose eigenvalues agree to rel_tol (relative)."""
    order = sorted(range(len(pairs)), key=lambda i: np.real(pairs[i].lam))
    clusters = []
    current = [pairs[order[0]]]
    for i in order[1:]:
        p = pairs[i]
        if abs(p.lam - current[-1].lam) <= rel_tol * max(1.0, abs(p.lam)):
            current.append(p)
        else:
            clusters.append(current)
            current = [p]
    clusters.append(current)
    out = []
    for ci, c in enumerate(clusters):
        gaps = []
        for cj, other in enumerate(clusters):
            if ci != cj:
                gaps.append(min(abs(p.lam - q.lam) for p in c for q in other))
        out.append(SpectralCluster(c, min(gaps) if gaps else np.inf))
    return out


def track_branch(forms: AssembledForms, lambda0: float, path, count_hint: int = 5,
                 ambiguity_ratio: float = 0.9) -> Branch:
    """Continue one eigenvalue branch along a delta path starting at 0.

    At each step the successor is the eigenpair maximizing the bilinear
    overlap |v_prev^T B_delta v|; if the top two overlaps are within 10%
    (and belong to distinct eigenvalues), the branch has entered a cluster
    and a TrackingAmbiguityError is raised.
    """
    path = list(path)
    if abs(path[0]) > 1e-15:
        raise EigError("tracking path must start at delta = 0")
    branch = Branch(delta_samples=[], lambda_samples=[], vectors=[])

    start = _solve_pencil(forms, 0.0, lambda0 * (1.0 + 1e-4) + 1e-3, count_hint)
    start.sort(key=lambda p: abs(p.lam - lambda0))
    prev = start[0]
    branch.delta_samples.append(0.0)
    branch.lambda_samples.append(prev.lam)
    branch.vectors.append(prev.vector)

    for delta in path[1:]:
        pairs = delta_spectrum(forms, delta, prev.lam, count_hint)
        bcsr = forms.mass_delta(delta)
        overlaps = np.array([abs(bilinear_dot(prev.vector, bcsr @ p.vector)) for p in pairs])
        order = np.argsort(-overlaps)
        best, second = order[0], order[1] if len(order) > 1 else None
        if second is not None and overlaps[best] > 0:
            close_vals = abs(pairs[best].lam - pairs[second].lam) > 1e-9 * max(1.0, abs(pairs[best].lam))
            if close_vals and overlaps[second] / overlaps[best] > ambiguity_ratio:
                raise TrackingAmbiguityError(
                    f"ambiguous continuation at delta={delta}: overlaps "
                    f"{overlaps[best]:.3e} vs {overlaps[second]:.3e}")
        prev = pairs[best]
        branch.delta_samples.append(delta)
        branch.lambda_samples.append(prev.lam)
        branch.vectors.append(prev.vector)
    return branch


def cluster_track(forms: AssembledForms, lambda0s, path, count_hint: int | None = None):
    """Track an unordered eigenvalue cluster along a delta path.

    Returns (delta list, list of unordered lambda tuples, dict p -> s_p
    samples) with s_p(delta) = sum of lambda_i(delta)^p for p = 1..h.
    The symmetric functions are single-valued along closed circles even
    when the individual branches permute.
    """
    h = len(lambda0s)
    count = count_hint or (h + 4)
    path = list(path)
    prev_set = list(lambda0s)
    deltas, sets = [], []
    for delta in path:
        target = sum(prev_set) / h
        pairs = delta_spectrum(forms, delta, target, count)
        remaining = list(pairs)
        chosen = []
        for lam_prev in prev_set:
            j = min(range(len(remaining)), key=lambda i: abs(remaining[i].lam - lam_prev))
            chosen.append(remaining.pop(j))
        lams = tuple(p.lam for p in chosen)
        deltas.append(delta)
        sets.append(lams)
        prev_set = list(lams)
    s = {p: np.array([sum(l**p for l in ls) for ls in sets]) for p in range(1, h + 1)}
    return deltas, sets, s
