"""Exact spherical resonances of a unit-ball core inside a spherical shell.

Two closed-form families on D = B_1, Omega = B_R:

* electrostatic: interior Maxwell field with trace V[n,m], wavenumber at a
  zero of j_n; the shell field is a pure gradient (A r^n + B r^{-n-1}) Y
  and the shell magnetic field vanishes identically.
* nonelectrostatic: interior trace U[p,q]; the shell electric field is
  tangential (C r^p + D r^{-p-1}) V with a nonvanishing shell magnetic
  field; the wavenumber is selected by tangential-H matching across r = 1,
  located by brentq between consecutive zeros of j_p.

Also provided: the general single-mode interior Maxwell solver on B_1, a
finite-difference residual checker, and a concentric two-sphere dispersion
relation for nonzero shell permittivity delta, solved for many delta at once
by one vectorised Newton iteration with the exact determinant derivative.

All magnetic fields follow the convention curl E = -i k H, curl H = i k
eps E, so H is purely imaginary for the real electric profiles used here.
The curl of a tangential profile g(r) V[n,m] is
sqrt(n(n+1)) (g/r) Y omega + ((r g)'/r) U, which fixes every radial factor
below; in particular the interior factor is j_n(kr) + k r j_n'(kr).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .specfun import (
    HarmonicIndex,
    SurfacePoint,
    _harmonic_frame,
    bessel_zeros,
    spherical_bessel,
    spherical_bessel_complex,
    spherical_neumann_complex,
    sphere_quadrature,
)

__all__ = [
    "MieError",
    "MieMode",
    "FieldSample",
    "CORE",
    "SHELL",
    "ELECTROSTATIC",
    "NONELECTROSTATIC",
    "FAMILY_E",
    "FAMILY_H",
    "electrostatic_mode",
    "nonelectrostatic_mode",
    "matching_constants",
    "interior_solution",
    "evaluate_fields",
    "interface_residuals",
    "residual_checks",
    "concentric_dispersion",
    "save_mode",
]

ELECTROSTATIC = "electrostatic"
NONELECTROSTATIC = "nonelectrostatic"
CORE = "core"
SHELL = "shell"
# polarization families of the concentric dispersion relation: the letter
# names which field is tangential-only (proportional to V)
FAMILY_E = "electric"
FAMILY_H = "magnetic"

_DENOM_TOL = 1e-12
# residual_checks: the central-difference step, and the distance its sample
# points keep from the interface
_FD_STEP, _FD_MARGIN = 1e-4, 0.05
# concentric_dispersion: the relative Newton update at which it stops, and
# its iteration limit
_NEWTON_TOL, _NEWTON_ITER = 1e-12, 80


class MieError(RuntimeError):
    pass


@dataclass(frozen=True)
class MieMode:
    """One exact resonance of the core-shell sphere.

    outer_coeffs holds (A, B) of the electrostatic shell potential
    (A r^n + B r^{-n-1}) Y, or (C, D) of the nonelectrostatic shell field
    (C r^p + D r^{-p-1}) V / sqrt(p(p+1)).
    """

    family: str
    idx: HarmonicIndex
    k: float
    R: float
    outer_coeffs: tuple

    def __post_init__(self):
        if self.family not in (ELECTROSTATIC, NONELECTROSTATIC):
            raise MieError(f"unknown family {self.family!r}")
        _check_outer_radius(self.R)
        if self.k <= 0.0:
            raise MieError(f"wavenumber must be positive, got {self.k}")

    @property
    def lam(self) -> float:
        return self.k * self.k


@dataclass
class FieldSample:
    point: np.ndarray
    E: np.ndarray
    H: np.ndarray
    region: str


def _check_outer_radius(R: float) -> None:
    if not R > 1.0:
        raise MieError(f"outer radius must exceed 1, got {R}")


def _outer_system(n: int, R: float, rhs0: float) -> tuple:
    """Solve a + b = rhs0, a R^n + b R^{-n-1} = 0 (singular at R = 1)."""
    _check_outer_radius(R)
    mat = np.array([[1.0, 1.0], [R**n, R ** (-n - 1)]])
    a, b = np.linalg.solve(mat, np.array([rhs0, 0.0]))
    return float(a), float(b)


def electrostatic_mode(n: int, m: int, root_index: int, R: float) -> MieMode:
    """Resonance with vanishing shell magnetic field.

    k is the root_index-th zero of j_n; the shell potential coefficients
    make the tangential field continuous at r = 1 and vanish at r = R.
    """
    if n < 1:
        raise MieError(f"degree must be >= 1, got {n}")
    if root_index < 1:
        raise MieError(f"root index must be >= 1, got {root_index}")
    idx = HarmonicIndex(n, m)
    k = float(bessel_zeros(n, root_index)[-1])
    a, b = _outer_system(n, R, 1.0 / math.sqrt(n * (n + 1.0)))
    return MieMode(ELECTROSTATIC, idx, k, R, (a, b))


def _h_matching_gap(p: int, k: float, shell_const: float) -> float:
    """Tangential-H mismatch at r = 1: shell coefficient minus the interior
    coefficient 1 + k j_p'(k) / j_p(k) (both on the i k H scale)."""
    j, jp = spherical_bessel(p, k)
    return shell_const - (1.0 + k * jp / j)


def nonelectrostatic_mode(p: int, q: int, R: float, interval_index: int) -> MieMode:
    """Resonance whose shell magnetic field does not vanish.

    (C, D) depend only on (p, R); k is then located by brentq on the
    tangential-H mismatch over the interval between consecutive zeros of
    j_p selected by interval_index (1-based).
    """
    if p < 1:
        raise MieError(f"degree must be >= 1, got {p}")
    if interval_index < 1:
        raise MieError(f"interval index must be >= 1, got {interval_index}")
    idx = HarmonicIndex(p, q)
    c, d = _outer_system(p, R, -math.sqrt(p * (p + 1.0)))
    shell_const = -((p + 1.0) * c - p * d) / math.sqrt(p * (p + 1.0))
    zeros = bessel_zeros(p, interval_index + 1)
    lo, hi = float(zeros[-2]), float(zeros[-1])
    eps = 1e-9 * (1.0 + hi)
    a, b = lo + eps, hi - eps
    fa = _h_matching_gap(p, a, shell_const)
    fb = _h_matching_gap(p, b, shell_const)
    if fa == 0.0 or fb == 0.0 or (fa < 0.0) == (fb < 0.0):
        raise MieError(
            f"no sign change of the tangential-H mismatch on ({lo:.6g}, {hi:.6g}): "
            f"endpoint values {fa:.6g}, {fb:.6g} (implementation fault)")
    from scipy.optimize import brentq
    k = brentq(lambda t: _h_matching_gap(p, t, shell_const), a, b, xtol=1e-15)
    gap = abs(_h_matching_gap(p, k, shell_const)) / (1.0 + abs(shell_const))
    if gap > 1e-10:
        raise MieError(f"matching residual {gap:.3e} exceeds 1e-10")
    return MieMode(NONELECTROSTATIC, idx, k, R, (c, d))


def matching_constants(mode: MieMode) -> dict:
    """The interface constant of a nonelectrostatic mode under the three
    circulating readings, plus the interior value it must match.

    'field' is the coefficient of U in i k H on the shell side of r = 1
    derived from the explicit fields; 'coeff_p' and 'coeff_plain' are the
    unnormalized variants -((p+1)C - pD) and -((p+1)C - D) that appear
    when the 1/sqrt(p(p+1)) field normalization is dropped (they coincide
    at p = 1).  'interior' is 1 + k j_p'(k) / j_p(k) at the mode's k.
    """
    if mode.family != NONELECTROSTATIC:
        raise MieError("matching constants are defined for nonelectrostatic modes")
    p = mode.idx.n
    c, d = mode.outer_coeffs
    j, jp = spherical_bessel(p, mode.k)
    return {
        "field": -((p + 1.0) * c - p * d) / math.sqrt(p * (p + 1.0)),
        "coeff_p": -((p + 1.0) * c - p * d),
        "coeff_plain": -((p + 1.0) * c - d),
        "interior": 1.0 + mode.k * jp / j,
    }


def _frame(points) -> tuple:
    """(r, omega, SurfacePoint) of 3D points away from the origin: the row
    norms, the unit rows and their angles, for points read as an (N, 3) array."""
    x = np.asarray(points, dtype=float).reshape(-1, 3)
    r = np.linalg.norm(x, axis=1)
    if (r < 1e-12).any():
        raise MieError("field evaluation at the origin is not supported")
    omega = x / r[:, None]
    theta = np.arccos(np.clip(omega[:, 2], -1.0, 1.0))
    phi = np.arctan2(omega[:, 1], omega[:, 0])
    return r, omega, SurfacePoint(theta, phi % (2.0 * math.pi))


def _expansion(idx: HarmonicIndex, omega: np.ndarray, sp: SurfacePoint):
    """expand(a, b, c) = a Y omega + b U + c V at the points, for per-point
    coefficients (or scalars) a, b, c.  Y[n,m] is evaluated once."""
    y, u, v = _harmonic_frame(idx, sp)
    yw = y[:, None] * omega

    def expand(a, b, c):
        return (np.reshape(a, (-1, 1)) * yw + np.reshape(b, (-1, 1)) * u
                + np.reshape(c, (-1, 1)) * v)

    return expand


def _mode_fields(mode: MieMode, points) -> tuple:
    """(E, H) of the mode at 3D points, each (N, 3) complex; core where |x| <= 1."""
    r, omega, sp = _frame(points)
    n, k = mode.idx.n, mode.k
    root = math.sqrt(n * (n + 1.0))
    expand = _expansion(mode.idx, omega, sp)
    core = r <= 1.0
    j, jp = spherical_bessel(n, k * r)
    jk, jkp = spherical_bessel(n, k)
    radial = (j + k * r * jp) / r
    # both branches are evaluated everywhere; the shell one at |x| >= 1 only,
    # so that its negative powers cannot overflow near the origin
    rs = np.maximum(r, 1.0)
    if mode.family == ELECTROSTATIC:
        a, b = mode.outer_coeffs
        den = jk + k * jkp
        e = expand(np.where(core, root * j / (r * den),
                            n * a * rs ** (n - 1) - (n + 1.0) * b * rs ** (-n - 2)),
                   np.where(core, radial / den, root * (a * rs**n + b * rs ** (-n - 1)) / rs),
                   0.0) + 0j
        h = expand(0.0, 0.0, np.where(core, 1j * k * j / den, 0.0))
    else:
        c, d = mode.outer_coeffs
        e = expand(0.0, 0.0, np.where(core, -j / jk, (c * rs**n + d * rs ** (-n - 1)) / root)) + 0j
        h = expand(np.where(core, root * j / (r * jk), -(c * rs ** (n - 1) + d * rs ** (-n - 2))),
                   np.where(core, radial / jk,
                            -((n + 1.0) * c * rs ** (n - 1) - n * d * rs ** (-n - 2)) / root),
                   0.0) / (1j * k)
    return e, h


def _checked_fields(mode: MieMode, points) -> tuple:
    """_mode_fields, raising MieError at the first point with a non-finite component."""
    e, h = _mode_fields(mode, points)
    bad = np.nonzero(~(np.isfinite(e).all(axis=1) & np.isfinite(h).all(axis=1)))[0]
    if len(bad):
        raise MieError(f"non-finite field components at {np.reshape(points, (-1, 3))[bad[0]]}")
    return e, h


def evaluate_fields(mode: MieMode, points) -> list:
    """FieldSamples of the mode at 3D points (core/shell chosen by |x|)."""
    x = np.asarray(points, dtype=float).reshape(-1, 3)
    e, h = _checked_fields(mode, x)
    core = np.linalg.norm(x, axis=1) <= 1.0
    return [FieldSample(p, a, b, CORE if c else SHELL) for p, a, b, c in zip(x, e, h, core)]


def interior_solution(f_coeffs, k: float):
    """Interior Maxwell evaluator on B_1 from a tangential-trace expansion.

    f_coeffs: iterable of (HarmonicIndex, u_component, v_component) giving
    the expansion of f = nu x E on the unit sphere over the (U, V) frame.
    Returns evaluate(points) -> list of (E, H) pairs.  Wavenumbers at
    which any active denominator j_n(k) or j_n(k) + k j_n'(k) vanishes
    are rejected (these are the interior resonance conditions).
    """
    active = []
    for idx, uc, vc in f_coeffs:
        if uc == 0.0 and vc == 0.0:
            continue
        jk, jkp = spherical_bessel(idx.n, k)
        den = jk + k * jkp
        if abs(jk) <= _DENOM_TOL:
            raise MieError(f"j_{idx.n}(k) vanishes at k = {k!r} for index "
                           f"(n={idx.n}, m={idx.m})")
        if abs(den) <= _DENOM_TOL:
            raise MieError(f"j_{idx.n}(k) + k j_{idx.n}'(k) vanishes at k = {k!r} "
                           f"for index (n={idx.n}, m={idx.m})")
        active.append((idx, complex(uc), complex(vc), jk, den))

    def evaluate(points):
        r, omega, sp = _frame(points)
        e = np.zeros(omega.shape, dtype=complex)
        ikh = np.zeros(omega.shape, dtype=complex)
        for idx, uc, vc, jk, den in active:
            root = math.sqrt(idx.n * (idx.n + 1.0))
            expand = _expansion(idx, omega, sp)
            j, jp = spherical_bessel(idx.n, k * r)
            radial = (j + k * r * jp) / r
            e += expand(vc * root * j / (r * den), vc * radial / den, -uc * j / jk)
            ikh += expand(uc * root * j / (r * jk), uc * radial / jk, -vc * k * k * j / den)
        return list(zip(e, ikh / (1j * k)))

    return evaluate


def _fibonacci_directions(count: int) -> np.ndarray:
    """Deterministic, roughly uniform unit vectors (golden-angle spiral)."""
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def _tangential(vec: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows of vec with their components along the unit rows of w removed."""
    return vec - np.sum(vec * w, axis=1)[:, None] * w


def _row_max(vec: np.ndarray) -> float:
    return float(np.linalg.norm(vec, axis=1).max())


def interface_residuals(mode: MieMode, n_quad: int = 24) -> dict:
    """Boundary/interface defects of a mode, measured by evaluation.

    Electrostatic keys: normal_e_interface, h_interface, tangential_e_jump,
    tangential_e_outer, net_flux_outer.  Nonelectrostatic keys:
    tangential_e_jump, tangential_h_jump, normal_h_jump, shell_h_scale.
    """
    dirs = _fibonacci_directions(32)
    e_in, h_in = _checked_fields(mode, (1.0 - 1e-12) * dirs)
    e_out, h_out = _checked_fields(mode, (1.0 + 1e-12) * dirs)
    e_jump = _row_max(_tangential(e_in - e_out, dirs))
    if mode.family == ELECTROSTATIC:
        res = {
            "normal_e_interface": float(np.abs(np.sum(e_in * dirs, axis=1)).max()),
            "h_interface": _row_max(h_in),
            "tangential_e_jump": e_jump,
        }
        e_rim, _ = _checked_fields(mode, mode.R * dirs)
        res["tangential_e_outer"] = _row_max(_tangential(e_rim, dirs))
        pts, wts = sphere_quadrature(n_quad, 2 * n_quad)
        e_quad, _ = _mode_fields(mode, mode.R * pts.omega)
        flux = float(wts @ np.real(np.sum(e_quad * pts.omega, axis=1)))
        res["net_flux_outer"] = abs(flux) * mode.R**2
    else:
        res = {
            "tangential_e_jump": e_jump,
            "tangential_h_jump": _row_max(_tangential(h_in - h_out, dirs)),
            "normal_h_jump": float(np.abs(np.sum((h_in - h_out) * dirs, axis=1)).max()),
            "shell_h_scale": _row_max(h_out) / _row_max(h_in),
        }
    return res


def _fd_curl(evaluate_e, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference curl of evaluate_e at the rows of x."""
    d = [(evaluate_e(x + step) - evaluate_e(x - step)) / (2.0 * h) for step in h * np.eye(3)]
    return np.column_stack([d[1][:, 2] - d[2][:, 1], d[2][:, 0] - d[0][:, 2],
                            d[0][:, 1] - d[1][:, 0]])


def _fd_div(evaluate_e, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference divergence of evaluate_e at the rows of x."""
    return sum((evaluate_e(x + step)[:, a] - evaluate_e(x - step)[:, a]) / (2.0 * h)
               for a, step in enumerate(h * np.eye(3)))


def residual_checks(mode: MieMode, sample_count: int = 20) -> dict:
    """Finite-difference PDE residuals at interior sample points.

    Checks curl curl E = lam 1_core E and div E = 0 in both regions, plus
    curl E = 0 in the shell for the electrostatic family, at deterministic
    sample points kept at least _FD_MARGIN away from the interface (the
    fields are only piecewise smooth).
    """
    step, margin = _FD_STEP, _FD_MARGIN
    dirs = _fibonacci_directions(sample_count)
    radii_core = np.linspace(0.25, 1.0 - margin - 2.0 * step, sample_count)
    hi = mode.R - 2.0 * step
    radii_shell = np.linspace(1.0 + margin + 2.0 * step, hi, sample_count)

    def e_at(x):
        return _mode_fields(mode, x)[0]

    lam = mode.lam
    x = np.vstack([radii_core[:, None] * dirs, radii_shell[:, None] * dirs])
    in_core = np.arange(len(x)) < sample_count
    e = e_at(x)
    scale = _row_max(e)
    curlcurl = _fd_curl(lambda z: _fd_curl(e_at, z, step), x, step)
    report = {
        "curl_curl": _row_max(curlcurl - np.where(in_core[:, None], lam * e, 0.0)) / (lam * scale),
        "divergence": float(np.abs(_fd_div(e_at, x, step)).max()) / (mode.k * scale),
    }
    if mode.family == ELECTROSTATIC:
        report["shell_curl"] = _row_max(_fd_curl(e_at, x[~in_core], step)) / (mode.k * scale)
    return report


def _det_and_slope(family: str, n: int, R: float, delta, s, k) -> tuple:
    """The transfer-matching determinant at wavenumbers k and its exact
    k-derivative, elementwise over arrays delta, s = sqrt(delta) and k.

    The Bessel functions are evaluated at kappa R, kappa = s k and k, whose
    k-derivatives are s R, s and 1.  Second derivatives come from the
    spherical Bessel equation, which gives (z f)'' = -(z - n(n+1)/z) f for
    any solution f, and (z f)' = f + z f'.
    """
    c = n * (n + 1.0)
    kappa = s * k
    zR = kappa * R
    j, jp = spherical_bessel_complex(n, np.stack([zR, kappa, k]))
    y, yp = spherical_neumann_complex(n, np.stack([zR, kappa]))
    (jR, j1, jk), (jRp, j1p, jkp) = j, jp
    (yR, y1), (yRp, y1p) = y, yp
    # shell profile beta j_n(kappa r) + gamma y_n(kappa r), zero (electric)
    # or with zero (r h)' (magnetic) at r = R
    if family == FAMILY_E:
        beta, gamma = yR, -jR
        dbeta, dgamma = s * R * yRp, -s * R * jRp
    else:
        beta, gamma = yR + zR * yRp, -(jR + zR * jRp)
        w = s * R * (zR - c / zR)
        dbeta, dgamma = -w * yR, w * jR
    # the profile g and (r g)' at r = 1, and their k-derivatives
    g1 = beta * j1 + gamma * y1
    q1 = beta * j1p + gamma * y1p
    rg1 = g1 + kappa * q1
    dg1 = dbeta * j1 + dgamma * y1 + s * q1
    drg1 = (dbeta * (j1 + kappa * j1p) + dgamma * (y1 + kappa * y1p)
            - s * (kappa - c / kappa) * g1)
    # the core's (r j_n(k r))' at r = 1 and its k-derivative
    core = jk + k * jkp
    dcore = -(k - c / k) * jk
    if family == FAMILY_E:
        return jk * rg1 - core * g1, jkp * rg1 + jk * drg1 - dcore * g1 - core * dg1
    return (jk * rg1 / delta - core * g1,
            (jkp * rg1 + jk * drg1) / delta - dcore * g1 - core * dg1)


def concentric_dispersion(family: str, n: int, R: float, delta, k_seed):
    """Eigenvalues lambda = k^2 of the concentric core-shell resonator with
    shell permittivity delta, by complex Newton on the transfer-matching
    determinant from the seed wavenumber.

    family 'electric': E = g(r) V with g and (r g)' continuous at r = 1
    and g(R) = 0; at delta = 1 this reduces to j_n(kR) = 0.
    family 'magnetic': H = h(r) V with h and (r h)'/eps continuous at
    r = 1 and (r h)'(R) = 0; its delta -> 0 limit is j_n(k) = 0.

    delta is a scalar or a 1-D array, and k_seed broadcasts to it.  All
    samples share one vectorised Newton iteration with the exact
    determinant derivative (`_det_and_slope`); a sample is frozen once its
    own update is below _NEWTON_TOL, so its result does not depend on the
    other samples of the call.  A scalar delta gives a complex, an array
    delta an array.
    """
    d = np.asarray(delta, dtype=complex)
    if d.ndim > 1:
        raise MieError(f"delta must be a scalar or a 1-D array, got shape {d.shape}")
    if family not in (FAMILY_E, FAMILY_H):
        raise MieError(f"unknown polarization family {family!r}")
    if n < 1:
        raise MieError(f"degree must be >= 1, got {n}")
    _check_outer_radius(R)
    deltas = np.atleast_1d(d)
    if (deltas == 0).any():
        raise MieError("dispersion relation requires delta != 0")
    if ((deltas.imag == 0) & (deltas.real < 0)).any():
        warnings.warn("delta on the negative real axis: the principal square "
                      "root branch cut is being evaluated", stacklevel=2)
    s = np.sqrt(deltas)
    k = np.full(deltas.shape, k_seed, dtype=complex)
    todo = np.arange(len(deltas))
    # a wandering iterate may overflow; it then stays unconverged and is
    # reported below, so numpy's warnings would say nothing more
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_ITER):
            f, df = _det_and_slope(family, n, R, deltas[todo], s[todo], k[todo])
            flat = df == 0
            if flat.any():
                raise MieError("Newton derivative vanished in the dispersion solve "
                               f"at delta = {complex(deltas[todo[flat][0]])!r}")
            update = f / df
            k[todo] -= update
            todo = todo[~(np.abs(update) <= _NEWTON_TOL * (1.0 + np.abs(k[todo])))]
            if not len(todo):
                lam = k * k
                return complex(lam[0]) if d.ndim == 0 else lam
    raise MieError("dispersion Newton did not converge at delta = "
                   f"{complex(deltas[todo[0]])!r}: {len(todo)} of {len(deltas)} "
                   f"samples unconverged after {_NEWTON_ITER} iterations")


def save_mode(mode: MieMode, path: str) -> None:
    """Structured text export of a mode (17 significant digits)."""
    lines = [
        "mode 1",
        f"family {mode.family}",
        f"n {mode.idx.n}",
        f"m {mode.idx.m}",
        f"k {mode.k:.17g}",
        f"R {mode.R:.17g}",
    ]
    names = ("A", "B") if mode.family == ELECTROSTATIC else ("C", "D")
    for name, value in zip(names, mode.outer_coeffs):
        lines.append(f"coeff {name} {value:.17g}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
