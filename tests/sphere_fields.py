"""Maxwell fields of the sphere resonances, evaluated: the oracle that checks
the closed-form constants of `enzspec.mie` by their interface and PDE
residuals.

Real spherical harmonics come from scipy.special.sph_legendre_p, without
its Condon-Shortley phase.  They are real valued and normalized to unit L2
norm on the unit sphere, so that

    integral over S2 of Y[n,m] * Y[n',m']  =  delta_{nn'} delta_{mm'} .

The tangent frame is

    U[n,m] = grad_S2 Y[n,m] / sqrt(n(n+1)),     V[n,m] = omega x U[n,m],

which is orthonormal in L2(S2) for n >= 1.  A SurfacePoint may hold arrays
of angles; the harmonics are then evaluated at all of its points at once.

All magnetic fields follow the convention curl E = -i k H, curl H = i k
eps E, so H is purely imaginary for the real electric profiles used here.
The curl of a tangential profile g(r) V[n,m] is
sqrt(n(n+1)) (g/r) Y omega + ((r g)'/r) U, which fixes every radial factor
below; in particular the interior factor is j_n(kr) + k r j_n'(kr).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from enzspec.mie import ELECTROSTATIC, MieMode
from enzspec.specfun import HarmonicIndex, SpecFunError, spherical_bessel

# residual_checks: the central-difference step, and the distance its sample
# points keep from the interface
_FD_STEP, _FD_MARGIN = 1e-4, 0.05
_POLE_TOL = 1e-12


@dataclass(frozen=True)
class SurfacePoint:
    """Point on the unit sphere given by polar angle theta and azimuth phi.

    theta and phi may also be arrays of one shape; omega, theta_hat and
    phi_hat then have that shape plus a trailing axis of length 3.
    """

    theta: float | np.ndarray
    phi: float | np.ndarray

    @property
    def omega(self) -> np.ndarray:
        st = np.sin(self.theta)
        return np.stack([st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)], -1)

    @property
    def theta_hat(self) -> np.ndarray:
        ct, st = np.cos(self.theta), np.sin(self.theta)
        return np.stack([ct * np.cos(self.phi), ct * np.sin(self.phi), -st], -1)

    @property
    def phi_hat(self) -> np.ndarray:
        return np.stack([-np.sin(self.phi), np.cos(self.phi), np.zeros(np.shape(self.phi))], -1)


def real_spherical_harmonic(idx: HarmonicIndex, p: SurfacePoint) -> tuple:
    """Value and surface gradient of the real spherical harmonic Y[n,m].

    The gradient is returned as a Cartesian 3-vector tangent to the sphere.
    A scalar point gives a float and a (3,) array; a point of angle arrays
    gives arrays of their shape and that shape plus (3,).  On a pole
    P / sin(theta) is replaced by its limit P' / cos(theta).
    """
    from scipy.special import sph_legendre_p
    n, m = idx.n, idx.m
    am = abs(m)
    theta, phi = p.theta, p.phi
    # sph_legendre_p carries the normalization and the phase (-1)^m
    pnm, dpnm = (-1.0) ** am * sph_legendre_p(n, am, theta, diff_n=1)
    if m == 0:
        f, fp = 1.0, 0.0
    elif m > 0:
        f, fp = math.sqrt(2.0) * np.cos(m * phi), -m * math.sqrt(2.0) * np.sin(m * phi)
    else:
        f, fp = math.sqrt(2.0) * np.sin(am * phi), am * math.sqrt(2.0) * np.cos(am * phi)

    st = np.sin(theta)
    pole = np.abs(st) < _POLE_TOL
    p_over_st = np.where(pole, dpnm / np.cos(theta), pnm / np.where(pole, 1.0, st))
    value = pnm * f
    grad = (dpnm * f)[..., None] * p.theta_hat + (p_over_st * fp)[..., None] * p.phi_hat
    return (float(value) if np.ndim(value) == 0 else value), grad


def _harmonic_frame(idx: HarmonicIndex, p: SurfacePoint) -> tuple:
    """(Y, U, V) of index idx at p from one evaluation of Y; requires n >= 1."""
    if idx.n < 1:
        raise SpecFunError("vector harmonics vanish identically for n = 0")
    y, grad = real_spherical_harmonic(idx, p)
    u = grad / math.sqrt(idx.n * (idx.n + 1.0))
    return y, u, np.cross(p.omega, u)


def sphere_quadrature(n_theta: int, n_phi: int):
    """Product Gauss-Legendre x trapezoid quadrature on S2.

    Returns (points, weights): one SurfacePoint over the flattened
    n_theta x n_phi grid (theta-major) and the matching weight array.  Exact
    for spherical polynomials well beyond the degrees exercised here.
    """
    xs, ws = np.polynomial.legendre.leggauss(n_theta)
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    points = SurfacePoint(np.repeat(np.arccos(xs), n_phi), np.tile(phis, n_theta))
    return points, np.repeat(ws * (2.0 * math.pi / n_phi), n_phi)


def _frame(points) -> tuple:
    """(r, omega, SurfacePoint) of 3D points away from the origin: the row
    norms, the unit rows and their angles, for points read as an (N, 3) array."""
    x = np.asarray(points, dtype=float).reshape(-1, 3)
    r = np.linalg.norm(x, axis=1)
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


def interior_solution(f_coeffs, k: float):
    """Interior Maxwell evaluator on B_1 from a tangential-trace expansion.

    f_coeffs: iterable of (HarmonicIndex, u_component, v_component) giving
    the expansion of f = nu x E on the unit sphere over the (U, V) frame.
    Returns evaluate(points) -> list of (E, H) pairs.  k must not be an
    interior resonance: no active j_n(k) or j_n(k) + k j_n'(k) may vanish.
    """
    active = []
    for idx, uc, vc in f_coeffs:
        if uc == 0.0 and vc == 0.0:
            continue
        jk, jkp = spherical_bessel(idx.n, k)
        active.append((idx, complex(uc), complex(vc), jk, jk + k * jkp))

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
    A non-finite field component makes its residual NaN, which no bound
    accepts.
    """
    dirs = _fibonacci_directions(32)
    e_in, h_in = _mode_fields(mode, (1.0 - 1e-12) * dirs)
    e_out, h_out = _mode_fields(mode, (1.0 + 1e-12) * dirs)
    e_jump = _row_max(_tangential(e_in - e_out, dirs))
    if mode.family == ELECTROSTATIC:
        res = {
            "normal_e_interface": float(np.abs(np.sum(e_in * dirs, axis=1)).max()),
            "h_interface": _row_max(h_in),
            "tangential_e_jump": e_jump,
        }
        e_rim, _ = _mode_fields(mode, mode.R * dirs)
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


def first_zero_oracle(n: int) -> float:
    """The first zero of j_n for large n: scipy's J_{n+1/2} (its zeros are
    those of j_n), bracketed by 0.5 around Olver's uniform expansion
    j_{nu,1} ~ nu + 1.8557571 nu^(1/3) + 1.033150 nu^(-1/3), nu = n + 1/2."""
    from scipy.optimize import brentq
    from scipy.special import jv
    nu = n + 0.5
    guess = nu + 1.8557571 * nu ** (1.0 / 3.0) + 1.033150 * nu ** (-1.0 / 3.0)
    return brentq(lambda x: jv(nu, x), guess - 0.5, guess + 0.5, xtol=1e-13)


def scipy_roots(f, count=1, lo=0.5, hi=40.0, step=0.05):
    """First `count` sign changes of the ufunc expression f on a grid from
    lo, refined by brentq."""
    from scipy.optimize import brentq
    grid = np.arange(lo, hi, step)
    vals = f(grid)
    flips = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0][:count]
    return np.array([brentq(f, grid[i], grid[i + 1], xtol=1e-15) for i in flips])


def electric_limit_k(n: int, R: float) -> float:
    """First root of the delta -> 0 limit of the electric family, where the
    shell field is g ~ r^n - R^(2n+1) r^(-n-1):
    j_n(k) [(n+1) + n R^(2n+1)] = (j_n(k) + k j_n'(k)) (1 - R^(2n+1))."""
    from scipy.special import spherical_jn
    q = R ** (2 * n + 1)

    def f(k):
        j = spherical_jn(n, k)
        return j * ((n + 1) + n * q) - (j + k * spherical_jn(n, k, derivative=True)) * (1 - q)

    return float(scipy_roots(f)[0])


def magnetic_first_coefficient(n: int, R: float) -> float:
    """a_1 = d lambda / d delta at delta = 0 on the magnetic dispersion branch
    through z_1^2, z_1 the first zero of j_n: 2 z_1^2 / P_n(R), where
    P_n(R) = n(n+1)(1 - R^(2n+1)) / (n + (n+1) R^(2n+1)) is (r h)' / h at
    r = 1 for the static shell profile h = r^n + b r^(-n-1) with
    (r h)'(R) = 0."""
    q = R ** (2 * n + 1)
    z = first_zero_oracle(n)
    return 2.0 * z * z * (n + (n + 1) * q) / (n * (n + 1) * (1.0 - q))
