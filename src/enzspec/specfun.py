"""Spherical Bessel functions and their zeros, real spherical harmonics and
the tangent vector harmonics U, V.

The Bessel functions come from scipy.special (spherical_jn, spherical_yn
with derivative=True) and their zeros from a scan plus scipy.optimize.brentq;
both modules are imported on first use, so importing enzspec does not pay
for them.  The spherical harmonics are evaluated here by the associated
Legendre recurrence.  They are real valued and normalized to unit L2 norm on
the unit sphere, so that

    integral over S2 of Y[n,m] * Y[n',m']  =  delta_{nn'} delta_{mm'} .

The tangent frame is

    U[n,m] = grad_S2 Y[n,m] / sqrt(n(n+1)),     V[n,m] = omega x U[n,m],

which is orthonormal in L2(S2) for n >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HarmonicIndex",
    "SurfacePoint",
    "spherical_bessel",
    "spherical_bessel_complex",
    "spherical_neumann_complex",
    "bessel_zeros",
    "real_spherical_harmonic",
    "vector_harmonics",
    "sphere_quadrature",
]


class SpecFunError(ValueError):
    """Domain or argument error in special-function evaluation."""


@dataclass(frozen=True)
class HarmonicIndex:
    """Degree/order pair (n, m) with n >= 0 and |m| <= n."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0:
            raise SpecFunError(f"harmonic degree must be >= 0, got n={self.n}")
        if abs(self.m) > self.n:
            raise SpecFunError(f"harmonic order must satisfy |m| <= n, got (n,m)=({self.n},{self.m})")


@dataclass(frozen=True)
class SurfacePoint:
    """Point on the unit sphere given by polar angle theta and azimuth phi."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise SpecFunError(f"theta must lie in [0, pi], got {self.theta}")

    @property
    def omega(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)])

    @property
    def theta_hat(self) -> np.ndarray:
        ct, st = math.cos(self.theta), math.sin(self.theta)
        return np.array([ct * math.cos(self.phi), ct * math.sin(self.phi), -st])

    @property
    def phi_hat(self) -> np.ndarray:
        return np.array([-math.sin(self.phi), math.cos(self.phi), 0.0])

    @classmethod
    def from_vector(cls, x) -> "SurfacePoint":
        x = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(x))
        if r == 0.0:
            raise SpecFunError("cannot project the origin onto the sphere")
        theta = math.acos(min(1.0, max(-1.0, x[2] / r)))
        phi = math.atan2(x[1], x[0]) % (2.0 * math.pi)
        return cls(theta, phi)


# ---------------------------------------------------------------------------
# spherical Bessel functions (scipy.special, imported on first use)
# ---------------------------------------------------------------------------

def spherical_bessel(n: int, x: float) -> tuple[float, float]:
    """Return (j_n(x), j_n'(x)) for real x >= 0.

    The analytic limit at x = 0 is returned when x == 0 exactly; negative
    orders and arguments are rejected.
    """
    if n < 0:
        raise SpecFunError(f"order must be >= 0, got {n}")
    if x < 0.0:
        raise SpecFunError(f"argument must be >= 0, got {x}")
    if x == 0.0:
        val = 1.0 if n == 0 else 0.0
        dval = 1.0 / 3.0 if n == 1 else 0.0
        return val, dval
    from scipy.special import spherical_jn
    return float(spherical_jn(n, x)), float(spherical_jn(n, x, derivative=True))


def spherical_bessel_complex(n: int, z):
    """(j_n(z), j_n'(z)) at complex z, scalar or array."""
    from scipy.special import spherical_jn
    z = np.asarray(z, dtype=complex)
    return spherical_jn(n, z), spherical_jn(n, z, derivative=True)


def spherical_neumann_complex(n: int, z):
    """(y_n(z), y_n'(z)) at complex z, scalar or array."""
    from scipy.special import spherical_yn
    z = np.asarray(z, dtype=complex)
    return spherical_yn(n, z), spherical_yn(n, z, derivative=True)


def bessel_zeros(n: int, count: int) -> np.ndarray:
    """First ``count`` positive zeros of j_n, strictly increasing.

    Consecutive zeros are more than pi apart, so a scan with step pi/4
    brackets each one exactly once; brentq refines the bracket.
    """
    if n < 0:
        raise SpecFunError(f"order must be >= 0, got {n}")
    if count < 1:
        raise SpecFunError("count must be >= 1")
    from scipy.optimize import brentq
    from scipy.special import spherical_jn

    def jn(x):
        return spherical_jn(n, x)

    zeros = []
    step = math.pi / 4.0
    x, fx = 0.25, jn(0.25)
    while len(zeros) < count:
        xn = x + step
        fn = jn(xn)
        if fx * fn < 0.0:
            zeros.append(brentq(jn, x, xn, xtol=1e-15))
        elif fn == 0.0:
            zeros.append(xn)
        x, fx = xn, fn
    return np.array(zeros)


# ---------------------------------------------------------------------------
# real spherical harmonics and the tangent frame
# ---------------------------------------------------------------------------

def _assoc_legendre(n: int, m: int, ct: float, st: float) -> tuple[float, float]:
    """P_n^m(cos theta) and P_{n-1}^m(cos theta), no Condon-Shortley phase."""
    pmm = 1.0
    for i in range(1, m + 1):
        pmm *= (2.0 * i - 1.0) * st
    if n == m:
        return pmm, 0.0
    pmm1 = ct * (2.0 * m + 1.0) * pmm
    if n == m + 1:
        return pmm1, pmm
    pnm2, pnm1 = pmm, pmm1
    pnm = 0.0
    for k in range(m + 2, n + 1):
        pnm = ((2.0 * k - 1.0) * ct * pnm1 - (k - 1.0 + m) * pnm2) / (k - m)
        pnm2, pnm1 = pnm1, pnm
    return pnm, pnm2


def _y_normalization(n: int, m: int) -> float:
    am = abs(m)
    logfac = 0.0
    for i in range(n - am + 1, n + am + 1):
        logfac += math.log(i)
    return math.sqrt((2.0 * n + 1.0) / (4.0 * math.pi) * math.exp(-logfac))


_POLE_TOL = 1e-12


def real_spherical_harmonic(idx: HarmonicIndex, p: SurfacePoint) -> tuple[float, np.ndarray]:
    """Value and surface gradient of the real spherical harmonic Y[n,m].

    The gradient is returned as a Cartesian 3-vector tangent to the sphere.
    Evaluation at the poles uses the analytic limits (only m = 0 contributes
    a value there, only |m| = 1 a gradient).
    """
    n, m = idx.n, idx.m
    am = abs(m)
    ct, st = math.cos(p.theta), math.sin(p.theta)
    norm = _y_normalization(n, am)

    if st < _POLE_TOL:
        sgn = 1.0 if ct > 0 else (-1.0) ** n
        value = norm * sgn if m == 0 else 0.0
        grad = np.zeros(3)
        if am == 1:
            cn = 0.5 * n * (n + 1.0)
            norm1 = _y_normalization(n, 1)
            if m == 1:
                f, fp = math.sqrt(2.0) * math.cos(p.phi), -math.sqrt(2.0) * math.sin(p.phi)
            else:
                f, fp = math.sqrt(2.0) * math.sin(p.phi), math.sqrt(2.0) * math.cos(p.phi)
            if ct > 0:
                grad = norm1 * cn * (f * p.theta_hat + fp * p.phi_hat)
            else:
                par = (-1.0) ** n
                grad = norm1 * cn * (par * f * p.theta_hat - par * fp * p.phi_hat)
        return value, grad

    pnm, pn1m = _assoc_legendre(n, am, ct, st)
    if m == 0:
        f, fp = 1.0, 0.0
    elif m > 0:
        f, fp = math.sqrt(2.0) * math.cos(m * p.phi), -m * math.sqrt(2.0) * math.sin(m * p.phi)
    else:
        f, fp = math.sqrt(2.0) * math.sin(am * p.phi), am * math.sqrt(2.0) * math.cos(am * p.phi)

    value = norm * pnm * f
    dp_dtheta = (n * ct * pnm - (n + am) * pn1m) / st
    grad = norm * (dp_dtheta * f * p.theta_hat + pnm / st * fp * p.phi_hat)
    return value, grad


def vector_harmonics(idx: HarmonicIndex, p: SurfacePoint) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal tangent pair (U, V) at p; requires n >= 1."""
    if idx.n < 1:
        raise SpecFunError("vector harmonics vanish identically for n = 0")
    _, grad = real_spherical_harmonic(idx, p)
    u = grad / math.sqrt(idx.n * (idx.n + 1.0))
    v = np.cross(p.omega, u)
    return u, v


def sphere_quadrature(n_theta: int = 40, n_phi: int = 80):
    """Product Gauss-Legendre x trapezoid quadrature on S2.

    Returns (points, weights) with points a list of SurfacePoint.  Exact for
    spherical polynomials well beyond the degrees exercised here.
    """
    xs, ws = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(xs)
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * math.pi / n_phi
    pts, wts = [], []
    for th, w in zip(thetas, ws):
        for ph in phis:
            pts.append(SurfacePoint(float(th), float(ph)))
            wts.append(w * wphi)
    return pts, np.array(wts)
