"""Spherical Bessel functions and their zeros, real spherical harmonics and
the tangent vector harmonics U, V.

The Bessel functions come from scipy.special (spherical_jn, spherical_yn
with derivative=True) and their zeros from a scan plus scipy.optimize.brentq;
both modules are imported on first use, so importing enzspec does not pay
for them.  The spherical harmonics come from scipy.special.sph_legendre_p,
without its Condon-Shortley phase.  They are real valued and normalized to
unit L2 norm on the unit sphere, so that

    integral over S2 of Y[n,m] * Y[n',m']  =  delta_{nn'} delta_{mm'} .

The tangent frame is

    U[n,m] = grad_S2 Y[n,m] / sqrt(n(n+1)),     V[n,m] = omega x U[n,m],

which is orthonormal in L2(S2) for n >= 1.  A SurfacePoint may hold arrays
of angles; the harmonics are then evaluated at all of its points at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpecFunError",
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
    """Point on the unit sphere given by polar angle theta and azimuth phi.

    theta and phi may also be arrays of one shape; omega, theta_hat and
    phi_hat then have that shape plus a trailing axis of length 3.
    """

    theta: float | np.ndarray
    phi: float | np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        outside = ~((0.0 <= theta) & (theta <= math.pi))
        if outside.any():
            raise SpecFunError(f"theta must lie in [0, pi], got {theta[outside].flat[0]}")
        if np.shape(self.phi) != theta.shape:
            raise SpecFunError(f"theta and phi differ in shape: {theta.shape} and "
                               f"{np.shape(self.phi)}")

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


# ---------------------------------------------------------------------------
# spherical Bessel functions (scipy.special, imported on first use)
# ---------------------------------------------------------------------------

def spherical_bessel(n: int, x):
    """Return (j_n(x), j_n'(x)) for real x >= 0, scalar or array.

    The analytic limit at x = 0 is returned where x == 0 exactly; negative
    orders and arguments are rejected.  A scalar x gives two floats.
    """
    if n < 0:
        raise SpecFunError(f"order must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    if (x < 0.0).any():
        raise SpecFunError(f"argument must be >= 0, got {x[x < 0.0].flat[0]}")
    from scipy.special import spherical_jn
    zero = x == 0.0
    xs = np.where(zero, 1.0, x)  # j_n'(0) is 0/0 in scipy's recurrence
    val = np.where(zero, 1.0 if n == 0 else 0.0, spherical_jn(n, xs))
    dval = np.where(zero, 1.0 / 3.0 if n == 1 else 0.0, spherical_jn(n, xs, derivative=True))
    if x.ndim == 0:
        return float(val), float(dval)
    return val, dval


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

_POLE_TOL = 1e-12


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


def vector_harmonics(idx: HarmonicIndex, p: SurfacePoint) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal tangent pair (U, V) at p; requires n >= 1."""
    return _harmonic_frame(idx, p)[1:]


def sphere_quadrature(n_theta: int = 40, n_phi: int = 80):
    """Product Gauss-Legendre x trapezoid quadrature on S2.

    Returns (points, weights): one SurfacePoint over the flattened
    n_theta x n_phi grid (theta-major) and the matching weight array.  Exact
    for spherical polynomials well beyond the degrees exercised here.
    """
    xs, ws = np.polynomial.legendre.leggauss(n_theta)
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    points = SurfacePoint(np.repeat(np.arccos(xs), n_phi), np.tile(phis, n_theta))
    return points, np.repeat(ws * (2.0 * math.pi / n_phi), n_phi)
