"""Spherical Bessel functions and their zeros, and the harmonic index.

The Bessel functions come from scipy.special (spherical_jn, spherical_yn;
at complex arguments one call evaluates the orders n - 1 and n, and the
derivative follows from them) and their zeros from a scan plus
scipy.optimize.brentq; both modules are imported on first use, so
importing enzspec does not pay for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpecFunError",
    "HarmonicIndex",
    "spherical_bessel",
    "spherical_bessel_complex",
    "spherical_neumann_complex",
    "bessel_zeros",
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


def _value_and_slope(f, n: int, z):
    """(f_n(z), f_n'(z)) from one evaluation of the orders n - 1 and n:
    f_n' = f_{n-1} - (n + 1) f_n / z, and f_0' = -f_1."""
    z = np.asarray(z, dtype=complex)
    low = max(n - 1, 0)
    a, b = f(np.array([low, low + 1]).reshape((2,) + (1,) * z.ndim), z)
    if n == 0:
        return a, -b
    return b, a - (n + 1) * b / z


def spherical_bessel_complex(n: int, z):
    """(j_n(z), j_n'(z)) at complex z != 0, scalar or array."""
    from scipy.special import spherical_jn
    return _value_and_slope(spherical_jn, n, z)


def spherical_neumann_complex(n: int, z):
    """(y_n(z), y_n'(z)) at complex z != 0, scalar or array."""
    from scipy.special import spherical_yn
    return _value_and_slope(spherical_yn, n, z)


def bessel_zeros(n: int, count: int) -> np.ndarray:
    """First ``count`` positive zeros of j_n, strictly increasing.

    Consecutive zeros are more than pi apart, so a scan with step pi/4
    brackets each one exactly once; brentq refines the bracket.  The scan
    runs on the grid 1/4 + k pi/4 from its last point at or below n + 1/4:
    the first zero lies above n + 1/2, and below n j_n decays so fast that
    it underflows to 0 for large n.
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
    x = 0.25 + step * math.floor(n / step)
    fx = jn(x)
    while len(zeros) < count:
        xn = x + step
        fn = jn(xn)
        if fx * fn < 0.0:
            zeros.append(brentq(jn, x, xn, xtol=1e-15))
        elif fn == 0.0:
            zeros.append(xn)
        x, fx = xn, fn
    return np.array(zeros)
