"""Exact spherical resonances of a unit-ball core inside a spherical shell.

Two closed-form families on D = B_1, Omega = B_R:

* electrostatic: interior Maxwell field with trace V[n,m], wavenumber at a
  zero of j_n; the shell field is a pure gradient (A r^n + B r^{-n-1}) Y
  and the shell magnetic field vanishes identically.
* nonelectrostatic: interior trace U[p,q]; the shell electric field is
  tangential (C r^p + D r^{-p-1}) V with a nonvanishing shell magnetic
  field; the wavenumber is selected by tangential-H matching across r = 1,
  located by brentq between consecutive zeros of j_p.

Also provided: a concentric two-sphere dispersion relation for nonzero
shell permittivity delta, solved for many delta at once by one vectorised
Newton iteration with the exact determinant derivative.

All magnetic fields follow the convention curl E = -i k H, curl H = i k
eps E, so H is purely imaginary for the real electric profiles used here.
The curl of a tangential profile g(r) V[n,m] is
sqrt(n(n+1)) (g/r) Y omega + ((r g)'/r) U, which fixes the matching
constants below; in particular the interior factor is j_n(kr) + k r j_n'(kr).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .specfun import (
    HarmonicIndex,
    bessel_zeros,
    spherical_bessel,
    spherical_bessel_complex,
    spherical_neumann_complex,
)

__all__ = [
    "MieError",
    "MieMode",
    "ELECTROSTATIC",
    "NONELECTROSTATIC",
    "FAMILY_E",
    "FAMILY_H",
    "electrostatic_mode",
    "nonelectrostatic_mode",
    "matching_constants",
    "concentric_dispersion",
    "save_mode",
]

ELECTROSTATIC = "electrostatic"
NONELECTROSTATIC = "nonelectrostatic"
# polarization families of the concentric dispersion relation: the letter
# names which field is tangential-only (proportional to V)
FAMILY_E = "electric"
FAMILY_H = "magnetic"

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


def _check_outer_radius(R: float) -> None:
    if not R > 1.0:
        raise MieError(f"outer radius must exceed 1, got {R}")


def _outer_system(n: int, R: float, rhs0: float) -> tuple:
    """(a, b) with a + b = rhs0 and a R^n + b R^{-n-1} = 0: with q =
    R^{-(2n+1)}, b = rhs0 / (1 - q) and a = -q b (singular at R = 1)."""
    _check_outer_radius(R)
    t = -(2 * n + 1) * math.log(R)
    b = rhs0 / -math.expm1(t)
    return -math.exp(t) * b, b


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
    if j == 0.0:
        raise MieError(f"j_{p}({k:.17g}) underflows to 0: the interior coefficient "
                       "is out of floating-point range")
    return shell_const - (1.0 + k * jp / j)


def nonelectrostatic_mode(p: int, q: int, R: float, interval_index: int) -> MieMode:
    """Resonance whose shell magnetic field does not vanish.

    (C, D) depend only on (p, R); k is then located by brentq on the
    tangential-H mismatch over the interval between consecutive zeros of
    j_p selected by interval_index (1-based).  Interval 0 is [z_1 / 2, z_1)
    below the first zero z_1: its root is the delta -> 0 limit of the
    electric dispersion family.
    """
    if p < 1:
        raise MieError(f"degree must be >= 1, got {p}")
    if interval_index < 0:
        raise MieError(f"interval index must be >= 0, got {interval_index}")
    idx = HarmonicIndex(p, q)
    c, d = _outer_system(p, R, -math.sqrt(p * (p + 1.0)))
    shell_const = -((p + 1.0) * c - p * d) / math.sqrt(p * (p + 1.0))
    zeros = bessel_zeros(p, interval_index + 1)
    lo = float(zeros[-2]) if interval_index else 0.5 * float(zeros[0])
    hi = float(zeros[-1])
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
    other samples of the call, and a determinant that is not finite raises
    MieError at once.  A scalar delta gives a complex, an array an array.
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
    # a determinant that is not finite (Bessel values out of range) raises
    # at once, so numpy's warnings would say nothing more
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_ITER):
            f, df = _det_and_slope(family, n, R, deltas[todo], s[todo], k[todo])
            bad = todo[~(np.isfinite(f) & np.isfinite(df))]
            if len(bad):
                raise MieError("dispersion determinant or its slope is not finite at "
                               f"delta = {complex(deltas[bad[0]])!r}, k = {complex(k[bad[0]])!r}")
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
