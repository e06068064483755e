"""Analyticity diagnostics for eigenvalue branches.

Taylor coefficients are recovered from equispaced samples on a circle
|delta| = r by the discrete Cauchy integral (a plain DFT), guarded against
aliasing by reporting only the first quarter of the sample count.  Reports
bundle coefficient decay, interior prediction errors against direct
solves, the circle-closure defect and the reality defect.  The pencil's
matrices are real, so an analytic branch obeys Schwarz reflection,
lambda(conj delta) = conj lambda(delta), and the circle pairs delta_j with
delta_{N-j} = conj delta_j.  So `taylor` tracks only the upper half circle,
samples 0 .. N/2 (delta = r .. -r), and `reflect_arc` takes the lower half
as their conjugates.  Reflected samples obey the reflection by
construction; what is left to measure is where the tracked arc meets its
mirror image at delta = -r, where lambda must arrive real.  The reality
defect measures the reflection on a circle tracked in full.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LEAD_IN_STEPS",
    "AnalyticityReport",
    "NonClosedBranchError",
    "NonFiniteSeriesError",
    "circle_path",
    "reflect_arc",
    "taylor_from_circle",
    "analyticity_report",
]

# The largest circle closure defect, relative to 1 + |lambda|, accepted for
# any series.
_CLOSURE_TOL = 1e-9
# circle_path: equal steps from delta = 0 to the circle; lead-in sample j
# sits at delta = j r / (LEAD_IN_STEPS + 1).
LEAD_IN_STEPS = 4


class NonClosedBranchError(RuntimeError):
    """First and last circle samples disagree, or a tracked upper half
    circle arrives off the real axis at delta = -r: the branch permuted (a
    cluster was crossed); only symmetric functions are single-valued."""

    def __init__(self, defect: float):
        super().__init__(f"branch does not close on the circle: defect {defect:.3e}")
        self.defect = defect

    def __reduce__(self):
        return type(self), (self.defect,)


class NonFiniteSeriesError(RuntimeError):
    """A Taylor coefficient a_k = c_k / radius**k is not finite: on a very
    small circle radius**k underflows to 0 or the quotient overflows."""


def circle_path(r: float, n_samples: int):
    """Path from delta = 0 onto the circle |delta| = r and once around.

    Returns (path, circle_start): path[:circle_start] is the lead-in,
    delta = 0 and LEAD_IN_STEPS equispaced points inside the circle on the
    real axis; path[circle_start:] are the n_samples + 1 equispaced circle
    points with the closing sample duplicated.
    """
    if r <= 0:
        raise ValueError("circle radius must be positive")
    lead = [r * j / (LEAD_IN_STEPS + 1) for j in range(LEAD_IN_STEPS + 1)]
    circle = [r * np.exp(2j * np.pi * j / n_samples) for j in range(n_samples + 1)]
    return lead + circle, len(lead)


def reflect_arc(arc):
    """The N + 1 circle samples from the N/2 + 1 samples of its upper half.

    arc holds the samples at delta_j = r exp(2 pi i j / N), j = 0 .. N/2;
    sample N - j of the circle is conj arc[j], so the closing sample is
    conj arc[0].  Returns (circle, meet), with meet = |arc[-1] - conj arc[-1]|
    the gap where the arc meets its mirror image at delta = -r; above the
    closure tolerance it raises NonClosedBranchError.
    """
    arc = np.asarray(arc, dtype=complex)
    meet = abs(arc[-1] - np.conj(arc[-1]))
    if meet > _CLOSURE_TOL * (1.0 + abs(arc[-1])):
        raise NonClosedBranchError(meet)
    return np.concatenate([arc, np.conj(arc[-2::-1])]), float(meet)


def _circle_samples(values):
    """(the N samples without the closing duplicate, closure defect)."""
    values = np.asarray(values, dtype=complex)
    n = len(values) - 1
    if n < 4 or n & (n - 1):
        raise ValueError("need a power-of-two sample count plus the closing duplicate")
    defect = abs(values[-1] - values[0])
    if defect > _CLOSURE_TOL * (1.0 + abs(values[0])):
        raise NonClosedBranchError(defect)
    return values[:n], defect


def _taylor(vals: np.ndarray, radius: float, order: int) -> np.ndarray:
    n = len(vals)
    if order > n // 4:
        raise ValueError(f"order {order} exceeds the aliasing guard N/4 = {n // 4}")
    coeffs = np.fft.fft(vals) / n
    k = np.arange(order + 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = coeffs[: order + 1] / radius**k
    bad = np.nonzero(~np.isfinite(a))[0]
    if len(bad):
        raise NonFiniteSeriesError(f"Taylor coefficient a_{bad[0]} is not finite "
                                   f"on the circle of radius {radius:g}")
    return a


def taylor_from_circle(samples, radius: float, order: int) -> np.ndarray:
    """Coefficients a_0..a_order of lambda(delta) = sum a_k delta^k from
    N + 1 equispaced samples on |delta| = radius (closing sample repeated).

    a_k = (1/N) sum_j lambda(delta_j) exp(-2 pi i j k / N) / radius^k;
    a coefficient that is not finite raises NonFiniteSeriesError.
    """
    return _taylor(_circle_samples(samples)[0], radius, order)


@dataclass
class AnalyticityReport:
    """Diagnostics of one branch; for a lambda-group of h > 1 copies, also
    the series of each power sum s_p = sum_i lambda_i^p, p = 2..h.

    `to_json` writes the `taylor` report, which leaves out the reality
    defect: its samples reflect by construction (`reflect_arc`)."""

    a_coeffs: np.ndarray
    decay_ratios: np.ndarray
    prediction_errors: np.ndarray
    reality_defect: float
    closure_defect: float
    power_sum_coeffs: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "a_coeffs": [[float(c.real), float(c.imag)] for c in self.a_coeffs],
            "decay_ratios": [float(x) for x in self.decay_ratios],
            "prediction_errors": [float(x) for x in self.prediction_errors],
            "closure_defect": float(self.closure_defect),
        }
        if self.power_sum_coeffs:
            payload["group_size"] = max(self.power_sum_coeffs)
            payload["power_sum_coeffs"] = {str(p): [[float(c.real), float(c.imag)] for c in a]
                                           for p, a in self.power_sum_coeffs.items()}
        return json.dumps(payload, sort_keys=True, indent=2)


def analyticity_report(samples, radius: float, order: int, held_out) -> AnalyticityReport:
    """Diagnostics for one branch sampled on a circle.

    held_out: iterable of (delta, lambda_direct) pairs strictly inside the
    circle (|delta| >= radius raises ValueError: the Cauchy integral
    bounds the truncation error only inside it).  The reality defect is
    max_j |lambda_j - conj lambda_{N-j}| / (2 (1 + |lambda_0|)), which at
    delta = +-r is |Im lambda| / (1 + |lambda|).
    """
    held_out = list(held_out)
    outside = [d for d, _ in held_out if not abs(d) < radius]
    if outside:
        raise ValueError(f"held-out delta {outside[0]} is not inside the circle "
                         f"of radius {radius:g}")
    vals, defect = _circle_samples(samples)
    coeffs = _taylor(vals, radius, order)
    mags = np.abs(coeffs)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(mags[:-1] > 0, mags[1:] * radius / np.maximum(mags[:-1], 1e-300), np.inf)
    pred_errs = np.array([abs(np.polyval(coeffs[::-1], d) - lam) / max(abs(lam), 1e-300)
                          for d, lam in held_out])
    mirror = np.conj(np.roll(vals[::-1], 1))      # conj lambda_{(N-j) mod N}
    reality = float(np.max(np.abs(vals - mirror))) / (2.0 * (1.0 + abs(vals[0])))
    return AnalyticityReport(coeffs, ratios, pred_errs, reality, defect)

