import json

import numpy as np
import pytest

from enzspec.perturb import (
    LEAD_IN_STEPS,
    NonClosedBranchError,
    analyticity_report,
    circle_path,
    reflect_arc,
    taylor_from_circle,
)


def sample_circle(fn, r, n):
    deltas = [r * np.exp(2j * np.pi * j / n) for j in range(n + 1)]
    return np.array([fn(d) for d in deltas])


class TestTaylorFromCircle:
    def test_polynomial_exact(self):
        vals = sample_circle(lambda d: 3.0 + 2.0 * d + d * d, 0.1, 16)
        a = taylor_from_circle(vals, 0.1, 4)
        assert np.abs(a - [3.0, 2.0, 1.0, 0.0, 0.0]).max() < 1e-12

    def test_geometric_series(self):
        vals = sample_circle(lambda d: 1.0 / (1.0 - 2.0 * d), 0.1, 32)
        a = taylor_from_circle(vals, 0.1, 8)
        ref = 2.0 ** np.arange(9)
        assert (np.abs(a - ref) / ref).max() < 1e-9

    def test_requires_power_of_two(self):
        vals = sample_circle(lambda d: d, 0.1, 12)
        with pytest.raises(ValueError):
            taylor_from_circle(vals, 0.1, 2)

    def test_aliasing_guard(self):
        vals = sample_circle(lambda d: d, 0.1, 16)
        with pytest.raises(ValueError):
            taylor_from_circle(vals, 0.1, 8)

    def test_non_closed_detected(self):
        # sqrt has a branch point at 0: continuous continuation around one
        # loop lands on the other sheet
        n = 16
        vals = np.array([np.sqrt(0.1) * np.exp(1j * np.pi * j / n) for j in range(n + 1)])
        with pytest.raises(NonClosedBranchError):
            taylor_from_circle(vals, 0.1, 4)


class TestCirclePath:
    def test_structure(self):
        path, start = circle_path(0.05, 16)
        assert path[0] == 0.0
        # the lead-in: equal real steps of r / (LEAD_IN_STEPS + 1)
        assert start == LEAD_IN_STEPS + 1
        assert np.abs(np.array(path[:start]) - 0.01 * np.arange(start)).max() < 1e-17
        circle = path[start:]
        assert len(circle) == 17
        assert abs(circle[0] - 0.05) < 1e-15
        assert abs(circle[-1] - circle[0]) < 1e-15
        assert all(abs(abs(d) - 0.05) < 1e-15 for d in circle)

    def test_rejects_zero_radius(self):
        with pytest.raises(ValueError):
            circle_path(0.0, 16)


class TestAnalyticityReport:
    def test_polynomial_prediction_exact(self):
        fn = lambda d: 3.0 + 2.0 * d + d * d
        vals = sample_circle(fn, 0.1, 16)
        held = [(0.05, fn(0.05)), (0.02 + 0.01j, fn(0.02 + 0.01j))]
        rep = analyticity_report(vals, 0.1, 4, held)
        assert rep.prediction_errors.max() < 1e-13
        assert rep.closure_defect < 1e-14

    @pytest.mark.parametrize("delta", [0.2, 0.1, -0.1, 0.08 + 0.08j])
    def test_held_out_outside_circle_rejected(self, delta):
        # the circle samples bound the truncation error only strictly inside
        fn = lambda d: 1.0 / (1.0 - 5.0 * d)
        with pytest.raises(ValueError, match="inside the circle"):
            analyticity_report(sample_circle(fn, 0.1, 16), 0.1, 4,
                               [(0.05, fn(0.05)), (delta, 1.0)])

    def test_decay_ratios_geometric(self):
        vals = sample_circle(lambda d: 1.0 / (1.0 - 2.0 * d), 0.1, 32)
        rep = analyticity_report(vals, 0.1, 8, [])
        # |a_{k+1}| r / |a_k| = 2 r = 0.2 for the geometric series
        assert np.abs(rep.decay_ratios - 0.2).max() < 1e-6

    def test_reality_defect_measures_imag(self):
        # lambda = 1 + 1e-7 i delta breaks lambda(conj delta) = conj lambda(delta):
        # lambda_j - conj lambda_{N-j} = 2e-7 i delta_j, of modulus 2e-7 r
        r = 0.1
        rep = analyticity_report(sample_circle(lambda d: 1.0 + 1e-7j * d, r, 16), r, 2, [])
        expected = 1e-7 * r / (1.0 + abs(1.0 + 1e-7j * r))
        assert abs(rep.reality_defect - expected) <= 1e-15
        # real Taylor coefficients reflect to rounding
        rep = analyticity_report(sample_circle(lambda d: 1.0 / (1.0 - 2.0 * d), r, 32), r, 8, [])
        assert rep.reality_defect <= 1e-15

    def test_json_keys(self):
        # the reality defect stays on the report, out of the `taylor` JSON
        rep = analyticity_report(sample_circle(lambda d: 1.0 + d, 0.1, 16), 0.1, 2, [])
        payload = json.loads(rep.to_json())
        assert set(payload) == {"a_coeffs", "decay_ratios", "prediction_errors",
                                "closure_defect"}

    def test_json_deterministic(self):
        vals = sample_circle(lambda d: 2.0 + d, 0.1, 16)
        r1 = analyticity_report(vals, 0.1, 2, []).to_json()
        r2 = analyticity_report(vals, 0.1, 2, []).to_json()
        assert r1 == r2


class TestClusterSeries:
    def test_sqrt_braid(self):
        # two branches 1 +- sqrt(delta): each permutes around the circle,
        # but s_1 = 2 and s_2 = 2 + 2 delta are entire
        r, n = 0.1, 16
        roots = np.array([np.sqrt(r) * np.exp(1j * np.pi * j / n) for j in range(n + 1)])
        lam_p = 1.0 + roots
        lam_m = 1.0 - roots
        with pytest.raises(NonClosedBranchError):
            taylor_from_circle(lam_p, r, 4)
        s1 = taylor_from_circle(lam_p + lam_m, r, 3)
        s2 = taylor_from_circle(lam_p**2 + lam_m**2, r, 3)
        assert np.abs(s1 - [2.0, 0.0, 0.0, 0.0]).max() < 1e-12
        assert np.abs(s2 - [2.0, 2.0, 0.0, 0.0]).max() < 1e-12


class TestReflectArc:
    def test_mirror_image_is_the_lower_half(self):
        # the upper half of a real-coefficient function's circle, reflected,
        # gives the circle sampled in full, to rounding
        fn = lambda d: 1.0 / (1.0 - 2.0 * d) + 0.5 * d**3
        full = sample_circle(fn, 0.1, 32)
        circle, meet = reflect_arc(full[:17])
        assert circle.shape == full.shape
        assert np.array_equal(circle[:17], full[:17])
        assert np.abs(circle - full).max() <= 1e-15
        assert meet <= 1e-15
        # c_k = a_k r^k
        scale = 0.1 ** np.arange(9)
        assert np.abs((taylor_from_circle(circle, 0.1, 8)
                       - taylor_from_circle(full, 0.1, 8)) * scale).max() <= 1e-15

    def test_meet_is_the_gap_at_minus_r(self):
        # lambda = 1 + 1e-11 i delta arrives at delta = -r as 1 - 1e-12 i
        r = 0.1
        arc = sample_circle(lambda d: 1.0 + 1e-11j * d, r, 8)[:5]
        _, meet = reflect_arc(arc)
        assert abs(meet - 2e-11 * r) <= 1e-20

    def test_sqrt_braid_arc(self):
        # 1 +- sqrt(delta) over the upper half circle ends at 1 +- i sqrt(r):
        # each branch misses its mirror image by 2 sqrt(r), while the
        # symmetric functions s_1 = 2 and s_2 = 2 + 2 delta meet theirs
        r, n = 0.1, 16
        roots = np.array([np.sqrt(r) * np.exp(1j * np.pi * j / n) for j in range(n // 2 + 1)])
        lam_p, lam_m = 1.0 + roots, 1.0 - roots
        for branch in (lam_p, lam_m):
            with pytest.raises(NonClosedBranchError) as info:
                reflect_arc(branch)
            assert abs(info.value.defect - 2.0 * np.sqrt(r)) <= 1e-15
        s1 = taylor_from_circle(reflect_arc(lam_p + lam_m)[0], r, 3)
        s2 = taylor_from_circle(reflect_arc(lam_p**2 + lam_m**2)[0], r, 3)
        assert np.abs(s1 - [2.0, 0.0, 0.0, 0.0]).max() < 1e-12
        assert np.abs(s2 - [2.0, 2.0, 0.0, 0.0]).max() < 1e-12
