import io
import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import spherical_jn

from enzspec import cli, mie
from enzspec.cli import main
from enzspec.mie import (
    ELECTROSTATIC,
    FAMILY_E,
    FAMILY_H,
    NONELECTROSTATIC,
    MieError,
    concentric_dispersion,
    electrostatic_mode,
    matching_constants,
    nonelectrostatic_mode,
    save_mode,
)
from enzspec.perturb import taylor_from_circle
from enzspec.specfun import HarmonicIndex, SpecFunError
from sphere_fields import (
    _mode_fields,
    interface_residuals,
    interior_solution,
    magnetic_first_coefficient,
    residual_checks,
)

# first zero of j_1, frozen from the independent closed-form bisection in
# the special-function tests
J1_ZERO_1 = 4.493409457909064


def scipy_roots(f, count=1, lo=0.5, hi=40.0, step=0.05):
    """First `count` sign changes of the ufunc expression f on a grid from
    lo, refined by brentq."""
    grid = np.arange(lo, hi, step)
    vals = f(grid)
    flips = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0][:count]
    return np.array([brentq(f, grid[i], grid[i + 1], xtol=1e-15) for i in flips])


def jn_zeros(n: int, count: int = 1) -> np.ndarray:
    return scipy_roots(lambda x: spherical_jn(n, x), count)


def electric_limit_k(n: int, R: float) -> float:
    """First root of the delta -> 0 limit of the electric family, where the
    shell field is g ~ r^n - R^(2n+1) r^(-n-1):
    j_n(k) [(n+1) + n R^(2n+1)] = (j_n(k) + k j_n'(k)) (1 - R^(2n+1))."""
    q = R ** (2 * n + 1)

    def f(k):
        j = spherical_jn(n, k)
        return j * ((n + 1) + n * q) - (j + k * spherical_jn(n, k, derivative=True)) * (1 - q)

    return float(scipy_roots(f)[0])


def oracle_nonelectro_k(p: int, R: float, interval: int) -> float:
    """Independent root of the tangential matching condition using scipy's
    spherical Bessel functions and brentq."""
    mat = np.array([[1.0, 1.0], [R**p, R ** (-p - 1)]])
    c, d = np.linalg.solve(mat, [-math.sqrt(p * (p + 1.0)), 0.0])
    const = -((p + 1.0) * c - p * d) / math.sqrt(p * (p + 1.0))

    def gap(k):
        j = spherical_jn(p, k)
        jp = spherical_jn(p, k, derivative=True)
        return const - (1.0 + k * jp / j)

    zeros = jn_zeros(p, interval + 1)
    lo, hi = zeros[-2] + 1e-9, zeros[-1] - 1e-9
    return brentq(gap, lo, hi, xtol=1e-13)


class TestElectrostaticMode:
    def test_first_mode_values(self):
        mode = electrostatic_mode(1, 0, 1, 2.0)
        assert abs(mode.k - J1_ZERO_1) < 1e-12
        assert abs(mode.lam - J1_ZERO_1**2) < 1e-10
        a, b = mode.outer_coeffs
        assert abs(a - (-math.sqrt(2.0) / 14.0)) < 1e-14
        assert abs(b - 4.0 * math.sqrt(2.0) / 7.0) < 1e-14

    def test_k_independent_of_r_and_m(self):
        ks = {electrostatic_mode(2, m, 2, R).k
              for m in (-2, 0, 1) for R in (1.5, 2.0, 3.0)}
        assert len(ks) == 1

    def test_interface_residuals(self):
        for (n, m, root, R) in [(1, 0, 1, 2.0), (3, -2, 2, 1.5), (5, 5, 3, 3.0)]:
            res = interface_residuals(electrostatic_mode(n, m, root, R))
            for key, value in res.items():
                assert value <= 1e-9, (n, m, root, R, key, value)

    def test_rejects_bad_arguments(self):
        with pytest.raises(MieError):
            electrostatic_mode(0, 0, 1, 2.0)
        with pytest.raises(MieError):
            electrostatic_mode(1, 0, 1, 0.9)
        with pytest.raises(MieError, match="outer radius"):
            electrostatic_mode(1, 0, 1, 1.0)
        with pytest.raises(MieError):
            electrostatic_mode(1, 0, 0, 2.0)


class TestNonelectrostaticMode:
    def test_rejects_outer_radius_one(self):
        with pytest.raises(MieError, match="outer radius"):
            nonelectrostatic_mode(1, 0, 1.0, 1)

    def test_coefficients_p1_r2(self):
        mode = nonelectrostatic_mode(1, 0, 2.0, 1)
        c, d = mode.outer_coeffs
        assert abs(c - math.sqrt(2.0) / 7.0) < 1e-14
        assert abs(d - (-8.0 * math.sqrt(2.0) / 7.0)) < 1e-14

    def test_k_against_scipy_oracle(self):
        for p, R, interval in [(1, 2.0, 1), (1, 2.0, 2), (2, 1.5, 1), (3, 2.0, 1)]:
            mode = nonelectrostatic_mode(p, 0, R, interval)
            assert abs(mode.k - oracle_nonelectro_k(p, R, interval)) < 1e-10
            zeros = jn_zeros(p, interval + 1)
            assert zeros[-2] < mode.k < zeros[-1]

    @pytest.mark.parametrize("p, R", [(1, 2.0), (3, 1.5), (4, 4.0)])
    def test_cli_interval_zero_is_electric_limit(self, tmp_path, p, R):
        # below the first zero of j_p, the tangential-H matching root is the
        # delta -> 0 limit of the electric dispersion family
        out = io.StringIO()
        assert main(["mie", "nonelectrostatic", "--p", str(p), "--R", str(R),
                     "--interval", "0", "--out", str(tmp_path / "m.txt")], out=out) == 0
        k = float(dict(ln.split(None, 1) for ln in out.getvalue().splitlines())["k"])
        assert abs(k - electric_limit_k(p, R)) <= 1e-10 * k

    def test_interface_residuals_and_shell_h(self):
        for p, R in [(1, 2.0), (2, 1.5), (3, 2.0)]:
            res = interface_residuals(nonelectrostatic_mode(p, 1 - p, R, 1))
            assert res["tangential_e_jump"] <= 1e-10
            assert res["tangential_h_jump"] <= 1e-10
            assert res["normal_h_jump"] <= 1e-10
            assert res["shell_h_scale"] > 1e-3

    def test_matching_constant_readings(self):
        mode = nonelectrostatic_mode(2, 0, 2.0, 1)
        consts = matching_constants(mode)
        # the field-level reading is the one the computed k satisfies
        assert abs(consts["field"] - consts["interior"]) < 1e-9
        assert abs(consts["coeff_p"] - consts["interior"]) > 1e-2
        assert abs(consts["coeff_plain"] - consts["interior"]) > 1e-2

    def test_readings_coincide_at_p1(self):
        consts = matching_constants(nonelectrostatic_mode(1, 0, 2.0, 1))
        assert abs(consts["coeff_p"] - consts["coeff_plain"]) < 1e-14
        assert abs(consts["field"] - (-10.0 / 7.0)) < 1e-12


class TestInteriorSolution:
    def test_matches_closed_form_u_trace(self):
        # f = U[p,q] reproduces the explicit interior pair used by the
        # nonelectrostatic construction
        p, q = 2, 1
        idx = HarmonicIndex(p, q)
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((20, 3))
        pts = pts / np.linalg.norm(pts, axis=1)[:, None]
        pts = pts * rng.uniform(0.2, 0.95, 20)[:, None]
        mode = nonelectrostatic_mode(p, q, 2.0, 1)
        general = interior_solution([(idx, 1.0, 0.0)], mode.k)
        for (e, h), e_ref, h_ref in zip(general(pts), *_mode_fields(mode, pts)):
            assert np.abs(e - e_ref).max() < 1e-12
            assert np.abs(h - h_ref).max() < 1e-12

    def test_linearity(self):
        idx = HarmonicIndex(1, 1)
        pts = [[0.3, 0.2, 0.4], [-0.1, 0.5, -0.3]]
        one = interior_solution([(idx, 1.0, 0.5)], 2.0)(pts)
        two = interior_solution([(idx, 2.0, 1.0)], 2.0)(pts)
        for (e1, h1), (e2, h2) in zip(one, two):
            assert np.abs(2.0 * e1 - e2).max() < 1e-14
            assert np.abs(2.0 * h1 - h2).max() < 1e-14

    def test_degree_zero_rejected(self):
        # U and V vanish for n = 0, so a degree-0 trace has no interior field
        evaluate = interior_solution([(HarmonicIndex(0, 0), 1.0, 0.0)], 2.0)
        with pytest.raises(SpecFunError, match="n = 0"):
            evaluate([[0.3, 0.2, 0.1]])

    def test_superposition_of_indices(self):
        k = 2.5
        pair = [(HarmonicIndex(1, 0), 1.0, 0.0), (HarmonicIndex(2, 1), 0.0, 1.0)]
        pts = [[0.4, -0.2, 0.3]]
        (e, h), = interior_solution(pair, k)(pts)
        (e1, h1), = interior_solution(pair[:1], k)(pts)
        (e2, h2), = interior_solution(pair[1:], k)(pts)
        assert np.abs(e - e1 - e2).max() < 1e-14
        assert np.abs(h - h1 - h2).max() < 1e-14


class TestResidualChecks:
    def test_electrostatic_pde_residuals(self):
        report = residual_checks(electrostatic_mode(1, 0, 1, 2.0))
        assert report["curl_curl"] <= 1e-5
        assert report["divergence"] <= 1e-5
        assert report["shell_curl"] <= 1e-5

    def test_nonelectrostatic_pde_residuals(self):
        report = residual_checks(nonelectrostatic_mode(1, 0, 2.0, 1))
        assert report["curl_curl"] <= 1e-5
        assert report["divergence"] <= 1e-5
        assert "shell_curl" not in report

    def test_higher_degree(self):
        report = residual_checks(electrostatic_mode(3, 2, 1, 1.5), sample_count=10)
        assert report["curl_curl"] <= 1e-5
        assert report["divergence"] <= 1e-5


class TestEvaluateFields:
    def test_high_degree_near_origin(self):
        # the shell powers r^(-n-2) would overflow at a core point this close
        mode = electrostatic_mode(30, 0, 1, 2.0)
        e, h = _mode_fields(mode, [[0.0, 0.0, 1e-11], [0.0, 0.0, 1.5]])
        assert np.isfinite(e).all() and np.isfinite(h).all()
        assert np.abs(e[0]).max() < 1e-100

    def test_shell_h_zero_electrostatic(self):
        mode = electrostatic_mode(2, 1, 1, 2.0)
        _, h = _mode_fields(mode, [[0.0, 1.2, 0.4], [1.8, 0.1, 0.0]])
        assert np.abs(h).max() == 0.0


class TestDispersion:
    def test_delta_one_reduces_to_pec_ball(self):
        # homogeneous ball of radius R: the tangential-E family needs
        # j_n(kR) = 0
        for n, R, i in [(1, 2.0, 1), (2, 1.5, 2)]:
            k_ref = jn_zeros(n, i)[-1] / R
            lam = concentric_dispersion(FAMILY_E, n, R, 1.0, k_ref * (1.0 + 1e-3))
            assert abs(lam - k_ref**2) < 1e-9 * k_ref**2

    def test_small_delta_linear_rate(self):
        k0 = J1_ZERO_1
        cs = []
        for d in (1e-3, 5e-4, 2.5e-4):
            lam = concentric_dispersion(FAMILY_H, 1, 2.0, d, k0)
            cs.append(abs(lam - k0**2) / d)
        assert cs[0] > 0
        for c in cs[1:]:
            assert abs(c - cs[0]) < 0.2 * cs[0]

    def test_circle_taylor_extraction(self):
        k0 = J1_ZERO_1
        r = 1e-2
        samples = [concentric_dispersion(FAMILY_H, 1, 2.0,
                                         r * np.exp(2j * np.pi * j / 16), k0)
                   for j in range(16)]
        samples.append(samples[0])
        coeffs = taylor_from_circle(np.array(samples), r, 4)
        assert abs(coeffs[0] - k0**2) < 1e-8
        mags = np.abs(coeffs)
        assert mags[2] * r < mags[1] and mags[3] * r < mags[2]

    def test_rejects_delta_zero_and_bad_family(self):
        with pytest.raises(MieError):
            concentric_dispersion(FAMILY_E, 1, 2.0, 0.0, 4.0)
        with pytest.raises(MieError):
            concentric_dispersion("weird", 1, 2.0, 1.0, 4.0)

    @pytest.mark.parametrize("n, R", [(0, 2.0), (-1, 2.0), (1, 1.0), (1, 0.5)])
    def test_rejects_degree_and_radius(self, n, R):
        for family in (FAMILY_E, FAMILY_H):
            with pytest.raises(MieError):
                concentric_dispersion(family, n, R, 1e-2, 4.0)

    def test_electric_limit_oracle(self):
        assert abs(electric_limit_k(1, 2.0) ** 2 - 10.6736) < 1e-4
        assert abs(electric_limit_k(1, 3.0) ** 2 - 10.0964) < 1e-4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_magnetic_limit_is_shell_invariant(self, n):
        # delta -> 0 limit j_n(k) = 0 does not involve R
        z2 = jn_zeros(n)[0] ** 2
        for R in (2.0, 3.0):
            lam = concentric_dispersion(FAMILY_H, n, R, 1e-5, math.sqrt(z2))
            assert abs(lam - z2) <= 1e-4 * z2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_electric_limit_is_shell_sensitive(self, n):
        lims = [electric_limit_k(n, R) ** 2 for R in (2.0, 3.0)]
        for R, lim in zip((2.0, 3.0), lims):
            lam = concentric_dispersion(FAMILY_E, n, R, 1e-5, math.sqrt(lim))
            assert abs(lam - lim) <= 1e-4 * lim
        assert abs(lims[0] - lims[1]) > 1e-3 * lims[0]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_electric_circle_a0_is_limit_root(self, n):
        k0, r = electric_limit_k(n, 2.0), 0.0091
        samples = [concentric_dispersion(FAMILY_E, n, 2.0,
                                         r * np.exp(2j * np.pi * j / 16), k0)
                   for j in range(16)]
        samples.append(samples[0])
        coeffs = taylor_from_circle(np.array(samples), r, 4)
        assert abs(coeffs[0] - k0**2) <= 1e-10

    def test_branch_cut_warning(self):
        with pytest.warns(UserWarning, match="branch"):
            concentric_dispersion(FAMILY_H, 1, 2.0, -1e-3, J1_ZERO_1)


CIRCLE = 0.0091 * np.exp(2j * np.pi * np.arange(257) / 256)


def _circle_csv(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=2)
    return rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3]


class TestBatchedDispersion:
    @pytest.mark.parametrize("family", [FAMILY_E, FAMILY_H])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_array_call_equals_scalar_calls(self, family, n):
        k0 = electric_limit_k(n, 2.0) if family == FAMILY_E else jn_zeros(n)[0]
        lams = concentric_dispersion(family, n, 2.0, CIRCLE, k0)
        assert isinstance(lams, np.ndarray) and lams.shape == CIRCLE.shape
        one = [concentric_dispersion(family, n, 2.0, d, k0) for d in CIRCLE]
        assert all(isinstance(lam, complex) for lam in one)
        assert (lams == np.array(one)).all()
        # a seed array broadcast from the scalar gives the same iterates
        seeds = np.full(CIRCLE.shape, k0)
        assert (concentric_dispersion(family, n, 2.0, CIRCLE, seeds) == lams).all()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cli_circle_mean_is_limit_root(self, tmp_path, n):
        # the Cauchy mean of the magnetic branch is its delta = 0 value, the
        # squared first zero of j_n (scipy brentq, not the code under test)
        out_path = tmp_path / "d.csv"
        assert main(["mie", "dispersion", "--family", "magnetic", "--n", str(n),
                     "--R", "2", "--radius", "0.01", "--samples", "256",
                     "--out", str(out_path)]) == 0
        deltas, lams = _circle_csv(out_path)
        assert len(lams) == 257 and deltas[0] == 0.01
        z2 = jn_zeros(n)[0] ** 2
        assert abs(lams[:-1].mean() - z2) <= 1e-8 * z2

    @pytest.mark.parametrize("R", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cli_electric_circle_mean_is_limit_root(self, tmp_path, n, R):
        # small |delta| seeds from the limit root, so the whole circle stays
        # on its branch and the Cauchy mean is the delta = 0 value
        out_path = tmp_path / "d.csv"
        assert main(["mie", "dispersion", "--family", "electric", "--n", str(n),
                     "--R", str(R), "--radius", "0.01", "--samples", "256",
                     "--out", str(out_path)]) == 0
        _, lams = _circle_csv(out_path)
        lim = electric_limit_k(n, R) ** 2
        assert abs(lams[:-1].mean() - lim) <= 1e-8 * lim

    @pytest.mark.parametrize("samples, calls, evaluations", [(16, 1, 17 * 5), (256, 2, 400)])
    def test_cli_circle_seeds_from_its_interpolant(self, monkeypatch, tmp_path,
                                                   samples, calls, evaluations):
        # a 256-sample circle solves every 16th sample from the constant
        # seed (4-5 Newton steps each), then the others from the 16-sample
        # interpolant in about one step each: seeding all 257 samples from
        # the constant took 1 066 evaluations.  A 16-sample circle keeps
        # the single call.
        solves, evaluated = [], []
        exact_solve, exact_det = cli.concentric_dispersion, mie._det_and_slope

        def counted_solve(*args):
            solves.append(len(args[3]))
            return exact_solve(*args)

        def counted_det(*args):
            evaluated.append(len(args[3]))
            return exact_det(*args)

        monkeypatch.setattr(cli, "concentric_dispersion", counted_solve)
        monkeypatch.setattr(mie, "_det_and_slope", counted_det)
        assert main(["mie", "dispersion", "--family", "magnetic", "--n", "1", "--R", "2",
                     "--radius", "0.01", "--samples", str(samples),
                     "--out", str(tmp_path / "d.csv")]) == 0
        assert len(solves) == calls and sum(solves) == samples + 1
        assert sum(evaluated) <= evaluations

    def test_electric_circle_across_the_seed_switch(self, tmp_path):
        # |delta| = 0.05 is where the electric seed switches from the limit
        # root to z_1 / R, so a constant seed sent some samples of this
        # circle to another root; the interpolant keeps them on the branch
        out_path = tmp_path / "d.csv"
        assert main(["mie", "dispersion", "--family", "electric", "--n", "5", "--R", "2",
                     "--radius", "0.05", "--samples", "64", "--out", str(out_path)]) == 0
        _, lams = _circle_csv(out_path)
        lim = electric_limit_k(5, 2.0) ** 2
        assert abs(lams[:-1].mean() - lim) <= 1e-8 * lim

    @pytest.mark.parametrize("R", [1.2, 1.5, 2.0, 4.0, 10.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_cli_magnetic_slope_is_closed_form(self, tmp_path, n, R):
        # the first DFT coefficient of the interpolated circle over its
        # radius is the branch's slope at delta = 0, 2 z_1^2 / P_n(R)
        out_path, r = tmp_path / "d.csv", 0.002
        assert main(["mie", "dispersion", "--family", "magnetic", "--n", str(n),
                     "--R", str(R), "--radius", str(r), "--samples", "64",
                     "--out", str(out_path)]) == 0
        _, lams = _circle_csv(out_path)
        a1 = magnetic_first_coefficient(n, R)
        assert abs(np.fft.fft(lams[:-1])[1] / 64 / r - a1) <= 1e-10 * abs(a1)

    def test_zero_anywhere_rejected(self):
        with pytest.raises(MieError, match="delta != 0"):
            concentric_dispersion(FAMILY_H, 1, 2.0, [0.01, 0.0, 0.02j], J1_ZERO_1)

    def test_rejects_two_dimensional_delta(self):
        with pytest.raises(MieError, match="1-D"):
            concentric_dispersion(FAMILY_H, 1, 2.0, [[0.01, 0.02]], J1_ZERO_1)

    def test_branch_cut_warns_once(self):
        with pytest.warns(UserWarning, match="branch") as record:
            concentric_dispersion(FAMILY_H, 1, 2.0, [1e-3j, -1e-3, -2e-3], J1_ZERO_1)
        assert len(record) == 1

    def test_vanishing_derivative_names_its_delta(self, monkeypatch):
        exact = mie._det_and_slope

        def flat_at(family, n, R, delta, s, k):
            f, df = exact(family, n, R, delta, s, k)
            return f, np.where(delta == 0.02j, 0.0, df)

        monkeypatch.setattr(mie, "_det_and_slope", flat_at)
        with pytest.raises(MieError, match=r"vanished .* delta = 0\.02j"):
            concentric_dispersion(FAMILY_H, 1, 2.0, [0.01, 0.02j, -0.01j], J1_ZERO_1)

    def test_nonconvergence_names_first_delta_and_count(self, monkeypatch, tmp_path):
        monkeypatch.setattr(mie, "_NEWTON_ITER", 1)
        with pytest.raises(MieError, match=r"at delta = 0\.01j: 2 of 2 samples unconverged"):
            concentric_dispersion(FAMILY_H, 1, 2.0, [0.01j, -0.01j], J1_ZERO_1)
        out_path, err = tmp_path / "d.csv", io.StringIO()
        code = main(["mie", "dispersion", "--family", "magnetic", "--n", "1",
                     "--radius", "0.01", "--samples", "16", "--out", str(out_path)],
                    out=io.StringIO(), err=err)
        assert code == 2 and not out_path.exists()
        payload = json.loads(err.getvalue())
        assert payload["error"] == "MieError" and "unexpected" not in payload
        assert "at delta = (0.01+0j): 17 of 17 samples" in payload["message"]

    @pytest.mark.parametrize("family, n, R", [
        (FAMILY_H, "2000", "2"), (FAMILY_H, "150", "1e300"), (FAMILY_E, "150", "1e300")])
    def test_non_finite_determinant_stops_at_once(self, monkeypatch, tmp_path, family, n, R):
        # y_2000 overflows at kappa = 202.4, and the Bessel values at
        # kappa R ~ 1.6e301 are not finite: so is the first determinant
        calls = []
        exact = mie._det_and_slope

        def counted(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(mie, "_det_and_slope", counted)
        out_path, err = tmp_path / "d.csv", io.StringIO()
        code = main(["mie", "dispersion", "--family", family, "--n", n, "--R", R,
                     "--radius", "0.01", "--out", str(out_path)], out=io.StringIO(), err=err)
        assert code == 2 and not out_path.exists()
        payload = json.loads(err.getvalue())
        assert payload["error"] == "MieError" and "unexpected" not in payload
        assert "not finite at delta = (0.01+0j)" in payload["message"]
        assert len(calls) == 1


class TestModeExport:
    def test_save_format(self, tmp_path):
        mode = electrostatic_mode(1, 0, 1, 2.0)
        path = tmp_path / "mode.txt"
        save_mode(mode, str(path))
        text = path.read_text().splitlines()
        assert text[0] == "mode 1"
        assert text[1] == f"family {ELECTROSTATIC}"
        assert text[4].startswith("k 4.4934094579090")
        assert any(ln.startswith("coeff A ") for ln in text)

    def test_deterministic(self, tmp_path):
        mode = nonelectrostatic_mode(2, -1, 1.5, 1)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_mode(mode, str(p1))
        save_mode(mode, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert f"family {NONELECTROSTATIC}" in p1.read_text()
