"""Acceptance gate: one test per release criterion.

Every expected number comes from an oracle independent of the code path
under test (closed-form bisection, scipy special functions, or a second
formula route), or is a structural property asserted directly.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jv, spherical_jn

from enzspec.cascade import Cascade, DrivingField, series_vs_direct
from enzspec.eig import discrete_K0, limit_spectrum, track_branch
from enzspec.fem import assemble
from enzspec.mesh import generate_disk_in_disk, generate_square_with_disk
from enzspec.mie import (
    FAMILY_E,
    FAMILY_H,
    concentric_dispersion,
    electrostatic_mode,
    matching_constants,
    nonelectrostatic_mode,
)
from enzspec.perturb import (
    NonClosedBranchError,
    analyticity_report,
    circle_path,
    taylor_from_circle,
)
from enzspec.specfun import HarmonicIndex, bessel_zeros
from fem_fields import outer_flux, perp_gradient_field
from sphere_fields import interface_residuals, real_spherical_harmonic, sphere_quadrature


def radial_limit_oracle() -> float:
    """(first positive zero of J_1)^2 via scipy's cylinder Bessel J."""
    return brentq(lambda x: jv(1.0, x), 3.5, 4.2, xtol=1e-14) ** 2


@pytest.fixture(scope="module")
def forms_fine_disk():
    return assemble(generate_disk_in_disk(2.0, 32, 32))


@pytest.fixture(scope="module")
def forms_track():
    return assemble(generate_disk_in_disk(2.0, 8, 8))


def test_criterion_01_special_functions():
    # zeros of j_0 are m pi
    zeros0 = bessel_zeros(0, 5)
    assert np.abs(zeros0 - math.pi * np.arange(1, 6)).max() <= 1e-12
    # first zero of j_1 against a closed-form bisection oracle:
    # j_1(x) = 0  <=>  sin x - x cos x = 0
    lo, hi = 4.0, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (math.sin(mid) - mid * math.cos(mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(bessel_zeros(1, 1)[0] - 0.5 * (lo + hi)) <= 1e-10
    # spherical-harmonic orthonormality up to n = 8 by quadrature
    pts, wts = sphere_quadrature(24, 48)
    idxs = [HarmonicIndex(n, m) for n in range(9) for m in range(-n, n + 1)]
    values = np.array([real_spherical_harmonic(i, pts)[0] for i in idxs])
    gram = (values * wts) @ values.T
    assert np.abs(gram - np.eye(len(idxs))).max() <= 1e-8


def test_criterion_02_limit_invariant_branch(forms_fine_disk):
    oracle = radial_limit_oracle()
    square = assemble(generate_square_with_disk(2.0, 32, 32))
    for forms in (forms_fine_disk, square):
        pairs = limit_spectrum(forms, 12)
        lams = np.array([float(np.real(p.lam)) for p in pairs])
        radial = lams[np.argmin(np.abs(lams - oracle))]
        assert abs(radial - oracle) / oracle <= 0.01
        ones = np.ones(forms.mesh.n_vertices)
        md1 = forms.M_D @ ones
        vs = [p.vector for p in pairs]
        for v in vs:
            assert abs(md1 @ v) <= 1e-8
        gram = np.array([[a @ (forms.M_D @ b) for b in vs]
                         for a in vs])
        assert np.abs(gram - np.eye(len(vs))).max() <= 1e-8


def test_criterion_03_spectral_equivalence():
    forms = assemble(generate_disk_in_disk(2.0, 12, 12))
    assert forms.mesh.n_vertices <= 1500
    pairs = limit_spectrum(forms, 6)
    rho, _ = discrete_K0(forms)
    for i, p in enumerate(pairs):
        lam = float(np.real(p.lam))
        assert abs(lam - 1.0 / float(rho[i])) / lam <= 1e-7


def test_criterion_04_analyticity(forms_track):
    oracle = radial_limit_oracle()
    pairs = limit_spectrum(forms_track, 10)
    lams = np.array([float(np.real(p.lam)) for p in pairs])
    lam0 = float(lams[np.argmin(np.abs(lams - oracle))])
    radius = 0.05
    path, start = circle_path(radius, 32)
    circle = np.asarray(track_branch(forms_track, lam0, path).lambda_samples[start:])
    # closure of the invariant branch on the circle
    assert abs(circle[-1] - circle[0]) <= 1e-9 * (1.0 + abs(circle[0]))
    coeffs = taylor_from_circle(circle, radius, 6)
    # Taylor prediction against a direct solve strictly inside the circle,
    # and bilinear orthonormality of the tracked eigenvectors on three
    # real ramps of four equal steps
    ends = (0.025, 0.02, 0.05, 0.1)
    ramps = [track_branch(forms_track, lam0, [d * j / 4 for j in range(5)]) for d in ends]
    direct = ramps[0].lambda_samples[-1]
    assert abs(np.polyval(coeffs[::-1], ends[0]) - direct) / abs(direct) <= 1e-6
    for d, rb in zip(ends[1:], ramps[1:]):
        v = rb.vectors[-1]
        b = forms_track.M_D + d * forms_track.M_S
        assert np.abs(v.T @ (b @ v) - np.eye(v.shape[1])).max() <= 1e-8
    # reality: lambda(conj delta) = conj lambda(delta) on the circle
    assert analyticity_report(circle, radius, 6, []).reality_defect <= 1e-9


def test_criterion_05_degenerate_cluster(forms_track):
    pairs = limit_spectrum(forms_track, 4)
    lam0, lam1 = (float(np.real(p.lam)) for p in pairs[:2])
    assert abs(lam0 - lam1) <= 1e-6 * lam0   # the degenerate angular pair
    radius = 0.02
    path, start = circle_path(radius, 8)
    copies = np.asarray(track_branch(forms_track, lam0, path).copies[start:])
    assert copies.shape[1] == 2      # one lambda-group
    sym = {p: np.sum(copies**p, axis=1) for p in (1, 2)}
    for vals in sym.values():
        assert abs(vals[-1] - vals[0]) <= 1e-8 * (1.0 + abs(vals[0]))
    series = {p: taylor_from_circle(vals, radius, 2) for p, vals in sym.items()}
    assert abs(series[1][0] - (lam0 + lam1)) <= 1e-6 * abs(lam0 + lam1)
    # synthetic square-root braid: branches permute (flagged non-closed)
    # while their symmetric functions close
    n = 8
    roots = np.array([math.sqrt(radius) * np.exp(1j * math.pi * j / n)
                      for j in range(n + 1)])
    lam_p, lam_m = 1.0 + roots, 1.0 - roots
    for branch_vals in (lam_p, lam_m):
        with pytest.raises(NonClosedBranchError):
            taylor_from_circle(branch_vals, radius, 2)
    assert np.abs(taylor_from_circle(lam_p + lam_m, radius, 2) - [2.0, 0.0, 0.0]).max() <= 1e-10
    assert np.abs(taylor_from_circle(lam_p**2 + lam_m**2, radius, 2)
                  - [2.0, 2.0, 0.0]).max() <= 1e-10


def test_criterion_06_cascade():
    cascade = Cascade(generate_disk_in_disk(2.0, 16, 16))
    exact_energy = 2.0 * math.pi / math.log(2.0)
    assert abs(cascade.psi_energy - exact_energy) / exact_energy <= 0.01
    constant = np.tile([1.0, 0.0], (cascade.mesh.n_triangles, 1))
    driving = DrivingField([constant])
    state = cascade.run(driving, 6)
    errors = series_vs_direct(cascade, driving, 0.05, state)
    for k in range(5):
        assert errors[k + 1] / errors[k] <= 0.5
    assert errors[6] <= 1e-5
    # re-measured outer-flux normalization after every order
    zero = np.zeros_like(constant)
    for k, h in enumerate(state.h_list):
        fk = constant if k == 0 else zero
        assert abs(outer_flux(cascade, h, fk)) <= 1e-8
    # tangential driving: identically-zero cascade
    x, y = cascade.mesh.vertices.T
    stream = x * x + y * y
    tangential = DrivingField([perp_gradient_field(cascade.forms, stream)])
    trivial = cascade.run(tangential, 3)
    for h in trivial.h_list:
        assert np.abs(h).max() <= 1e-10


def test_criterion_07_electrostatic_modes():
    for n in range(1, 6):
        k_seen = set()
        for root in (1, 2, 3):
            for radius in (1.5, 2.0, 3.0):
                for m in range(-n, n + 1):
                    mode = electrostatic_mode(n, m, root, radius)
                    k_seen.add((root, mode.k))
                    if m == 0:
                        res = interface_residuals(mode, n_quad=12)
                        for key, value in res.items():
                            assert value <= 1e-9, (n, m, root, radius, key)
        # k exactly independent of R and m at fixed (n, root)
        assert len(k_seen) == 3


def test_criterion_07b_electrostatic_residuals_nonaxial():
    # spot-check the full residual set away from m = 0
    for (n, m, root, radius) in [(2, -2, 1, 1.5), (4, 3, 2, 2.0), (5, -1, 3, 3.0)]:
        res = interface_residuals(electrostatic_mode(n, m, root, radius), n_quad=12)
        for key, value in res.items():
            assert value <= 1e-9, (n, m, root, radius, key)


def test_criterion_08_nonelectrostatic_modes():
    for p in (1, 2, 3):
        for radius in (1.5, 2.0):
            for interval in (1, 2):
                mode = nonelectrostatic_mode(p, 0, radius, interval)
                consts = matching_constants(mode)
                # matching residual of the field-level reading
                assert abs(consts["field"] - consts["interior"]) <= 1e-10 * (
                    1.0 + abs(consts["field"]))
                # both printed readings logged; for p >= 2 neither matches
                # the fields (they drop the frame normalization)
                assert np.isfinite(consts["coeff_p"])
                assert np.isfinite(consts["coeff_plain"])
                if p >= 2:
                    assert abs(consts["coeff_p"] - consts["interior"]) > 1e-6
                    assert abs(consts["coeff_plain"] - consts["interior"]) > 1e-6
                res = interface_residuals(mode)
                assert res["tangential_e_jump"] <= 1e-8
                assert res["tangential_h_jump"] <= 1e-8
                assert res["shell_h_scale"] > 1e-3


def test_criterion_09_dispersion_continuity():
    # delta = 1: homogeneous PEC ball, j_n(kR) = 0 family
    for n, radius in [(1, 1.5), (1, 2.0), (2, 2.0)]:
        grid = np.arange(0.1, 15.0, 0.1)
        vals = spherical_jn(n, grid)
        flip = int(np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0][0])
        zero = brentq(lambda x: spherical_jn(n, x), grid[flip], grid[flip + 1],
                      xtol=1e-14)
        k_ref = zero / radius
        lam = concentric_dispersion(FAMILY_E, n, radius, 1.0, k_ref * 1.001)
        assert abs(lam - k_ref**2) <= 1e-9 * k_ref**2
    # real delta -> 0: linear departure from the electrostatic eigenvalue
    k0 = float(bessel_zeros(1, 1)[0])
    rates = []
    for d in (1e-3, 5e-4, 2.5e-4, 1.25e-4):
        lam = concentric_dispersion(FAMILY_H, 1, 2.0, d, k0)
        rates.append(abs(lam - k0**2) / d)
    for c in rates[1:]:
        assert abs(c - rates[0]) <= 0.2 * rates[0]
    # circle extraction of the leading Taylor coefficient
    r = 1e-2
    samples = [concentric_dispersion(FAMILY_H, 1, 2.0,
                                     r * np.exp(2j * np.pi * j / 16), k0)
               for j in range(17)]
    coeffs = taylor_from_circle(np.asarray(samples), r, 4)
    assert abs(coeffs[0] - k0**2) <= 1e-8


def test_criterion_10_determinism(tmp_path):
    from enzspec.cli import main

    def artifacts(tag):
        mesh = tmp_path / f"mesh_{tag}.txt"
        files = {
            "limit": tmp_path / f"limit_{tag}.csv",
            "k0": tmp_path / f"k0_{tag}.csv",
            "cascade": tmp_path / f"cascade_{tag}.csv",
            "disp": tmp_path / f"disp_{tag}.csv",
            "taylor": tmp_path / f"taylor_{tag}.json",
        }
        assert main(["mesh", "gen", "--rings_core", "6", "--rings_shell", "6",
                     "--out", str(mesh)]) == 0
        assert main(["eig", "limit", "--mesh", str(mesh), "--count", "4",
                     "--out", str(files["limit"])]) == 0
        assert main(["eig", "k0", "--mesh", str(mesh), "--count", "4",
                     "--out", str(files["k0"])]) == 0
        assert main(["cascade", "--mesh", str(mesh), "--delta", "0.05",
                     "--orders", "3", "--out", str(files["cascade"])]) == 0
        assert main(["mie", "dispersion", "--family", "magnetic", "--n", "1",
                     "--R", "2", "--radius", "0.01", "--samples", "8",
                     "--out", str(files["disp"])]) == 0
        lam0 = float((tmp_path / f"limit_{tag}.csv").read_text()
                     .splitlines()[2].split(",")[1])
        assert main(["taylor", "--mesh", str(mesh), "--lambda0",
                     f"{lam0:.17g}", "--radius", "0.02", "--samples", "8",
                     "--order", "2", "--out", str(files["taylor"])]) == 0
        return {name: path.read_bytes() for name, path in files.items()}

    first = artifacts("a")
    second = artifacts("b")
    for name in first:
        assert first[name] == second[name], f"artifact {name} not bit-identical"
