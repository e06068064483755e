"""Exit 0 means right: seeded random `eig limit`, `eig sweep` and `taylor`
runs through the command line, each checked against dense
`scipy.linalg.eigvals` of the same pencil (A, M_D + delta M_S), and a
`taylor` group at delta > 0 against dense `scipy.linalg.eigh`; seeded
`mie dispersion` circles against the ball's closed forms.

A run may end in a numerical failure (exit 2) with its diagnostic.  An
`eig` run that exits 0 must have written the finite nonzero eigenvalues
nearest its target, every copy of a multiple eigenvalue included, to 1e-10
relative.  A `taylor` run that exits 0 must have written an a_0 within 1e-8
of the dense delta = 0 group mean, and a series that meets the dense group
mean at the held-out delta = 3r/5 as closely as its own prediction error
says, to 1e-10.  A `taylor` report, whose lower half circle is the
mirror image of its tracked upper half, must give the coefficients and
power sums of the circle tracked in full by `eig.track_branch`.  A `mie
dispersion --radius` circle that exits 0 must have a mean within 1e-8 of
the squared delta -> 0 root (z_1 for magnetic, the interval-0 root of
the limit relation for electric, both from public scipy), no neighbour jump beyond 3 times its median jump, and, magnetic, a
first DFT coefficient that meets the closed-form slope 2 z_1^2 / P_n(R) as
closely as the circle's own aliasing allows.

The draws marked `slow` (more seeds, meshes up to 8 rings) are deselected
by default; run them with `pytest -m slow tests/test_oracle_sweep.py`.
"""

import io
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.optimize import brentq
from scipy.special import spherical_jn

from enzspec import eig
from enzspec.cli import main
from enzspec.fem import assemble
from enzspec.linalg import ArnoldiError
from enzspec.mesh import load_mesh
from enzspec.perturb import circle_path, taylor_from_circle
from sphere_fields import first_zero_oracle, magnetic_first_coefficient

_LIMIT_TARGET = -1.0      # `eig limit` returns the smallest, nearest -1


def _draw_mesh(rng, max_rings):
    """(shape, rings_core, rings_shell, size): a mesh key."""
    return (rng.choice(["disk", "square"]), rng.randint(2, max_rings),
            rng.randint(2, max_rings), rng.choice([1.5, 2.0, 3.0]))


def _draw_cases(seed=20261020, n=24, max_rings=6):
    """(mesh key, command args, delta, target) for n random runs."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        mesh = _draw_mesh(rng, max_rings)
        count = str(rng.randint(1, 8))
        kind = rng.choice(["limit", "real", "complex"])
        if kind == "limit":
            cases.append((mesh, ["eig", "limit", "--count", count], 0.0, _LIMIT_TARGET))
            continue
        delta = rng.uniform(0.01, 0.2)
        if kind == "complex":
            delta = complex(delta, rng.uniform(0.01, 0.1))
        target = rng.uniform(5.0, 40.0)
        cases.append((mesh, ["eig", "sweep", "--deltas", str(delta), "--target", str(target),
                             "--count", count], delta, target))
    return cases


def _draw_negative_cases(seed, n):
    """(mesh key, command args, delta, target) for n random `eig sweep` runs
    at a real delta in [-0.3, -0.05], on 2- to 6-ring meshes from thin to
    thick shells: beyond -area(D)/area(S) on all but the thinnest."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        mesh = (rng.choice(["disk", "square"]), rng.randint(2, 6), rng.randint(2, 6),
                rng.choice([1.01, 1.5, 10.0, 1e4]))
        delta, target = rng.uniform(-0.3, -0.05), rng.uniform(5.0, 40.0)
        cases.append((mesh, ["eig", "sweep", "--deltas", str(delta), "--target", str(target),
                             "--count", str(rng.randint(1, 8))], delta, target))
    return cases


def _draw_taylor_cases(seed, n, max_rings=6):
    """(mesh key, lambda0, radius) for n random `taylor` runs."""
    rng = random.Random(seed)
    return [(_draw_mesh(rng, max_rings), round(rng.uniform(5.0, 40.0), 4),
             round(rng.uniform(0.002, 0.01), 5)) for _ in range(n)]


_CASES = _draw_cases()
# the seeds of the draws marked slow
_SLOW_SEEDS = (1, 2, 3)


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    return main(list(argv), out=out, err=err), err.getvalue()


@pytest.fixture(scope="module")
def mesh_file(tmp_path_factory):
    """Per (shape, rings_core, rings_shell, size): a mesh file written by
    `mesh gen`."""
    paths = {}

    def get(key):
        if key not in paths:
            shape, rings_core, rings_shell, size = key
            path = str(tmp_path_factory.mktemp("sweep") / "mesh.txt")
            code, err = _run("mesh", "gen", "--shape", shape, "--rings_core", str(rings_core),
                             "--rings_shell", str(rings_shell), "--size", str(size),
                             "--out", path)
            assert code == 0, err
            paths[key] = path
        return paths[key]
    return get


def _written_eigenvalues(path):
    rows = [line.split(",") for line in Path(path).read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]
    columns = {name: i for i, name in enumerate(rows[0])}
    if "lambda" in columns:
        return np.array([float(r[columns["lambda"]]) for r in rows[1:]], dtype=complex)
    return np.array([complex(float(r[columns["lambda_re"]]), float(r[columns["lambda_im"]]))
                     for r in rows[1:]])


def _dense_nearest(path, delta, target, count):
    """The count finite eigenvalues with |lambda| > 1e-8 of the dense pencil
    nearest target, sorted: the constant mode and the infinite eigenvalues of
    a singular M_D drop out.  The pencil is scaled by the congruence
    diag(M)^(-1/2), which keeps its eigenvalues: unscaled, QZ loses digits
    once the triangle areas span many orders (2e-9 relative on a size-1e4
    square)."""
    forms = assemble(load_mesh(path))
    scale = scipy.sparse.diags(1.0 / np.sqrt(forms.M.diagonal()))
    w = scipy.linalg.eigvals((scale @ forms.A @ scale).toarray(),
                             (scale @ (forms.M_D + delta * forms.M_S) @ scale).toarray())
    w = w[np.isfinite(w) & (np.abs(w) > 1e-8)]
    return np.sort_complex(w[np.argsort(np.abs(w - target), kind="stable")[:count]])


def _eig_params(cases, prefix="", marks=()):
    return [pytest.param(*case, marks=list(marks),
                         id=f"{prefix}{i}-{'-'.join(map(str, case[0]))}-"
                         + ("limit" if case[1][1] == "limit" else type(case[2]).__name__))
            for i, case in enumerate(cases)]


@pytest.mark.parametrize("mesh, args, delta, target", _eig_params(_CASES) + _eig_params(
    _draw_negative_cases(20261021, 16), "negative") + [
    param for seed in _SLOW_SEEDS for param in _eig_params(
        _draw_cases(seed, 24, max_rings=8), f"slow{seed}-", [pytest.mark.slow])])
def test_exit_zero_means_the_dense_eigenvalues(mesh_file, tmp_path, mesh, args, delta, target):
    out = str(tmp_path / "out.csv")
    code, err = _run(*args, "--mesh", mesh_file(mesh), "--out", out)
    assert code in (0, 2), err
    if code == 2:
        assert "unexpected" not in json.loads(err), err
        return
    got = np.sort_complex(_written_eigenvalues(out))
    expected = _dense_nearest(mesh_file(mesh), delta, target, int(args[args.index("--count") + 1]))
    assert len(got) == len(expected)
    assert np.all(np.abs(got - expected) <= 1e-10 * np.abs(expected)), (got, expected)



def test_thin_shell_draw_keeps_the_converged_pairs(mesh_file, tmp_path, monkeypatch):
    # draw negative6: on the size-1e4 disk with 6 core and 3 shell rings,
    # ARPACK converges 10 of the 11 Ritz pairs it is asked for.  The
    # converged pairs are kept: at the real delta the inertia count finds
    # what is missing, at a complex delta beside it the next harvest run and
    # the verification rounds do; both exit 0 with the dense eigenvalues
    mesh, args, delta, target = _draw_negative_cases(20261021, 16)[6]
    assert mesh == ("disk", 6, 3, 1e4) and args[-1] == "7"
    real_arnoldi, errors = eig.shift_invert_arnoldi, []

    def recorded(*a, **kw):
        try:
            return real_arnoldi(*a, **kw)
        except ArnoldiError as exc:
            errors.append((exc.converged, exc.requested))
            raise

    monkeypatch.setattr(eig, "shift_invert_arnoldi", recorded)
    out = str(tmp_path / "out.csv")
    code, err = _run(*args, "--mesh", mesh_file(mesh), "--out", out)
    assert code == 0, err
    assert errors == [(10, 11)]
    got = np.sort_complex(_written_eigenvalues(out))
    expected = _dense_nearest(mesh_file(mesh), delta, target, 7)
    assert len(got) == 7
    assert np.all(np.abs(got - expected) <= 1e-10 * np.abs(expected)), (got, expected)
    errors.clear()
    complex_args = [f"{delta}+0.001j" if a == str(delta) else a for a in args]
    code, err = _run(*complex_args, "--mesh", mesh_file(mesh), "--out", out)
    assert code == 0, err
    assert errors == [(10, 11)]
    got = np.sort_complex(_written_eigenvalues(out))
    expected = _dense_nearest(mesh_file(mesh), complex(delta, 0.001), target, 7)
    assert len(got) == 7
    assert np.all(np.abs(got - expected) <= 1e-10 * np.abs(expected)), (got, expected)

def _dense_group_means(path, lambda0, held):
    """The means of the dense lambda-group of lambda0 at delta = 0 and at
    delta = held.  At delta = 0 (`scipy.linalg.eigvals`) the group is every
    finite eigenvalue within 1e-6 (relative) of the one nearest lambda0.
    For delta > 0, where M_D + delta M_S is definite (`scipy.linalg.eigh`),
    it is as many eigenvalues: the nearest to that mean at held / 1e4, then
    at held / 2 and at held those whose eigenvectors lie most in the span
    of the previous step's, since a group can cross another eigenvalue."""
    forms = assemble(load_mesh(path))
    a, md, ms = forms.A.toarray(), forms.M_D.toarray(), forms.M_S.toarray()
    w = scipy.linalg.eigvals(a, md)
    w = w[np.isfinite(w) & (np.abs(w) > 1e-8)]
    nearest = w[np.argmin(np.abs(w - lambda0))]
    group = w[np.abs(w - nearest) <= 1e-6 * abs(nearest)]
    mean0, size, vecs = group.mean(), len(group), None
    for delta in (held / 1e4, held / 2, held):
        b = md + delta * ms
        w, x = scipy.linalg.eigh(a, b)
        if vecs is None:
            pick = np.argsort(np.abs(w - mean0.real))[:size]
        else:
            c = x.T @ (b @ vecs)
            span = np.sum(c * np.linalg.solve(vecs.T @ b @ vecs, c.T).T, axis=1)
            pick = np.argsort(-span)[:size]
        vals, vecs = w[pick], x[:, pick]
    return mean0, vals.mean()


# taylor runs that exit 0 with an a_0 beyond 1e-8 of the dense group mean
# (the DFT circle meets singularities of the group, ROADMAP item 2), and so
# pass the 1e-3 a_0 gate wrongly: strict xfails, by id
_WRONG_TAYLOR = {
    "5-square-3-4-3.0-30.2585-0.0089":
        "a_0 37.3951447 against the dense 37.3873291 (2.1e-4 relative): shell "
        "eigenvalues mu/delta cross the group on the circle (38.12 at delta = 0.00534)",
    "slow1-9-square-7-7-3.0-37.7754-0.00538":
        "a_0 32.0771825357 against the dense 32.0771817006 (2.6e-8 relative): the "
        "coefficients decay by only 0.34-0.40 per order, so 16 samples alias",
    "slow3-8-square-7-5-3.0-34.9329-0.00537":
        "a_0 32.1260095445 against the dense 32.1260011603 (2.6e-7 relative): the "
        "coefficients decay by only 0.33-0.39 per order, so 16 samples alias",
    "slow3-10-square-7-2-2.0-39.6846-0.00737":
        "a_0 31.7651675018 against the dense 31.7651689162 (4.5e-8 relative): "
        "decay ratio 1.16 at order 4, so 16 samples alias",
}


def _pinned_params(cases, names, wrong, marks=()):
    """The cases as params with the ids `names`: a strict xfail where
    `wrong` gives a reason for the id."""
    return [pytest.param(*case, id=name, marks=list(marks) + (
        [pytest.mark.xfail(strict=True, reason=wrong[name])] if name in wrong else []))
        for case, name in zip(cases, names)]


def _taylor_params(cases, prefix, marks=()):
    return _pinned_params(cases, [f"{prefix}{i}-{'-'.join(map(str, case[0]))}-{case[1]}-{case[2]}"
                                  for i, case in enumerate(cases)], _WRONG_TAYLOR, marks)


@pytest.mark.parametrize("mesh, lambda0, radius", _taylor_params(
    _draw_taylor_cases(20261021, 8), "") + [
    param for seed in _SLOW_SEEDS for param in _taylor_params(
        _draw_taylor_cases(seed, 16, max_rings=8), f"slow{seed}-", [pytest.mark.slow])])
def test_taylor_exit_zero_means_the_dense_group(mesh_file, tmp_path, mesh, lambda0, radius):
    out = tmp_path / "t.json"
    code, err = _run("taylor", "--mesh", mesh_file(mesh), "--lambda0", str(lambda0),
                     "--radius", str(radius), "--out", str(out))
    assert code in (0, 2), err
    if code == 2:
        assert "unexpected" not in json.loads(err), err
        return
    payload = json.loads(out.read_text(encoding="utf-8"))
    a = np.array([complex(re, im) for re, im in payload["a_coeffs"]])
    held = 3 * radius / 5
    mean0, mean_held = _dense_group_means(mesh_file(mesh), lambda0, held)
    assert abs(a[0] - mean0) <= 1e-8 * abs(mean0), (a[0], mean0)
    series = np.polyval(a[::-1], held)
    miss = abs(series - mean_held) / abs(mean_held)
    assert miss <= payload["prediction_errors"][0] + 1e-10, (series, mean_held, miss)


# (mesh, lambda0, radius, samples): the continuation benchmark's simple
# branches and lambda-groups of two, and the README's 16-ring circle
_FULL_CIRCLE_CASES = [
    pytest.param(("disk", 8, 8, 2.0), 15.0057, 0.015, 16, id="disk8-15.0057"),
    pytest.param(("square", 8, 8, 2.0), 15.0057, 0.008, 16, id="square8-15.0057"),
    pytest.param(("disk", 8, 8, 2.0), 31.1732, 0.015, 16, id="disk8-31.1732"),
    pytest.param(("square", 8, 8, 2.0), 31.2993, 0.005, 16, id="square8-31.2993"),
    pytest.param(("disk", 16, 16, 2.0), 14.8, 0.05, 32, id="disk16-14.8",
                 marks=pytest.mark.slow),
]


@pytest.mark.parametrize("mesh, lambda0, radius, samples", _FULL_CIRCLE_CASES)
def test_taylor_reflection_is_the_full_circle(mesh_file, tmp_path, mesh, lambda0, radius,
                                              samples):
    out = tmp_path / "t.json"
    code, err = _run("taylor", "--mesh", mesh_file(mesh), "--lambda0", str(lambda0),
                     "--radius", str(radius), "--samples", str(samples), "--out", str(out))
    assert code == 0, err
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["closure_defect"] <= 1e-9
    # the second route: the library tracks every sample of the circle
    path, start = circle_path(radius, samples)
    branch = eig.track_branch(assemble(load_mesh(mesh_file(mesh))), lambda0, path)
    order = len(payload["a_coeffs"]) - 1
    scale = radius ** np.arange(order + 1)
    full = {"1": branch.lambda_samples[start:]}
    copies = np.asarray(branch.copies[start:])
    full.update({str(p): (copies**p).sum(axis=1) for p in range(2, copies.shape[1] + 1)})
    reported = {"1": payload["a_coeffs"], **payload.get("power_sum_coeffs", {})}
    assert set(reported) == set(full)
    assert len(full) == (2 if lambda0 > 30 else 1)
    # c_k = a_k r^k of lambda and of each power sum, against that series' a_0
    for p, values in full.items():
        c_full = taylor_from_circle(values, radius, order) * scale
        c_half = np.array(reported[p]) @ [1, 1j] * scale
        assert np.abs(c_half - c_full).max() <= 1e-13 * abs(c_full[0]), (p, c_half, c_full)


def _draw_dispersion_cases(seed, n):
    """(family, n, R, radius, samples) for n random `mie dispersion --radius`
    runs: radii log-uniform in [1e-3, 0.2]."""
    rng = random.Random(seed)
    return [(rng.choice(["magnetic", "electric"]), rng.randint(1, 5),
             round(rng.uniform(1.3, 4.0), 3),
             float(f"{10.0 ** rng.uniform(-3.0, math.log10(0.2)):.3g}"),
             rng.choice([16, 64, 256])) for _ in range(n)]


def _electric_limit_root(n, R):
    """The interval-0 root of the electric family's delta -> 0 limit.  The
    shell field r^n - R^(2n+1) r^(-n-1) matched to j_n(k r) at r = 1 gives
    (2n + 1) j_n(k) + (R^(2n+1) - 1) k j_(n-1)(k) = 0, whose left side is
    positive at the first zero of j_(n-1) and negative at the first zero of
    j_n, the interval's ends: brentq between them."""
    q = R ** (2 * n + 1)

    def f(k):
        return (2 * n + 1) * spherical_jn(n, k) + (q - 1.0) * k * spherical_jn(n - 1, k)

    return brentq(f, first_zero_oracle(n - 1), first_zero_oracle(n), xtol=1e-15)


# mie dispersion circles that exit 0 with a mean beyond 1e-8 of z_1^2: the
# miss is the same at 16 to 1024 samples, so the samples follow another
# branch around an exceptional point inside the circle, not an aliased one
# (ROADMAP item 3); strict xfails, by id
_WRONG_DISPERSION = {
    "slow1-0-magnetic-5-3.588-0.0572-64":
        "a_0 87.5314685 against z_1^2 87.5312203 (2.8e-6 relative) at 16 to 1024 samples",
    "slow2-2-magnetic-4-3.024-0.0707-256":
        "a_0 66.9637682 against z_1^2 66.9543119 (1.4e-4 relative) from 64 samples on",
    "slow3-11-magnetic-3-3.976-0.035-16":
        "a_0 48.8372666 against z_1^2 48.8311936 (1.2e-4 relative; 8.2e-5 from 256 "
        "samples on)",
}


def _dispersion_params(cases, prefix, marks=()):
    return _pinned_params(cases, [f"{prefix}{i}-{'-'.join(map(str, case))}"
                                  for i, case in enumerate(cases)], _WRONG_DISPERSION, marks)


@pytest.mark.parametrize("family, n, R, radius, samples", _dispersion_params(
    _draw_dispersion_cases(20261021, 10), "") + [
    param for seed in _SLOW_SEEDS for param in _dispersion_params(
        _draw_dispersion_cases(seed, 16), f"slow{seed}-", [pytest.mark.slow])])
def test_dispersion_exit_zero_means_the_closed_forms(tmp_path, family, n, R, radius, samples):
    out = tmp_path / "d.csv"
    code, err = _run("mie", "dispersion", "--family", family, "--n", str(n), "--R", str(R),
                     "--radius", str(radius), "--samples", str(samples), "--out", str(out))
    assert code in (0, 2), err
    if code == 2:
        assert "unexpected" not in json.loads(err), err
        return
    rows = np.loadtxt(out, delimiter=",", skiprows=2)
    lams = rows[:, 2] + 1j * rows[:, 3]
    assert len(lams) == samples + 1
    jumps = np.abs(np.diff(lams))
    assert jumps.max() <= 3.0 * np.median(jumps), jumps
    # the circle mean is the branch's delta = 0 value: z_1^2 (magnetic) or
    # the squared interval-0 root (electric)
    k0 = first_zero_oracle(n) if family == "magnetic" else _electric_limit_root(n, R)
    assert abs(lams[:-1].mean() - k0**2) <= 1e-8 * k0**2, (lams[:-1].mean(), k0**2)
    if family == "magnetic":
        # the DFT's c_1 / r is a_1 plus the aliased sum of a_(1+jN) r^(jN),
        # j >= 1.  Inside the radius of analyticity |a_m r^m| decays with m,
        # so the first aliased term is below every |c_m| of the upper half of
        # the spectrum, which also holds the samples' Newton noise
        c = np.fft.fft(lams[:-1]) / samples
        alias = 3.0 * np.abs(c[samples // 2:]).max() / radius
        a1 = magnetic_first_coefficient(n, R)
        assert abs(c[1] / radius - a1) <= alias, (c[1] / radius, a1, alias)


_MIXED_DELTAS = ("0.05", "0.03+0.02j", "-0.05", "0.03+0.02j")


@pytest.mark.parametrize("shape", ["disk", "square"])
def test_mixed_sweep_is_one_sweep_per_delta(mesh_file, tmp_path, shape):
    # one pencil serves real and complex deltas in turn: each delta's rows
    # are the bytes of a sweep at that delta alone, and the dense eigenvalues
    mesh, target, count = mesh_file((shape, 4, 4, 2.0)), 14.5, 4
    common = ("--mesh", mesh, "--target", str(target), "--count", str(count))
    out = tmp_path / "mixed.csv"
    code, err = _run("eig", "sweep", "--deltas", ",".join(_MIXED_DELTAS), *common,
                     "--out", str(out))
    assert code == 0, err
    lines = out.read_text(encoding="utf-8").splitlines()
    header, rows = lines[:2], lines[2:]
    assert len(rows) == count * len(_MIXED_DELTAS)
    for k, delta in enumerate(_MIXED_DELTAS):
        single = tmp_path / f"single{k}.csv"
        code, err = _run("eig", "sweep", "--deltas", delta, *common, "--out", str(single))
        assert code == 0, err
        assert single.read_text(encoding="utf-8").splitlines() == header + rows[
            k * count:(k + 1) * count]
        got = np.sort_complex(_written_eigenvalues(single))
        expected = _dense_nearest(mesh, complex(delta), target, count)
        assert np.all(np.abs(got - expected) <= 1e-10 * np.abs(expected)), (got, expected)
