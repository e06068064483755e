import dataclasses
import io
import json
import os
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy.optimize import brentq
from scipy.special import jv, jvp

from enzspec import eig, linalg
from enzspec.cli import main
from enzspec.eig import (
    EigError,
    TrackingAmbiguityError,
    delta_spectrum,
    discrete_K0,
    limit_spectrum,
    track_branch,
)
from enzspec.fem import AssembledForms, assemble
from enzspec.linalg import ArnoldiError, LUFactors, SingularMatrixError, negative_pivots
from enzspec.mesh import (
    INCLUSION,
    INTERFACE,
    SHELL,
    Mesh,
    generate_disk_in_disk,
    generate_square_with_disk,
    load_mesh,
    save_mesh,
)
from enzspec.perturb import circle_path, taylor_from_circle
from split_sweeps import run_cases


def radial_limit_oracle():
    """Smallest rotationally symmetric limit eigenvalue of the unit disk:
    the shell solution must be constant, so sqrt(lam) J_0'(sqrt(lam)) = 0."""
    return brentq(lambda k: jvp(0, k), 3.5, 4.0, xtol=1e-13) ** 2


def m1_limit_oracle(R):
    """First angular-order-1 limit eigenvalue on the disk-in-disk geometry:
    core J_1(k r), shell a r + b / r with outer Neumann data, matched at 1."""

    def f(k):
        return k * jvp(1, k) * (1.0 + R * R) + (R * R - 1.0) * jv(1, k)

    x = 0.5
    while f(x) * f(x + 0.05) > 0.0:
        x += 0.05
    return brentq(f, x, x + 0.05, xtol=1e-13) ** 2


@pytest.fixture
def one_cpu():
    """This thread limited to one CPU, so that an `eig sweep` stays serial."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    yield
    os.sched_setaffinity(0, cpus)


@pytest.fixture(scope="module")
def forms_coarse():
    return assemble(generate_disk_in_disk(2.0, 8, 8))


@pytest.fixture(scope="module")
def limit_coarse(forms_coarse):
    return limit_spectrum(forms_coarse, 6)


class TestLimitSpectrum:
    def test_real_positive_ascending(self, limit_coarse):
        lams = [p.lam for p in limit_coarse]
        assert all(np.imag(l) == 0 for l in lams)
        assert all(np.real(l) > 0 for l in lams)
        assert lams == sorted(lams, key=np.real)

    def test_inclusion_mean_zero(self, forms_coarse, limit_coarse):
        ones = np.ones(forms_coarse.mesh.n_vertices)
        md1 = forms_coarse.M_D @ ones
        for p in limit_coarse:
            assert abs(np.dot(md1, p.vector)) < 1e-8

    def test_md_orthonormal(self, forms_coarse, limit_coarse):
        for i, p in enumerate(limit_coarse):
            for j, q in enumerate(limit_coarse):
                g = p.vector @ (forms_coarse.M_D @ q.vector)
                assert abs(g - (1.0 if i == j else 0.0)) < 1e-8

    def test_residuals(self, limit_coarse):
        assert all(p.residual <= 1e-8 for p in limit_coarse)

    def test_radial_value_coarse(self, limit_coarse):
        oracle = radial_limit_oracle()
        best = min(abs(p.lam - oracle) / oracle for p in limit_coarse)
        assert best < 0.03

    def test_m1_pair_degenerate(self, limit_coarse):
        oracle = m1_limit_oracle(2.0)
        close = [p for p in limit_coarse if abs(p.lam - oracle) / oracle < 0.05]
        assert len(close) == 2
        assert abs(close[0].lam - close[1].lam) < 1e-9 * oracle


class TestDeltaSpectrum:
    def test_delta_one_neumann_disk(self):
        forms = assemble(generate_disk_in_disk(2.0, 12, 12))
        (pairs,) = delta_spectrum(forms, [1.0], 0.8, 6)
        # first nonzero Neumann eigenvalue of the R=2 disk: (z/2)^2 with
        # z the first zero of J_1'
        oracle = (brentq(lambda k: jvp(1, k), 1.5, 2.5, xtol=1e-13) / 2.0) ** 2
        best = min(abs(p.lam - oracle) / oracle for p in pairs)
        assert best < 0.02

    def test_delta_zero_matches_limit(self, forms_coarse, limit_coarse):
        (pairs,) = delta_spectrum(forms_coarse, [0.0], limit_coarse[0].lam + 0.1, 3)
        lams = sorted(np.real(p.lam) for p in pairs)
        ref = sorted(p.lam for p in limit_coarse)[:3]
        for a, b in zip(lams, ref):
            assert abs(a - b) < 1e-9 * max(1.0, abs(b))

    def test_complex_delta(self, forms_coarse, limit_coarse):
        lam0 = limit_coarse[0].lam
        (pairs,) = delta_spectrum(forms_coarse, [0.05 + 0.05j], lam0, 2)
        assert all(p.residual <= 1e-8 for p in pairs)
        assert any(abs(np.imag(p.lam)) > 1e-6 for p in pairs)

    def test_real_delta_reality(self, forms_coarse):
        (pairs,) = delta_spectrum(forms_coarse, [0.1], 14.0, 3)
        for p in pairs:
            assert abs(np.imag(p.lam)) <= 1e-9 * (1.0 + abs(p.lam))

    def test_bilinear_orthonormality(self, forms_coarse):
        delta = 0.05 + 0.02j
        (pairs,) = delta_spectrum(forms_coarse, [delta], 14.0, 4)
        b = forms_coarse.M_D + delta * forms_coarse.M_S
        for i, p in enumerate(pairs):
            for j, q in enumerate(pairs):
                g = p.vector @ (b @ q.vector)
                assert abs(g - (1.0 if i == j else 0.0)) < 1e-8

    def test_degenerate_mass_rejected(self, forms_coarse):
        area_d = forms_coarse.mesh.region_area(INCLUSION)
        area_s = forms_coarse.mesh.triangle_areas().sum() - area_d
        with pytest.raises(EigError):
            delta_spectrum(forms_coarse, [-area_d / area_s], 10.0, 1)

    @pytest.mark.parametrize("generate", [generate_disk_in_disk, generate_square_with_disk])
    @pytest.mark.parametrize("size", [1.01, 2.0, 1e4, 1e8])
    def test_degenerate_mass_at_every_size(self, generate, size):
        # the pencil refuses from its own masses exactly where the region
        # areas put the degeneracy, and accepts a delta 1e-12 away
        mesh = generate(size, 2, 2)
        ratio = mesh.region_area(INCLUSION) / mesh.region_area(SHELL)
        pencil = eig._Pencil(assemble(mesh))
        with pytest.raises(EigError):
            pencil.B(-ratio)
        pencil.B(-ratio * (1.0 + 1e-12))

    def test_pencil_B_linear(self, forms_coarse):
        delta = 0.3 + 0.1j
        b = eig._Pencil(forms_coarse).B(delta)
        ref = forms_coarse.M_D.toarray() + delta * forms_coarse.M_S.toarray()
        assert np.abs(b.toarray() - ref).max() < 1e-15

    def test_pencil_reuses_assembled_areas(self, forms_coarse, monkeypatch):
        # the pencil and a track take what they need of the mesh from the
        # assembled forms: no triangle area is computed again
        calls = []
        triangle_areas = Mesh.triangle_areas

        def counted(self):
            calls.append(1)
            return triangle_areas(self)

        monkeypatch.setattr(Mesh, "triangle_areas", counted)
        eig._Pencil(forms_coarse).B(0.05)
        path, _ = circle_path(0.02, 4)
        track_branch(forms_coarse, 15.005677, path)
        assert calls == []

    def test_resonant_shift_is_bumped(self, forms_coarse, monkeypatch):
        # a target at an exact eigenvalue whose shifted matrix the pivot
        # check rejects: the factor is retried once at a moved shift
        a = forms_coarse.A
        b = forms_coarse.M_D + 0.05 * forms_coarse.M_S
        dense = scipy.linalg.eigh(a.toarray(), b.toarray(), eigvals_only=True)

        def rejected(lam):
            m = (a - lam * b).tocsc()
            u = scipy.sparse.linalg.splu(m, **linalg._SPLU_SETTINGS).U
            return np.abs(u.diagonal()).min() <= 1e-13 * max(1.0, abs(m).max())

        flagged = [lam for lam in dense[1:11] if rejected(lam)]
        assert flagged
        target = flagged[0]
        outcomes = []

        class CountedFactors(LUFactors):
            def __init__(self, *args, **kwargs):
                try:
                    super().__init__(*args, **kwargs)
                except SingularMatrixError:
                    outcomes.append("singular")
                    raise
                outcomes.append("ok")

        monkeypatch.setattr(eig, "LUFactors", CountedFactors)
        (pairs,) = delta_spectrum(forms_coarse, [0.05], target, 3)
        assert outcomes == ["singular", "ok"]
        # dense[0] is the constant mode (lambda = 0), which the pencil deflates
        finite = dense[1:]
        expected = finite[np.argsort(np.abs(finite - target))[:3]]
        assert np.abs(np.sort([p.lam for p in pairs]) - np.sort(expected)).max() <= 1e-8


_GENERATORS = {"disk": generate_disk_in_disk, "square": generate_square_with_disk}


@pytest.fixture(scope="module")
def forms_by_mesh():
    cache = {}

    def get(shape, rings):
        if (shape, rings) not in cache:
            cache[shape, rings] = assemble(_GENERATORS[shape](2.0, rings, rings))
        return cache[shape, rings]
    return get


def _same_bits(x, y):
    """Same format, dtype and index arrays, and data equal bit for bit
    (signed zeros included)."""
    return (x.format == y.format and x.dtype == y.dtype and x.shape == y.shape
            and np.array_equal(x.indptr, y.indptr) and np.array_equal(x.indices, y.indices)
            and np.array_equal(x.data.view(np.uint8), y.data.view(np.uint8)))


class TestPencilLayout:
    """`_Pencil.B` and the matrix `_shifted` factors come from the pencil's
    own layout; they must be what the sparse sums M_D + delta M_S and
    A - sigma B give, bit for bit, explicit zeros dropped."""

    @staticmethod
    def _factor_inputs(monkeypatch, fail_first=False):
        inputs = []

        class RecordingFactors(LUFactors):
            def __init__(self, matrix):
                inputs.append(matrix)
                if fail_first and len(inputs) == 1:
                    raise SingularMatrixError(None, 0.0)
                super().__init__(matrix)

        monkeypatch.setattr(eig, "LUFactors", RecordingFactors)
        return inputs

    @pytest.mark.parametrize("shape, rings", [("disk", 8), ("square", 16)])
    @pytest.mark.parametrize("delta, sigma", [
        (0.05, 14.5), (-0.05, 14.5), (0.0, -1.0), (0.03 + 0.02j, 14.5 - 0.5j),
        (0.05, 14.5 + 0.25j)])
    def test_shifted_matrix_is_the_sparse_formula(self, forms_by_mesh, monkeypatch,
                                                  shape, rings, delta, sigma):
        forms = forms_by_mesh(shape, rings)
        inputs = self._factor_inputs(monkeypatch)
        real = complex(delta).imag == 0 and complex(sigma).imag == 0
        pencil = eig._Pencil(forms)
        _, bmat, _ = eig._shifted(pencil, *eig._typed(delta, sigma, real), 1e-3)
        dtype = float if real else complex
        if real:
            delta, sigma = float(np.real(delta)), float(np.real(sigma))
        b = forms.M_D + delta * forms.M_S
        assert _same_bits(pencil.B(delta), b)
        b = b.astype(dtype, copy=False)
        assert _same_bits(bmat, b)
        (factored,) = inputs
        assert _same_bits(factored, (forms.A.astype(dtype) - sigma * b).tocsc())

    def test_bumped_shift_is_the_sparse_formula(self, forms_by_mesh, monkeypatch):
        forms = forms_by_mesh("disk", 8)
        inputs = self._factor_inputs(monkeypatch, fail_first=True)
        eig._shifted(eig._Pencil(forms), 0.05, 14.5, 1e-3)
        b = forms.M_D + 0.05 * forms.M_S
        first, bumped = inputs
        assert _same_bits(first, (forms.A - 14.5 * b).tocsc())
        assert _same_bits(bumped, (forms.A - (14.5 * (1.0 + 1e-3) + 1e-3) * b).tocsc())

    def test_pruning_leaves_the_layout_whole(self, forms_by_mesh):
        # B at delta = 0 drops the shell-only entries; the layout and
        # forms.M keep theirs
        forms = forms_by_mesh("disk", 8)
        pencil = eig._Pencil(forms)
        assert pencil.B(0.0).nnz < forms.M.nnz == len(pencil.indices)
        assert _same_bits(pencil.B(0.03 + 0.02j), forms.M_D + (0.03 + 0.02j) * forms.M_S)
        assert np.array_equal(pencil.indptr, forms.M.indptr)

    def test_sweep_derives_the_layout_once(self, tmp_path, monkeypatch, one_cpu):
        # the pencil derives the layout: one pencil serves all 16 deltas
        # (on one CPU, where the sweep stays in this process)
        mesh_path = str(tmp_path / "disk4.txt")
        save_mesh(generate_disk_in_disk(2.0, 4, 4), mesh_path)
        calls = {"pencils": 0, "solves": 0}

        def counted_pencil(self, forms, init=eig._Pencil.__init__):
            calls["pencils"] += 1
            init(self, forms)

        def counted_solve(*args, solve=eig._solve_pencil):
            calls["solves"] += 1
            return solve(*args)

        monkeypatch.setattr(eig._Pencil, "__init__", counted_pencil)
        monkeypatch.setattr(eig, "_solve_pencil", counted_solve)
        deltas = ",".join(f"{0.005 * (k + 1):g}" for k in range(16))
        code = main(["eig", "sweep", "--mesh", mesh_path, "--deltas", deltas, "--count", "1",
                     "--out", str(tmp_path / "sweep.csv")], out=io.StringIO(), err=io.StringIO())
        assert code == 0
        assert calls == {"pencils": 1, "solves": 16}

    def test_split_sweep_derives_the_layout_once_per_process(self, tmp_path):
        # on two or three CPUs the same sweep splits: the parent and its one
        # child each build one pencil, and each delta is solved once
        deltas = [f"{0.005 * (k + 1):g}" for k in range(16)]
        results = run_cases([{"mesh": "disk4", "deltas": ",".join(deltas), "target": -1,
                              "count": 1}], tmp_path)
        if "skip" in results:
            pytest.skip(results["skip"])
        split = results[0]["split"]
        assert split["code"] == 0 and split["reaped"]
        events = {}
        for pid, kind, delta in split["events"]:
            events.setdefault(pid, []).append((kind, delta))
        parent = events.pop(str(split["pid"]))
        (child,) = events.values()
        solved = [[complex(d).real for kind, d in log if kind == "solve"] for log in (parent, child)]
        assert [sum(kind == "pencil" for kind, _ in log) for log in (parent, child)] == [1, 1]
        assert solved == [[float(d) for d in deltas[:8]], [float(d) for d in deltas[8:]]]


@pytest.mark.parametrize("shape, rings, delta, target, count", [
    ("disk", 16, 0.0, None, 4),
    ("disk", 16, 0.0, None, 6),
    ("disk", 16, 0.0, None, 8),
    ("disk", 16, 0.0, None, 12),
    ("square", 24, 0.0, None, 12),
    ("disk", 32, 0.05, 14.5, 6),
    ("square", 32, 0.05, 14.5, 6),
])
def test_real_spectra_on_sparse_meshes(forms_by_mesh, shape, rings, delta, target, count):
    # real-delta cases whose Arnoldi step yields complex Ritz vectors: they
    # must be made real before they reach the real LU factor
    forms = forms_by_mesh(shape, rings)
    if target is None:
        pairs = limit_spectrum(forms, count)
    else:
        (pairs,) = delta_spectrum(forms, [delta], target, count)
    assert len(pairs) == count
    b = forms.M_D + delta * forms.M_S
    for p in pairs:
        av, bv = forms.A @ p.vector, b @ p.vector
        res = np.linalg.norm(av - p.lam * bv) / (np.linalg.norm(av) + abs(p.lam) * np.linalg.norm(bv))
        assert res <= 1e-8


def _nearest(values, target, count):
    values = np.asarray(values)
    values = values[np.isfinite(values) & (np.abs(values) > 1e-8)]   # drop the constant mode
    return np.sort_complex(np.array(sorted(values, key=lambda l: abs(l - target))[:count],
                                    dtype=complex))


def _assert_same_multiset(pairs, expected, rel=1e-9):
    got = np.sort_complex(np.array([p.lam for p in pairs], dtype=complex))
    assert len(got) == len(expected)
    assert np.all(np.abs(got - expected) <= rel * np.abs(expected)), (got, expected)


class TestCompleteness:
    """Every copy of a multiple eigenvalue that the count reaches comes back,
    checked against a dense or an independent sparse (scipy ARPACK) solve."""

    def test_square8_real_delta_keeps_both_copies(self, forms_by_mesh):
        forms = forms_by_mesh("square", 8)
        delta = 0.05998
        (pairs,) = delta_spectrum(forms, [delta], 14.5, 6)
        b = forms.M_D + delta * forms.M_S
        dense = scipy.linalg.eigh(forms.A.toarray(), b.toarray(), eigvals_only=True)
        expected = _nearest(dense, 14.5, 6)
        _assert_same_multiset(pairs, expected)
        assert sum(abs(p.lam - 18.244281) < 1e-5 for p in pairs) == 2

    def test_square8_complex_delta(self, forms_by_mesh):
        forms = forms_by_mesh("square", 8)
        delta = 0.04 + 0.03j
        (pairs,) = delta_spectrum(forms, [delta], 14.5, 6)
        b = forms.M_D + delta * forms.M_S
        dense = scipy.linalg.eigvals(forms.A.toarray(), b.toarray())
        _assert_same_multiset(pairs, _nearest(dense, 14.5, 6))

    def test_disk32_real_delta_keeps_both_copies(self, forms_by_mesh):
        forms = forms_by_mesh("disk", 32)
        delta = 0.05248
        (pairs,) = delta_spectrum(forms, [delta], 14.5, 6)
        b = forms.M_D + delta * forms.M_S
        ref = scipy.sparse.linalg.eigsh(forms.A.tocsc(), k=10, M=b.tocsc(),
                                        sigma=14.5, return_eigenvectors=False)
        expected = _nearest(ref, 14.5, 6)
        assert sum(abs(e - 13.22761) < 1e-5 for e in expected) == 2
        # the sixth pair is one copy of a double eigenvalue; either copy will do
        _assert_same_multiset(pairs, expected)

    def test_disk32_limit_keeps_both_copies(self, forms_by_mesh):
        forms = forms_by_mesh("disk", 32)
        pairs = limit_spectrum(forms, 8)
        ref = scipy.sparse.linalg.eigsh(forms.A.tocsc(), k=12, M=forms.M_D.tocsc(),
                                        sigma=-1.0, return_eigenvectors=False)
        expected = _nearest(ref, -1.0, 8)
        assert sum(abs(e - 26.296638) < 1e-5 for e in expected) == 2
        _assert_same_multiset(pairs, expected)

    @pytest.mark.parametrize("count", [6, 7])
    def test_count_cuts_a_double_at_the_boundary(self, forms_coarse, count):
        # the 6th and 7th eigenvalues nearest 14.5 are the two copies of
        # 27.439249 (distances equal to about 1e-13): count 6 returns one
        # copy, count 7 both, each the count values nearest the target
        delta = 0.02623
        (pairs,) = delta_spectrum(forms_coarse, [delta], 14.5, count)
        b = forms_coarse.M_D + delta * forms_coarse.M_S
        dense = scipy.linalg.eigh(forms_coarse.A.toarray(), b.toarray(), eigvals_only=True)
        _assert_same_multiset(pairs, _nearest(dense, 14.5, count), rel=1e-10)
        assert sum(abs(p.lam - 27.439249) < 1e-5 for p in pairs) == count - 5


    def test_count_restores_a_dropped_copy(self, forms_coarse, monkeypatch):
        # the first ARPACK run loses one copy of a double it found: the
        # count sees the window one short, and one more run brings it back
        delta, target = 0.02998, 14.5
        real_arnoldi, calls, dropped = eig.shift_invert_arnoldi, [], []

        def dropping(*args, **kwargs):
            thetas, vecs = real_arnoldi(*args, **kwargs)
            if not calls:
                lams = target + 1.0 / thetas.real
                copies = [i for i in range(len(lams))
                          if np.any(np.abs(lams[:i] - lams[i]) <= 1e-8 * abs(lams[i]))]
                dropped.append(lams[copies[0]])
                keep = np.arange(len(lams)) != copies[0]
                thetas, vecs = thetas[keep], vecs[:, keep]
            calls.append(len(thetas))
            return thetas, vecs

        monkeypatch.setattr(eig, "shift_invert_arnoldi", dropping)
        (pairs,) = delta_spectrum(forms_coarse, [delta], target, 6)
        b = forms_coarse.M_D + delta * forms_coarse.M_S
        dense = scipy.linalg.eigh(forms_coarse.A.toarray(), b.toarray(), eigvals_only=True)
        _assert_same_multiset(pairs, _nearest(dense, target, 6), rel=1e-10)
        assert abs(dropped[0] - 14.165204) < 1e-5
        assert sum(abs(p.lam - dropped[0]) < 1e-5 for p in pairs) == 2
        assert len(calls) == 2

    @pytest.mark.parametrize("delta, target, count", [
        (0.0, -1.0, 6), (0.0, -1.0, 8), (0.02998, 14.5, 6), (0.05248, 14.5, 6)])
    def test_real_harvest_runs_no_empty_round(self, forms_coarse, monkeypatch,
                                              delta, target, count):
        # the first run finds every pair the count asks for: it is the only one
        calls = []
        real_arnoldi = eig.shift_invert_arnoldi

        def counted(*args, **kwargs):
            calls.append(args[2])
            return real_arnoldi(*args, **kwargs)

        monkeypatch.setattr(eig, "shift_invert_arnoldi", counted)
        (pairs,) = delta_spectrum(forms_coarse, [delta], target, count)
        assert len(pairs) == count
        assert len(calls) == 1

    @staticmethod
    def _factor_events(forms, monkeypatch):
        """The factorizations and counts of a limit and a two-delta sweep,
        each count with the number of LU factors alive beside it."""
        live, events = weakref.WeakSet(), []
        real_count = eig.negative_pivots

        class TrackedFactors(LUFactors):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                live.add(self)
                events.append("factor")

        def count(matrix):
            events.append(f"count beside {len(live)}")
            return real_count(matrix)

        monkeypatch.setattr(eig, "LUFactors", TrackedFactors)
        monkeypatch.setattr(eig, "negative_pivots", count)
        limit_spectrum(forms, 6)
        delta_spectrum(forms, [0.02248, 0.05248], 14.5, 6)
        return events

    def test_no_shift_factor_lives_beside_a_count(self, forms_coarse, monkeypatch):
        # the limit counts at its top end only, and at delta = 0.02248 and
        # 0.05248 the top end's count is the pairs held below it
        assert self._factor_events(forms_coarse, monkeypatch) == [
            "factor", "count beside 0", "factor", "count beside 0",
            "factor", "count beside 0"]

    def test_a_lost_copy_is_harvested_on_a_fresh_shift_factor(self, forms_coarse, monkeypatch):
        # planted: every ARPACK run keeps only the real parts of its vectors,
        # so at delta = 0.02248 a double that comes as x +- iy loses a copy.
        # The count at the top end finds it missing, the bottom end is
        # counted too, and the harvest goes back for the copy on a fresh
        # shift factor, made after the counts
        real_arnoldi = eig.shift_invert_arnoldi

        def real_parts(*args, **kwargs):
            thetas, vecs = real_arnoldi(*args, **kwargs)
            return thetas, vecs.real.astype(vecs.dtype)

        monkeypatch.setattr(eig, "shift_invert_arnoldi", real_parts)
        assert self._factor_events(forms_coarse, monkeypatch) == [
            "factor", "count beside 0",
            "factor", "count beside 0", "count beside 0", "factor",
            "factor", "count beside 0"]

    def test_real_harvest_takes_both_parts_of_a_complex_pair(self, forms_coarse, monkeypatch):
        # ARPACK can return the two copies of a real double as one complex
        # pair x +- iy, whose real parts are one vector: x and y are both
        # eigenvectors, and the one run gives both copies.  Planted on the
        # double 14.165204, which the run returns as two real columns
        delta, target = 0.02998, 14.5
        real_arnoldi, calls = eig.shift_invert_arnoldi, []

        def paired(*args, **kwargs):
            thetas, vecs = real_arnoldi(*args, **kwargs)
            if not calls:
                lams = target + 1.0 / thetas.real
                i, j = [k for k in range(len(lams)) if abs(lams[k] - 14.165204) < 1e-5]
                x, y = vecs[:, i].real, vecs[:, j].real
                vecs = vecs.copy()
                vecs[:, i], vecs[:, j] = x + 1j * y, x - 1j * y
            calls.append(len(thetas))
            return thetas, vecs

        monkeypatch.setattr(eig, "shift_invert_arnoldi", paired)
        (pairs,) = delta_spectrum(forms_coarse, [delta], target, 6)
        b = forms_coarse.M_D + delta * forms_coarse.M_S
        dense = scipy.linalg.eigh(forms_coarse.A.toarray(), b.toarray(), eigvals_only=True)
        _assert_same_multiset(pairs, _nearest(dense, target, 6), rel=1e-10)
        assert sum(abs(p.lam - 14.165204) < 1e-5 for p in pairs) == 2
        assert len(calls) == 1

    def test_real_delta_keeps_what_arnoldi_converged(self, forms_coarse, monkeypatch):
        # a run that stops short gives up its converged pairs, and the harvest
        # keeps them at any delta: at real delta the count finds the rest, at
        # complex delta the next harvest run and the verification rounds do
        real_arnoldi, failed = eig.shift_invert_arnoldi, []

        def short(*args, **kwargs):
            thetas, vecs = real_arnoldi(*args, **kwargs)
            if failed:
                return thetas, vecs
            failed.append(len(thetas))
            raise ArnoldiError(2, len(thetas), thetas[:2], vecs[:, :2])

        monkeypatch.setattr(eig, "shift_invert_arnoldi", short)
        delta = 0.05248
        (pairs,) = delta_spectrum(forms_coarse, [delta], 14.5, 6)
        b = forms_coarse.M_D + delta * forms_coarse.M_S
        dense = scipy.linalg.eigh(forms_coarse.A.toarray(), b.toarray(), eigvals_only=True)
        _assert_same_multiset(pairs, _nearest(dense, 14.5, 6), rel=1e-10)
        failed.clear()
        (pairs,) = delta_spectrum(forms_coarse, [delta + 0.01j], 14.5, 6)
        dense = scipy.linalg.eigvals(forms_coarse.A.toarray(),
                                     (b + 0.01j * forms_coarse.M_S).toarray())
        _assert_same_multiset(pairs, _nearest(dense, 14.5, 6), rel=1e-10)
        assert failed

    def test_short_verification_round_exits_2(self, tmp_path, monkeypatch):
        # a verification round that stops short shows nothing about the
        # pairs it misses: it is an error, never a round that found nothing
        mesh_path = str(tmp_path / "disk4.txt")
        save_mesh(generate_disk_in_disk(2.0, 4, 4), mesh_path)
        real_arnoldi, held = eig.shift_invert_arnoldi, []

        def short_once_held(apply_op, n, k, **kwargs):
            if held:
                raise ArnoldiError(0, k, np.empty(0), np.empty((n, 0)))
            held.append(k)
            return real_arnoldi(apply_op, n, k, **kwargs)

        monkeypatch.setattr(eig, "shift_invert_arnoldi", short_once_held)
        err = io.StringIO()
        code = main(["eig", "sweep", "--mesh", mesh_path, "--deltas", "0.05+0.01j",
                     "--target", "14.5", "--count", "3", "--out", str(tmp_path / "sweep.csv")],
                    out=io.StringIO(), err=err)
        assert code == 2
        assert json.loads(err.getvalue())["error"] == "ArnoldiError"
        assert held == [7]


def _dense_finite(forms, delta):
    """The finite eigenvalues of the dense pencil (A, M_D + delta M_S) but
    the constant mode's 0, all real: QZ (`scipy.linalg.eigvals`) on the
    pencil scaled by the congruence diag(M)^(-1/2)."""
    scale = scipy.sparse.diags(1.0 / np.sqrt(forms.M.diagonal()))
    w = scipy.linalg.eigvals((scale @ forms.A @ scale).toarray(),
                             (scale @ (forms.M_D + delta * forms.M_S) @ scale).toarray())
    w = w[np.isfinite(w)]
    assert np.all(np.abs(w.imag) <= 1e-8 * np.maximum(1.0, np.abs(w)))
    return np.delete(w.real, np.argmin(np.abs(w)))


def _assert_counts(forms, delta, finite, xs):
    """negative_pivots(A - x B_delta) and eig._counted at each x against the
    count of the dense eigenvalues `finite` (the constant mode left out)."""
    pencil = eig._Pencil(forms)
    b = forms.M_D + delta * forms.M_S
    mass = b.sum()
    for x in xs:
        assert np.abs(finite - x).min() > 1e-6 * max(1.0, abs(x))   # a well-posed count
        inside = int(np.count_nonzero((finite > 0.0) & (finite < x) if x > 0.0
                                      else (finite < 0.0) & (finite > x)))
        got = negative_pivots((forms.A - x * b).tocsc())
        assert got == inside + (x * mass > 0.0), (x, got, inside)
        assert eig._counted(pencil, delta, x) == (inside if x > 0.0 else -inside)


class TestInertiaCount:
    """The count of eigenvalues between 0 and x is exactly the dense one, at
    delta on both sides of the mass degeneracy -area(D)/area(S) (-1/3 on
    the disk, -0.24 on the square) and x on both sides of 0."""

    @pytest.mark.parametrize("delta", [0.0, 0.05, -0.05, -0.2, -0.5, -2.0])
    @pytest.mark.parametrize("shape, rings", [
        ("disk", 4), ("square", 4), ("disk", 8), ("square", 8)])
    def test_count_is_the_dense_count(self, forms_by_mesh, shape, rings, delta):
        forms = forms_by_mesh(shape, rings)
        _assert_counts(forms, delta, _dense_finite(forms, delta),
                       (-30.0, -0.7, -0.3, -0.01, 0.01, 10.0, 30.0))

    @pytest.mark.slow
    @pytest.mark.parametrize("delta", [0.05, 0.2])
    @pytest.mark.parametrize("shape", ["disk", "square"])
    def test_16_ring_count_is_the_dense_count(self, forms_by_mesh, shape, delta):
        # B_delta is definite here, so the dense oracle is eigh
        forms = forms_by_mesh(shape, 16)
        scale = scipy.sparse.diags(1.0 / np.sqrt(forms.M.diagonal()))
        w = scipy.linalg.eigh((scale @ forms.A @ scale).toarray(),
                              (scale @ (forms.M_D + delta * forms.M_S) @ scale).toarray(),
                              eigvals_only=True)
        _assert_counts(forms, delta, w[1:], (10.0, 30.0))

def test_negative_real_delta_vectors_finite(forms_coarse):
    # B = M_D - 0.3 M_S is indefinite: v^T B v < 0 for the eigenvector of -0.39967
    delta = -0.3
    (pairs,) = delta_spectrum(forms_coarse, [delta], 14.5, 6)
    b = forms_coarse.M_D + delta * forms_coarse.M_S
    dense = scipy.linalg.eigvals(forms_coarse.A.toarray(), b.toarray())
    _assert_same_multiset(pairs, _nearest(dense, 14.5, 6))
    assert any(abs(p.lam + 0.39967) < 1e-5 for p in pairs)
    for p in pairs:
        assert np.all(np.isfinite(p.vector))
        av, bv = forms_coarse.A @ p.vector, b @ p.vector
        res = np.linalg.norm(av - p.lam * bv) / (np.linalg.norm(av) + abs(p.lam) * np.linalg.norm(bv))
        assert res <= 1e-8
        assert abs(abs(p.vector @ bv) - 1.0) < 1e-8


class TestDiscreteK0:
    def test_reciprocal_spectrum(self):
        forms = assemble(generate_disk_in_disk(2.0, 4, 4))
        rho, _ = discrete_K0(forms)
        pairs = limit_spectrum(forms, 5)
        for p in pairs:
            recips = 1.0 / rho[rho > 1e-12]
            assert np.min(np.abs(recips - p.lam)) < 1e-7 * abs(p.lam)

    def test_psd(self):
        forms = assemble(generate_disk_in_disk(2.0, 4, 4))
        rho, k0 = discrete_K0(forms)
        assert rho[-1] >= -1e-10
        assert np.abs(k0 - k0.T).max() < 1e-14

    def test_kernel_dimension(self):
        mesh = generate_disk_in_disk(2.0, 4, 4)
        forms = assemble(mesh)
        rho, _ = discrete_K0(forms)
        core_nodes = np.unique(mesh.triangles[mesh.regions == INCLUSION])
        expected_kernel = mesh.n_vertices - len(core_nodes)
        assert int(np.sum(np.abs(rho) < 1e-10)) == expected_kernel

    def test_size_limit(self):
        forms = assemble(generate_disk_in_disk(2.0, 16, 16))
        with pytest.raises(EigError):
            discrete_K0(forms)

    @pytest.mark.parametrize("name", ["A", "M"])
    def test_rejects_asymmetric(self, name):
        forms = assemble(generate_disk_in_disk(2.0, 4, 4))
        mat = getattr(forms, name).tolil()
        mat[0, 1] += 1e-6
        setattr(forms, name, mat.tocsr())
        with pytest.raises(EigError, match="not symmetric"):
            discrete_K0(forms)


class TestTracking:
    def test_constant_path(self, forms_coarse, limit_coarse):
        lam0 = limit_coarse[0].lam
        br = track_branch(forms_coarse, lam0, [0.0, 0.0, 0.0])
        assert np.allclose(br.lambda_samples, br.lambda_samples[0])

    def test_real_path_monotone_real(self, forms_coarse):
        oracle = radial_limit_oracle()
        lam0 = min((p.lam for p in limit_spectrum(forms_coarse, 6)),
                   key=lambda l: abs(l - oracle))
        path = [0.0, 0.025, 0.05, 0.075, 0.1]
        br = track_branch(forms_coarse, lam0, path)
        lams = np.real(br.lambda_samples)
        assert np.all(np.abs(np.imag(br.lambda_samples)) <= 1e-9 * (1 + np.abs(lams)))
        diffs = np.diff(lams)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_circle_closes(self, forms_coarse):
        oracle = radial_limit_oracle()
        lam0 = min((p.lam for p in limit_spectrum(forms_coarse, 6)),
                   key=lambda l: abs(l - oracle))
        r = 0.05
        ramp = [0.0, r / 4, r / 2, 3 * r / 4]
        circle = [r * np.exp(2j * np.pi * j / 16) for j in range(17)]
        br = track_branch(forms_coarse, lam0, ramp + circle)
        assert abs(br.lambda_samples[-1] - br.lambda_samples[len(ramp)]) \
            <= 1e-9 * (1 + abs(br.lambda_samples[-1]))

    def test_path_must_start_at_zero(self, forms_coarse):
        with pytest.raises(EigError):
            track_branch(forms_coarse, 14.0, [0.1, 0.2])


def _dense_branch_oracle(forms, lambda0, delta, steps=20):
    """lambda at real delta by dense continuation: scipy eigh at `steps`
    equal steps, started at delta = 1e-6 nearest lambda0 and matched by the
    largest bilinear overlap |v_prev^T B v|."""
    a, md, ms = forms.A.toarray(), forms.M_D.toarray(), forms.M_S.toarray()
    w, x = scipy.linalg.eigh(a, md + 1e-6 * ms)
    j = int(np.argmin(np.abs(w - lambda0)))
    v = x[:, j]
    for k in range(1, steps + 1):
        b = md + (delta * k / steps) * ms
        w, x = scipy.linalg.eigh(a, b)
        j = int(np.argmax(np.abs(v @ b @ x)))
        v = x[:, j]
    return w[j]


def _track_one_step(forms, lambda0, delta):
    return track_branch(forms, lambda0, [0.0, delta]).lambda_samples[-1]


@pytest.mark.parametrize("tracker", [_track_one_step], ids=["track_branch"])
@pytest.mark.parametrize("shape, lambda0, delta, expected", [
    ("square", 15.005677, 0.1, 7.95535675),
    ("disk", 15.005677, 0.2, 7.30328311),
    ("square", 14.841263, 0.1, 10.18365684),
])
def test_coarse_step_stays_on_branch(forms_by_mesh, tracker, shape, lambda0, delta, expected):
    # one step from 0 to delta: the branch must not land on a neighbour
    # (a 5-pair harvest at every step returned 10.183657 and 9.306515 for
    # 15.005677, and a cluster matched by distance alone 12.897483 for
    # 14.841263)
    forms = forms_by_mesh(shape, 8)
    oracle = _dense_branch_oracle(forms, lambda0, delta)
    assert abs(oracle - expected) < 1e-7
    try:
        lam = tracker(forms, lambda0, delta)
    except TrackingAmbiguityError:
        return
    assert abs(lam - oracle) <= 1e-8 * abs(oracle)


@pytest.mark.parametrize("tracker", [_track_one_step], ids=["track_branch"])
def test_lost_span_names_delta_and_overlap(forms_by_mesh, tracker):
    # the one step from 14.841263 to 0.1 on the 8-ring square lands on a
    # neighbour, and the tracker says so
    with pytest.raises(TrackingAmbiguityError,
                       match=r"delta=0\.1: the tracked set lost its span \(overlap \d"):
        tracker(forms_by_mesh("square", 8), 14.841263, 0.1)


def _first_order(forms, lam_nominal, multiplicity):
    """(lambda_0, first-order coefficients) of the limit eigenvalue near
    lam_nominal from scipy's dense eig: -lambda_0 times the eigenvalues of
    V0^T M_S V0 on an M_D-orthonormal basis V0 of its eigenspace, which for
    a simple eigenvalue is -lambda_0 v0^T M_S v0 / v0^T M_D v0."""
    w, x = scipy.linalg.eig(forms.A.toarray(), forms.M_D.toarray())
    close = np.isfinite(w) & (np.abs(w - lam_nominal) <= 1e-6 * lam_nominal)
    assert np.count_nonzero(close) == multiplicity
    lam0 = float(np.mean(w[close].real))
    v0 = x[:, close].real
    chol = np.linalg.cholesky(v0.T @ (forms.M_D @ v0))
    v0 = np.linalg.solve(chol, v0.T).T
    return lam0, -lam0 * np.linalg.eigvalsh(v0.T @ (forms.M_S @ v0))


@pytest.mark.parametrize("shape, lam_nominal, multiplicity, a1_expected", [
    pytest.param("disk", 31.173239, 2, -74.0293, id="disk-31.173239--74.0293"),
    pytest.param("square", 31.299336, 2, -92.9915, id="square-31.299336--92.9915"),
    pytest.param("disk", 15.005677, 1, -46.4383, id="disk-15.005677--46.4383"),
    pytest.param("square", 15.005677, 1, -63.8655, id="square-15.005677--63.8655"),
])
def test_double_branch_first_order(forms_by_mesh, shape, lam_nominal, multiplicity,
                                   a1_expected):
    # a symmetry-protected double stays double and a simple branch stays
    # simple: the circle closes, and the DFT a_1 equals the first-order
    # coefficients of the dense eigenspace
    forms = forms_by_mesh(shape, 8)
    lam0, first_order = _first_order(forms, lam_nominal, multiplicity)
    assert np.abs(first_order - a1_expected).max() < 1e-4 * abs(a1_expected)

    radius = 0.01
    path, start = circle_path(radius, 16)
    circle = np.asarray(track_branch(forms, lam_nominal, path).lambda_samples[start:])
    assert abs(circle[-1] - circle[0]) <= 1e-9 * (1.0 + abs(circle[0]))
    a = taylor_from_circle(circle, radius, 1)
    assert abs(a[0] - lam0) <= 1e-9 * lam0
    assert np.abs(a[1] - first_order).max() <= 1e-6 * abs(a[1])


def test_split_double_reports_group_mean(forms_by_mesh):
    # weight 2 on the shell triangles above y = 0 keeps the limit pencil
    # (A, M_D), and its double 31.173239, but splits the double for delta
    # != 0: the branch is the mean of both copies, here from scipy's dense
    # eigh at 10 steps between path points, started at delta = 1e-6 on the
    # two eigenvalues nearest 31.173239 and matched by the largest bilinear
    # overlap |v_prev^T B v|
    forms = forms_by_mesh("disk", 8)
    mesh = forms.mesh
    above = mesh.vertices[mesh.triangles][:, :, 1].mean(axis=1) > 0.0
    upper = dataclasses.replace(mesh, regions=np.where(
        (mesh.regions == SHELL) & above, SHELL, INCLUSION))
    split = AssembledForms(mesh, forms.div, forms.A_D, forms.M_D, forms.A_S,
                           forms.M_S + assemble(upper).M_S)
    path = [0.0, 0.0025, 0.005, 0.0075, 0.01]

    a, md, ms = split.A.toarray(), split.M_D.toarray(), split.M_S.toarray()
    w, x = scipy.linalg.eigh(a, md + 1e-6 * ms)
    vs = x[:, np.argsort(np.abs(w - 31.173239))[:2]]
    oracle, start = [], 1e-6
    for delta in path[1:]:
        for k in range(1, 11):
            b = md + (start + (delta - start) * k / 10) * ms
            w, x = scipy.linalg.eigh(a, b)
            pick = [int(np.argmax(np.abs(v @ b @ x))) for v in vs.T]
            vs = x[:, pick]
        oracle.append(w[pick])
        start = delta
    assert np.abs(np.diff(oracle, axis=1)).min() > 3e-4     # the double has split
    means = np.mean(oracle, axis=1)
    assert np.abs(means - [30.8837780566, 30.5686788730, 30.2248934514,
                           29.8492993289]).max() < 1e-9

    branch = track_branch(split, 31.173239, path)
    lams = branch.lambda_samples
    assert abs(lams[0] - 31.173239) < 1e-6
    assert np.abs(np.asarray(lams[1:]) - means).max() <= 1e-9 * means.max()
    copies = np.sort(np.real(branch.copies[1:]), axis=1)
    assert np.abs(copies - np.sort(oracle, axis=1)).max() <= 1e-9 * means.max()


def test_simple_branch_shell_sensitivity(forms_by_mesh):
    # the limit eigenvalue does not see the shell's shape, its delta slope does
    lam_disk, a1_disk = _first_order(forms_by_mesh("disk", 8), 15.005677, 1)
    lam_square, a1_square = _first_order(forms_by_mesh("square", 8), 15.005677, 1)
    assert abs(lam_disk - lam_square) <= 1e-6 * lam_disk
    assert a1_square[0] / a1_disk[0] > 1.3     # -63.87 against -46.44


# the radial limit mode near j'_{0,1}^2 = 14.681971 at R = L = 2, per ring count
_RADIAL_MODE = {8: 15.005677, 16: 14.762803, 32: 14.702182}


@pytest.fixture(scope="module")
def ingested_forms(tmp_path_factory):
    """Per (shape, rings): the forms and region areas area_h(D), area_h(S) of
    a mesh written to a file and read back, as the command line ingests it."""
    cache = {}

    def get(shape, rings):
        if (shape, rings) not in cache:
            path = str(tmp_path_factory.mktemp("shell_law") / f"{shape}{rings}.txt")
            save_mesh(_GENERATORS[shape](2.0, rings, rings), path)
            mesh = load_mesh(path)
            cache[shape, rings] = (assemble(mesh), mesh.region_area(INCLUSION),
                                   mesh.region_area(SHELL))
        return cache[shape, rings]
    return get


@pytest.fixture(scope="module")
def radial_first_order(ingested_forms):
    """Per (shape, rings): the first-order coefficient
    a_1 = -lambda_0 v^T M_S v / v^T M_D v of the radial limit mode, with
    lambda_0 and the discrete region areas area_h(D), area_h(S)."""
    cache = {}

    def get(shape, rings):
        if (shape, rings) not in cache:
            forms, inclusion, shell = ingested_forms(shape, rings)
            ((pair,),) = delta_spectrum(forms, [0.0], _RADIAL_MODE[rings], 1)
            v, lam0 = pair.vector, pair.lam
            assert abs(lam0 - _RADIAL_MODE[rings]) <= 1e-6 * lam0
            a1 = -lam0 * (v @ (forms.M_S @ v)) / (v @ (forms.M_D @ v))
            cache[shape, rings] = (a1, lam0, inclusion, shell)
        return cache[shape, rings]
    return get


class TestShellLaw:
    """The 2-D shell law: the radial mode's trace on the interface is
    constant, so its shell extension is that constant, a_0 does not see the
    shell and a_1 = -lambda_0 area(S) / area(D) sees it only through its
    area.  A mode whose trace is not constant has an a_0 that sees the
    shell."""

    @pytest.mark.parametrize("rings", [8, 16, 32])
    def test_a1_ratio_is_the_shell_area_ratio(self, radial_first_order, rings):
        a1_disk, _, _, shell_disk = radial_first_order("disk", rings)
        a1_square, _, _, shell_square = radial_first_order("square", rings)
        ratio, areas = a1_square / a1_disk, shell_square / shell_disk
        assert abs(ratio - areas) <= 1e-12 * areas

    @pytest.mark.parametrize("shape", ["disk", "square"])
    def test_a1_converges_to_the_law_at_second_order(self, radial_first_order, shape):
        misses = []
        for rings in (8, 16, 32):
            a1, lam0, inclusion, shell = radial_first_order(shape, rings)
            law = -lam0 * shell / inclusion
            misses.append(abs(a1 - law) / abs(law))
        for coarse, fine in zip(misses, misses[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    @pytest.mark.parametrize("rings", [8, 16])
    def test_a0_is_shared_exactly_when_the_trace_is_constant(self, ingested_forms, rings):
        # each of the first 10 limit pairs, by the spread of v over the
        # interface vertices relative to max |v|: the radial mode's is at
        # most 1e-12, every other mode's at least 1.19.  A constant-trace
        # eigenvalue is on the other shell too; any other misses all of the
        # other shell's, the nearest by 1.75e-3 (41.673255 on disk16
        # against 41.746378 on square16)
        spectra = {}
        for shape in _GENERATORS:
            forms = ingested_forms(shape, rings)[0]
            iface = forms.boundary_nodes[INTERFACE]
            spectra[shape] = [(p.lam, np.ptp(p.vector[iface]) / np.abs(p.vector).max())
                              for p in limit_spectrum(forms, 10)]
        for shape, other in (("disk", "square"), ("square", "disk")):
            others = np.array([lam for lam, _ in spectra[other]])
            constant = [lam for lam, spread in spectra[shape] if spread < 1e-9]
            assert len(constant) == 1
            assert abs(constant[0] - _RADIAL_MODE[rings]) <= 1e-6 * constant[0]
            for lam, spread in spectra[shape]:
                miss = np.abs(others - lam).min() / lam
                if spread < 1e-9:
                    assert miss <= 1e-9
                else:
                    assert spread > 1.0 and miss > 1e-3


def test_tracking_steps_reuse_no_harvest(forms_coarse, limit_coarse, monkeypatch):
    # after the start, no step harvests a spectrum, and at most one
    # factorization is alive at any time
    pencil_calls = []
    real_solve_pencil = eig._solve_pencil
    live = weakref.WeakSet()
    most_alive = []

    class CountedFactors(LUFactors):
        def __init__(self, *args, **kwargs):
            most_alive.append(len(live))
            super().__init__(*args, **kwargs)
            live.add(self)

    def counted_solve_pencil(*args, **kwargs):
        pencil_calls.append(args[1])
        return real_solve_pencil(*args, **kwargs)

    monkeypatch.setattr(eig, "_solve_pencil", counted_solve_pencil)
    monkeypatch.setattr(eig, "LUFactors", CountedFactors)
    circle, _ = circle_path(0.02, 8)
    paths = [circle, [0.0, 0.005, 0.01], [0.0, -0.01]]
    for path in paths:
        assert len(track_branch(forms_coarse, limit_coarse[0].lam, path).lambda_samples) == len(path)
    assert pencil_calls == [0.0] * len(paths)
    assert len(most_alive) >= sum(len(p) - 1 for p in paths)
    assert max(most_alive) == 0


class TestClusterTrack:
    def test_symmetric_functions_close(self, forms_coarse, limit_coarse):
        # the angular-order-1 double is one lambda-group: its power sums
        # close on the circle and expand
        oracle = m1_limit_oracle(2.0)
        pair = [p.lam for p in limit_coarse if abs(p.lam - oracle) / oracle < 0.05]
        assert len(pair) == 2
        r = 0.02
        path, start = circle_path(r, 8)
        copies = np.asarray(track_branch(forms_coarse, pair[0], path).copies[start:])
        assert copies.shape[1] == 2
        for p in (1, 2):
            s = np.sum(copies**p, axis=1)
            assert abs(s[-1] - s[0]) <= 1e-8 * (1 + abs(s[0]))
        assert abs(taylor_from_circle(copies.sum(axis=1), r, 0)[0] - sum(pair)) \
            <= 1e-6 * abs(sum(pair))
