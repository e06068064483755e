import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from enzspec.eig import (
    EigError,
    Pencil,
    cluster_track,
    delta_spectrum,
    discrete_K0,
    find_clusters,
    limit_spectrum,
    track_branch,
)
from enzspec.fem import assemble
from enzspec.linalg import bilinear_dot
from enzspec.mesh import INCLUSION, generate_disk_in_disk, generate_square_with_disk
from enzspec.specfun import cylinder_bessel


def radial_limit_oracle():
    """Smallest rotationally symmetric limit eigenvalue of the unit disk:
    the shell solution must be constant, so sqrt(lam) J_0'(sqrt(lam)) = 0."""
    lo, hi = 3.5, 4.0
    flo = cylinder_bessel(0, lo)[1]
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        fm = cylinder_bessel(0, mid)[1]
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return (0.5 * (lo + hi)) ** 2


def m1_limit_oracle(R):
    """First angular-order-1 limit eigenvalue on the disk-in-disk geometry:
    core J_1(k r), shell a r + b / r with outer Neumann data, matched at 1."""

    def f(k):
        val, dval = cylinder_bessel(1, k)
        return k * dval * (1.0 + R * R) + (R * R - 1.0) * val

    lo = 0.5
    k = None
    x = lo
    fx = f(x)
    while k is None:
        xn = x + 0.05
        fn = f(xn)
        if fx * fn < 0.0:
            a, b, fa = x, xn, fx
            while b - a > 1e-13:
                mid = 0.5 * (a + b)
                fm = f(mid)
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            k = 0.5 * (a + b)
        x, fx = xn, fn
    return k * k


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
                g = bilinear_dot(p.vector, forms_coarse.M_D @ q.vector)
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pairs = delta_spectrum(forms, 1.0, 0.8, 6)
        # first nonzero Neumann eigenvalue of the R=2 disk: (z/2)^2 with
        # z the first zero of J_1'
        lo, hi = 1.5, 2.5
        flo = cylinder_bessel(1, lo)[1]
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            fm = cylinder_bessel(1, mid)[1]
            if flo * fm <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        oracle = (0.5 * (lo + hi) / 2.0) ** 2
        best = min(abs(p.lam - oracle) / oracle for p in pairs)
        assert best < 0.02

    def test_delta_zero_matches_limit(self, forms_coarse, limit_coarse):
        pairs = delta_spectrum(forms_coarse, 0.0, limit_coarse[0].lam + 0.1, 3)
        lams = sorted(np.real(p.lam) for p in pairs)
        ref = sorted(p.lam for p in limit_coarse)[:3]
        for a, b in zip(lams, ref):
            assert abs(a - b) < 1e-9 * max(1.0, abs(b))

    def test_complex_delta(self, forms_coarse, limit_coarse):
        lam0 = limit_coarse[0].lam
        pairs = delta_spectrum(forms_coarse, 0.05 + 0.05j, lam0, 2)
        assert all(p.residual <= 1e-8 for p in pairs)
        assert any(abs(np.imag(p.lam)) > 1e-6 for p in pairs)

    def test_real_delta_reality(self, forms_coarse):
        pairs = delta_spectrum(forms_coarse, 0.1, 14.0, 3)
        for p in pairs:
            assert abs(np.imag(p.lam)) <= 1e-9 * (1.0 + abs(p.lam))

    def test_bilinear_orthonormality(self, forms_coarse):
        delta = 0.05 + 0.02j
        pairs = delta_spectrum(forms_coarse, delta, 14.0, 4)
        b = forms_coarse.mass_delta(delta)
        for i, p in enumerate(pairs):
            for j, q in enumerate(pairs):
                g = bilinear_dot(p.vector, b @ q.vector)
                assert abs(g - (1.0 if i == j else 0.0)) < 1e-8

    def test_degenerate_mass_rejected(self, forms_coarse):
        area_d = forms_coarse.mesh.region_area(INCLUSION)
        area_s = forms_coarse.mesh.triangle_areas().sum() - area_d
        with pytest.raises(EigError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                delta_spectrum(forms_coarse, -area_d / area_s, 10.0, 1)

    def test_outside_disk_warns(self, forms_coarse):
        with pytest.warns(UserWarning, match="validated disk"):
            Pencil(forms_coarse, 0.9)


_GENERATORS = {"disk": generate_disk_in_disk, "square": generate_square_with_disk}


@pytest.fixture(scope="module")
def forms_by_mesh():
    cache = {}

    def get(shape, rings):
        if (shape, rings) not in cache:
            cache[shape, rings] = assemble(_GENERATORS[shape](2.0, rings, rings))
        return cache[shape, rings]
    return get


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
        pairs = delta_spectrum(forms, delta, target, count)
    assert len(pairs) == count
    b = forms.mass_delta(delta)
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
    """Every copy of a multiple eigenvalue comes back, checked against a dense
    or an independent sparse (scipy ARPACK) solve."""

    def test_square8_real_delta_keeps_both_copies(self, forms_by_mesh):
        forms = forms_by_mesh("square", 8)
        delta = 0.05998
        pairs = delta_spectrum(forms, delta, 14.5, 6)
        dense = scipy.linalg.eigh(forms.A.toarray(), forms.mass_delta(delta).toarray(),
                                  eigvals_only=True)
        expected = _nearest(dense, 14.5, 6)
        _assert_same_multiset(pairs, expected)
        assert sum(abs(p.lam - 18.244281) < 1e-5 for p in pairs) == 2

    def test_square8_complex_delta(self, forms_by_mesh):
        forms = forms_by_mesh("square", 8)
        delta = 0.04 + 0.03j
        pairs = delta_spectrum(forms, delta, 14.5, 6)
        dense = scipy.linalg.eigvals(forms.A.toarray(), forms.mass_delta(delta).toarray())
        _assert_same_multiset(pairs, _nearest(dense, 14.5, 6))

    def test_disk32_real_delta_keeps_both_copies(self, forms_by_mesh):
        forms = forms_by_mesh("disk", 32)
        delta = 0.05248
        pairs = delta_spectrum(forms, delta, 14.5, 6)
        ref = scipy.sparse.linalg.eigsh(forms.A.tocsc(), k=10, M=forms.mass_delta(delta).tocsc(),
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


def test_negative_real_delta_vectors_finite(forms_coarse):
    # B = M_D - 0.3 M_S is indefinite: v^T B v < 0 for the eigenvector of -0.39967
    delta = -0.3
    pairs = delta_spectrum(forms_coarse, delta, 14.5, 6)
    b = forms_coarse.mass_delta(delta)
    dense = scipy.linalg.eigvals(forms_coarse.A.toarray(), b.toarray())
    _assert_same_multiset(pairs, _nearest(dense, 14.5, 6))
    assert any(abs(p.lam + 0.39967) < 1e-5 for p in pairs)
    for p in pairs:
        assert np.all(np.isfinite(p.vector))
        av, bv = forms_coarse.A @ p.vector, b @ p.vector
        res = np.linalg.norm(av - p.lam * bv) / (np.linalg.norm(av) + abs(p.lam) * np.linalg.norm(bv))
        assert res <= 1e-8
        assert abs(abs(bilinear_dot(p.vector, bv)) - 1.0) < 1e-8


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
            discrete_K0(forms, size_limit=100)


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


class TestClusterTrack:
    def test_symmetric_functions_close(self, forms_coarse, limit_coarse):
        oracle = m1_limit_oracle(2.0)
        pair = [p.lam for p in limit_coarse if abs(p.lam - oracle) / oracle < 0.05]
        assert len(pair) == 2
        r = 0.02
        circle = [r * np.exp(2j * np.pi * j / 8) for j in range(9)]
        _, sets, s = cluster_track(forms_coarse, pair, circle)
        for p in (1, 2):
            assert abs(s[p][-1] - s[p][0]) <= 1e-8 * (1 + abs(s[p][0]))
        assert len(sets[0]) == 2
