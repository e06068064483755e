import math

import numpy as np
import pytest

from enzspec.specfun import (
    HarmonicIndex,
    SpecFunError,
    bessel_zeros,
    spherical_bessel,
    spherical_bessel_complex,
    spherical_neumann_complex,
)
from sphere_fields import (
    SurfacePoint,
    _harmonic_frame,
    first_zero_oracle,
    real_spherical_harmonic,
    sphere_quadrature,
)


def j1_closed(x):
    return math.sin(x) / x**2 - math.cos(x) / x


def bisect(f, lo, hi, tol=1e-14):
    flo = f(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


class TestSphericalBessel:
    def test_j0_at_pi(self):
        val, dval = spherical_bessel(0, math.pi)
        assert abs(val) < 1e-14
        assert abs(dval - (-1.0 / math.pi)) < 1e-14

    def test_j1_small_argument(self):
        for x in (1e-3, 1e-2, 0.05):
            val, _ = spherical_bessel(1, x)
            # j_1(x)/x = 1/3 - x^2/30 + ...
            assert abs(val / x - 1.0 / 3.0) < x * x / 20.0

    def test_j1_first_zero(self):
        # oracle: bisection on the closed-form j_1
        z = bisect(j1_closed, 4.0, 5.0)
        assert abs(z - 4.493409457909064) < 1e-12
        val, dval = spherical_bessel(1, z)
        assert abs(val) < 1e-13
        assert abs(dval) > 0.01

    def test_closed_forms_low_order(self):
        for x in (0.3, 1.7, 9.2, 41.0):
            j0 = math.sin(x) / x
            j1 = j1_closed(x)
            j2 = (3.0 / x**2 - 1.0) * math.sin(x) / x - 3.0 * math.cos(x) / x**2
            assert abs(spherical_bessel(0, x)[0] - j0) < 1e-13 * max(1, abs(j0))
            assert abs(spherical_bessel(1, x)[0] - j1) < 1e-13
            assert abs(spherical_bessel(2, x)[0] - j2) < 1e-13

    def test_high_order_small_argument(self):
        # order well above the argument; compare with the ascending series
        n, x = 12, 3.0
        dfact = 1.0
        for i in range(1, 2 * n + 2, 2):
            dfact *= i
        term = x**n / dfact
        ref = 0.0
        for k in range(0, 40):
            ref += term
            term *= -x * x / (2.0 * (k + 1) * (2.0 * (n + k + 1) + 1.0))
        val, _ = spherical_bessel(n, x)
        assert abs(val - ref) < 1e-12 * abs(ref)

    def test_ode_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(0, 15))
            x = float(rng.uniform(0.5, 60.0))
            j, jp = spherical_bessel(n, x)
            # j'' from the ODE-independent recurrence route:
            # j_n' = j_{n-1} - (n+1)/x j_n and j_{n-1}' = j_{n-2} - n/x j_{n-1}
            if n == 0:
                jm1 = math.cos(x) / x
                jm1p = -math.sin(x) / x - math.cos(x) / x**2
            else:
                jm1 = spherical_bessel(n - 1, x)[0]
                jm1p = spherical_bessel(n - 1, x)[1]
            jpp = jm1p + (n + 1.0) / x**2 * j - (n + 1.0) / x * jp
            res = jpp + 2.0 / x * jp + (1.0 - n * (n + 1.0) / x**2) * j
            assert abs(res) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(SpecFunError):
            spherical_bessel(-1, 1.0)
        with pytest.raises(SpecFunError):
            spherical_bessel(0, -1.0)
        # scipy returns NaN for a negative order; the zero scan must not
        # run on it
        with pytest.raises(SpecFunError):
            bessel_zeros(-1, 1)
        with pytest.raises(SpecFunError):
            bessel_zeros(0, 0)

    def test_x_zero_limits(self):
        assert spherical_bessel(0, 0.0) == (1.0, 0.0)
        assert spherical_bessel(1, 0.0)[1] == pytest.approx(1.0 / 3.0)
        assert spherical_bessel(5, 0.0) == (0.0, 0.0)

    def test_array_matches_scalar_calls(self):
        xs = np.array([0.0, 0.3, 2.5, 0.0, 11.0])
        for n in range(4):
            val, dval = spherical_bessel(n, xs)
            assert val.shape == dval.shape == xs.shape
            for x, v, d in zip(xs, val, dval):
                assert (v, d) == spherical_bessel(n, float(x))
        with pytest.raises(SpecFunError, match="-0.5"):
            spherical_bessel(1, np.array([1.0, -0.5]))

    def test_complex_argument_matches_real(self):
        # complex evaluation on the real axis against the real closed forms
        xs = np.array([0.4, 2.5, 11.0])
        j0 = np.sin(xs) / xs
        j1 = np.sin(xs) / xs**2 - np.cos(xs) / xs
        for n, ref, dref in [(0, j0, -j1), (1, j1, j0 - 2.0 * j1 / xs)]:
            val, dval = spherical_bessel_complex(n, xs + 0j)
            assert np.abs(val - ref).max() < 1e-14
            assert np.abs(dval - dref).max() < 1e-14

    def test_complex_closed_forms(self):
        z = np.array([0.3 + 0.2j, 1.5 + 0.3j, 4.0 - 1.0j, 9.0 + 2.5j])
        j0 = np.sin(z) / z
        y0 = -np.cos(z) / z
        j1 = np.sin(z) / z**2 - np.cos(z) / z
        y1 = -np.cos(z) / z**2 - np.sin(z) / z
        for f, ref0, ref1 in [(spherical_bessel_complex, j0, j1),
                              (spherical_neumann_complex, y0, y1)]:
            val0, dval0 = f(0, z)
            val1, _ = f(1, z)
            scale = np.maximum(1.0, np.abs(ref0))
            assert np.all(np.abs(val0 - ref0) < 1e-13 * scale)
            assert np.all(np.abs(val1 - ref1) < 1e-13 * np.maximum(1.0, np.abs(ref1)))
            assert np.all(np.abs(dval0 + ref1) < 1e-13 * np.maximum(1.0, np.abs(ref1)))

    def test_neumann_closed_form(self):
        for x in (0.7, 3.1, 12.0):
            y0 = -math.cos(x) / x
            y1 = -math.cos(x) / x**2 - math.sin(x) / x
            assert abs(spherical_neumann_complex(0, complex(x))[0] - y0) < 1e-12
            assert abs(spherical_neumann_complex(1, complex(x))[0] - y1) < 1e-12

    def test_wronskian_complex(self):
        # j_n y_{n-1} - j_{n-1} y_n = 1/z^2 and j_n y_n' - j_n' y_n = 1/z^2
        z = np.array([1.5 + 0.3j, 4.0 - 1.0j, 0.2 + 0.1j, 20.0 + 1.0j])
        for n in (1, 2, 4, 9):
            j, jp = spherical_bessel_complex(n, z)
            y, yp = spherical_neumann_complex(n, z)
            jm, _ = spherical_bessel_complex(n - 1, z)
            ym, _ = spherical_neumann_complex(n - 1, z)
            scale = np.abs(j * yp) + np.abs(jp * y)
            assert np.all(np.abs(j * ym - jm * y - 1.0 / z**2) < 1e-12 * scale)
            assert np.all(np.abs(j * yp - jp * y - 1.0 / z**2) < 1e-12 * scale)


class TestBesselZeros:
    def test_j0_zeros_are_multiples_of_pi(self):
        z = bessel_zeros(0, 5)
        ref = math.pi * np.arange(1, 6)
        assert np.max(np.abs(z - ref)) < 1e-12

    def test_j1_first_zero(self):
        z = bessel_zeros(1, 1)[0]
        oracle = bisect(j1_closed, 4.0, 5.0)
        assert abs(z - oracle) < 1e-10

    def test_increasing_and_small_residual(self):
        for n in range(0, 6):
            z = bessel_zeros(n, 4)
            assert np.all(np.diff(z) > 0)
            for k in z:
                assert abs(spherical_bessel(n, k)[0]) < 1e-12

    @pytest.mark.parametrize("n", [150, 300, 2000])
    def test_large_order_first_zero(self, n):
        # j_n underflows to exactly 0 far below its first zero; the scan
        # must not take that for a zero
        z = bessel_zeros(n, 2)
        oracle = first_zero_oracle(n)
        assert abs(z[0] - oracle) <= 1e-12 * oracle
        assert z[1] - z[0] > math.pi

    def test_interlacing(self):
        prev = bessel_zeros(0, 11)
        for n in range(1, 11):
            cur = bessel_zeros(n, 11)
            for i in range(10):
                assert prev[i] < cur[i] < prev[i + 1]
            prev = cur


class TestSphericalHarmonics:
    def test_constant_harmonic(self):
        idx = HarmonicIndex(0, 0)
        p = SurfacePoint(1.1, 2.3)
        y, g = real_spherical_harmonic(idx, p)
        assert abs(y - 1.0 / math.sqrt(4.0 * math.pi)) < 1e-14
        assert np.linalg.norm(g) < 1e-14

    def test_index_validation(self):
        with pytest.raises(SpecFunError):
            HarmonicIndex(2, 3)
        with pytest.raises(SpecFunError):
            HarmonicIndex(-1, 0)

    def test_gradient_tangency(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(-n, n + 1))
            p = SurfacePoint(float(rng.uniform(0.01, math.pi - 0.01)), float(rng.uniform(0, 2 * math.pi)))
            _, g = real_spherical_harmonic(HarmonicIndex(n, m), p)
            assert abs(np.dot(p.omega, g)) < 1e-12 * max(1.0, np.linalg.norm(g))

    def test_orthonormality(self):
        pts, wts = sphere_quadrature(24, 48)
        idxs = [HarmonicIndex(n, m) for n in range(0, 9) for m in range(-n, n + 1)]
        vals = np.array([real_spherical_harmonic(i, pts)[0] for i in idxs])
        gram = vals @ (wts[:, None] * vals.T)
        assert np.max(np.abs(gram - np.eye(len(idxs)))) < 1e-8

    def test_gradient_eigen_relation(self):
        pts, wts = sphere_quadrature(24, 48)
        for (n, m) in [(1, 0), (2, 1), (3, -2), (5, 4), (8, -8)]:
            grads = real_spherical_harmonic(HarmonicIndex(n, m), pts)[1]
            energy = float(np.sum(wts * np.sum(grads * grads, axis=1)))
            assert abs(energy - n * (n + 1.0)) < 1e-8 * n * (n + 1.0)

    def test_gradient_vs_finite_difference(self):
        eps = 1e-6
        for (n, m) in [(1, 1), (2, -1), (4, 3), (6, 0)]:
            idx = HarmonicIndex(n, m)
            p = SurfacePoint(0.9, 1.7)
            _, g = real_spherical_harmonic(idx, p)
            shifted = SurfacePoint(p.theta + np.array([eps, -eps, 0.0, 0.0]),
                                   p.phi + np.array([0.0, 0.0, eps, -eps]))
            y = real_spherical_harmonic(idx, shifted)[0]
            dth = (y[0] - y[1]) / (2 * eps)
            dph = (y[2] - y[3]) / (2 * eps)
            fd = dth * p.theta_hat + dph / math.sin(p.theta) * p.phi_hat
            assert np.linalg.norm(g - fd) < 1e-5 * max(1.0, np.linalg.norm(g))

    def test_pole_limits(self):
        # continuity of value and gradient approaching both poles
        for n in range(1, 5):
            for m in range(-n, n + 1):
                idx = HarmonicIndex(n, m)
                phi = np.tile([0.0, 0.7, 2.9], 2)
                poles = np.repeat([0.0, math.pi], 3)
                nears = np.repeat([1e-7, math.pi - 1e-7], 3)
                yp, gp = real_spherical_harmonic(idx, SurfacePoint(poles, phi))
                yn, gn = real_spherical_harmonic(idx, SurfacePoint(nears, phi))
                assert np.all(np.abs(yp - yn) < 1e-6)
                assert np.all(np.linalg.norm(gp - gn, axis=1)
                              < 1e-5 * (1.0 + np.linalg.norm(gn, axis=1)))

    def test_closed_forms(self):
        # Y[1,1] = sqrt(3/4pi) x, Y[1,-1] = sqrt(3/4pi) y, Y[2,0] and
        # Y[2,2] from their Cartesian forms; surface gradients by projecting
        # the Cartesian gradient onto the tangent plane
        rng = np.random.default_rng(23)
        theta = np.concatenate([[0.0, math.pi], rng.uniform(0.0, math.pi, 30)])
        p = SurfacePoint(theta, rng.uniform(0.0, 2 * math.pi, len(theta)))
        w = p.omega
        c1 = math.sqrt(3.0 / (4.0 * math.pi))
        c20 = math.sqrt(5.0 / (16.0 * math.pi))
        c22 = math.sqrt(15.0 / (16.0 * math.pi))
        x, y, z = w.T
        forms = [
            ((1, 1), c1 * x, c1 * np.array([1.0, 0.0, 0.0]) + 0 * w),
            ((1, -1), c1 * y, c1 * np.array([0.0, 1.0, 0.0]) + 0 * w),
            ((2, 0), c20 * (3 * z * z - 1), c20 * 6 * z[:, None] * [0.0, 0.0, 1.0]),
            ((2, 2), c22 * (x * x - y * y), c22 * 2 * np.column_stack([x, -y, 0 * z])),
        ]
        for (n, m), value, cart in forms:
            grad = cart - np.sum(cart * w, axis=1)[:, None] * w
            yv, g = real_spherical_harmonic(HarmonicIndex(n, m), p)
            assert np.abs(yv - value).max() < 1e-14
            assert np.abs(g - grad).max() < 1e-13

    def test_array_point_matches_scalar_points(self):
        rng = np.random.default_rng(31)
        theta = np.concatenate([[0.0, math.pi], rng.uniform(0.0, math.pi, 6)]).reshape(2, 4)
        phi = rng.uniform(0.0, 2 * math.pi, (2, 4))
        p = SurfacePoint(theta, phi)
        assert p.omega.shape == p.theta_hat.shape == p.phi_hat.shape == (2, 4, 3)
        for n in range(5):
            for m in range(-n, n + 1):
                y, g = real_spherical_harmonic(HarmonicIndex(n, m), p)
                assert y.shape == (2, 4) and g.shape == (2, 4, 3)
                for i in np.ndindex(2, 4):
                    ys, gs = real_spherical_harmonic(HarmonicIndex(n, m),
                                                     SurfacePoint(theta[i], phi[i]))
                    assert isinstance(ys, float) and gs.shape == (3,)
                    assert ys == y[i]
                    assert np.array_equal(gs, g[i])


class TestVectorHarmonics:
    def test_rejects_n0(self):
        with pytest.raises(SpecFunError):
            _harmonic_frame(HarmonicIndex(0, 0), SurfacePoint(1.0, 1.0))

    def test_tangency_and_orthogonality(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(-n, n + 1))
            p = SurfacePoint(float(rng.uniform(0.01, math.pi - 0.01)), float(rng.uniform(0, 2 * math.pi)))
            u, v = _harmonic_frame(HarmonicIndex(n, m), p)[1:]
            s = max(1.0, np.linalg.norm(u))
            assert abs(np.dot(p.omega, u)) < 1e-12 * s
            assert abs(np.dot(p.omega, v)) < 1e-12 * s
            assert abs(np.dot(u, v)) < 1e-12 * s * s

    def test_frame_orthonormality(self):
        pts, wts = sphere_quadrature(24, 48)
        idxs = [HarmonicIndex(n, m) for n in range(1, 5) for m in range(-n, n + 1)]
        us, vs = [], []
        for i in idxs:
            u, v = _harmonic_frame(i, pts)[1:]
            us.append(u)
            vs.append(v)
        for a, ia in enumerate(idxs):
            for b in range(a, len(idxs)):
                uu = float(np.sum(wts * np.sum(us[a] * us[b], axis=1)))
                vv = float(np.sum(wts * np.sum(vs[a] * vs[b], axis=1)))
                uv = float(np.sum(wts * np.sum(us[a] * vs[b], axis=1)))
                expect = 1.0 if a == b else 0.0
                assert abs(uu - expect) < 1e-8
                assert abs(vv - expect) < 1e-8
                assert abs(uv) < 1e-8
