import math

import numpy as np
import pytest

from enzspec import cascade as cascade_module
from enzspec.cascade import (
    Cascade,
    CascadeError,
    DrivingField,
    direct_projection,
    load_field,
    perp_gradient_field,
    save_field,
    series_vs_direct,
    solve_psi,
)
from enzspec.fem import assemble, interpolate, norms, solve_neumann
from enzspec.linalg import LUFactors
from enzspec.mesh import (
    INCLUSION,
    generate_disk_in_disk,
    generate_square_with_disk,
)


@pytest.fixture(scope="module")
def cascade_ws():
    return Cascade(generate_disk_in_disk(2.0, 8, 8))


def constant_field(cascade, vec):
    nt = cascade.mesh.n_triangles
    return np.tile(np.asarray(vec, dtype=float), (nt, 1))


def tangential_field(cascade):
    # rotated gradient of a radial stream function: tangential to every
    # circle r = const, with constant stream on both boundary rings
    s = interpolate(cascade.mesh, lambda x, y: x * x + y * y).values
    return perp_gradient_field(cascade.forms, s)


class TestSolvePsi:
    def test_annulus_energy(self):
        mesh = generate_disk_in_disk(2.0, 16, 16)
        _, energy = solve_psi(mesh)
        exact = 2.0 * math.pi / math.log(2.0)
        assert abs(energy - exact) / exact < 0.01

    def test_range_and_support(self, cascade_ws):
        psi = cascade_ws.psi.values
        assert psi.min() >= -1e-12 and psi.max() <= 1.0 + 1e-12
        core = np.unique(cascade_ws.mesh.triangles[cascade_ws.mesh.regions == INCLUSION])
        assert np.abs(psi[core]).max() == 0.0

    def test_square_energy_convergent(self):
        e1 = solve_psi(generate_square_with_disk(2.0, 8, 8))[1]
        e2 = solve_psi(generate_square_with_disk(2.0, 16, 16))[1]
        e3 = solve_psi(generate_square_with_disk(2.0, 32, 32))[1]
        assert e1 > 0 and e2 > 0
        assert abs(e3 - e2) < abs(e2 - e1)


class TestDrivingField:
    def test_perp_gradient_is_divergence_free(self, cascade_ws):
        rng = np.random.default_rng(2)
        s = rng.standard_normal(cascade_ws.mesh.n_vertices)
        f = perp_gradient_field(cascade_ws.forms, s)
        DrivingField([f]).validate(cascade_ws.forms)

    def test_constant_field_valid(self, cascade_ws):
        DrivingField([constant_field(cascade_ws, [1.0, 0.0])]).validate(cascade_ws.forms)

    def test_non_divergence_free_rejected(self, cascade_ws):
        f = np.array(cascade_ws.mesh.vertices[cascade_ws.mesh.triangles].mean(axis=1))
        with pytest.raises(CascadeError, match="divergence"):
            DrivingField([f]).validate(cascade_ws.forms)

    def test_file_round_trip(self, cascade_ws, tmp_path):
        df = DrivingField([constant_field(cascade_ws, [1.0, 0.5]),
                           constant_field(cascade_ws, [0.0, -2.0])])
        path = tmp_path / "f.txt"
        save_field(df, str(path))
        back = load_field(str(path), cascade_ws.forms)
        assert len(back.fields) == 2
        for a, b in zip(df.fields, back.fields):
            assert np.array_equal(a, b)


class TestBase:
    def test_tangential_field_trivial(self, cascade_ws):
        state = cascade_ws.base(tangential_field(cascade_ws))
        assert np.abs(state.h_list[0]).max() < 1e-10
        assert abs(state.c_list[0]) < 1e-12

    def test_constant_field_interior_linear(self, cascade_ws):
        state = cascade_ws.base(constant_field(cascade_ws, [1.0, 0.0]))
        h0 = state.h_list[0]
        # the correction cancels the constant field inside: grad h = -F
        core = cascade_ws.sub_d
        exact = -core.mesh.vertices[:, 0]
        m1 = cascade_ws.forms_d.M @ np.ones(core.mesh.n_vertices)
        exact = exact - (m1 @ exact) / m1.sum()
        assert np.abs(core.restrict(h0) - exact).max() < 1e-9
        assert abs(state.c_list[0]) < 1e-10

    def test_outer_flux_cancelled(self, cascade_ws):
        f0 = constant_field(cascade_ws, [1.0, 0.0])
        state = cascade_ws.base(f0)
        assert abs(cascade_ws.outer_flux(state.h_list[0], f0)) < 1e-10


class TestSteps:
    def test_zero_cascade(self, cascade_ws):
        driving = DrivingField([tangential_field(cascade_ws)])
        state = cascade_ws.run(driving, 4)
        for h in state.h_list:
            assert np.abs(h).max() < 1e-10
        for c in state.c_list:
            assert abs(c) < 1e-12

    def test_flux_normalized_every_order(self, cascade_ws):
        driving = DrivingField([constant_field(cascade_ws, [1.0, 0.0])])
        state = cascade_ws.run(driving, 4)
        zero = np.zeros_like(driving.fields[0])
        for k, h in enumerate(state.h_list):
            fk = driving.coefficient(k) if k == 0 else zero
            assert abs(cascade_ws.outer_flux(h, fk)) < 1e-8

    def test_inclusion_mean_zero(self, cascade_ws):
        driving = DrivingField([constant_field(cascade_ws, [0.3, 0.7])])
        state = cascade_ws.run(driving, 3)
        md1 = cascade_ws.forms.M_D @ np.ones(cascade_ws.mesh.n_vertices)
        for h in state.h_list[1:]:
            assert abs(md1 @ h) < 1e-10

    def test_growth_ratio_finite(self, cascade_ws):
        driving = DrivingField([constant_field(cascade_ws, [1.0, 0.0])])
        state = cascade_ws.run(driving, 5)
        rho = cascade_ws.growth_ratio(state)
        assert 0.0 < rho < 50.0


class TestDirectProjection:
    def test_rejects_delta_zero(self, cascade_ws):
        with pytest.raises(CascadeError):
            direct_projection(cascade_ws, constant_field(cascade_ws, [1.0, 0.0]), 0.0)

    def test_tangential_gives_zero(self, cascade_ws):
        f = tangential_field(cascade_ws)
        for delta in (1.0, 0.05, 0.1 + 0.05j):
            h = direct_projection(cascade_ws, f, delta)
            assert np.abs(h.values).max() < 1e-10

    def test_delta_one_consistency(self, cascade_ws):
        # at delta = 1 the weighting is trivial; the solve's internal
        # residual checks certify the classical projection
        h = direct_projection(cascade_ws, constant_field(cascade_ws, [1.0, 0.0]), 1.0)
        outer = cascade_ws.mesh.boundary_vertices(1)
        assert np.abs(h.values[outer] - h.values[outer[0]]).max() < 1e-10

    def test_complex_delta_runs(self, cascade_ws):
        h = direct_projection(cascade_ws, constant_field(cascade_ws, [1.0, 0.0]),
                              0.05 + 0.02j)
        assert np.iscomplexobj(h.values)


class TestSeriesVsDirect:
    def test_geometric_decay(self, cascade_ws):
        driving = DrivingField([constant_field(cascade_ws, [1.0, 0.0])])
        errs = series_vs_direct(cascade_ws, driving, 0.05, 6)
        for k in range(5):
            assert errs[k + 1] / errs[k] <= 0.5
        assert errs[6] < 1e-5

    def test_doubling_delta_doubles_ratio(self, cascade_ws):
        driving = DrivingField([constant_field(cascade_ws, [1.0, 0.0])])
        state = cascade_ws.run(driving, 6)
        e1 = series_vs_direct(cascade_ws, driving, 0.05, 6, state=state)
        e2 = series_vs_direct(cascade_ws, driving, 0.10, 6, state=state)
        r1 = e1[4] / e1[3]
        r2 = e2[4] / e2[3]
        assert abs(r2 / r1 - 2.0) < 0.4


class TestFactorReuse:
    """Every order solves the same two operators: a run factors each once
    and drops both factors when it returns."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"factors": 0, "neumann": 0}
        init, neumann = LUFactors.__init__, cascade_module.solve_neumann

        def counting_init(self, *args, **kwargs):
            counts["factors"] += 1
            init(self, *args, **kwargs)

        def counting_neumann(*args, **kwargs):
            counts["neumann"] += 1
            return neumann(*args, **kwargs)

        monkeypatch.setattr(LUFactors, "__init__", counting_init)
        monkeypatch.setattr(cascade_module, "solve_neumann", counting_neumann)
        return counts

    def test_two_factors_per_run(self, cascade_ws, counts):
        driving = DrivingField([constant_field(cascade_ws, [1.0, 0.0])])
        cascade_ws.run(driving, 6)
        assert counts == {"factors": 2, "neumann": 7}
        cascade_ws.run(driving, 6)     # released: the next run factors again
        assert counts == {"factors": 4, "neumann": 14}

    def test_three_factors_per_cascade_command(self, counts, monkeypatch):
        # interior Neumann, shell Dirichlet (shared by Psi), direct projection
        cascade = Cascade(generate_disk_in_disk(2.0, 8, 8))
        assert counts["factors"] == 0       # Psi is solved on first use
        driving = DrivingField([constant_field(cascade, [0.6, 0.8])])
        state = cascade.run(driving, 6)
        assert counts["factors"] == 2
        direct = cascade_module.direct_projection

        def checked_direct(ws, *args):
            # no cascade factor is alive while the direct projection runs
            assert ws.forms_d._factors is None and ws.forms_s._factors is None
            return direct(ws, *args)

        monkeypatch.setattr(cascade_module, "direct_projection", checked_direct)
        series_vs_direct(cascade, driving, 0.05, 6, state=state)
        assert counts["factors"] == 3
        assert cascade.psi_energy == solve_psi(cascade.mesh)[1]

    def test_factors_released_on_error(self, cascade_ws, counts, monkeypatch):
        def broken(*args):
            raise CascadeError("step failed")

        monkeypatch.setattr(Cascade, "step", broken)
        with pytest.raises(CascadeError):
            cascade_ws.run(DrivingField([constant_field(cascade_ws, [1.0, 0.0])]), 3)
        assert counts["factors"] == 2
        load = np.zeros(cascade_ws.forms_d.mesh.n_vertices)
        solve_neumann(cascade_ws.forms_d, load)
        assert counts["factors"] == 3  # no cached factor survived the error

    def test_psi_factor_released_on_error(self, counts, monkeypatch):
        # Psi is solved inside the failing run and shares its shell factor
        cascade = Cascade(generate_disk_in_disk(2.0, 8, 8))

        def broken(*args):
            raise CascadeError("step failed")

        monkeypatch.setattr(Cascade, "step", broken)
        with pytest.raises(CascadeError):
            cascade.run(DrivingField([constant_field(cascade, [1.0, 0.0])]), 3)
        assert counts["factors"] == 2
        assert cascade.forms_d._factors is None and cascade.forms_s._factors is None
        assert cascade.psi_energy > 0.0
        assert counts["factors"] == 2  # Psi was kept; its factor was not
