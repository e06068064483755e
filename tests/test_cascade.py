import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse

from enzspec import cascade as cascade_module
from enzspec.cascade import (
    Cascade,
    CascadeError,
    DrivingField,
    direct_projection,
    load_field,
    series_vs_direct,
)
from enzspec.fem import assemble, solve_dirichlet, solve_neumann
from enzspec.linalg import LUFactors
from enzspec.mesh import (
    INCLUSION,
    INTERFACE,
    OUTER,
    SHELL,
    extract_submesh,
    generate_disk_in_disk,
    generate_square_with_disk,
)
from fem_fields import outer_flux, perp_gradient_field, save_field


@pytest.fixture(scope="module")
def cascade_ws():
    return Cascade(generate_disk_in_disk(2.0, 8, 8))


def constant_field(cascade, vec):
    nt = cascade.mesh.n_triangles
    return np.tile(np.asarray(vec, dtype=float), (nt, 1))


def scaled_mesh(mesh, size):
    return dataclasses.replace(mesh, vertices=mesh.vertices * size)


def reference_field_bytes(df):
    """The field file as a per-row f-string writer formats it: an oracle for
    the bytes save_field writes."""
    lines = [f"field {len(df.fields)}"]
    lines += [f"{fx:.17g} {fy:.17g}" for f in df.fields for fx, fy in f]
    return ("\n".join(lines) + "\n").encode()


def same_csr(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


def tangential_field(cascade):
    # rotated gradient of a radial stream function: tangential to every
    # circle r = const, with constant stream on both boundary rings
    x, y = cascade.mesh.vertices.T
    return perp_gradient_field(cascade.forms, x * x + y * y)


@pytest.mark.parametrize("generate", [generate_disk_in_disk, generate_square_with_disk])
def test_subdomain_forms_equal_their_assembly(generate):
    # the workspace slices its subdomain forms out of the full-mesh forms;
    # they must be what assembling each submesh gives, explicit zeros and
    # entry order included, or the factor orderings (and outputs) drift
    cascade = Cascade(generate(2.0, 8, 8))
    for sub, forms in ((cascade.sub_d, cascade.forms_d), (cascade.sub_s, cascade.forms_s)):
        ref = assemble(sub.mesh)
        assert forms.mesh is sub.mesh
        for name in ("A_D", "M_D", "A_S", "M_S", "A", "M"):
            assert same_csr(getattr(forms, name), getattr(ref, name)), name
        assert np.array_equal(forms.areas, ref.areas)
        assert forms.div.shape == ref.div.shape
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(forms.div, name), getattr(ref.div, name)), name


class TestSolvePsi:
    def test_annulus_energy(self):
        energy = Cascade(generate_disk_in_disk(2.0, 16, 16)).psi_energy
        exact = 2.0 * math.pi / math.log(2.0)
        assert abs(energy - exact) / exact < 0.01

    def test_range_and_support(self, cascade_ws):
        psi = cascade_ws.psi
        assert psi.min() >= -1e-12 and psi.max() <= 1.0 + 1e-12
        core = np.unique(cascade_ws.mesh.triangles[cascade_ws.mesh.regions == INCLUSION])
        assert np.abs(psi[core]).max() == 0.0

    def test_square_energy_convergent(self):
        e1, e2, e3 = (Cascade(generate_square_with_disk(2.0, rings, rings)).psi_energy
                      for rings in (8, 16, 32))
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

    @pytest.mark.parametrize("size", [1e-6, 1e6])
    def test_verdict_free_of_mesh_scale(self, size):
        # the patch flux of a constant field is pure rounding, which grows
        # with the mesh length; a radial field's is not, at any length
        mesh = scaled_mesh(generate_disk_in_disk(2.0, 8, 8), size)
        forms = assemble(mesh)
        DrivingField([np.tile([1.0, 0.5], (mesh.n_triangles, 1))]).validate(forms)
        radial = mesh.vertices[mesh.triangles].mean(axis=1)
        with pytest.raises(CascadeError, match="divergence"):
            DrivingField([radial]).validate(forms)

    def test_file_round_trip(self, cascade_ws, tmp_path):
        x, y = cascade_ws.mesh.vertices.T
        swirl = perp_gradient_field(cascade_ws.forms, np.sin(x) * y / 3.0)
        df = DrivingField([constant_field(cascade_ws, [1.0, 0.5]),
                           constant_field(cascade_ws, [0.0, -2.0]), swirl])
        path = tmp_path / "f.txt"
        save_field(df, str(path))
        assert path.read_bytes() == reference_field_bytes(df)
        back = load_field(str(path), cascade_ws.forms)
        assert len(back.fields) == 3
        for a, b in zip(df.fields, back.fields):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("fields", [
        [[[-0.0, 5e-324], [-1e300, 1.0 / 3.0]], [[2.0**53 + 2.0, -1e-300], [0.1, 7.0]]],
        [],
    ], ids=["extreme_values", "no_field"])
    def test_file_bytes_match_the_row_writer(self, fields, tmp_path):
        df = DrivingField(fields)
        path = tmp_path / "f.txt"
        save_field(df, str(path))
        assert path.read_bytes() == reference_field_bytes(df)


class TestBase:
    def test_tangential_field_trivial(self, cascade_ws):
        state = cascade_ws.run(DrivingField([tangential_field(cascade_ws)]), 0)
        assert np.abs(state.h_list[0]).max() < 1e-10
        assert abs(state.c_list[0]) < 1e-12

    def test_constant_field_interior_linear(self, cascade_ws):
        state = cascade_ws.run(DrivingField([constant_field(cascade_ws, [1.0, 0.0])]), 0)
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
        state = cascade_ws.run(DrivingField([f0]), 0)
        assert abs(outer_flux(cascade_ws, state.h_list[0], f0)) < 1e-10


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
            assert abs(outer_flux(cascade_ws, h, fk)) < 1e-8

    def test_two_shell_residuals_per_order(self, cascade_ws, monkeypatch):
        # one sets c_k and one re-measures the outer flux after Psi; the
        # re-measured residual is the next order's interface data
        calls = []
        residual = Cascade._shell_residual

        def counting(self, *args):
            calls.append(None)
            return residual(self, *args)

        monkeypatch.setattr(Cascade, "_shell_residual", counting)
        cascade_ws.run(DrivingField([constant_field(cascade_ws, [1.0, 0.0])]), 6)
        assert len(calls) == 2 * (6 + 1)

    def test_inclusion_mean_zero(self, cascade_ws):
        driving = DrivingField([constant_field(cascade_ws, [0.3, 0.7])])
        state = cascade_ws.run(driving, 3)
        md1 = cascade_ws.forms.M_D @ np.ones(cascade_ws.mesh.n_vertices)
        for h in state.h_list[1:]:
            assert abs(md1 @ h) < 1e-10


class TestDirectProjection:
    def test_rejects_delta_zero(self, cascade_ws):
        with pytest.raises(CascadeError):
            direct_projection(cascade_ws, constant_field(cascade_ws, [1.0, 0.0]), 0.0)

    def test_tangential_gives_zero(self, cascade_ws):
        f = tangential_field(cascade_ws)
        for delta in (1.0, 0.05, 0.1 + 0.05j):
            h = direct_projection(cascade_ws, f, delta)
            assert np.abs(h).max() < 1e-10

    def test_delta_one_consistency(self, cascade_ws):
        # at delta = 1 the weighting is trivial; the solve's internal
        # residual checks certify the classical projection
        h = direct_projection(cascade_ws, constant_field(cascade_ws, [1.0, 0.0]), 1.0)
        outer = cascade_ws.mesh.boundary_vertices(1)
        assert np.abs(h[outer] - h[outer[0]]).max() < 1e-10

    @pytest.mark.parametrize("delta", [0.05, 0.05 + 0.02j])
    def test_matches_dense_bordered_system(self, delta):
        # oracle: the outer vertices merged into one unknown c, and a
        # Lagrange border pinning the inclusion mean, solved densely
        cascade = Cascade(generate_disk_in_disk(2.0, 4, 4))
        forms, mesh = cascade.forms, cascade.mesh
        n = mesh.n_vertices
        field = np.tile([0.6, 0.8], (mesh.n_triangles, 1))
        a = (forms.A_D + delta * forms.A_S).toarray()
        weighted = field.astype(complex)
        weighted[mesh.regions == SHELL] *= delta
        b = forms.div @ weighted.ravel()
        outer = mesh.boundary_vertices(OUTER)
        inner = np.setdiff1d(np.arange(n), outer)
        merge = np.zeros((n, len(inner) + 1))
        merge[inner, np.arange(len(inner))] = 1.0
        merge[outer, -1] = 1.0
        md1 = forms.M_D @ np.ones(n)
        kkt = np.block([[merge.T @ a @ merge, (merge.T @ md1)[:, None]],
                        [(merge.T @ md1)[None, :], np.zeros((1, 1))]])
        exact = merge @ np.linalg.solve(kkt, np.append(-merge.T @ b, 0.0))[:-1]
        h = direct_projection(cascade, field, delta)
        assert np.linalg.norm(h - exact) <= 1e-10 * np.linalg.norm(exact)

    @pytest.mark.parametrize("size", [1e-6, 1e12])
    def test_scales_with_the_mesh(self, size):
        # a constant field's projection grows like the mesh length: the
        # side-condition checks must pass at any length
        mesh = generate_disk_in_disk(2.0, 4, 4)
        field = np.tile([1.0, 0.0], (mesh.n_triangles, 1))
        ref = direct_projection(Cascade(mesh), field, 0.05)
        h = direct_projection(Cascade(scaled_mesh(mesh, size)), field, 0.05)
        assert np.linalg.norm(h / size - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_complex_delta_runs(self, cascade_ws):
        h = direct_projection(cascade_ws, constant_field(cascade_ws, [1.0, 0.0]),
                              0.05 + 0.02j)
        assert np.iscomplexobj(h)


class TestSeriesVsDirect:
    def test_geometric_decay(self, cascade_ws):
        driving = DrivingField([constant_field(cascade_ws, [1.0, 0.0])])
        errs = series_vs_direct(cascade_ws, driving, 0.05, cascade_ws.run(driving, 6))
        for k in range(5):
            assert errs[k + 1] / errs[k] <= 0.5
        assert errs[6] < 1e-5

    def test_doubling_delta_doubles_ratio(self, cascade_ws):
        driving = DrivingField([constant_field(cascade_ws, [1.0, 0.0])])
        state = cascade_ws.run(driving, 6)
        e1 = series_vs_direct(cascade_ws, driving, 0.05, state)
        e2 = series_vs_direct(cascade_ws, driving, 0.10, state)
        r1 = e1[4] / e1[3]
        r2 = e2[4] / e2[3]
        assert abs(r2 / r1 - 2.0) < 0.4


def failing_after_order_zero(step):
    """Cascade.step that solves order zero, then raises at order one."""

    def broken(self, state, *args):
        if state.h_list:
            raise CascadeError("step failed")
        step(self, state, *args)

    return broken


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
        series_vs_direct(cascade, driving, 0.05, state)
        assert counts["factors"] == 3
        # Psi of a freshly extracted and assembled shell
        shell = assemble(extract_submesh(cascade.mesh, SHELL).mesh)
        psi = solve_dirichlet(shell, {INTERFACE: 0.0, OUTER: 1.0})
        assert cascade.psi_energy == float(psi @ (shell.A @ psi))

    def test_no_factored_matrix_has_a_dense_row(self, monkeypatch):
        # every factor is a principal submatrix of a mesh operator, so no
        # row or column is longer than the longest stiffness row; a
        # Lagrange border or a merged outer unknown would be
        matrices = []
        init = LUFactors.__init__

        def capturing_init(self, matrix):
            matrices.append(scipy.sparse.csr_matrix(matrix))
            init(self, matrix)

        monkeypatch.setattr(LUFactors, "__init__", capturing_init)
        cascade = Cascade(generate_disk_in_disk(2.0, 8, 8))
        driving = DrivingField([constant_field(cascade, [0.6, 0.8])])
        series_vs_direct(cascade, driving, 0.05 + 0.02j, cascade.run(driving, 3))
        longest = np.diff(cascade.forms.A.indptr).max()
        assert len(matrices) == 3
        for mat in matrices:
            assert np.diff(mat.indptr).max() <= longest
            assert np.diff(mat.tocsc().indptr).max() <= longest

    def test_factors_released_on_error(self, cascade_ws, counts, monkeypatch):
        monkeypatch.setattr(Cascade, "step", failing_after_order_zero(Cascade.step))
        with pytest.raises(CascadeError):
            cascade_ws.run(DrivingField([constant_field(cascade_ws, [1.0, 0.0])]), 3)
        assert counts["factors"] == 2
        load = np.zeros(cascade_ws.forms_d.mesh.n_vertices)
        solve_neumann(cascade_ws.forms_d, load, load)
        assert counts["factors"] == 3  # no cached factor survived the error

    def test_psi_factor_released_on_error(self, counts, monkeypatch):
        # Psi is solved inside the failing run and shares its shell factor
        cascade = Cascade(generate_disk_in_disk(2.0, 8, 8))
        monkeypatch.setattr(Cascade, "step", failing_after_order_zero(Cascade.step))
        with pytest.raises(CascadeError):
            cascade.run(DrivingField([constant_field(cascade, [1.0, 0.0])]), 3)
        assert counts["factors"] == 2
        assert cascade.forms_d._factors is None and cascade.forms_s._factors is None
        assert cascade.psi_energy > 0.0
        assert counts["factors"] == 2  # Psi was kept; its factor was not
