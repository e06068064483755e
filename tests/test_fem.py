import math

import numpy as np
import pytest
import scipy.sparse

from enzspec.cascade import _load_size
from enzspec.fem import (
    FemError,
    assemble,
    factor_once,
    norms,
    solve_dirichlet,
    solve_neumann,
)
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
from fem_fields import boundary_flux, edge_flux_load, element_gradients


def outward_edge_normals(mesh, tag):
    """Outward unit normal per tagged edge (domains containing the origin)."""
    normals = []
    for (a, b), t in zip(mesh.edges, mesh.edge_tags):
        if t != tag:
            continue
        va, vb = mesh.vertices[a], mesh.vertices[b]
        tvec = vb - va
        n = np.array([tvec[1], -tvec[0]])
        n /= np.linalg.norm(n)
        mid = 0.5 * (va + vb)
        if np.dot(n, mid) < 0:
            n = -n
        normals.append(n)
    return np.array(normals)


def element_loads(mesh, fields):
    """Per field, b_i = sum_t area_t F_t . grad(phi_i) and the summed
    magnitudes of its terms, triangle by triangle: grad(phi_i) comes from
    inverting the triangle's [1, x, y] vertex matrix, whose inverse holds
    the coefficients of the three barycentric functions."""
    loads = [np.zeros(mesh.n_vertices, dtype=np.result_type(f, float)) for f in fields]
    sizes = [np.zeros(mesh.n_vertices) for _ in fields]
    for t, tri in enumerate(mesh.triangles):
        corners = np.column_stack([np.ones(3), mesh.vertices[tri]])
        area = 0.5 * abs(np.linalg.det(corners))
        coeffs = np.linalg.inv(corners)        # column i: phi_i = a + b x + c y
        for i, vertex in enumerate(tri):
            grad = coeffs[1:, i]
            for f, b, size in zip(fields, loads, sizes):
                b[vertex] += area * (f[t] @ grad)
                size[vertex] += area * (np.abs(f[t]) @ np.abs(grad))
    return loads, sizes


def element_loop_matrices(mesh, region):
    """Stiffness and mass of one region, triangle by triangle, as CSR of the
    COO triplets: local stiffness e_i . e_j / (4 area) from the edge vectors
    e_i opposite vertex i, local mass area / 12 [[2, 1, 1], [1, 2, 1],
    [1, 1, 2]]."""
    rows, cols, stiffness, mass = [], [], [], []
    for tri in mesh.triangles[mesh.regions == region]:
        p = mesh.vertices[tri]
        (ux, uy), (vx, vy) = p[1] - p[0], p[2] - p[0]
        area = 0.5 * (ux * vy - uy * vx)
        edges = [p[(i + 2) % 3] - p[(i + 1) % 3] for i in range(3)]
        for i in range(3):
            for j in range(3):
                rows.append(tri[i])
                cols.append(tri[j])
                stiffness.append(edges[i] @ edges[j] / (4.0 * area))
                mass.append(area / 12.0 * (2.0 if i == j else 1.0))
    shape = (mesh.n_vertices, mesh.n_vertices)
    return [scipy.sparse.coo_matrix((data, (rows, cols)), shape=shape).tocsr()
            for data in (stiffness, mass)]


@pytest.fixture(scope="module")
def disk_mesh():
    return generate_disk_in_disk(2.0, 8, 8)


@pytest.fixture(scope="module")
def disk_forms(disk_mesh):
    return assemble(disk_mesh)


class TestAssemble:
    def test_constant_in_kernel(self, disk_forms):
        c = np.ones(disk_forms.mesh.n_vertices)
        assert np.abs(disk_forms.A @ c).max() < 1e-12

    def test_total_mass_is_area(self, disk_mesh, disk_forms):
        c = np.ones(disk_mesh.n_vertices)
        total = float(c @ (disk_forms.M @ c))
        assert abs(total - disk_mesh.triangle_areas().sum()) < 1e-12

    def test_inclusion_mass(self, disk_mesh, disk_forms):
        c = np.ones(disk_mesh.n_vertices)
        md = float(c @ (disk_forms.M_D @ c))
        assert abs(md - disk_mesh.region_area(INCLUSION)) < 1e-12

    @pytest.mark.parametrize("generate", [generate_disk_in_disk, generate_square_with_disk])
    @pytest.mark.parametrize("rings", [2, 8])
    def test_matches_the_element_loop(self, generate, rings):
        # the CSR structure (explicit zeros included) of the loop's triplets,
        # and its values to roundoff
        mesh = generate(2.0, rings, rings)
        forms = assemble(mesh)
        for region, names in ((INCLUSION, ("A_D", "M_D")), (SHELL, ("A_S", "M_S"))):
            for name, ref in zip(names, element_loop_matrices(mesh, region)):
                got = getattr(forms, name)
                assert got.shape == ref.shape and got.dtype == ref.dtype, name
                assert np.array_equal(got.indptr, ref.indptr), name
                assert np.array_equal(got.indices, ref.indices), name
                assert np.abs(got.data - ref.data).max() <= 1e-14 * np.abs(ref.data).max(), name

    def test_element_gradients_linear_exact(self, disk_forms):
        x, y = disk_forms.mesh.vertices.T
        vals = 3.0 * x - 2.0 * y
        g = element_gradients(disk_forms, vals)
        assert np.abs(g - np.array([3.0, -2.0])).max() < 1e-12


class TestDivergenceOperator:
    """A divergence load and the cascade's load-size bound are products with
    the assembled operator: each must equal the element formula."""

    @pytest.mark.parametrize("generate", [generate_disk_in_disk, generate_square_with_disk])
    @pytest.mark.parametrize("rings", [8, 32])
    def test_matches_the_element_loop(self, generate, rings):
        mesh = generate(2.0, rings, rings)
        forms = assemble(mesh)
        rng = np.random.default_rng(rings)
        real = rng.standard_normal((mesh.n_triangles, 2))
        fields = [real, real + 1j * rng.standard_normal(real.shape)]
        loads, sizes = element_loads(mesh, fields)
        for f, b, size in zip(fields, loads, sizes):
            assert np.all(np.abs(forms.div @ f.ravel() - b) <= 1e-14 * size)
            assert np.all(np.abs(_load_size(forms, f) - size) <= 1e-14 * size)


class TestSolveNeumann:
    def test_zero_flux_gives_zero(self, disk_forms):
        zero = np.zeros(disk_forms.mesh.n_vertices)
        h = solve_neumann(disk_forms, zero, zero)
        assert np.abs(h).max() < 1e-12

    def test_linear_solution_from_normal_flux(self):
        # -Laplace h = 0 in unit disk, dh/dnu = nu_x on the boundary -> h = x
        mesh = generate_disk_in_disk(2.0, 8, 8)
        sub = extract_submesh(mesh, INCLUSION)
        forms = assemble(sub.mesh)
        normals = outward_edge_normals(sub.mesh, INTERFACE)
        load = edge_flux_load(sub.mesh, INTERFACE, normals[:, 0])
        size = edge_flux_load(sub.mesh, INTERFACE, np.abs(normals[:, 0]))
        h = solve_neumann(forms, load, size)
        exact = sub.mesh.vertices[:, 0]
        m1 = forms.M @ np.ones(len(exact))
        exact = exact - (m1 @ exact) / m1.sum()
        assert np.abs(h - exact).max() < 1e-9

    def test_imbalance_rejected(self, disk_forms):
        # an imbalance of 5e-4 of the load's size, however small the load
        load = np.random.default_rng(5).standard_normal(disk_forms.mesh.n_vertices)
        load -= load.mean()
        load[0] += 5e-4 * np.abs(load).sum()
        for scale in (1.0, 2.0**-600):
            with pytest.raises(FemError) as exc:
                solve_neumann(disk_forms, scale * load, scale * np.abs(load))
            assert "imbalance" in str(exc.value)

    @pytest.mark.parametrize("imbalance", [0.0, 1e-10])
    def test_matches_dense_least_squares(self, imbalance):
        # oracle: dense least squares on the Lagrange-bordered system
        # [[A, m1], [m1^T, 0]] (m1 = M 1), whose multiplier takes up the
        # imbalance of a compatible load; M-mean normalized
        forms = assemble(generate_disk_in_disk(2.0, 4, 4))
        n = forms.mesh.n_vertices
        load = np.random.default_rng(5).standard_normal(n)
        load -= load.mean()
        load[0] += imbalance * np.abs(load).sum()
        m1 = forms.M @ np.ones(n)
        kkt = np.block([[forms.A.toarray(), m1[:, None]], [m1[None, :], np.zeros((1, 1))]])
        exact = np.linalg.lstsq(kkt, np.append(load, 0.0), rcond=None)[0][:n]
        exact -= (m1 @ exact) / m1.sum()
        h = solve_neumann(forms, load, np.abs(load))
        assert np.linalg.norm(h - exact) <= 1e-10 * np.linalg.norm(exact)

    def test_mean_zero(self):
        mesh = generate_disk_in_disk(2.0, 4, 4)
        sub = extract_submesh(mesh, INCLUSION)
        forms = assemble(sub.mesh)
        normals = outward_edge_normals(sub.mesh, INTERFACE)
        load = edge_flux_load(sub.mesh, INTERFACE, normals[:, 1])
        size = edge_flux_load(sub.mesh, INTERFACE, np.abs(normals[:, 1]))
        h = solve_neumann(forms, load, size)
        m1 = forms.M @ np.ones(sub.mesh.n_vertices)
        assert abs(m1 @ h) < 1e-10


class TestSolveDirichlet:
    def test_constant_data(self, disk_forms):
        h = solve_dirichlet(disk_forms, {INTERFACE: 1.0, OUTER: 1.0})
        assert np.abs(h - 1.0).max() < 1e-10

    def test_complex_scalar_data(self):
        # scalar data broadcast to the nodes, in the dtype of the data
        forms = assemble(extract_submesh(generate_disk_in_disk(2.0, 8, 8), SHELL).mesh)
        real = solve_dirichlet(forms, {INTERFACE: 0.0, OUTER: 1.0})
        h = solve_dirichlet(forms, {INTERFACE: 0.0, OUTER: 1j})
        assert h.dtype == complex
        assert np.abs(h - 1j * real).max() <= 1e-14    # 3.3e-16 measured

    def test_annulus_log_solution(self):
        mesh = generate_disk_in_disk(2.0, 8, 8)
        sub = extract_submesh(mesh, SHELL)
        forms = assemble(sub.mesh)
        h = solve_dirichlet(forms, {INTERFACE: 0.0, OUTER: 1.0})
        exact = np.array([math.log(np.linalg.norm(v)) / math.log(2.0)
                          for v in sub.mesh.vertices])
        err = h - exact
        l2 = math.sqrt(float(err @ (forms.M @ err)))
        assert l2 < 5e-3

    def test_l2_convergence_rate(self):
        errs = []
        for rings in (8, 16):
            mesh = generate_disk_in_disk(2.0, rings, rings)
            sub = extract_submesh(mesh, SHELL)
            forms = assemble(sub.mesh)
            h = solve_dirichlet(forms, {INTERFACE: 0.0, OUTER: 1.0})
            exact = np.array([math.log(np.linalg.norm(v)) / math.log(2.0)
                              for v in sub.mesh.vertices])
            err = h - exact
            errs.append(math.sqrt(float(err @ (forms.M @ err))))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_missing_role(self, disk_forms):
        with pytest.raises(FemError) as exc:
            solve_dirichlet(disk_forms, {OUTER: 0.0})
        assert "role" in str(exc.value)

    def test_divergence_free_load_zero_solution(self, disk_forms):
        nt = disk_forms.mesh.n_triangles
        field = np.tile([1.0, 0.0], (nt, 1))  # constant field, weakly div-free
        load = -(disk_forms.div @ field.ravel())
        h = solve_dirichlet(disk_forms, {INTERFACE: 0.0, OUTER: 0.0}, load=load)
        assert np.abs(h).max() < 1e-9


class TestFactorOnce:
    """Inside factor_once one forms object reuses its factors; each solve
    must equal, bit for bit, the same solve on freshly assembled forms."""

    @pytest.fixture
    def factor_count(self, monkeypatch):
        built = []
        init = LUFactors.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LUFactors, "__init__", counting_init)
        return built

    def test_neumann_real_complex_real(self, factor_count):
        sub = extract_submesh(generate_disk_in_disk(2.0, 8, 8), INCLUSION)
        normals = outward_edge_normals(sub.mesh, INTERFACE)
        fluxes = [normals[:, 0], normals[:, 0] + 2j * normals[:, 1], normals[:, 1]]
        loads = [(edge_flux_load(sub.mesh, INTERFACE, g),
                  edge_flux_load(sub.mesh, INTERFACE, np.abs(g))) for g in fluxes]
        forms = assemble(sub.mesh)
        with factor_once(forms):
            reused = [solve_neumann(forms, *load) for load in loads]
        assert len(factor_count) == 2       # one real, one complex factor
        for load, h in zip(loads, reused):
            fresh = solve_neumann(assemble(sub.mesh), *load)
            assert h.dtype == fresh.dtype
            assert np.array_equal(h, fresh)

    def test_dirichlet_two_data_sets(self, factor_count):
        sub = extract_submesh(generate_disk_in_disk(2.0, 8, 8), SHELL)
        forms = assemble(sub.mesh)
        field = np.tile([0.6, 0.8], (sub.mesh.n_triangles, 1))
        cases = [({INTERFACE: 0.0, OUTER: 1.0}, None),
                 ({INTERFACE: sub.mesh.vertices[:, 0].copy(), OUTER: 0.5},
                  -(forms.div @ field.ravel()))]
        with factor_once(forms):
            reused = [solve_dirichlet(forms, bv, load) for bv, load in cases]
        assert len(factor_count) == 1
        for (bv, load), h in zip(cases, reused):
            fresh = solve_dirichlet(assemble(sub.mesh), bv, load)
            assert np.array_equal(h, fresh)

    def test_neumann_and_dirichlet_on_one_forms(self, disk_mesh, factor_count):
        forms = assemble(disk_mesh)
        field = np.tile([1.0, 0.0], (disk_mesh.n_triangles, 1))
        load = -(forms.div @ field.ravel())
        load -= load.mean()
        size = _load_size(forms, field)
        bv = {INTERFACE: 0.0, OUTER: 1.0}
        with factor_once(forms):
            h_n = solve_neumann(forms, load, size)
            h_d = solve_dirichlet(forms, bv)
        assert len(factor_count) == 2
        assert np.array_equal(h_n, solve_neumann(assemble(disk_mesh), load, size))
        assert np.array_equal(h_d, solve_dirichlet(assemble(disk_mesh), bv))

    def test_factors_dropped_on_exit(self, factor_count):
        sub = extract_submesh(generate_disk_in_disk(2.0, 4, 4), SHELL)
        forms = assemble(sub.mesh)
        with pytest.raises(FemError):
            with factor_once(forms):
                solve_dirichlet(forms, {INTERFACE: 0.0, OUTER: 1.0})
                solve_dirichlet(forms, {OUTER: 0.0})    # missing data raises
        solve_dirichlet(forms, {INTERFACE: 0.0, OUTER: 1.0})
        assert len(factor_count) == 2


class TestBoundaryFlux:
    def test_psi_outer_flux(self):
        mesh = generate_disk_in_disk(2.0, 16, 16)
        sub = extract_submesh(mesh, SHELL)
        forms = assemble(sub.mesh)
        psi = solve_dirichlet(forms, {INTERFACE: 0.0, OUTER: 1.0})
        flux = boundary_flux(forms, psi, OUTER)
        exact = 2.0 * math.pi / math.log(2.0)
        assert abs(flux - exact) / exact < 0.01

    def test_flux_conservation(self):
        mesh = generate_disk_in_disk(2.0, 8, 8)
        sub = extract_submesh(mesh, SHELL)
        forms = assemble(sub.mesh)
        h = solve_dirichlet(forms, {INTERFACE: 0.0, OUTER: 1.0})
        fin = boundary_flux(forms, h, INTERFACE)
        fout = boundary_flux(forms, h, OUTER)
        assert abs(fin + fout) < 1e-10 * max(1.0, abs(fout))

    def test_constant_function_zero_flux(self, disk_forms):
        c = np.ones(disk_forms.mesh.n_vertices)
        assert abs(boundary_flux(disk_forms, c, OUTER)) < 1e-12

    def test_flux_with_field(self):
        # for h solving the pure-Neumann problem with flux data g, the
        # re-measured variational flux reproduces the data integral
        mesh = generate_disk_in_disk(2.0, 8, 8)
        sub = extract_submesh(mesh, INCLUSION)
        forms = assemble(sub.mesh)
        normals = outward_edge_normals(sub.mesh, INTERFACE)
        load = edge_flux_load(sub.mesh, INTERFACE, normals[:, 0])
        size = edge_flux_load(sub.mesh, INTERFACE, np.abs(normals[:, 0]))
        h = solve_neumann(forms, load, size)
        flux = boundary_flux(forms, h, INTERFACE)
        assert abs(flux) < 1e-9  # net flux of nu_x over a closed curve is 0


class TestNormsInterp:
    def test_linear_function_norms(self, disk_forms):
        f = disk_forms.mesh.vertices[:, 0]
        l2, h1 = norms(disk_forms, f)
        area = disk_forms.mesh.triangle_areas().sum()
        # integral of x^2 over the polygonal R=2 disk is ~ pi R^4 / 4
        assert abs(l2**2 - math.pi * 4.0) / (math.pi * 4.0) < 0.03
        assert abs(h1**2 - area) < 1e-10

    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_power_of_two_scale_is_exact(self, disk_forms, exponent):
        # the forms square the values: 2**-600 of them would underflow to
        # (0, 0) and 2**600 overflow, unless the norms rescale first
        rng = np.random.default_rng(5)
        v = rng.standard_normal(disk_forms.mesh.n_vertices)
        scale = 2.0 ** exponent
        for values in (v, v + 1j * rng.standard_normal(v.shape)):
            l2, h1 = norms(disk_forms, values)
            assert norms(disk_forms, scale * values) == (scale * l2, scale * h1)
        assert norms(disk_forms, np.zeros_like(v)) == (0.0, 0.0)

    def test_region_split(self, disk_forms):
        f = disk_forms.mesh.vertices[:, 0]
        h1_d = math.sqrt(f @ (disk_forms.A_D @ f))
        h1_s = math.sqrt(f @ (disk_forms.A_S @ f))
        _, h1 = norms(disk_forms, f)
        assert abs(h1_d**2 + h1_s**2 - h1**2) < 1e-10
