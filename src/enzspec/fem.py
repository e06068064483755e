"""P1 finite elements on tagged meshes.

Assembles the Neumann stiffness matrix and the per-region consistent mass
matrices as scipy CSR matrices, and provides subdomain Neumann/Dirichlet
solves and norms.  A solve factors its operator once per dtype and keeps the
factor on the forms, like the other values derived from an assembly.  A
divergence load is the product `forms.div @ F.ravel()` with one sparse
divergence operator, built at assembly and sliced out of the parent's for a
subdomain; the caller knows which terms each load entry sums, so it passes
their magnitudes (`load_size`) to `solve_neumann`.
All matrices are kept per region so that delta-weighted forms (the mass
B_delta = M_D + delta*M_S, the stiffness A_D + delta*A_S) are exact linear
combinations of the assembled pieces (`eig` lays them out for its pencil).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse

from .linalg import LUFactors
from .mesh import INCLUSION, SHELL, Mesh, Submesh

__all__ = [
    "AssembledForms",
    "FemError",
    "assemble",
    "restrict_forms",
    "solve_neumann",
    "solve_dirichlet",
    "norms",
]


class FemError(RuntimeError):
    pass


# Neumann load imbalance, relative to the summed load size, that
# solve_neumann rejects as incompatible.
_COMPAT_TOL = 1e-8


def _triangle_geometry(mesh: Mesh):
    """Areas and barycentric gradients (x and y parts, (nt, 3) each) for all
    triangles, vectorized."""
    x, y = mesh.corner_coordinates()
    area = mesh.triangle_areas()
    if np.any(area <= 0):
        raise FemError("degenerate or inverted triangle in assembly")
    # grad lambda_i = (y_j - y_k, x_k - x_j) / (2 area), (i, j, k) cyclic
    j, k = [1, 2, 0], [2, 0, 1]
    twice = (2.0 * area)[:, None]
    return area, (y[:, j] - y[:, k]) / twice, (x[:, k] - x[:, j]) / twice


_LOCAL_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _div_operator(triangles: np.ndarray, data: np.ndarray, n_vertices: int):
    """The P1 divergence operator: CSC of shape (n_vertices, 2 nt) whose
    column 2t + d holds area_t d(phi_i)/dx_d at the three vertices i of
    triangle t, with data laid out as (nt, 2, 3) or, the same in C order,
    (nt, 6)."""
    nt = len(triangles)
    indices = np.repeat(triangles.astype(np.int32)[:, None, :], 2, axis=1).ravel()
    indptr = 3 * np.arange(2 * nt + 1, dtype=np.int32)
    return scipy.sparse.csc_matrix((data.ravel(), indices, indptr),
                                   shape=(n_vertices, 2 * nt))


def _abs(matrix):
    """|matrix| entrywise, on the matrix's own index arrays."""
    return type(matrix)((np.abs(matrix.data), matrix.indices, matrix.indptr),
                        shape=matrix.shape)


class AssembledForms:
    """Stiffness and mass matrices (scipy CSR) split by region, and the
    divergence operator `div`.

    A = A_D + A_S has kernel exactly the constants on a connected mesh;
    M = M_D + M_S is the consistent mass.  div @ F.ravel() is the load
    b_i = integral of F . grad(phi_i) of a per-triangle constant field F of
    shape (nt, 2).  Built by `assemble` for a mesh and by `restrict_forms`
    for a submesh of an assembled mesh.

    Each of these matrices, and each sum, scaled sum and principal submatrix
    of them, equals its transpose bit for bit (symmetric element matrices, at
    most two per off-diagonal entry), so a solve factors its transpose view.

    The values that depend only on the assembly (M 1, the boundary vertices
    per tag, the Dirichlet free set and the solve factors in `factors`) are
    derived once, on first use, and kept here: the forms are a snapshot of
    their mesh, while the Mesh itself holds no derived state.  The first
    use takes no lock (cached_property has none from Python 3.12), so a
    caller that reads one forms object from two threads derives what both
    read before the second starts, as `cascade.run_beside_direct` does.
    The pencil's layout is not among these values: `eig` derives it, once
    per pencil.  `factors.clear()` frees the factors; the next solve
    factors again.  The entrywise magnitudes |A| and |div| are formed per
    use (`_abs`, on the matrix's own index arrays): kept on a cascade's
    three forms, their entries would stay in memory while the direct
    projection factors and raise the command's peak memory.
    """

    def __init__(self, mesh: Mesh, div, A_D, M_D, A_S, M_S):
        self.mesh = mesh
        self.div = div
        self.A_D, self.M_D = A_D, M_D
        self.A_S, self.M_S = A_S, M_S
        # the sums drop the entries that cancel to exactly zero.  Mass
        # entries are positive, so when one region is empty (a subdomain's
        # forms) M is the other region's mass bit for bit and is shared; A
        # is summed all the same, since a region's stiffness can hold
        # explicit zeros that the sum drops
        self.A = A_D + A_S
        self.M = M_D + M_S if M_D.nnz and M_S.nnz else (M_S if M_S.nnz else M_D)
        self.factors = {}        # (solve kind, dtype) -> LUFactors, see _factor

    @cached_property
    def m1(self) -> np.ndarray:
        """M 1, the nodal masses."""
        return self.M @ np.ones(self.mesh.n_vertices)

    @cached_property
    def boundary_nodes(self) -> dict:
        """Edge tag -> its sorted boundary vertices, for each tag present."""
        return {int(t): self.mesh.boundary_vertices(t) for t in np.unique(self.mesh.edge_tags)}

    @cached_property
    def dirichlet_free(self) -> np.ndarray:
        """The vertices on no tagged edge, as a mask: a Dirichlet solve's
        free set, since it takes data on every tag present."""
        free = np.ones(self.mesh.n_vertices, dtype=bool)
        for nodes in self.boundary_nodes.values():
            free[nodes] = False
        return free


def assemble(mesh: Mesh) -> AssembledForms:
    area, gx, gy = _triangle_geometry(mesh)
    shape = (mesh.n_vertices, mesh.n_vertices)

    def build(region):
        # the region's element matrices from its own triangles, entry (i, j)
        # of triangle t at 9 t + 3 i + j: the stiffness g_i . g_j area and the
        # consistent mass; duplicate (i, j) triplets sum on conversion to
        # CSR, as assembly needs
        sel = np.nonzero(mesh.regions == region)[0]
        tri, a, x, y = mesh.triangles[sel], area[sel], gx[sel], gy[sel]
        k_local = np.stack([(x[:, i] * x[:, j] + y[:, i] * y[:, j]) * a
                            for i in range(3) for j in range(3)], axis=1)
        m_local = np.multiply.outer(a, _LOCAL_MASS.ravel())
        ij = (np.repeat(tri, 3, axis=1).ravel(), np.tile(tri, (1, 3)).ravel())
        return (scipy.sparse.csr_matrix((k_local.ravel(), ij), shape=shape),
                scipy.sparse.csr_matrix((m_local.ravel(), ij), shape=shape))

    div = _div_operator(mesh.triangles, np.hstack([gx * area[:, None], gy * area[:, None]]),
                        mesh.n_vertices)
    return AssembledForms(mesh, div, *build(INCLUSION), *build(SHELL))


def restrict_forms(forms: AssembledForms, sub: Submesh) -> AssembledForms:
    """The forms of sub.mesh, sliced out of the forms of its parent.

    The region's own matrices are principal submatrices of the parent's, the
    other region's are empty.  The submesh keeps the parent's vertex and
    triangle order, so each entry sums the same element contributions in the
    same order: the result equals assemble(sub.mesh) in values and in CSR
    structure, explicit zeros included.  The divergence operator keeps the
    parent's data of the submesh triangles.
    """
    v, t = sub.vertex_map, sub.triangle_map
    nt = forms.mesh.n_triangles

    def piece(mat, region):
        return mat[v][:, v] if sub.region == region else scipy.sparse.csr_matrix((len(v), len(v)))

    div = _div_operator(sub.mesh.triangles, forms.div.data.reshape(nt, 2, 3)[t],
                        sub.mesh.n_vertices)
    return AssembledForms(sub.mesh, div,
                          piece(forms.A_D, INCLUSION), piece(forms.M_D, INCLUSION),
                          piece(forms.A_S, SHELL), piece(forms.M_S, SHELL))


def _factor(forms: AssembledForms, key, build) -> LUFactors:
    """LUFactors of build(), kept in forms.factors under key for later loads.
    Keying on dtype keeps a complex load away from a real factor.  The
    Dirichlet free set needs no key: data is required on every boundary tag
    present, so the forms fix it."""
    lu = forms.factors.get(key)
    if lu is None:
        lu = forms.factors[key] = LUFactors(build())
    return lu


def solve_neumann(forms: AssembledForms, load: np.ndarray,
                  load_size: np.ndarray) -> np.ndarray:
    """Pure-Neumann solve A h = load with mean-zero normalization; returns
    the nodal values of h.

    `load` is an assembled nodal right-hand side, such as a divergence load
    `forms.div @ F.ravel()`; `load_size` holds, per vertex, the summed
    magnitudes of the terms its entry adds up, which only the caller knows.
    The compatibility condition is that the load sums to zero; an imbalance
    beyond _COMPAT_TOL times the summed load size is an error, since the
    singular system is then unsolvable.  A smaller imbalance is taken out
    along m1 = M 1, the direction a multiplier on the M-weighted mean would
    absorb.  Vertex 0 is then grounded: the other vertices solve with the
    principal submatrix A[1:, 1:], nonsingular on a connected mesh, and the
    M-weighted mean is subtracted after.  The residual is checked against
    the summed load size too.
    """
    a = forms.A
    load = np.asarray(load)
    scale = float(np.sum(load_size))
    imbalance = abs(load.sum())
    if imbalance > _COMPAT_TOL * scale:
        raise FemError(f"Neumann compatibility violated: flux imbalance {imbalance:.3e} "
                       f"against a summed load size of {scale:.3e}")
    n = forms.mesh.n_vertices
    m1 = forms.m1
    dtype = np.result_type(a.dtype, load.dtype)
    load = load.astype(dtype) - (load.sum() / m1.sum()) * m1
    lu = _factor(forms, ("neumann", dtype), lambda: a[1:, 1:].astype(dtype).T)
    h = np.zeros(n, dtype=dtype)
    h[1:] = lu.solve(load[1:])
    h = h - np.dot(m1, h) / m1.sum()   # zero M-weighted mean
    res = np.linalg.norm(a @ h - load)
    if res > 1e-8 * scale:
        raise FemError(f"Neumann solve residual too large: {res:.3e} against a "
                       f"summed load size of {scale:.3e}")
    return h


def solve_dirichlet(forms: AssembledForms, boundary_values: dict,
                    load: np.ndarray | None = None) -> np.ndarray:
    """Solve A h = load with nodal Dirichlet data per boundary tag; returns
    the nodal values of h.

    boundary_values maps edge tag -> data that broadcasts to the nodal
    values: a real or complex scalar, or a nodal array.  Data must be
    supplied for every tag present on the mesh.  The residual on the free
    nodes is checked against the magnitudes |A| |h| + |load| of its terms.
    """
    a = forms.A
    nodes = forms.boundary_nodes
    missing = set(nodes) - set(boundary_values)
    if missing:
        raise FemError(f"missing Dirichlet data for boundary role(s) {sorted(missing)}")

    n = forms.mesh.n_vertices
    b = np.zeros(n) if load is None else np.asarray(load)
    dtype = np.result_type(a.dtype, b, *boundary_values.values())
    u = np.zeros(n, dtype=dtype)
    for tag, data in boundary_values.items():
        if tag in nodes:
            u[nodes[tag]] = np.broadcast_to(data, (n,))[nodes[tag]]

    b = b.astype(dtype)
    free = forms.dirichlet_free
    acsr = a.astype(dtype, copy=False)
    rhs = b[free] - (acsr @ u)[free]
    if free.any():
        lu = _factor(forms, ("dirichlet", dtype), lambda: acsr[free][:, free].T)
        u[free] = lu.solve(rhs)
    # Galerkin residual on the free nodes
    res = np.linalg.norm((acsr @ u - b)[free])
    scale = np.linalg.norm((_abs(a) @ np.abs(u) + np.abs(b))[free])
    if res > 1e-8 * scale:
        raise FemError(f"Dirichlet solve residual too large: {res:.3e}")
    return u


def norms(forms: AssembledForms, values: np.ndarray):
    """(L2 norm, H1 seminorm) over the whole mesh."""
    v = np.asarray(values)
    # the forms square v: divide it by the power of two of its largest entry
    # first, an exact rescale that keeps a small or large v from under- or
    # overflowing, and multiply the norms back
    e = int(np.frexp(np.abs(v).max(initial=0.0))[1])
    if np.iscomplexobj(v):
        v = np.ldexp(v.real, -e) + 1j * np.ldexp(v.imag, -e)
    else:
        v = np.ldexp(v, -e)
    vc = np.conj(v)
    l2 = float(np.ldexp(np.sqrt(abs(np.dot(vc, forms.M @ v))), e))
    h1 = float(np.ldexp(np.sqrt(abs(np.dot(vc, forms.A @ v))), e))
    return l2, h1
