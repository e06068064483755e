"""Order-by-order construction of the delta-analytic constrained Helmholtz
projection, and the single-solve direct projection it is checked against.

Given a driving field F_delta = sum_k delta^k F_k of weakly divergence-free
piecewise-constant fields, the cascade produces pairs (h_k, c_k) such that
h_delta = sum delta^k h_k corrects F_delta to a field whose eps_delta-weighted
divergence vanishes, with h_delta constant (= sum delta^k c_k) on the outer
boundary and zero net outer flux.  Each order costs one interior Neumann
solve and one shell solve; the interface function Psi (harmonic in the
shell, 0 on the interface, 1 outside) absorbs the outer-flux normalization.

All traces are exchanged variationally: the shell-side normal flux handed
to the interior Neumann problem is the nodal residual of the shell solve,
never an edge-differentiated gradient.  This preserves the discrete
compatibility identity that makes every interior problem solvable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse

from .fem import (
    AssembledForms,
    FemError,
    assemble,
    divergence_load_vector,
    element_gradients,
    factor_once,
    norms,
    solve_dirichlet,
    solve_neumann,
)
from .linalg import LUFactors
from .mesh import (
    INCLUSION,
    INTERFACE,
    OUTER,
    SHELL,
    Mesh,
    MeshParseError,
    Submesh,
    _SectionReader,
    extract_submesh,
)

__all__ = [
    "DrivingField",
    "CascadeState",
    "Cascade",
    "CascadeError",
    "perp_gradient_field",
    "solve_psi",
    "direct_projection",
    "series_vs_direct",
    "save_field",
    "load_field",
]


class CascadeError(RuntimeError):
    pass


# Largest patch flux, relative to the field scale, that a driving field
# coefficient may carry and still count as weakly divergence-free.
_DIVERGENCE_TOL = 1e-12
# largest field entry accepted: the cascade's norms and residuals square the
# field, and the problem is linear in it, so a larger field is scaled down
_FIELD_MAX = 1e100


def _weak_divergence_defect(forms: AssembledForms, field_values: np.ndarray) -> float:
    """Largest patch flux of a per-triangle field over non-outer vertices."""
    b = divergence_load_vector(forms, field_values)
    interior = np.ones(forms.mesh.n_vertices, dtype=bool)
    interior[forms.mesh.boundary_vertices(OUTER)] = False
    scale = max(1.0, float(np.abs(field_values).max()))
    return float(np.abs(b[interior]).max()) / scale


@dataclass
class DrivingField:
    """Coefficient fields F_0..F_J, each per-triangle constant on the full
    mesh and weakly divergence-free away from the outer boundary."""

    fields: list            # of (n_triangles, 2) arrays

    def __post_init__(self):
        self.fields = [np.asarray(f, dtype=float) for f in self.fields]

    def coefficient(self, k: int) -> np.ndarray:
        if k < len(self.fields):
            return self.fields[k]
        return np.zeros_like(self.fields[0])

    def validate(self, forms: AssembledForms) -> None:
        for k, f in enumerate(self.fields):
            if f.shape != (forms.mesh.n_triangles, 2):
                raise CascadeError(f"coefficient {k} has shape {f.shape}, "
                                   f"expected ({forms.mesh.n_triangles}, 2)")
            if np.abs(f).max(initial=0.0) > _FIELD_MAX:
                raise CascadeError(f"coefficient {k} has an entry beyond {_FIELD_MAX:g} "
                                   "in magnitude; scale the field down")
            defect = _weak_divergence_defect(forms, f)
            if defect > _DIVERGENCE_TOL:
                raise CascadeError(
                    f"coefficient {k} is not weakly divergence-free: "
                    f"patch flux defect {defect:.3e} > {_DIVERGENCE_TOL:g}")

    def evaluate(self, delta: complex) -> np.ndarray:
        out = np.zeros(self.fields[0].shape, dtype=complex if np.iscomplexobj(
            np.asarray(delta)) or np.imag(delta) != 0 else float)
        for k, f in enumerate(self.fields):
            out = out + (delta**k) * f
        return out


def perp_gradient_field(forms: AssembledForms, stream_values: np.ndarray) -> np.ndarray:
    """Rotated gradient of a P1 stream function: exactly weakly
    divergence-free per-triangle field (the discrete curl)."""
    g = element_gradients(forms, np.asarray(stream_values, dtype=float))
    return np.column_stack([-g[:, 1], g[:, 0]])


def save_field(df: DrivingField, path: str) -> None:
    lines = [f"field {len(df.fields)}"]
    for f in df.fields:
        for fx, fy in f:
            lines.append(f"{fx:.17g} {fy:.17g}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_field(path: str, forms: AssembledForms) -> DrivingField:
    """Read a save_field file for the mesh of forms.

    The file is parsed as a mesh section is: a malformed file raises
    MeshParseError naming its line.  A field that is not weakly
    divergence-free raises CascadeError.
    """
    lines = _SectionReader(path)
    nt = forms.mesh.n_triangles
    block = lines.section("field", "fx fy", float, rows_per_count=nt)
    if not len(block):
        raise MeshParseError(lines.numbers[0], "a field file holds at least one field")
    lines.finish("the field data")
    df = DrivingField(list(block.reshape(-1, nt, 2)))
    df.validate(forms)
    return df


@dataclass
class CascadeState:
    h_list: list = field(default_factory=list)      # full-mesh nodal arrays
    c_list: list = field(default_factory=list)
    norm_list: list = field(default_factory=list)   # H1(Omega) norms of h_k

    @property
    def order(self) -> int:
        return len(self.h_list) - 1


def solve_psi(mesh: Mesh):
    """Interface function: harmonic in the shell, 0 on the inclusion
    (and its boundary), 1 on the outer boundary.  Returns (nodal values on
    the full mesh, Dirichlet energy)."""
    sub = extract_submesh(mesh, SHELL)
    return _solve_psi(sub, assemble(sub.mesh))


def _solve_psi(sub: Submesh, forms_s: AssembledForms):
    """solve_psi on an already extracted and assembled shell submesh."""
    psi_s = solve_dirichlet(forms_s, {INTERFACE: 0.0, OUTER: 1.0})
    a_psi = forms_s.A @ psi_s
    energy = float(psi_s @ a_psi)
    if energy <= 0.0:
        raise CascadeError("interface function has nonpositive energy")
    # identity check: the variational outer flux of psi equals its energy
    outer_nodes = sub.mesh.boundary_vertices(OUTER)
    flux = float(a_psi[outer_nodes].sum())
    if abs(flux - energy) > 1e-8 * energy:
        raise CascadeError(f"outer flux {flux:g} of the interface function "
                           f"disagrees with its energy {energy:g}")
    return sub.extend(psi_s, fill=0.0), energy


class Cascade:
    """Workspace bundling the mesh split, assembled forms and Psi.

    Psi is solved on first use.  Inside `run` that is within the factor
    scope, so Psi and every order's shell solve share one shell Dirichlet
    factor."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.forms = assemble(mesh)
        self.sub_d = extract_submesh(mesh, INCLUSION)
        self.sub_s = extract_submesh(mesh, SHELL)
        self.forms_d = assemble(self.sub_d.mesh)
        self.forms_s = assemble(self.sub_s.mesh)
        # node index translation between the two submeshes via the parent
        parent_to_d = np.empty(mesh.n_vertices, dtype=int)
        parent_to_d[self.sub_d.vertex_map] = np.arange(len(self.sub_d.vertex_map))
        self._shell_iface = self.sub_s.mesh.boundary_vertices(INTERFACE)
        self._shell_outer = self.sub_s.mesh.boundary_vertices(OUTER)
        self._iface_in_d = parent_to_d[self.sub_s.vertex_map[self._shell_iface]]

    @cached_property
    def _psi_solution(self):
        return _solve_psi(self.sub_s, self.forms_s)

    @property
    def psi(self) -> np.ndarray:
        return self._psi_solution[0]

    @property
    def psi_energy(self) -> float:
        return self._psi_solution[1]

    # -- field restrictions ------------------------------------------------
    def _restrict(self, field_values, sub):
        return np.asarray(field_values)[sub.triangle_map]

    def _combine(self, h_d: np.ndarray, h_s: np.ndarray) -> np.ndarray:
        full = np.zeros(self.mesh.n_vertices, dtype=np.result_type(h_d.dtype, h_s.dtype))
        full[self.sub_s.vertex_map] = h_s
        full[self.sub_d.vertex_map] = h_d   # interface nodes: same values
        return full

    def _shell_residual(self, h_s: np.ndarray, field_s: np.ndarray) -> np.ndarray:
        """Nodal residual of the shell solve = variational normal flux of
        (grad h + F) w.r.t. the shell's outward normal."""
        return self.forms_s.A @ h_s + divergence_load_vector(self.forms_s, field_s)

    def outer_flux(self, h_full: np.ndarray, field_full: np.ndarray) -> float:
        h_s = self.sub_s.restrict(h_full)
        r = self._shell_residual(h_s, self._restrict(field_full, self.sub_s))
        return float(np.real_if_close(r[self._shell_outer].sum()))

    # -- cascade orders ----------------------------------------------------
    def base(self, f0: np.ndarray) -> CascadeState:
        """Order zero: interior Neumann driven by the inclusion-side normal
        trace of F_0, harmonic shell extension, then the Psi multiple that
        cancels the outer flux."""
        state = CascadeState()
        f0_d = self._restrict(f0, self.sub_d)
        load = -divergence_load_vector(self.forms_d, f0_d)
        try:
            h_d = solve_neumann(self.forms_d, load)
        except FemError as exc:
            raise CascadeError(f"order 0 interior problem incompatible: {exc}") from exc
        self._finish_order(state, h_d, f0)
        return state

    def step(self, state: CascadeState, f_prev: np.ndarray, f_curr: np.ndarray) -> None:
        """One induction step: the interior Neumann data is the shell-side
        flux of (grad h_{K-1} + F_{K-1}) minus the inclusion-side normal
        trace of F_K."""
        if not state.h_list:
            raise CascadeError("run base() before step()")
        k = state.order + 1
        h_prev_s = self.sub_s.restrict(state.h_list[-1])
        r = self._shell_residual(h_prev_s, self._restrict(f_prev, self.sub_s))
        load = -divergence_load_vector(self.forms_d, self._restrict(f_curr, self.sub_d))
        load[self._iface_in_d] -= r[self._shell_iface]
        try:
            h_d = solve_neumann(self.forms_d, load)
        except FemError as exc:
            raise CascadeError(
                f"order {k} interior problem incompatible (flux imbalance "
                f"upstream of the induction): {exc}") from exc
        self._finish_order(state, h_d, f_curr)

    def _finish_order(self, state: CascadeState, h_d: np.ndarray, f_k: np.ndarray) -> None:
        f_s = self._restrict(f_k, self.sub_s)
        trace = np.zeros(self.sub_s.mesh.n_vertices)
        trace[self._shell_iface] = h_d[self._iface_in_d]
        h_s = solve_dirichlet(self.forms_s,
                              {INTERFACE: trace, OUTER: 0.0},
                              load=-divergence_load_vector(self.forms_s, f_s))
        flux = float(self._shell_residual(h_s, f_s)[self._shell_outer].sum())
        c_k = -flux / self.psi_energy
        h_full = self._combine(h_d, h_s) + c_k * self.psi
        # independent re-measurement of the enforced normalization
        re_flux = self.outer_flux(h_full, f_k)
        if abs(re_flux) > 1e-8 * max(1.0, float(np.abs(f_k).max())):
            raise CascadeError(f"outer flux {re_flux:.3e} survives the "
                               f"Psi correction at order {state.order + 1}")
        l2, h1 = norms(self.forms, h_full)
        state.h_list.append(h_full)
        state.c_list.append(c_k)
        state.norm_list.append(float(np.hypot(l2, h1)))

    def run(self, driving: DrivingField, max_order: int) -> CascadeState:
        driving.validate(self.forms)
        # every order solves the same interior Neumann and shell Dirichlet
        # operators, and Psi (if not yet solved) the same shell Dirichlet
        # one: factor each once, and free both factors before the caller
        # goes on to the (larger) direct projection
        with factor_once(self.forms_d, self.forms_s):
            state = self.base(driving.coefficient(0))
            for k in range(1, max_order + 1):
                self.step(state, driving.coefficient(k - 1), driving.coefficient(k))
        return state

    def growth_ratio(self, state: CascadeState) -> float:
        """Fitted per-order growth of the H1 norms (geometric mean of
        successive ratios over the nonvanishing tail)."""
        ns = [n for n in state.norm_list if n > 1e-14]
        if len(ns) < 2:
            return 0.0
        ratios = [b / a for a, b in zip(ns, ns[1:])]
        return float(np.exp(np.mean(np.log(ratios))))


def direct_projection(cascade: Cascade, field_values: np.ndarray, delta: complex) -> np.ndarray:
    """Single-solve projection: div(eps_delta (F + grad h)) = 0 with h
    constant on the outer boundary (one merged unknown) and zero net outer
    flux.  Normalized to zero inclusion mean, matching the cascade."""
    if delta == 0:
        raise CascadeError("direct projection requires delta != 0")
    forms = cascade.forms
    mesh = cascade.mesh
    n = mesh.n_vertices
    complex_case = np.imag(delta) != 0
    dtype = complex if complex_case else float
    delta_s = complex(delta) if complex_case else float(np.real(delta))

    a_delta = (forms.A_D + delta_s * forms.A_S).astype(dtype)
    field_w = np.asarray(field_values, dtype=dtype).copy()
    field_w[mesh.regions == SHELL] *= delta_s
    b_w = divergence_load_vector(forms, field_w)

    outer = mesh.boundary_vertices(OUTER)
    red = -np.ones(n, dtype=int)
    inner_nodes = np.setdiff1d(np.arange(n), outer)
    red[inner_nodes] = np.arange(len(inner_nodes))
    red[outer] = len(inner_nodes)
    nr = len(inner_nodes) + 1
    p = scipy.sparse.csr_matrix((np.ones(n), (np.arange(n), red)), shape=(n, nr))

    ar = (p.T @ a_delta @ p).tocsc()
    br = -(p.T @ b_w)
    md1 = forms.M_D @ np.ones(n)
    mr = p.T @ md1.astype(dtype)
    kkt = scipy.sparse.bmat([[ar, mr[:, None]], [mr[None, :], None]], format="csc")
    sol = LUFactors(kkt).solve(np.concatenate([br, [0.0]]))
    h = p @ sol[:nr]
    h = h - np.dot(md1, h) / md1.sum()   # exact zero inclusion mean

    # side conditions: interior weighted-divergence residual and outer flux
    res = a_delta @ h + b_w
    interior = np.ones(n, dtype=bool)
    interior[outer] = False
    scale = max(1.0, float(np.abs(field_values).max()))
    if np.abs(res[interior]).max() > 1e-8 * scale:
        raise CascadeError("weighted divergence residual too large in direct projection")
    unweighted_outer = (forms.A.astype(dtype) @ h
                        + divergence_load_vector(forms, np.asarray(field_values, dtype=dtype)))
    if abs(unweighted_outer[outer].sum()) > 1e-8 * scale:
        raise CascadeError("outer flux condition violated in direct projection")
    return h


def series_vs_direct(cascade: Cascade, driving: DrivingField, delta: complex,
                     max_order: int, state: CascadeState | None = None):
    """Relative H1 errors e_K of the truncated series against the direct
    projection of the full field evaluated at delta."""
    if state is None:
        state = cascade.run(driving, max_order)
    h_direct = direct_projection(cascade, driving.evaluate(delta), delta)
    l2d, h1d = norms(cascade.forms, h_direct)
    ref = float(np.hypot(l2d, h1d))
    if ref == 0.0:
        raise CascadeError("the direct projection vanishes, so the relative "
                           "series error is undefined (zero driving field?)")
    errors = []
    partial = np.zeros(cascade.mesh.n_vertices, dtype=complex)
    for k in range(max_order + 1):
        partial += (delta**k) * state.h_list[k]
        diff = partial - h_direct
        l2, h1 = norms(cascade.forms, diff)
        errors.append(float(np.hypot(l2, h1)) / ref)
    return errors
