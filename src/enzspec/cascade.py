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

The products each order forms: the inclusion's divergence load div_D F_D
and its size |div_D| |F_D|; the shell's divergence load div_S F_S, once,
which is the shell solve's load and enters both shell residuals
A_S h_S + div_S F_S; the size |A_S| |h_S| + |div_S| |F_S| of the second
residual; and the two full-mesh norm products M h and A h.  The solves add
their own residual products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fem import (
    AssembledForms,
    FemError,
    assemble,
    factor_once,
    norms,
    restrict_forms,
    solve_dirichlet,
    solve_neumann,
    validated_radius,
    warn_outside_validated_disk,
)
from .linalg import LUFactors
from .mesh import (
    INCLUSION,
    INTERFACE,
    OUTER,
    SHELL,
    Mesh,
    MeshParseError,
    _SectionReader,
    extract_submesh,
)

__all__ = [
    "DrivingField",
    "CascadeState",
    "Cascade",
    "CascadeError",
    "direct_projection",
    "series_vs_direct",
    "load_field",
]


class CascadeError(RuntimeError):
    pass


# Largest patch flux, relative at each vertex to the magnitudes of the terms
# it sums, that a driving field coefficient may carry and still count as
# weakly divergence-free.
_DIVERGENCE_TOL = 1e-12
# largest field entry accepted: the cascade's norms and residuals square the
# field, and the problem is linear in it, so a larger field is scaled down
_FIELD_MAX = 1e100


def _abs(matrix):
    """|matrix| entrywise, on the matrix's own index arrays."""
    return type(matrix)((np.abs(matrix.data), matrix.indices, matrix.indptr),
                        shape=matrix.shape)


def _load_size(forms: AssembledForms, field_values: np.ndarray) -> np.ndarray:
    """Per vertex, the summed magnitudes of the terms that the divergence
    load forms.div @ F.ravel() adds up: the scale of its rounding error,
    which follows both the field and the mesh length scale, and the
    `load_size` that solve_neumann checks a load against."""
    return _abs(forms.div) @ np.abs(field_values).ravel()


def _flux_size(matrix, h: np.ndarray, forms: AssembledForms, field_values) -> np.ndarray:
    """Per vertex, the summed magnitudes of the terms of matrix @ h plus the
    divergence load of the field."""
    return _abs(matrix) @ np.abs(h) + _load_size(forms, field_values)


def _weak_divergence_defect(forms: AssembledForms, field_values: np.ndarray) -> float:
    """Largest patch flux of a per-triangle field over non-outer vertices,
    each relative to the summed magnitudes of its terms (0 where all vanish)."""
    b = forms.div @ field_values.ravel()
    defect = np.abs(b) / np.maximum(_load_size(forms, field_values), np.finfo(float).tiny)
    defect[forms.mesh.boundary_vertices(OUTER)] = 0.0
    return float(defect.max())


@dataclass
class DrivingField:
    """Coefficient fields F_0..F_J, each per-triangle constant on the full
    mesh and weakly divergence-free away from the outer boundary."""

    fields: list            # of (n_triangles, 2) arrays

    def __post_init__(self):
        self.fields = [np.asarray(f, dtype=float) for f in self.fields]

    def coefficient(self, k: int) -> np.ndarray:
        """F_k for k >= 0, which is zero beyond the last field."""
        return self.fields[k] if k < len(self.fields) else np.zeros_like(self.fields[0])

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


def load_field(path: str, forms: AssembledForms) -> DrivingField:
    """Read a `field N` file (README, "Mesh and field files") for the mesh
    of forms.

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
    # shell residual of (h_k, F_k), the next order's interface data, and
    # the summed magnitudes of its terms; none before order zero
    residual: np.ndarray | None = None
    size: np.ndarray | None = None

    @property
    def order(self) -> int:
        return len(self.h_list) - 1


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
        self.forms_d = restrict_forms(self.forms, self.sub_d)
        self.forms_s = restrict_forms(self.forms, self.sub_s)
        self._shell_iface = self.sub_s.mesh.boundary_vertices(INTERFACE)
        self._shell_outer = self.sub_s.mesh.boundary_vertices(OUTER)
        # the interface vertices' inclusion indices: both vertex maps are sorted
        self._iface_in_d = np.searchsorted(self.sub_d.vertex_map,
                                           self.sub_s.vertex_map[self._shell_iface])

    @cached_property
    def _psi_solution(self):
        """Psi and its Dirichlet energy: harmonic in the shell, 0 on the
        inclusion (and its boundary), 1 on the outer boundary."""
        psi_s = solve_dirichlet(self.forms_s, {INTERFACE: 0.0, OUTER: 1.0})
        a_psi = self.forms_s.A @ psi_s
        energy = float(psi_s @ a_psi)
        if energy <= 0.0:
            raise CascadeError("interface function has nonpositive energy")
        # identity check: the variational outer flux of psi equals its energy
        flux = float(a_psi[self._shell_outer].sum())
        if abs(flux - energy) > 1e-8 * energy:
            raise CascadeError(f"outer flux {flux:g} of the interface function "
                               f"disagrees with its energy {energy:g}")
        return self.sub_s.extend(psi_s), energy

    @property
    def psi(self) -> np.ndarray:
        return self._psi_solution[0]

    @property
    def psi_energy(self) -> float:
        return self._psi_solution[1]

    def _shell_residual(self, h_s: np.ndarray, load_s: np.ndarray) -> np.ndarray:
        """Nodal residual of the shell solve = variational normal flux of
        (grad h + F) w.r.t. the shell's outward normal, given the shell's
        divergence load load_s = div_S @ F_S."""
        return self.forms_s.A @ h_s + load_s

    # -- cascade orders ----------------------------------------------------
    def step(self, state: CascadeState, f_k: np.ndarray) -> None:
        """Append order k = state.order + 1.  The interior Neumann data is the
        shell residual of (h_{k-1}, F_{k-1}) minus the inclusion-side normal
        trace of F_k; order zero has no shell residual.  A harmonic shell
        extension follows, then the Psi multiple that cancels the outer flux.
        Its shell residual is re-measured and kept for order k + 1."""
        k = state.order + 1
        f_d = f_k[self.sub_d.triangle_map]
        load = -(self.forms_d.div @ f_d.ravel())
        load_size = _load_size(self.forms_d, f_d)
        if state.residual is not None:
            load[self._iface_in_d] -= state.residual[self._shell_iface]
            load_size[self._iface_in_d] += state.size[self._shell_iface]
        try:
            h_d = solve_neumann(self.forms_d, load, load_size)
        except FemError as exc:
            cause = " (flux imbalance upstream of the induction)" if k else ""
            raise CascadeError(f"order {k} interior problem incompatible{cause}: "
                               f"{exc}") from exc
        f_s = f_k[self.sub_s.triangle_map]
        load_s = self.forms_s.div @ f_s.ravel()
        trace = np.zeros(self.sub_s.mesh.n_vertices)
        trace[self._shell_iface] = h_d[self._iface_in_d]
        h_s = solve_dirichlet(self.forms_s, {INTERFACE: trace, OUTER: 0.0}, load=-load_s)
        flux = float(self._shell_residual(h_s, load_s)[self._shell_outer].sum())
        c_k = -flux / self.psi_energy
        h_full = self.sub_s.extend(h_s)
        h_full[self.sub_d.vertex_map] = h_d   # interface nodes: same values
        h_full = h_full + c_k * self.psi
        # independent re-measurement of the enforced normalization, against
        # the magnitudes of the terms it sums: order k > 0 is driven by
        # h_{k-1}, not by F_k alone
        h_s = self.sub_s.restrict(h_full)
        residual = self._shell_residual(h_s, load_s)
        re_flux = float(residual[self._shell_outer].sum())
        size = _flux_size(self.forms_s.A, h_s, self.forms_s, f_s)
        if abs(re_flux) > 1e-8 * size[self._shell_outer].sum():
            raise CascadeError(f"outer flux {re_flux:.3e} survives the "
                               f"Psi correction at order {k}")
        l2, h1 = norms(self.forms, h_full)
        state.h_list.append(h_full)
        state.c_list.append(c_k)
        state.norm_list.append(float(np.hypot(l2, h1)))
        state.residual, state.size = residual, size

    def run(self, driving: DrivingField, max_order: int) -> CascadeState:
        driving.validate(self.forms)
        # every order solves the same interior Neumann and shell Dirichlet
        # operators, and Psi (if not yet solved) the same shell Dirichlet
        # one: factor each once, and free both factors before the caller
        # goes on to the (larger) direct projection
        state = CascadeState()
        with factor_once(self.forms_d, self.forms_s):
            for k in range(max_order + 1):
                self.step(state, driving.coefficient(k))
        return state


def direct_projection(cascade: Cascade, field_values: np.ndarray, delta: complex) -> np.ndarray:
    """Single-solve projection: div(eps_delta (F + grad h)) = 0 with h
    constant on the outer boundary and zero net outer flux.  Normalized to
    zero inclusion mean, matching the cascade.

    The outer constant is grounded at 0, which leaves a Dirichlet solve on
    the non-outer vertices with A_D + delta A_S.  The rows of that matrix and
    of the load sum to zero, so the zero-net-flux condition, the one row the
    grounding drops, holds by itself; the inclusion mean is subtracted after.
    """
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
    b_w = forms.div @ field_w.ravel()

    outer = mesh.boundary_vertices(OUTER)
    free = np.ones(n, dtype=bool)
    free[outer] = False
    h = np.zeros(n, dtype=dtype)
    h[free] = LUFactors(a_delta[free][:, free]).solve(-b_w[free])
    md1 = forms.M_D @ np.ones(n)
    h = h - np.dot(md1, h) / md1.sum()   # exact zero inclusion mean

    # side conditions, each against the magnitudes of the terms it sums:
    # interior weighted-divergence residual and unweighted outer flux
    res = a_delta @ h + b_w
    size = _flux_size(a_delta, h, forms, field_w)
    if np.abs(res[free]).max() > 1e-8 * size[free].max():
        raise CascadeError("weighted divergence residual too large in direct projection")
    field_u = np.asarray(field_values, dtype=dtype)
    flux = forms.A @ h + forms.div @ field_u.ravel()
    if abs(flux[outer].sum()) > 1e-8 * _flux_size(forms.A, h, forms, field_u)[outer].sum():
        raise CascadeError("outer flux condition violated in direct projection")
    return h


def series_vs_direct(cascade: Cascade, driving: DrivingField, delta: complex,
                     state: CascadeState):
    """Relative H1 errors e_K, K = 0..state.order, of the truncated series
    of a `run` state against the direct projection of the full field
    evaluated at delta.  A delta outside the validated disk draws the same
    UserWarning as `eig.Pencil.B`: the series need not converge there."""
    warn_outside_validated_disk(delta, validated_radius(cascade.forms))
    h_direct = direct_projection(cascade, driving.evaluate(delta), delta)
    l2d, h1d = norms(cascade.forms, h_direct)
    ref = float(np.hypot(l2d, h1d))
    if ref == 0.0:
        raise CascadeError("the direct projection vanishes, so the relative "
                           "series error is undefined (zero driving field?)")
    errors = []
    partial = np.zeros(cascade.mesh.n_vertices, dtype=complex)
    for k, h in enumerate(state.h_list):
        partial += (delta**k) * h
        diff = partial - h_direct
        l2, h1 = norms(cascade.forms, diff)
        errors.append(float(np.hypot(l2, h1)) / ref)
    return errors
