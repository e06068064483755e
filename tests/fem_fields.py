"""P1 functionals that the tests measure solutions with: element gradients,
edge flux loads, variational boundary fluxes and divergence-free fields;
the writer of the field files that `cascade --field` reads; for the
cascade, its series errors against a serial direct projection and a step
that fails after order zero; and a mesh renumbered at random, rotated or
mirrored."""

from __future__ import annotations

import numpy as np

from enzspec.cascade import CascadeError, DrivingField, direct_projection, series_vs_direct
from enzspec.fem import AssembledForms
from enzspec.mesh import OUTER, Mesh


def element_gradients(forms: AssembledForms, values: np.ndarray) -> np.ndarray:
    """Per-triangle constant gradient of a P1 function, shape (nt, 2)."""
    return (forms.div.T @ np.asarray(values)).reshape(-1, 2) / forms.mesh.triangle_areas()[:, None]


def perp_gradient_field(forms: AssembledForms, stream_values: np.ndarray) -> np.ndarray:
    """Rotated gradient of a P1 stream function: exactly weakly
    divergence-free per-triangle field (the discrete curl)."""
    g = element_gradients(forms, np.asarray(stream_values, dtype=float))
    return np.column_stack([-g[:, 1], g[:, 0]])


def edge_flux_load(mesh: Mesh, tag: int, edge_flux) -> np.ndarray:
    """Nodal load from edge-wise constant normal flux g on edges of a tag:
    b_i = integral over the tagged edges of g * phi_i."""
    sel = np.nonzero(mesh.edge_tags == tag)[0]
    edge_flux = np.broadcast_to(np.asarray(edge_flux), (len(sel),))
    b = np.zeros(mesh.n_vertices, dtype=np.result_type(edge_flux.dtype, float))
    for g, e in zip(edge_flux, sel):
        a, c = mesh.edges[e]
        length = np.linalg.norm(mesh.vertices[c] - mesh.vertices[a])
        b[a] += 0.5 * g * length
        b[c] += 0.5 * g * length
    return b


def boundary_flux(forms: AssembledForms, values: np.ndarray, tag: int) -> float:
    """Variationally consistent outward flux of grad h through the edges of
    a tag: the discrete residual A h summed over the tag's nodes equals the
    boundary integral of the normal derivative."""
    nodes = forms.mesh.boundary_vertices(tag)
    return float((forms.A @ np.asarray(values))[nodes].sum())


def outer_flux(cascade, h: np.ndarray, field_values: np.ndarray) -> float:
    """Variational outward flux of grad h + F through a cascade's outer
    boundary: the shell residual A_S h + div F summed over the outer nodes."""
    forms, sub = cascade.forms_s, cascade.sub_s
    residual = (forms.A @ sub.restrict(h)
                + forms.div @ np.asarray(field_values)[sub.triangle_map].ravel())
    return float(residual[forms.mesh.boundary_vertices(OUTER)].sum())


def save_field(df: DrivingField, path: str) -> None:
    """Write df as a `field N` text file (README, "Mesh and field files"),
    the format `cascade.load_field` reads."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"field {len(df.fields)}\n")
        for values in df.fields:
            np.savetxt(f, values, fmt="%.17g")


def serial_series_errors(cascade, driving: DrivingField, delta, state) -> list:
    """series_vs_direct of a run state against the direct projection of the
    driving field at delta, solved here on the calling thread."""
    h_direct = direct_projection(cascade, driving.evaluate(delta), delta)
    return series_vs_direct(cascade, h_direct, delta, state)


def failing_after_order_zero(step):
    """Cascade.step that solves order zero, then raises at order one."""

    def broken(self, state, *args):
        if state.h_list:
            raise CascadeError("step failed")
        step(self, state, *args)

    return broken


def renumbered(mesh: Mesh, seed: int) -> Mesh:
    """The same mesh numbered at random: a vertex permutation, a triangle
    order, a cyclic rotation of each triangle's corners (so each stays
    counter-clockwise), an edge order and a direction for each edge."""
    rng = np.random.default_rng(seed)
    new = rng.permutation(mesh.n_vertices)     # the new index of each vertex
    vertices = np.empty_like(mesh.vertices)
    vertices[new] = mesh.vertices
    order = rng.permutation(mesh.n_triangles)
    turn = (np.arange(3) + rng.integers(0, 3, (len(order), 1))) % 3
    triangles = np.take_along_axis(new[mesh.triangles[order]], turn, axis=1)
    edge_order = rng.permutation(len(mesh.edges))
    edges = new[mesh.edges[edge_order]]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]
    return Mesh(vertices, triangles, mesh.regions[order], edges, mesh.edge_tags[edge_order])


def rotated(mesh: Mesh, angle: float) -> Mesh:
    """The mesh turned rigidly by angle about the origin, numbered as before."""
    c, s = np.cos(angle), np.sin(angle)
    vertices = mesh.vertices @ np.array([[c, s], [-s, c]])
    return Mesh(vertices, mesh.triangles, mesh.regions, mesh.edges, mesh.edge_tags)


def mirrored(mesh: Mesh) -> Mesh:
    """The mesh reflected by x -> -x, each triangle's last two corners
    swapped so that it stays counter-clockwise."""
    vertices = mesh.vertices * [-1.0, 1.0]
    return Mesh(vertices, mesh.triangles[:, [0, 2, 1]], mesh.regions, mesh.edges,
                mesh.edge_tags)
