"""Tagged simplicial 2D meshes for the core-shell geometry.

A mesh carries per-triangle region tags (INCLUSION / SHELL), and a list of
tagged edges: INTERFACE edges separate the two regions, OUTER edges lie on
the domain boundary.  Two structured generators are provided (disk inside a
disk, disk inside a square) plus a plain-text file format, submesh
extraction and uniform red refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np
import scipy.sparse

INCLUSION = 0
SHELL = 1
INTERFACE = 0
OUTER = 1

__all__ = [
    "INCLUSION",
    "SHELL",
    "INTERFACE",
    "OUTER",
    "Mesh",
    "Submesh",
    "MeshError",
    "MeshParseError",
    "generate_disk_in_disk",
    "generate_square_with_disk",
    "load_mesh",
    "save_mesh",
    "extract_submesh",
    "refine_uniform",
]


class MeshError(ValueError):
    """Mesh validation failure."""


class MeshParseError(ValueError):
    """Mesh file syntax error; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class Mesh:
    vertices: np.ndarray          # (nv, 2) float
    triangles: np.ndarray         # (nt, 3) int, CCW
    regions: np.ndarray           # (nt,) int in {INCLUSION, SHELL}
    edges: np.ndarray             # (ne, 2) int, tagged edges only
    edge_tags: np.ndarray         # (ne,) int in {INTERFACE, OUTER}
    metadata: dict = field(default_factory=dict)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

    def region_area(self, region: int) -> float:
        return float(self.triangle_areas()[self.regions == region].sum())

    def boundary_edges(self, tag: int) -> np.ndarray:
        return self.edges[self.edge_tags == tag]

    def boundary_vertices(self, tag: int) -> np.ndarray:
        return np.unique(self.edges[self.edge_tags == tag])

    def validate(self) -> None:
        """Raise MeshError on any structural inconsistency."""
        nv = self.n_vertices
        if self.triangles.min(initial=0) < 0 or self.triangles.max(initial=-1) >= nv:
            raise MeshError("triangle vertex index out of range")
        bad = np.nonzero(~np.isfinite(self.vertices).all(axis=1))[0]
        if len(bad):
            raise MeshError(f"vertex {bad[0]} has non-finite coordinates")
        areas = self.triangle_areas()
        bad = np.nonzero(areas <= 0.0)[0]
        if len(bad):
            raise MeshError(f"triangle {bad[0]} has non-positive area {areas[bad[0]]:g}")

        keys, count, incident, first = _edge_incidence(self.triangles, nv)
        # edges are reported in the order of their first occurrence
        bad = np.nonzero(count > 2)[0]
        if len(bad):
            e = bad[np.argmin(first[bad])]
            raise MeshError(f"edge {_edge_of(keys[e], nv)} shared by {count[e]} triangles")

        # each tagged edge, in file order, against the checks in this order
        tagged, tag_order = _edge_keys(self.edges, nv)
        in_range = (self.edges.min(axis=1) >= 0) & (self.edges.max(axis=1) < nv)
        pos, found = _find(keys, tagged)
        found &= in_range
        n = np.zeros(len(tagged), dtype=int)
        n[found] = count[pos[found]]
        regs = np.full((len(tagged), 2), -1)
        regs[found] = self.regions[incident[pos[found]]]
        separates = (regs.min(axis=1) == INCLUSION) & (regs.max(axis=1) == SHELL)
        twice = np.zeros(len(tagged), dtype=bool)
        sorted_tagged = tagged[tag_order]
        twice[tag_order[1:][sorted_tagged[1:] == sorted_tagged[:-1]]] = True
        outer, iface = self.edge_tags == OUTER, self.edge_tags == INTERFACE
        checks = (
            (twice, "edge {key} tagged twice"),
            (~found, "tagged edge {key} not found in any triangle (hanging node or stale index)"),
            (outer & (n != 1), "OUTER edge {key} lies on {n} triangles, expected 1"),
            (iface & (n != 2), "INTERFACE edge {key} lies on {n} triangles, expected 2"),
            (iface & ~separates, "INTERFACE edge {key} does not separate INCLUSION from SHELL"),
            (~outer & ~iface, "unknown edge tag {tag}"),
        )
        bad = np.nonzero(np.any([mask for mask, _ in checks], axis=0))[0]
        if len(bad):
            i = bad[0]
            a, b = sorted(self.edges[i].tolist())
            message = next(message for mask, message in checks if mask[i])
            raise MeshError(message.format(key=(a, b), n=n[i], tag=self.edge_tags[i]))

        _, is_tagged = _find(sorted_tagged, keys)
        splits = self.regions[incident[:, 0]] != self.regions[incident[:, 1]]
        bad = np.nonzero(~is_tagged & ((count == 1) | ((count == 2) & splits)))[0]
        if len(bad):
            e = bad[np.argmin(first[bad])]
            if count[e] == 1:
                raise MeshError(f"boundary edge {_edge_of(keys[e], nv)} carries no tag (hanging node?)")
            raise MeshError(f"region-separating edge {_edge_of(keys[e], nv)} not tagged INTERFACE")

        # connectivity of the inclusion over the edges two inclusion triangles share
        in_inc = self.regions == INCLUSION
        if in_inc.any():
            # imported here so that commands which never validate a mesh do
            # not load csgraph's ten modules
            from scipy.sparse.csgraph import connected_components

            pairs = incident[count == 2]
            a, b = pairs[in_inc[pairs].all(axis=1)].T
            nt = self.n_triangles
            graph = scipy.sparse.coo_matrix((np.ones(len(a)), (a, b)), shape=(nt, nt))
            labels = connected_components(graph, directed=False)[1]
            parts = len(np.unique(labels[in_inc]))
            if parts > 1:
                raise MeshError(f"INCLUSION region is disconnected ({parts} components)")


def _edge_keys(edges: np.ndarray, n_vertices: int):
    """Key lo * n_vertices + hi (int64) of each undirected edge, and the
    stable permutation that sorts the keys."""
    edges = np.asarray(edges, dtype=np.int64)
    keys = edges.min(axis=1) * n_vertices + edges.max(axis=1)
    return keys, np.argsort(keys, kind="stable")


def _edge_of(key, n_vertices: int) -> tuple[int, int]:
    return divmod(int(key), n_vertices)


def _find(sorted_keys: np.ndarray, keys: np.ndarray):
    """Position of each key in sorted_keys, and whether it is there."""
    pos = np.searchsorted(sorted_keys, keys)
    found = pos < len(sorted_keys)
    found[found] = sorted_keys[pos[found]] == keys[found]
    return pos, found


def _edge_incidence(triangles: np.ndarray, n_vertices: int):
    """The distinct edges of a triangle array, sorted by key.

    Triangle t has its edges (0, 1), (1, 2), (2, 0) at positions 3t, 3t+1,
    3t+2 of the edge sequence.  Returns, per distinct edge: its key (see
    _edge_keys), the number of triangles it lies on, its first two incident
    triangles (the second is -1 on an edge of one triangle) and the position
    of its first occurrence in the edge sequence.
    """
    ends = np.stack([triangles, triangles[:, [1, 2, 0]]], axis=-1).reshape(-1, 2)
    keys, order = _edge_keys(ends, n_vertices)
    sorted_keys = keys[order]
    start = np.ones(len(keys), dtype=bool)
    start[1:] = sorted_keys[1:] != sorted_keys[:-1]
    start = np.nonzero(start)[0]
    count = np.diff(np.append(start, len(keys)))
    first = order[start]
    second = np.where(count > 1, order[np.minimum(start + 1, len(keys) - 1)] // 3, -1)
    return sorted_keys[start], count, np.column_stack([first // 3, second]), first


@dataclass
class Submesh:
    parent: Mesh
    region: int
    mesh: Mesh                    # child mesh
    vertex_map: np.ndarray        # child vertex index -> parent vertex index
    triangle_map: np.ndarray      # child triangle index -> parent triangle index
    # roles of the child's tagged edges, inherited from the parent tags:
    # INTERFACE for edges that were interface edges, OUTER for outer ones.

    def restrict(self, parent_values: np.ndarray) -> np.ndarray:
        return np.asarray(parent_values)[self.vertex_map]

    def extend(self, child_values: np.ndarray, fill=0.0) -> np.ndarray:
        out = np.full(self.parent.n_vertices, fill,
                      dtype=np.result_type(np.asarray(child_values).dtype, type(fill)))
        out[self.vertex_map] = child_values
        return out


def _polar_rings(rings_core: int, n_theta: int):
    thetas = 2.0 * math.pi * np.arange(n_theta) / n_theta
    verts = [np.zeros((1, 2))]
    for i in range(1, rings_core + 1):
        r = i / rings_core
        verts.append(np.column_stack([r * np.cos(thetas), r * np.sin(thetas)]))
    return np.vstack(verts), thetas


def _ring_index(ring: int, t: int, n_theta: int) -> int:
    # ring 0 is the single center vertex
    if ring == 0:
        return 0
    return 1 + (ring - 1) * n_theta + (t % n_theta)


def _build_core(rings_core: int, n_theta: int):
    tris, regs = [], []
    for t in range(n_theta):
        tris.append((0, _ring_index(1, t, n_theta), _ring_index(1, t + 1, n_theta)))
        regs.append(INCLUSION)
    for ring in range(1, rings_core):
        for t in range(n_theta):
            a = _ring_index(ring, t, n_theta)
            b = _ring_index(ring, t + 1, n_theta)
            c = _ring_index(ring + 1, t, n_theta)
            d = _ring_index(ring + 1, t + 1, n_theta)
            tris.append((a, d, b))
            tris.append((a, c, d))
            regs.extend((INCLUSION, INCLUSION))
    return tris, regs


def _build_shell(rings_core: int, rings_shell: int, n_theta: int, tris, regs):
    for ring in range(rings_core, rings_core + rings_shell):
        for t in range(n_theta):
            a = _ring_index(ring, t, n_theta)
            b = _ring_index(ring, t + 1, n_theta)
            c = _ring_index(ring + 1, t, n_theta)
            d = _ring_index(ring + 1, t + 1, n_theta)
            tris.append((a, d, b))
            tris.append((a, c, d))
            regs.extend((SHELL, SHELL))


def _tag_rings(rings_core: int, rings_total: int, n_theta: int):
    edges, tags = [], []
    for t in range(n_theta):
        edges.append((_ring_index(rings_core, t, n_theta), _ring_index(rings_core, t + 1, n_theta)))
        tags.append(INTERFACE)
    for t in range(n_theta):
        edges.append((_ring_index(rings_total, t, n_theta), _ring_index(rings_total, t + 1, n_theta)))
        tags.append(OUTER)
    return edges, tags


def _default_n_theta(rings_core: int) -> int:
    n = max(16, 4 * rings_core)
    return n + (-n) % 8  # multiple of 8 so square corners land on vertices


def generate_disk_in_disk(R: float, rings_core: int, rings_shell: int,
                          n_theta: int | None = None) -> Mesh:
    """Structured polar mesh of the unit disk inside the disk of radius R."""
    if R <= 1.0:
        raise MeshError(f"outer radius must exceed 1, got {R}")
    if rings_core < 2 or rings_shell < 2:
        raise MeshError("ring counts must be >= 2")
    if n_theta is None:
        n_theta = _default_n_theta(rings_core)
    core_verts, thetas = _polar_rings(rings_core, n_theta)
    shell = []
    for j in range(1, rings_shell + 1):
        r = 1.0 + j * (R - 1.0) / rings_shell
        shell.append(np.column_stack([r * np.cos(thetas), r * np.sin(thetas)]))
    verts = np.vstack([core_verts] + shell)

    tris, regs = _build_core(rings_core, n_theta)
    _build_shell(rings_core, rings_shell, n_theta, tris, regs)
    edges, tags = _tag_rings(rings_core, rings_core + rings_shell, n_theta)

    mesh = Mesh(verts, np.array(tris), np.array(regs), np.array(edges), np.array(tags),
                metadata={"generator": "disk_in_disk", "snap_interface": True,
                          "R": float(R)})
    mesh.validate()
    return mesh


def _square_point(theta: float, L: float) -> tuple[float, float]:
    c, s = math.cos(theta), math.sin(theta)
    m = max(abs(c), abs(s))
    return L * c / m, L * s / m


def generate_square_with_disk(L: float, rings_core: int, rings_blend: int,
                              n_theta: int | None = None) -> Mesh:
    """Unit disk inside the square [-L, L]^2, shell meshed by transfinite
    blending between the circle r = 1 and the square boundary."""
    if L <= 1.0:
        raise MeshError(f"half side must exceed 1, got {L}")
    if rings_core < 2 or rings_blend < 2:
        raise MeshError("ring counts must be >= 2")
    if n_theta is None:
        n_theta = _default_n_theta(rings_core)
    if n_theta % 8:
        raise MeshError("n_theta must be a multiple of 8 so square corners are vertices")
    core_verts, thetas = _polar_rings(rings_core, n_theta)
    circle = core_verts[1 + (rings_core - 1) * n_theta:]
    square = np.array([_square_point(t, L) for t in thetas])
    shell = []
    for j in range(1, rings_blend + 1):
        s = j / rings_blend
        shell.append((1.0 - s) * circle + s * square)
    verts = np.vstack([core_verts] + shell)

    tris, regs = _build_core(rings_core, n_theta)
    _build_shell(rings_core, rings_blend, n_theta, tris, regs)
    edges, tags = _tag_rings(rings_core, rings_core + rings_blend, n_theta)

    mesh = Mesh(verts, np.array(tris), np.array(regs), np.array(edges), np.array(tags),
                metadata={"generator": "square_with_disk", "snap_interface": True,
                          "L": float(L)})
    mesh.validate()
    return mesh


# ---------------------------------------------------------------------------
# plain-text format: header `enzmesh 1 2`, then vertices/triangles/boundary
# ---------------------------------------------------------------------------

def save_mesh(mesh: Mesh, path: str) -> None:
    lines = ["enzmesh 1 2", f"vertices {mesh.n_vertices}"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g}")
    lines.append(f"triangles {mesh.n_triangles}")
    for (i, j, k), r in zip(mesh.triangles, mesh.regions):
        lines.append(f"{i} {j} {k} {r}")
    lines.append(f"boundary {len(mesh.edges)}")
    for (i, j), t in zip(mesh.edges, mesh.edge_tags):
        lines.append(f"{i} {j} {t}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _parse_rows(numbers: list, texts: list, form: str, dtype,
                tag: tuple[str, tuple[int, ...]] | None = None) -> np.ndarray:
    """Convert the lines of one section as one (n, k) block.

    The last column of an integer section is a tag that must be one of
    tag[1].  If the block does not convert, the lines are walked to name the
    first bad one.
    """
    k = len(form.split())
    if not texts:
        return np.empty((0, k), dtype=dtype)
    try:
        block = np.loadtxt(texts, dtype=dtype, comments=None, ndmin=2)
    except ValueError:
        block = None
    if block is not None and block.shape[1] == k:
        if tag is None:
            return block
        bad = np.nonzero(~np.isin(block[:, -1], tag[1]))[0]
        if not len(bad):
            return block
        raise MeshParseError(numbers[bad[0]], f"unknown {tag[0]} tag {block[bad[0], -1]}")
    for no, ln in zip(numbers, texts):
        if len(ln.split()) != k:
            raise MeshParseError(no, f"expected '{form}', got {ln!r}")
        try:
            row = np.loadtxt([ln], dtype=dtype, comments=None, ndmin=2)
        except ValueError:
            row = None
        if row is None or row.shape != (1, k):
            raise MeshParseError(no, f"bad {'coordinate' if dtype is float else 'integer'} "
                                     f"in {ln!r}")
        if tag is not None and row[0, -1] not in tag[1]:
            raise MeshParseError(no, f"unknown {tag[0]} tag {row[0, -1]}")
    raise AssertionError("a mesh section failed to convert but every line converts")


def load_mesh(path: str) -> Mesh:
    with open(path, encoding="utf-8") as f:
        raw = f.read().splitlines()
    stripped = list(map(str.strip, raw))
    texts = list(compress(stripped, stripped))
    numbers = list(compress(range(1, len(raw) + 1), stripped))
    pos = 0

    def next_line():
        nonlocal pos
        if pos >= len(texts):
            raise MeshParseError(len(raw) + 1, "unexpected end of file")
        pos += 1
        return numbers[pos - 1], texts[pos - 1]

    no, header = next_line()
    if header.split() != ["enzmesh", "1", "2"]:
        raise MeshParseError(no, f"bad header {header!r}, expected 'enzmesh 1 2'")

    def section(name, form, dtype, tag=None):
        nonlocal pos
        no, ln = next_line()
        parts = ln.split()
        if len(parts) != 2 or parts[0] != name:
            raise MeshParseError(no, f"expected '{name} N', got {ln!r}")
        try:
            n = int(parts[1])
        except ValueError:
            raise MeshParseError(no, f"bad count {parts[1]!r}") from None
        if n < 0:
            raise MeshParseError(no, f"negative count {n}")
        block = _parse_rows(numbers[pos:pos + n], texts[pos:pos + n], form, dtype, tag)
        pos += len(block)
        if len(block) < n:
            raise MeshParseError(len(raw) + 1, "unexpected end of file")
        return block

    verts = section("vertices", "x y", float)
    tris = section("triangles", "i j k region", int, ("region", (INCLUSION, SHELL)))
    edges = section("boundary", "i j tag", int, ("boundary", (INTERFACE, OUTER)))
    if pos < len(texts):
        raise MeshParseError(numbers[pos], f"unexpected line after the boundary section: "
                                           f"{texts[pos]!r}")

    mesh = Mesh(verts, *(np.ascontiguousarray(a) for a in
                         (tris[:, :3], tris[:, 3], edges[:, :2], edges[:, 2])))
    mesh.validate()
    return mesh


def extract_submesh(mesh: Mesh, region: int) -> Submesh:
    """Restrict to one region; child tagged edges inherit the parent roles."""
    sel = np.nonzero(mesh.regions == region)[0]
    if not len(sel):
        raise MeshError(f"region {region} is empty")
    tris = mesh.triangles[sel]
    used = np.unique(tris)
    remap = -np.ones(mesh.n_vertices, dtype=int)
    remap[used] = np.arange(len(used))
    child_tris = remap[tris]

    # the region's boundary: edges of one triangle, in first-occurrence order
    nv = mesh.n_vertices
    keys, count, _, first = _edge_incidence(tris, nv)
    once = np.nonzero(count == 1)[0]
    boundary = keys[once[np.argsort(first[once])]]
    tagged, tag_order = _edge_keys(mesh.edges, nv)
    pos, found = _find(tagged[tag_order], boundary)
    if not found.all():
        key = _edge_of(boundary[np.argmin(found)], nv)
        raise MeshError(f"untagged boundary edge {key} in region {region}")
    edges = remap[np.column_stack([boundary // nv, boundary % nv])]
    tags = mesh.edge_tags[tag_order[pos]].astype(int)

    child = Mesh(mesh.vertices[used].copy(), child_tris,
                 np.full(len(child_tris), region, dtype=int), edges, tags,
                 metadata=dict(mesh.metadata))
    # the child's "region" labels are uniform by construction; validation of
    # INTERFACE edges does not apply on the child, so check the rest by hand
    areas = child.triangle_areas()
    if np.any(areas <= 0):
        raise MeshError("submesh produced a degenerate triangle")
    return Submesh(parent=mesh, region=region, mesh=child, vertex_map=used,
                   triangle_map=sel)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Red refinement: each triangle splits into 4; tags are inherited.

    If the mesh metadata carries snap_interface, new interface midpoints are
    projected back to the unit circle (generator geometry).
    """
    mid_of: dict[tuple[int, int], int] = {}
    verts = [mesh.vertices]
    next_id = mesh.n_vertices
    new_pts = []

    def midpoint(a, b):
        nonlocal next_id
        key = (min(a, b), max(a, b))
        if key not in mid_of:
            mid_of[key] = next_id
            new_pts.append(0.5 * (mesh.vertices[a] + mesh.vertices[b]))
            next_id += 1
        return mid_of[key]

    tris, regs = [], []
    for tri, r in zip(mesh.triangles, mesh.regions):
        a, b, c = (int(v) for v in tri)
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        tris.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
        regs.extend([r, r, r, r])

    edges, tags = [], []
    for (a, b), t in zip(mesh.edges, mesh.edge_tags):
        m = midpoint(int(a), int(b))
        edges.extend([(int(a), m), (m, int(b))])
        tags.extend([t, t])

    vertices = np.vstack([mesh.vertices, np.array(new_pts)]) if new_pts else mesh.vertices.copy()

    if mesh.metadata.get("snap_interface"):
        iface_nodes = set()
        for (a, b), t in zip(edges, tags):
            if t == INTERFACE:
                iface_nodes.update((a, b))
        for v in iface_nodes:
            r = np.linalg.norm(vertices[v])
            if r > 0:
                vertices[v] = vertices[v] / r

    out = Mesh(vertices, np.array(tris), np.array(regs),
               np.array(edges), np.array(tags), metadata=dict(mesh.metadata))
    out.validate()
    return out
