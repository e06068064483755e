"""Tagged simplicial 2D meshes for the core-shell geometry.

A mesh carries per-triangle region tags (INCLUSION / SHELL), and a list of
tagged edges: INTERFACE edges separate the two regions, OUTER edges lie on
the domain boundary.  Two structured generators are provided (disk inside a
disk, disk inside a square) plus a plain-text file format and submesh
extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np
import scipy.sparse

INCLUSION = 0
SHELL = 1
INTERFACE = 0
OUTER = 1

# largest outer size the generators accept: triangle areas and the region
# areas summed from them grow as its square and must stay finite
_SIZE_MAX = 1e100

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
]


class MeshError(ValueError):
    """Mesh validation failure."""


class MeshParseError(ValueError):
    """Syntax error in a mesh or field file; carries the offending line number."""

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

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def corner_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """x and y of each triangle's corners, two (nt, 3) arrays."""
        return self.vertices[:, 0][self.triangles], self.vertices[:, 1][self.triangles]

    def triangle_areas(self) -> np.ndarray:
        x, y = self.corner_coordinates()
        return 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                      - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))

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
        finite = np.isfinite(self.vertices)
        bad = np.nonzero(~(finite[:, 0] & finite[:, 1]))[0]
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
        a, b = self.edges[:, 0], self.edges[:, 1]
        tagged, tag_order = _edge_keys(a, b, nv)
        in_range = (np.minimum(a, b) >= 0) & (np.maximum(a, b) < nv)
        pos, found = _find(keys, tagged)
        found &= in_range
        n = np.zeros(len(tagged), dtype=int)
        n[found] = count[pos[found]]
        regs = np.full((len(tagged), 2), -1)
        regs[found] = self.regions[incident[pos[found]]]
        separates = ((np.minimum(regs[:, 0], regs[:, 1]) == INCLUSION)
                     & (np.maximum(regs[:, 0], regs[:, 1]) == SHELL))
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
            a, b = pairs[in_inc[pairs[:, 0]] & in_inc[pairs[:, 1]]].T
            nt = self.n_triangles
            graph = scipy.sparse.coo_matrix((np.ones(len(a)), (a, b)), shape=(nt, nt))
            labels = connected_components(graph, directed=False)[1]
            parts = len(np.unique(labels[in_inc]))
            if parts > 1:
                raise MeshError(f"INCLUSION region is disconnected ({parts} components)")


def _edge_keys(a: np.ndarray, b: np.ndarray, n_vertices: int):
    """Key lo * n_vertices + hi (int64) of each undirected edge (a, b), with
    a and b same-shape endpoint arrays read in C order, and the stable
    permutation that sorts the keys."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    keys = (np.minimum(a, b) * n_vertices + np.maximum(a, b)).ravel()
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
    keys, order = _edge_keys(triangles, triangles[:, [1, 2, 0]], n_vertices)
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

    def extend(self, child_values: np.ndarray) -> np.ndarray:
        """Parent nodal values: child_values on the submesh, zero elsewhere."""
        out = np.zeros(self.parent.n_vertices,
                       dtype=np.result_type(np.asarray(child_values).dtype, float))
        out[self.vertex_map] = child_values
        return out


def _unit_circle(n_theta: int) -> np.ndarray:
    """(n_theta, 2) points of the unit circle at the angles 2 pi t / n_theta."""
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _ring_mesh(rings_core: int, n_theta: int, shell_rings):
    """Vertices, triangles, regions, tagged edges and tags of a ring mesh,
    numbered as generate_disk_in_disk states.

    Core ring i = 1..rings_core is the circle of radius i / rings_core;
    shell_rings lists the (n_theta, 2) vertex rings outside it, innermost
    first.  The tagged edges are the n_theta INTERFACE edges (a, b) of ring
    rings_core, then the n_theta OUTER edges of the last ring.
    """
    core = (np.arange(1, rings_core + 1) / rings_core)[:, None, None] * _unit_circle(n_theta)
    rings = np.concatenate([core, shell_rings])
    vertices = np.vstack([np.zeros((1, 2)), rings.reshape(-1, 2)])

    ring = 1 + n_theta * np.arange(len(rings))[:, None] + np.arange(n_theta)
    step = np.roll(ring, -1, axis=1)
    fan = np.column_stack([np.zeros(n_theta, dtype=int), ring[0], step[0]])
    a, b, c, d = ring[:-1], step[:-1], ring[1:], step[1:]
    triangles = np.vstack([fan, np.stack([a, d, b, a, c, d], axis=-1).reshape(-1, 3)])
    n_core = n_theta * (2 * rings_core - 1)
    regions = np.repeat([INCLUSION, SHELL], [n_core, len(triangles) - n_core])

    tagged = [rings_core - 1, -1]
    edges = np.column_stack([ring[tagged].ravel(), step[tagged].ravel()])
    return vertices, triangles, regions, edges, np.repeat([INTERFACE, OUTER], n_theta)


def _default_n_theta(rings_core: int) -> int:
    n = max(16, 4 * rings_core)
    return n + (-n) % 8  # multiple of 8 so square corners land on vertices


def generate_disk_in_disk(R: float, rings_core: int, rings_shell: int) -> Mesh:
    """Structured polar mesh of the unit disk inside the disk of radius R.

    Ring i = 1..rings_core is the circle of radius i / rings_core, ring
    rings_core + j (j = 1..rings_shell) the circle of radius
    1 + j (R - 1) / rings_shell.  Vertex 0 is the centre; vertex
    1 + (i - 1) n_theta + t lies on ring i at the angle 2 pi t / n_theta.
    The triangles are the centre fan (0, 1 + t, 1 + (t + 1) % n_theta)
    (INCLUSION), then, ring by ring and t by t, each quad with a, b on ring i
    and c, d on ring i + 1 (b and d one step after a and c) as (a, d, b),
    (a, c, d), INCLUSION inside the unit circle and SHELL outside.  The mesh
    file bytes depend on this order.
    """
    if not 1.0 < R <= _SIZE_MAX:
        raise MeshError(f"outer radius must exceed 1 and be at most {_SIZE_MAX:g}, got {R}")
    if rings_core < 2 or rings_shell < 2:
        raise MeshError("ring counts must be >= 2")
    n_theta = _default_n_theta(rings_core)
    radii = 1.0 + np.arange(1, rings_shell + 1) * (R - 1.0) / rings_shell
    mesh = Mesh(*_ring_mesh(rings_core, n_theta, radii[:, None, None] * _unit_circle(n_theta)))
    mesh.validate()
    return mesh


def generate_square_with_disk(L: float, rings_core: int, rings_blend: int) -> Mesh:
    """Unit disk inside the square [-L, L]^2, shell meshed by transfinite
    blending between the circle r = 1 and the square boundary.

    Ring i = 1..rings_core is the circle of radius i / rings_core; ring
    rings_core + j (j = 1..rings_blend) is (1 - s) c + s q with
    s = j / rings_blend, c the unit-circle point and q the square point on
    the same ray.  Vertex 0 is the centre; vertex 1 + (i - 1) n_theta + t
    lies on ring i on the ray at the angle 2 pi t / n_theta.  Triangles are
    numbered as in generate_disk_in_disk: the centre fan, then ring by ring
    the quads as (a, d, b), (a, c, d).  The mesh file bytes depend on this
    order.
    """
    if not 1.0 < L <= _SIZE_MAX:
        raise MeshError(f"half side must exceed 1 and be at most {_SIZE_MAX:g}, got {L}")
    if rings_core < 2 or rings_blend < 2:
        raise MeshError("ring counts must be >= 2")
    n_theta = _default_n_theta(rings_core)
    circle = _unit_circle(n_theta)
    square = L * circle / np.abs(circle).max(axis=1, keepdims=True)
    s = (np.arange(1, rings_blend + 1) / rings_blend)[:, None, None]
    mesh = Mesh(*_ring_mesh(rings_core, n_theta, (1.0 - s) * circle + s * square))
    mesh.validate()
    return mesh


# ---------------------------------------------------------------------------
# plain-text format: header `enzmesh 1 2`, then vertices/triangles/boundary
# ---------------------------------------------------------------------------

def _format_rows(fmt: str, rows: np.ndarray) -> str:
    """The rows of a 2-D array as text, fmt per row, in one C-level format."""
    return fmt * len(rows) % tuple(rows.ravel().tolist())


def save_mesh(mesh: Mesh, path: str) -> None:
    """Write mesh as an `enzmesh 1 2` text file (README, "Mesh and field files")."""
    text = "".join([
        f"enzmesh 1 2\nvertices {mesh.n_vertices}\n",
        _format_rows("%.17g %.17g\n", mesh.vertices),
        f"triangles {mesh.n_triangles}\n",
        _format_rows("%d %d %d %d\n", np.column_stack([mesh.triangles, mesh.regions])),
        f"boundary {len(mesh.edges)}\n",
        _format_rows("%d %d %d\n", np.column_stack([mesh.edges, mesh.edge_tags])),
    ])
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


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
        known = np.zeros(len(block), dtype=bool)
        for value in tag[1]:
            known |= block[:, -1] == value
        bad = np.nonzero(~known)[0]
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


class _SectionReader:
    """The non-blank lines of a text file, read as `name N` sections."""

    def __init__(self, path: str):
        with open(path, "rb") as f:
            data = f.read()
        try:
            raw = data.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise MeshParseError(data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
        stripped = list(map(str.strip, raw))
        self.texts = list(compress(stripped, stripped))
        self.numbers = list(compress(range(1, len(raw) + 1), stripped))
        self.end = len(raw) + 1   # line number reported at end of file
        self.pos = 0

    def next_line(self) -> tuple[int, str]:
        if self.pos >= len(self.texts):
            raise MeshParseError(self.end, "unexpected end of file")
        self.pos += 1
        return self.numbers[self.pos - 1], self.texts[self.pos - 1]

    def section(self, name: str, form: str, dtype, tag=None, rows_per_count: int = 1):
        """Read a `name N` line and the N * rows_per_count rows after it."""
        no, ln = self.next_line()
        parts = ln.split()
        if len(parts) != 2 or parts[0] != name:
            raise MeshParseError(no, f"expected '{name} N', got {ln!r}")
        try:
            n = int(parts[1])
        except ValueError:
            raise MeshParseError(no, f"bad count {parts[1]!r}") from None
        if n < 0:
            raise MeshParseError(no, f"negative count {n}")
        rows = slice(self.pos, self.pos + n * rows_per_count)
        block = _parse_rows(self.numbers[rows], self.texts[rows], form, dtype, tag)
        self.pos += len(block)
        if len(block) < n * rows_per_count:
            raise MeshParseError(self.end, "unexpected end of file")
        return block

    def finish(self, last: str) -> None:
        if self.pos < len(self.texts):
            raise MeshParseError(self.numbers[self.pos], f"unexpected line after {last}: "
                                                         f"{self.texts[self.pos]!r}")


def load_mesh(path: str) -> Mesh:
    lines = _SectionReader(path)
    no, header = lines.next_line()
    if header.split() != ["enzmesh", "1", "2"]:
        raise MeshParseError(no, f"bad header {header!r}, expected 'enzmesh 1 2'")
    verts = lines.section("vertices", "x y", float)
    tris = lines.section("triangles", "i j k region", int, ("region", (INCLUSION, SHELL)))
    edges = lines.section("boundary", "i j tag", int, ("boundary", (INTERFACE, OUTER)))
    lines.finish("the boundary section")

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
    mark = np.zeros(mesh.n_vertices, dtype=bool)
    mark[tris] = True
    used = np.nonzero(mark)[0]
    remap = -np.ones(mesh.n_vertices, dtype=int)
    remap[used] = np.arange(len(used))
    child_tris = remap[tris]

    # the region's boundary: edges of one triangle, in first-occurrence order
    nv = mesh.n_vertices
    keys, count, _, first = _edge_incidence(tris, nv)
    once = np.nonzero(count == 1)[0]
    boundary = keys[once[np.argsort(first[once])]]
    tagged, tag_order = _edge_keys(mesh.edges[:, 0], mesh.edges[:, 1], nv)
    pos, found = _find(tagged[tag_order], boundary)
    if not found.all():
        key = _edge_of(boundary[np.argmin(found)], nv)
        raise MeshError(f"untagged boundary edge {key} in region {region}")
    edges = remap[np.column_stack([boundary // nv, boundary % nv])]
    tags = mesh.edge_tags[tag_order[pos]].astype(int)

    child = Mesh(mesh.vertices[used].copy(), child_tris,
                 np.full(len(child_tris), region, dtype=int), edges, tags)
    # the child's "region" labels are uniform by construction; validation of
    # INTERFACE edges does not apply on the child, so check the rest by hand
    areas = child.triangle_areas()
    if np.any(areas <= 0):
        raise MeshError("submesh produced a degenerate triangle")
    return Submesh(parent=mesh, region=region, mesh=child, vertex_map=used,
                   triangle_map=sel)

