import math

import numpy as np
import pytest

from enzspec.mesh import (
    INCLUSION,
    INTERFACE,
    OUTER,
    SHELL,
    Mesh,
    MeshError,
    MeshParseError,
    extract_submesh,
    generate_disk_in_disk,
    generate_square_with_disk,
    load_mesh,
    save_mesh,
)


class TestDiskInDisk:
    def test_rejects_bad_radius(self):
        with pytest.raises(MeshError):
            generate_disk_in_disk(0.9, 4, 4)

    def test_inclusion_area(self):
        mesh = generate_disk_in_disk(2.0, 8, 8)
        area = mesh.region_area(INCLUSION)
        # polygonal disk area is pi + O(h^2)
        assert abs(area - math.pi) < 0.03
        total = mesh.region_area(INCLUSION) + mesh.region_area(SHELL)
        # total is a polygon inscribed in the R=2 circle
        assert abs(total - 4.0 * math.pi) < 0.1

    def test_area_convergence(self):
        e1 = abs(generate_disk_in_disk(2.0, 4, 4).region_area(INCLUSION) - math.pi)
        e2 = abs(generate_disk_in_disk(2.0, 8, 8).region_area(INCLUSION) - math.pi)
        assert 3.0 < e1 / e2 < 5.0

    def test_interface_on_unit_circle(self):
        mesh = generate_disk_in_disk(2.0, 6, 6)
        for v in mesh.boundary_vertices(INTERFACE):
            assert abs(np.linalg.norm(mesh.vertices[v]) - 1.0) < 1e-14

    def test_outer_on_R_circle(self):
        mesh = generate_disk_in_disk(2.5, 4, 4)
        for v in mesh.boundary_vertices(OUTER):
            assert abs(np.linalg.norm(mesh.vertices[v]) - 2.5) < 1e-13

    def test_positive_areas_and_valid(self):
        mesh = generate_disk_in_disk(2.0, 5, 7)
        assert np.all(mesh.triangle_areas() > 0)
        mesh.validate()

    def test_euler_formula(self):
        mesh = generate_disk_in_disk(2.0, 4, 4)
        edges = set()
        for tri in mesh.triangles:
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                edges.add((min(a, b), max(a, b)))
        # disk topology: V - E + F = 1 (without the outer face)
        assert mesh.n_vertices - len(edges) + mesh.n_triangles == 1


class TestSquareWithDisk:
    def test_rejects_bad_L(self):
        with pytest.raises(MeshError):
            generate_square_with_disk(1.0, 4, 4)

    def test_shell_area(self):
        coarse = generate_square_with_disk(2.0, 8, 8)
        fine = generate_square_with_disk(2.0, 16, 16)
        exact = 16.0 - math.pi
        e1 = abs(coarse.region_area(SHELL) - exact)
        e2 = abs(fine.region_area(SHELL) - exact)
        assert e2 < e1
        assert e2 < 0.01

    def test_outer_on_square(self):
        mesh = generate_square_with_disk(2.0, 4, 4)
        for v in mesh.boundary_vertices(OUTER):
            assert abs(np.max(np.abs(mesh.vertices[v])) - 2.0) < 1e-14

    def test_all_positive(self):
        mesh = generate_square_with_disk(2.0, 8, 8)
        assert np.all(mesh.triangle_areas() > 0)


@pytest.mark.parametrize("generate", [generate_disk_in_disk, generate_square_with_disk])
@pytest.mark.parametrize("rings, n_theta", [(2, 16), (16, 64), (32, 128)])
def test_ring_numbering_closed_forms(generate, rings, n_theta):
    mesh = generate(2.0, rings, rings)
    n_rings = 2 * rings
    assert mesh.n_vertices == 1 + n_theta * n_rings
    assert mesh.n_triangles == n_theta * (2 * n_rings - 1)
    assert (mesh.regions == INCLUSION).sum() == n_theta * (2 * rings - 1)
    assert len(mesh.boundary_edges(INTERFACE)) == n_theta
    assert len(mesh.boundary_edges(OUTER)) == n_theta
    # vertex 1 + (i - 1) n_theta + t lies on ring i at the angle 2 pi t / n_theta
    angle = np.array([2.0 * math.pi * t / n_theta for t in range(n_theta)])
    ray = np.column_stack([[math.cos(a) for a in angle], [math.sin(a) for a in angle]])
    rings_xy = mesh.vertices[1:].reshape(n_rings, n_theta, 2)
    core = np.arange(1, rings + 1)[:, None, None] / rings * ray
    np.testing.assert_allclose(rings_xy[:rings], core, rtol=0, atol=1e-15)
    assert np.array_equal(mesh.vertices[0], [0.0, 0.0])
    cross = rings_xy[..., 0] * ray[:, 1] - rings_xy[..., 1] * ray[:, 0]
    assert np.abs(cross).max() < 1e-14
    assert ((rings_xy * ray).sum(axis=-1) > 0).all()
    # interface and outer edges join consecutive vertices of rings `rings` and 2 rings
    step = np.roll(np.arange(n_theta), -1)
    for tag, ring in ((INTERFACE, rings), (OUTER, n_rings)):
        first = 1 + (ring - 1) * n_theta
        expected = np.column_stack([first + np.arange(n_theta), first + step])
        assert np.array_equal(mesh.boundary_edges(tag), expected)


def reference_mesh_bytes(mesh):
    """The mesh file as a per-row f-string writer formats it: an oracle for
    the bytes save_mesh writes."""
    lines = ["enzmesh 1 2", f"vertices {mesh.n_vertices}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in mesh.vertices]
    lines.append(f"triangles {mesh.n_triangles}")
    lines += [f"{i} {j} {k} {r}" for (i, j, k), r in zip(mesh.triangles, mesh.regions)]
    lines.append(f"boundary {len(mesh.edges)}")
    lines += [f"{i} {j} {t}" for (i, j), t in zip(mesh.edges, mesh.edge_tags)]
    return ("\n".join(lines) + "\n").encode()


def _hand_built_mesh(boundary: bool) -> Mesh:
    vertices = np.array([[-0.0, 5e-324], [-1e300, 1.0 / 3.0], [1.0, 2.0**53 + 2.0]])
    edges = np.array([[0, 1], [1, 2], [2, 0]]) if boundary else np.empty((0, 2), dtype=int)
    return Mesh(vertices, np.array([[0, 1, 2]]), np.array([SHELL]), edges,
                np.full(len(edges), OUTER))


class TestFileIO:
    def test_round_trip(self, tmp_path):
        mesh = generate_disk_in_disk(2.0, 4, 4)
        path = tmp_path / "m.txt"
        save_mesh(mesh, str(path))
        back = load_mesh(str(path))
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.regions, mesh.regions)
        assert np.array_equal(back.edges, mesh.edges)
        assert np.array_equal(back.edge_tags, mesh.edge_tags)

    @pytest.mark.parametrize("make", [
        lambda: generate_disk_in_disk(2.0, 4, 4),
        lambda: generate_disk_in_disk(2.0, 32, 32),
        lambda: generate_square_with_disk(2.0, 4, 4),
        lambda: generate_square_with_disk(2.0, 32, 32),
        lambda: _hand_built_mesh(boundary=True),
        lambda: _hand_built_mesh(boundary=False),
    ], ids=["disk4", "disk32", "square4", "square32", "hand_built", "no_boundary"])
    def test_bytes_match_the_row_writer(self, make, tmp_path):
        mesh = make()
        path = tmp_path / "m.txt"
        save_mesh(mesh, str(path))
        assert path.read_bytes() == reference_mesh_bytes(mesh)

    def test_unknown_region_tag(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("enzmesh 1 2\nvertices 3\n0 0\n1 0\n0 1\n"
                        "triangles 1\n0 1 2 7\nboundary 0\n")
        with pytest.raises(MeshParseError) as exc:
            load_mesh(str(path))
        assert "region tag" in str(exc.value)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("mesh 1 2\n")
        with pytest.raises(MeshParseError) as exc:
            load_mesh(str(path))
        assert "line 1" in str(exc.value)

    def test_hanging_node_detected(self, tmp_path):
        # two triangles sharing only part of an edge: vertex 3 hangs on 0-1
        path = tmp_path / "hang.txt"
        path.write_text(
            "enzmesh 1 2\n"
            "vertices 5\n0 0\n2 0\n1 1\n1 0\n1 -1\n"
            "triangles 3\n0 1 2 0\n0 4 3 0\n3 4 1 0\n"
            "boundary 4\n1 2 1\n0 2 1\n0 4 1\n1 4 1\n")
        with pytest.raises(MeshError) as exc:
            load_mesh(str(path))
        assert "edge" in str(exc.value)

    def test_untagged_interface_detected(self, tmp_path):
        path = tmp_path / "iface.txt"
        path.write_text(
            "enzmesh 1 2\n"
            "vertices 4\n0 0\n1 0\n1 1\n0 1\n"
            "triangles 2\n0 1 2 0\n0 2 3 1\n"
            "boundary 4\n0 1 1\n1 2 1\n2 3 1\n3 0 1\n")
        with pytest.raises(MeshError) as exc:
            load_mesh(str(path))
        assert "INTERFACE" in str(exc.value)


class TestSubmesh:
    def test_inclusion_boundary_roles(self):
        mesh = generate_disk_in_disk(2.0, 4, 4)
        sub = extract_submesh(mesh, INCLUSION)
        assert set(sub.mesh.edge_tags) == {INTERFACE}

    def test_shell_boundary_roles(self):
        mesh = generate_disk_in_disk(2.0, 4, 4)
        sub = extract_submesh(mesh, SHELL)
        assert set(sub.mesh.edge_tags) == {INTERFACE, OUTER}

    def test_transfer_round_trip(self):
        mesh = generate_disk_in_disk(2.0, 4, 4)
        sub = extract_submesh(mesh, SHELL)
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(mesh.n_vertices)
        child = sub.restrict(vals)
        back = sub.extend(child)
        mask = np.zeros(mesh.n_vertices, dtype=bool)
        mask[sub.vertex_map] = True
        assert np.array_equal(back[mask], vals[mask])
        assert mask.sum() == sub.mesh.n_vertices
        assert not back[~mask].any()

    def test_geometry_preserved(self):
        mesh = generate_disk_in_disk(2.0, 4, 4)
        sub = extract_submesh(mesh, INCLUSION)
        assert abs(sub.mesh.triangle_areas().sum() - mesh.region_area(INCLUSION)) < 1e-13


def _edge_where(mesh, regions):
    """First untagged edge whose incident triangles carry exactly `regions`."""
    incident = {}
    for t, tri in enumerate(mesh.triangles.tolist()):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            incident.setdefault((min(a, b), max(a, b)), []).append(t)
    tagged = {(min(a, b), max(a, b)) for a, b in mesh.edges.tolist()}
    for key, tris in incident.items():
        if key not in tagged and sorted(mesh.regions[tris].tolist()) == regions:
            return key
    raise AssertionError(f"no untagged edge between regions {regions}")


class TestValidate:
    """Each case has exactly one defect; validate names it."""

    @pytest.fixture
    def mesh(self):
        return generate_disk_in_disk(2.0, 2, 2)

    def _rejects(self, mesh, fragment):
        with pytest.raises(MeshError) as exc:
            mesh.validate()
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("index", [65, -1])   # the mesh has 65 vertices
    def test_index_out_of_range(self, mesh, index):
        mesh.triangles[5, 1] = index
        self._rejects(mesh, "vertex index out of range")

    def test_non_positive_area(self, mesh):
        mesh.triangles[7] = mesh.triangles[7, ::-1]
        self._rejects(mesh, "triangle 7 has non-positive area")

    def test_edge_on_three_triangles(self, mesh):
        mesh.triangles = np.vstack([mesh.triangles, mesh.triangles[20]])
        mesh.regions = np.append(mesh.regions, mesh.regions[20])
        self._rejects(mesh, "shared by 3 triangles")

    def test_edge_tagged_twice(self, mesh):
        mesh.edges = np.vstack([mesh.edges, mesh.edges[3]])
        mesh.edge_tags = np.append(mesh.edge_tags, mesh.edge_tags[3])
        self._rejects(mesh, "tagged twice")

    def test_tagged_edge_on_no_triangle(self, mesh):
        outer = mesh.boundary_vertices(OUTER)[0]
        mesh.edges = np.vstack([mesh.edges, [0, outer]])
        mesh.edge_tags = np.append(mesh.edge_tags, OUTER)
        self._rejects(mesh, "not found in any triangle")

    def test_tagged_edge_out_of_range(self, mesh):
        # 0 * nv + (nv + 2) is the key of edge (1, 2) if keys are not range-checked
        mesh.edges = np.vstack([mesh.edges, [0, mesh.n_vertices + 2]])
        mesh.edge_tags = np.append(mesh.edge_tags, OUTER)
        self._rejects(mesh, "not found in any triangle")

    def test_outer_edge_on_two_triangles(self, mesh):
        mesh.edge_tags[mesh.edge_tags == INTERFACE] = OUTER
        self._rejects(mesh, "lies on 2 triangles, expected 1")

    def test_interface_edge_on_one_triangle(self, mesh):
        mesh.edge_tags[mesh.edge_tags == OUTER] = INTERFACE
        self._rejects(mesh, "lies on 1 triangles, expected 2")

    def test_interface_inside_one_region(self, mesh):
        key = _edge_where(mesh, [SHELL, SHELL])
        mesh.edges = np.vstack([mesh.edges, key])
        mesh.edge_tags = np.append(mesh.edge_tags, INTERFACE)
        self._rejects(mesh, "does not separate INCLUSION from SHELL")

    def test_unknown_edge_tag(self, mesh):
        mesh.edge_tags[4] = 7
        self._rejects(mesh, "unknown edge tag 7")

    def test_untagged_boundary_edge(self, mesh):
        keep = np.arange(len(mesh.edges)) != np.flatnonzero(mesh.edge_tags == OUTER)[2]
        mesh.edges, mesh.edge_tags = mesh.edges[keep], mesh.edge_tags[keep]
        self._rejects(mesh, "carries no tag")

    def test_untagged_interface_edge(self, mesh):
        keep = np.arange(len(mesh.edges)) != np.flatnonzero(mesh.edge_tags == INTERFACE)[2]
        mesh.edges, mesh.edge_tags = mesh.edges[keep], mesh.edge_tags[keep]
        self._rejects(mesh, "not tagged INTERFACE")

    def test_disconnected_inclusion(self, mesh):
        # turn one outermost shell triangle into a second inclusion piece and
        # tag its shell-facing edges INTERFACE: only connectivity is broken
        t = mesh.n_triangles - 1
        tagged = {(min(a, b), max(a, b)) for a, b in mesh.edges.tolist()}
        tri = mesh.triangles[t].tolist()
        new = [key for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))
               if (key := (min(a, b), max(a, b))) not in tagged]
        mesh.regions[t] = INCLUSION
        mesh.edges = np.vstack([mesh.edges, new])
        mesh.edge_tags = np.append(mesh.edge_tags, [INTERFACE] * len(new))
        self._rejects(mesh, "INCLUSION region is disconnected (2 components)")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex(self, mesh, value):
        mesh.vertices[3, 1] = value
        self._rejects(mesh, "vertex 3 has non-finite coordinates")

    def test_defect_free_base_passes(self, mesh):
        mesh.validate()


# A triangular annulus: inclusion triangle 0 1 2 inside the shell of six
# triangles out to the triangle 3 4 5.  Line numbers in the tests below are
# those of this text (header on line 1, last boundary line on line 23).
SMALL_MESH = """enzmesh 1 2
vertices 6
0 0
2 0
0 2
-1 -1
5 -1
-1 5
triangles 7
0 1 2 0
0 3 4 1
0 4 1 1
1 4 5 1
1 5 2 1
2 5 3 1
2 3 0 1
boundary 6
0 1 0
1 2 0
2 0 0
3 4 1
4 5 1
5 3 1
"""


def _edited(changes, keep=None):
    """SMALL_MESH with lines replaced ({line: text}) and cut after `keep`."""
    lines = SMALL_MESH.splitlines()[:keep]
    for line, text in changes.items():
        lines[line - 1] = text
    return "\n".join(lines) + "\n"


class TestParseErrors:
    def _fails_at(self, tmp_path, text, line, fragment):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(MeshParseError) as exc:
            load_mesh(str(path))
        assert exc.value.line == line
        assert str(exc.value).startswith(f"line {line}: ")
        assert fragment in str(exc.value)

    def test_small_mesh_is_valid(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(SMALL_MESH)
        mesh = load_mesh(str(path))
        assert (mesh.n_vertices, mesh.n_triangles, len(mesh.edges)) == (6, 7, 6)

    @pytest.mark.parametrize("line, text, fragment", [
        (5, "0 2 1", "expected 'x y'"),
        (12, "0 4 1", "expected 'i j k region'"),
        (20, "2 0 0 1", "expected 'i j tag'"),
        (4, "2 zero", "bad coordinate"),
        (6, "-1 1.5.0", "bad coordinate"),
        (11, "0 3 4.0 1", "bad integer"),
        (19, "x 2 0", "bad integer"),
        (13, "1 4 5 2", "unknown region tag 2"),
        (22, "4 5 3", "unknown boundary tag 3"),
        (2, "vertices -1", "negative count -1"),
        (9, "triangles -7", "negative count -7"),
        (17, "boundary x", "bad count 'x'"),
        (9, "faces 7", "expected 'triangles N'"),
    ])
    def test_bad_line(self, tmp_path, line, text, fragment):
        self._fails_at(tmp_path, _edited({line: text}), line, fragment)

    def test_every_line_too_wide(self, tmp_path):
        # a block whose lines all have the same wrong width converts cleanly
        lines = SMALL_MESH.splitlines()
        wide = {no: lines[no - 1] + " 0" for no in range(3, 9)}
        self._fails_at(tmp_path, _edited(wide), 3, "expected 'x y'")

    def test_first_bad_line_wins(self, tmp_path):
        self._fails_at(tmp_path, _edited({12: "1 4 5 9", 14: "1 5 2 1 0"}),
                       12, "unknown region tag 9")
        self._fails_at(tmp_path, _edited({14: "1 5 2 1 0"}, keep=20),
                       14, "expected 'i j k region'")

    @pytest.mark.parametrize("keep", [5, 13, 17, 21])
    def test_cut_off(self, tmp_path, keep):
        # ends inside the vertices, triangles and boundary sections, and
        # right after the boundary header
        self._fails_at(tmp_path, _edited({}, keep), keep + 1, "unexpected end of file")

    def test_cut_off_after_blank_lines(self, tmp_path):
        self._fails_at(tmp_path, _edited({}, 13) + "\n  \n", 16, "unexpected end of file")

    def test_line_numbers_count_blank_lines(self, tmp_path):
        lines = SMALL_MESH.splitlines()
        lines[11:11] = ["", "   "]
        lines[14] = "0 4 1"
        self._fails_at(tmp_path, "\n".join(lines) + "\n", 15, "expected 'i j k region'")

    def test_content_after_boundary(self, tmp_path):
        self._fails_at(tmp_path, SMALL_MESH + "\n0 1 1\n", 25, "after the boundary section")

    def test_blank_lines_after_boundary_are_fine(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(SMALL_MESH + "\n  \n\n")
        load_mesh(str(path))

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "bad.txt"
        lines = SMALL_MESH.encode().splitlines()
        lines[3] = b"1 \xff0"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(MeshParseError, match="^line 4: not UTF-8 text$"):
            load_mesh(str(path))


@pytest.fixture(scope="module", params=["disk", "square"])
def mesh32(request):
    if request.param == "disk":
        return generate_disk_in_disk(2.0, 32, 32)
    return generate_square_with_disk(2.0, 32, 32)


class TestRings32:
    def test_save_load_round_trip(self, mesh32, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        save_mesh(mesh32, str(first))
        back = load_mesh(str(first))
        for name in ("vertices", "triangles", "regions", "edges", "edge_tags"):
            want, got = getattr(mesh32, name), getattr(back, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.flags.c_contiguous, name
            assert np.array_equal(got, want), name
        save_mesh(back, str(second))
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("region", [INCLUSION, SHELL])
    def test_submesh_boundary(self, mesh32, region):
        sub = extract_submesh(mesh32, region)
        # brute force: edges of the region's triangles used exactly once,
        # in the order they first occur
        count = {}
        for tri in mesh32.triangles[mesh32.regions == region].tolist():
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                key = (min(a, b), max(a, b))
                count[key] = count.get(key, 0) + 1
        expected = [key for key, c in count.items() if c == 1]
        got = [tuple(pair) for pair in sub.vertex_map[sub.mesh.edges].tolist()]
        assert got == expected
        tag_of = {(min(a, b), max(a, b)): t
                  for (a, b), t in zip(mesh32.edges.tolist(), mesh32.edge_tags.tolist())}
        assert sub.mesh.edge_tags.tolist() == [tag_of[key] for key in expected]
