import math
import random

import numpy as np
import pytest

from enzspec import mesh as mesh_module
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
        path.write_bytes(text.encode())
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
        (2, "vertices 0_6", "bad count '0_6'"),
        (9, "triangles \uff17", "bad count '\uff17'"),
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

    def test_count_beyond_the_file(self, tmp_path):
        # n rows are read on from the vertices header: line 9 is the first
        # that is no 'x y' row
        self._fails_at(tmp_path, _edited({2: "vertices 99999999999999999999"}), 9,
                       "bad coordinate in 'triangles 7'")

    def _fails_on_row_4(self, tmp_path, row):
        path = tmp_path / "bad.txt"
        lines = SMALL_MESH.encode().splitlines()
        lines[3] = row
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(MeshParseError, match="^line 4: not UTF-8 text$"):
            load_mesh(str(path))

    def test_bytes_that_are_not_utf8(self, tmp_path):
        self._fails_on_row_4(tmp_path, b"1 \xff0")

    def test_latin1_no_break_space_is_not_utf8(self, tmp_path):
        # 0xa0 is a no-break space in latin-1, which loadtxt would split on
        self._fails_on_row_4(tmp_path, b"1\xa00")

    @pytest.mark.parametrize("keep", [5, 13, 17, 21])
    def test_cut_off_without_final_newline(self, tmp_path, keep):
        # the end of the file is on the line after its last one
        text = "\n".join(SMALL_MESH.splitlines()[:keep])
        self._fails_at(tmp_path, text, keep + 1, "unexpected end of file")


class TestLineModel:
    """load_mesh reads the lines that str.splitlines makes of the file's
    UTF-8 text, each stripped, blank ones skipped, and splits them as
    str.split does."""

    def _reads_small_mesh(self, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_bytes(SMALL_MESH.encode())
        want = _mesh_arrays(load_mesh(str(path)))
        path.write_bytes(text.encode())
        assert _same_arrays(_mesh_arrays(load_mesh(str(path))), want)

    @pytest.mark.parametrize("end", ["\r", "\x0b", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
                             ids=["cr", "vt", "gs", "rs", "nel", "ls", "ps"])
    def test_line_ends(self, tmp_path, end):
        self._reads_small_mesh(tmp_path, SMALL_MESH.replace("\n", end))
        path = tmp_path / "bad.txt"
        path.write_bytes(_edited({12: "0 4 1"}).replace("\n", end).encode())
        with pytest.raises(MeshParseError, match="^line 12: expected 'i j k region'"):
            load_mesh(str(path))

    @pytest.mark.parametrize("space", ["\xa0", "\u3000"], ids=["nbsp", "ideographic"])
    def test_unicode_spaces(self, tmp_path, space):
        self._reads_small_mesh(tmp_path, SMALL_MESH.replace(" ", space))
        self._reads_small_mesh(tmp_path, SMALL_MESH.replace("\n", space + "\n"))
        self._reads_small_mesh(tmp_path, SMALL_MESH.replace("\n", f"\n{space}\n"))

    def test_counts_take_a_sign_and_leading_zeros_as_rows_do(self, tmp_path):
        self._reads_small_mesh(tmp_path, _edited({2: "vertices +6", 9: "triangles 007"}))


def _mesh_arrays(mesh):
    return [mesh.vertices, mesh.triangles, mesh.regions, mesh.edges, mesh.edge_tags]


def _same_arrays(got, want):
    return all(g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
               for g, w in zip(got, want, strict=True))


class TestSavedFormParse:
    """load_mesh parses each section of a file with one loadtxt from its
    bytes and walks a section line by line only where that fails; every
    file reads as the line walker (_reference_load) reads it."""

    @pytest.fixture(params=["disk", "square"])
    def saved(self, request, tmp_path):
        generate = {"disk": generate_disk_in_disk, "square": generate_square_with_disk}
        mesh = generate[request.param](2.0, 16, 8)
        path = tmp_path / "m.txt"
        save_mesh(mesh, str(path))
        return mesh, path

    def test_same_blocks_as_the_walker(self, saved):
        mesh, path = saved
        loaded = _mesh_arrays(load_mesh(str(path)))
        assert _same_arrays(loaded, _mesh_arrays(_reference_load(path.read_bytes())))
        assert _same_arrays(loaded, _mesh_arrays(mesh))

    def test_saved_file_bypasses_the_walker(self, saved, monkeypatch):
        # one loadtxt per section, and no section walked line by line
        mesh, path = saved
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("max_rows"))
            return loadtxt(*args, **kwargs)

        def no_walk(*args):
            raise AssertionError("walked a section of a file in the saved form")

        loadtxt = mesh_module.np.loadtxt
        monkeypatch.setattr(mesh_module.np, "loadtxt", counted)
        monkeypatch.setattr(mesh_module._SectionReader, "_walk", no_walk)
        assert _same_arrays(_mesh_arrays(load_mesh(str(path))), _mesh_arrays(mesh))
        assert calls == [mesh.n_vertices, mesh.n_triangles, len(mesh.edges)]

    @pytest.mark.parametrize("edit", [
        lambda t: t.replace("\ntriangles", "\n\ntriangles") + "\n",
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace(" ", "\t"),
        lambda t: t.replace("\n", " \n"),
        lambda t: t.replace("\n", "\n  ", 3),
        lambda t: t.replace(" ", "  ", 5),
        lambda t: "\x0c".join(t.split("\n", 4)),
        lambda t: "\x1c".join(t.split("\n", 9)),
        lambda t: t[:-1],
    ], ids=["blank-lines", "crlf", "tabs", "trailing-spaces", "leading-spaces",
            "double-spaces", "form-feed", "file-separator", "no-final-newline"])
    def test_other_layouts_keep_the_walker_result(self, saved, tmp_path, edit):
        # each edit, made after the header and the vertices line, leaves a
        # file the line walker reads as the saved mesh, and load_mesh does
        mesh, path = saved
        header, count, rows = path.read_text().split("\n", 2)
        edited = tmp_path / "edited.txt"
        edited.write_bytes(f"{header}\n{count}\n{edit(rows)}".encode())
        assert _same_arrays(_mesh_arrays(load_mesh(str(edited))), _mesh_arrays(mesh))


def _reference_load(data: bytes) -> Mesh:
    """The mesh in a file's bytes as a line walker reads it: decode, str
    splitlines, str.strip, blank lines skipped, then one loadtxt per row,
    with load_mesh's messages.  An oracle for load_mesh's reader."""
    try:
        raw = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise MeshParseError(data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
    lines = iter([(no, ln.strip()) for no, ln in enumerate(raw, 1) if ln.strip()])

    def next_line():
        found = next(lines, None)
        if found is None:
            raise MeshParseError(len(raw) + 1, "unexpected end of file")
        return found

    no, header = next_line()
    if header.split() != ["enzmesh", "1", "2"]:
        raise MeshParseError(no, f"bad header {header!r}, expected 'enzmesh 1 2'")
    blocks = []
    for name, form, dtype, tag in [("vertices", "x y", float, None),
                                   ("triangles", "i j k region", int, ("region", (INCLUSION, SHELL))),
                                   ("boundary", "i j tag", int, ("boundary", (INTERFACE, OUTER)))]:
        no, ln = next_line()
        parts, k = ln.split(), len(form.split())
        if len(parts) != 2 or parts[0] != name:
            raise MeshParseError(no, f"expected '{name} N', got {ln!r}")
        digits = parts[1][1:] if parts[1][0] in "+-" else parts[1]
        if not (digits.isascii() and digits.isdigit()):
            raise MeshParseError(no, f"bad count {parts[1]!r}")
        n = int(parts[1])
        if n < 0:
            raise MeshParseError(no, f"negative count {n}")
        rows = [np.empty((0, k), dtype=dtype)]
        while len(rows) <= n:
            no, ln = next_line()
            if len(ln.split()) != k:
                raise MeshParseError(no, f"expected '{form}', got {ln!r}")
            try:
                rows.append(np.loadtxt([ln], dtype=dtype, comments=None, ndmin=2))
            except ValueError:
                kind = "coordinate" if dtype is float else "integer"
                raise MeshParseError(no, f"bad {kind} in {ln!r}") from None
            if tag and rows[-1][0, -1] not in tag[1]:
                raise MeshParseError(no, f"unknown {tag[0]} tag {rows[-1][0, -1]}")
        blocks.append(np.concatenate(rows))
    found = next(lines, None)
    if found:
        raise MeshParseError(found[0], f"unexpected line after the boundary section: "
                                       f"{found[1]!r}")
    (verts, tris, edges) = blocks
    mesh = Mesh(verts, tris[:, :3].copy(), tris[:, 3].copy(), edges[:, :2].copy(),
                edges[:, 2].copy())
    mesh.validate()
    return mesh


# the edits of the mutation sweep: whitespace and line ends that a layout
# may use, then bytes and tokens that break a file
_SPACES = [b" ", b"\t", b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
           b"\x1f", *(c.encode() for c in "\x85\xa0\u1680\u2005\u2028\u2029\u3000"),
           b"  ", b"\n\n", b"\n \n", b" \n"]
_TOKENS = [*_SPACES, b"\x00", b"\x85", b"\xa0", b"\xff", b"\xc2", b"\xe2\x80",
           *(c.encode() for c in "\u200b\ufeff\u0661"), b"-", b"+", b".", b"e", b"x", b"#",
           b"_", b"0", b"1", b"2", b"7", b"9", b"nan", b"inf", b"1e400", b"0x1", b",", b"'"]


def _byte_mutations(seed: int, count: int):
    """`count` seeded edits of SMALL_MESH's bytes.  Half change only its
    layout (spaces and line ends swapped for other whitespace, perhaps cut
    off); the rest replace, insert or delete bytes, or cut the file."""
    rng = random.Random(seed)
    base = SMALL_MESH.encode()
    for _ in range(count):
        data = bytearray(base)
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 6)):
                pos = rng.choice([i for i, c in enumerate(data) if c in b" \n"])
                data[pos:pos + 1] = rng.choice(_SPACES)
            if rng.random() < 0.3:
                data = data[:rng.randint(0, len(data))] if rng.random() < 0.5 else data.rstrip()
        else:
            for _ in range(rng.randint(1, 3)):
                pos, op = rng.randint(0, len(data)), rng.random()
                token = rng.choice(_TOKENS) if rng.random() < 0.7 else bytes([rng.randrange(256)])
                if op < 0.35:
                    data[pos:pos + 1] = token
                elif op < 0.7:
                    data[pos:pos] = token
                elif op < 0.9:
                    del data[pos:pos + rng.randint(1, 4)]
                else:
                    del data[pos:]
        yield bytes(data)


def _outcome(load):
    """A load's arrays, or its exception's class, line and message."""
    try:
        return _mesh_arrays(load())
    except Exception as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


@pytest.mark.parametrize("seed, count", [
    (1, 300), pytest.param(2, 3000, marks=pytest.mark.slow)])
def test_byte_mutations_read_as_the_line_walker_reads_them(tmp_path, seed, count):
    path = tmp_path / "m.txt"
    for data in _byte_mutations(seed, count):
        path.write_bytes(data)
        got, want = _outcome(lambda: load_mesh(str(path))), _outcome(lambda: _reference_load(data))
        if isinstance(want, tuple):
            assert got == want, data
        else:
            assert _same_arrays(got, want), data


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
