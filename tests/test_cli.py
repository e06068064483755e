import ast
import dataclasses
import glob
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

import enzspec
from enzspec import cli, eig, fem
from enzspec.cli import main
from enzspec.mesh import generate_disk_in_disk, load_mesh, save_mesh
from sphere_fields import first_zero_oracle


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _ring8_mesh(tmp_path_factory, shape):
    path = tmp_path_factory.mktemp("mesh") / f"{shape}.txt"
    code, _, err = run("mesh", "gen", "--shape", shape, "--rings_core", "8",
                       "--rings_shell", "8", "--out", str(path))
    assert code == 0, err
    return str(path)


@pytest.fixture(scope="module")
def disk_mesh(tmp_path_factory):
    return _ring8_mesh(tmp_path_factory, "disk")


@pytest.fixture(scope="module")
def square_mesh(tmp_path_factory):
    return _ring8_mesh(tmp_path_factory, "square")


class TestArgumentHandling:
    def test_unknown_command(self):
        code, _, err = run("frobnicate")
        assert code == 1 and "unknown command" in err

    def test_unknown_key_rejected(self, tmp_path):
        code, _, err = run("mesh", "gen", "--out", str(tmp_path / "m.txt"),
                           "--wobble", "3")
        assert code == 1 and "wobble" in err

    def test_missing_required_key(self):
        code, _, err = run("mesh", "gen")
        assert code == 1 and "out" in err

    def test_missing_subcommand(self):
        code, _, err = run("eig")
        assert code == 1 and "subcommand" in err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 2\nm = 0\nroot = 1\nR = 2.0\n"
                       f"out = {tmp_path / 'mode.txt'}\n")
        code, out, err = run("mie", "electrostatic", "--config", str(cfg),
                             "--n", "1")
        assert code == 0, err
        text = (tmp_path / "mode.txt").read_text()
        assert "n 1" in text            # the flag beat the config file
        assert "k 4.4934094579090" in out or "k 4.4934094579090" in text

    def test_unexpected_exception_is_diagnosed(self, tmp_path, monkeypatch):
        def broken(*args):
            raise TypeError("boom")

        monkeypatch.setattr(cli, "electrostatic_mode", broken)
        code, _, err = run("mie", "electrostatic", "--n", "1",
                           "--out", str(tmp_path / "mode.txt"))
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "TypeError" and payload["message"] == "boom"
        assert payload["unexpected"] is True and "broken" in payload["where"]

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a key value pair\n")
        code, _, err = run("mie", "electrostatic", "--config", str(cfg))
        assert code == 1 and "key=value" in err


@pytest.mark.parametrize("argv, key", [
    (["taylor", "--lambda0", "3", "--radius", "0.01", "--samples", "12"], "samples"),
    (["taylor", "--lambda0", "3", "--radius", "0.01", "--order", "9"], "order"),
    (["mie", "dispersion", "--family", "magnetic", "--n", "1", "--radius", "0.01",
      "--samples", "0"], "samples"),
    (["cascade", "--orders", "-1"], "orders"),
    (["eig", "limit", "--count", "0"], "count"),
    (["invariance", "--rings", "2", "--count", "0"], "count"),
    (["eig", "sweep", "--deltas", "nan"], "deltas"),
    (["eig", "sweep", "--deltas", ""], "deltas"),
    (["invariance", "--shapes", ""], "shapes"),
    (["cascade", "--delta", "nan"], "delta"),
    (["mie", "electrostatic", "--n", "1", "--m", "5"], "|m| <= n"),
    (["mie", "nonelectrostatic", "--p", "1", "--R", "1"], "R"),
], ids=["taylor-samples-12", "taylor-order-9", "dispersion-samples-0", "cascade-orders-neg",
        "limit-count-0", "invariance-count-0", "sweep-deltas-nan",
        "sweep-deltas-empty", "invariance-shapes-empty", "cascade-delta-nan",
        "electrostatic-m-5", "nonelectrostatic-R-1"])
def test_value_outside_its_domain_is_validation_error(disk2_mesh, tmp_path, argv, key):
    out_path = tmp_path / "out.txt"
    mesh = [] if argv[0] in ("mie", "invariance") else ["--mesh", disk2_mesh]
    code, _, err = run(*argv, *mesh, "--out", str(out_path))
    assert code == 1, err
    assert err.startswith("error: ") and key in err
    assert not out_path.exists()


# small valid arguments for each command on the 2-ring disk ("MESH"), so
# that a run whose edited key is still valid finishes quickly
_SMALL_ARGS = {
    ("mesh", "gen"): {"rings_core": "2", "rings_shell": "2"},
    ("mesh", "info"): {"mesh": "MESH"},
    ("eig", "limit"): {"mesh": "MESH", "count": "3"},
    ("eig", "sweep"): {"mesh": "MESH", "deltas": "0.05", "count": "2"},
    ("eig", "k0"): {"mesh": "MESH", "count": "3"},
    ("taylor", None): {"mesh": "MESH", "lambda0": "15", "radius": "0.01",
                       "samples": "8", "order": "2"},
    ("cascade", None): {"mesh": "MESH", "orders": "2"},
    ("mie", "electrostatic"): {"n": "1"},
    ("mie", "nonelectrostatic"): {"p": "1"},
    ("mie", "dispersion"): {"family": "magnetic", "n": "1", "radius": "0.01",
                            "samples": "4"},
    ("invariance", None): {"rings": "2", "count": "3"},
}
_PATH_KEYS = {"mesh", "field"}      # a missing file is an i/o error (exit 3)


@pytest.mark.filterwarnings("ignore::UserWarning")   # outside the validated disk
@pytest.mark.parametrize("command, key", [(command, key) for command, (_, schema)
                                          in cli._COMMANDS.items() for key in schema],
                         ids=lambda v: v if isinstance(v, str) else "-".join(filter(None, v)))
def test_edge_values_never_escape(disk2_mesh, tmp_path, monkeypatch, command, key):
    # every key of every command, at values on and beyond its domain's edge:
    # the run ends in success, a validation error or a numerical diagnostic
    monkeypatch.chdir(tmp_path)
    for value in ["0", "-1", "nan", "inf", "-inf", "1e300"]:
        args = {k: disk2_mesh if v == "MESH" else v for k, v in _SMALL_ARGS[command].items()}
        if "out" in cli._COMMANDS[command][1]:
            args["out"] = "out.txt"
        if command == ("mie", "dispersion") and key == "deltas":
            del args["radius"]              # the two are exclusive
        args[key] = value
        argv = [part for part in command if part]
        argv += [token for k, v in args.items() for token in (f"--{k}", v)]
        code, _, err = run(*argv)
        assert code in (0, 1, 2) or (code == 3 and key in _PATH_KEYS), (value, err)
        if code == 2:
            assert "unexpected" not in json.loads(err), (value, err)


def test_import_leaves_scipy_special_and_optimize_unloaded():
    # specfun and mie import them on first use, so every command that does
    # not touch a sphere mode starts without them
    src = os.path.dirname(os.path.dirname(enzspec.__file__))
    probe = ("import sys, enzspec.cli; print(sorted(m for m in "
             "('scipy.special', 'scipy.optimize') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


def _modules():
    return [importlib.import_module(f"enzspec.{info.name}")
            for info in pkgutil.iter_modules(enzspec.__path__)]


def test_every_exported_name_resolves():
    for module in _modules():
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_every_exception_class_is_exported():
    for module in _modules():
        defined = [name for name, obj in vars(module).items()
                   if isinstance(obj, type) and issubclass(obj, Exception)
                   and obj.__module__ == module.__name__]
        missing = [name for name in defined if name not in module.__all__]
        assert not missing, (module.__name__, missing)


def test_no_unused_module_level_import():
    # a name counts as used when the module reads it or re-exports it; the
    # package modules and the test modules alike
    exports = {module.__file__: module.__all__ for module in _modules()}
    for path in glob.glob(os.path.join(os.path.dirname(__file__), "*.py")):
        exports[path] = ()
    for path, exported in exports.items():
        tree = ast.parse(open(path, encoding="utf-8").read())
        imported = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name != "annotations":
                        name = alias.asname or alias.name.split(".")[0]
                        imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(exported)
        unused = sorted(name for name in imported if name not in used)
        assert not unused, (path, unused)


def test_every_public_name_is_read_in_the_package():
    # a name that only tests read is a test helper: it belongs in tests/
    trees = {m.__name__: ast.parse(open(m.__file__, encoding="utf-8").read())
             for m in _modules()}

    def reads(body, local):
        return any(isinstance(node, ast.Name) and node.id == local
                   and isinstance(node.ctx, ast.Load)
                   for top in body for node in ast.walk(top))

    unread = []
    for module in _modules():
        owner = module.__name__
        for name in module.__all__:
            # its own module, outside its definition, or a module importing it
            read = reads([top for top in trees[owner].body
                          if getattr(top, "name", None) != name], name)
            for tree in trees.values():
                for node in tree.body:
                    if isinstance(node, ast.ImportFrom) and f"enzspec.{node.module}" == owner:
                        read |= any(reads(tree.body, alias.asname or name)
                                    for alias in node.names if alias.name == name)
            if not read:
                unread.append((owner, name))
    assert not unread, unread


def test_only_linalg_factors():
    # one factorization path: no module but linalg calls, imports or passes
    # on a scipy sparse solver
    solvers = {"splu", "spilu", "spsolve", "factorized"}
    for module in _modules():
        if module.__name__ == "enzspec.linalg":
            continue
        found = []
        for node in ast.walk(ast.parse(open(module.__file__, encoding="utf-8").read())):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.split(".")[-1] for alias in node.names]
            else:
                continue
            found += [(node.lineno, name) for name in names if name in solvers]
        assert not found, (module.__name__, found)


def test_one_continuation_loop():
    # one step loop: the corrector is called from one place, the loop that
    # track_branch runs
    calls = []
    for module in _modules():
        tree = ast.parse(open(module.__file__, encoding="utf-8").read())
        # ast.walk is breadth-first, so a nested function's name wins
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        calls += [(module.__name__, owner.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and ast.unparse(node.func).split(".")[-1] == "_block_step"]
    assert calls == [("enzspec.eig", "_continue")]


class TestMeshCommands:
    def test_info(self, disk_mesh):
        code, out, err = run("mesh", "info", "--mesh", disk_mesh)
        assert code == 0, err
        fields = dict(line.split(None, 1) for line in out.splitlines())
        assert int(fields["triangles"]) > 0
        assert abs(float(fields["inclusion_area"]) - math.pi) < 0.05
        assert abs(float(fields["shell_area"]) - 3.0 * math.pi) < 0.2

    def test_missing_mesh_is_io_error(self, tmp_path):
        code, _, err = run("mesh", "info", "--mesh", str(tmp_path / "nope.txt"))
        assert code == 3

    @pytest.mark.parametrize("edit, code_expected, fragment", [
        (lambda lines: lines[:1] + ["vertices -1"] + lines[2:], 3, "line 2: negative count"),
        (lambda lines: lines + ["0 1 1"], 3, "after the boundary section"),
        (lambda lines: lines[:2] + ["nan 0"] + lines[3:], 1, "vertex 0 has non-finite"),
        (lambda lines: lines[:2] + ["0 inf"] + lines[3:], 1, "vertex 0 has non-finite"),
    ], ids=["negative-count", "line-after-boundary", "nan-vertex", "inf-vertex"])
    def test_bad_file_exit_code(self, disk_mesh, tmp_path, edit, code_expected, fragment):
        with open(disk_mesh) as f:
            lines = f.read().splitlines()
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(edit(lines)) + "\n")
        code, out, err = run("mesh", "info", "--mesh", str(path))
        assert code == code_expected and fragment in err
        assert out == ""

    def test_square_gen(self, tmp_path):
        out_path = tmp_path / "sq.txt"
        code, _, err = run("mesh", "gen", "--shape", "square", "--rings_core",
                           "6", "--rings_shell", "6", "--out", str(out_path))
        assert code == 0, err
        assert out_path.exists()

    def test_bad_shape(self, tmp_path):
        code, _, err = run("mesh", "gen", "--shape", "triangle", "--out",
                           str(tmp_path / "m.txt"))
        assert code == 1

    def test_bad_ring_count_is_validation_error(self, tmp_path):
        code, _, err = run("mesh", "gen", "--rings_core", "0", "--out",
                           str(tmp_path / "m.txt"))
        assert code == 1 and "ring counts" in err

    @pytest.mark.parametrize("shape", ["disk", "square"])
    def test_n_theta_is_unknown_key(self, tmp_path, shape):
        # the angle count follows from rings_core alone
        path = tmp_path / "m.txt"
        code, out, err = run("mesh", "gen", "--shape", shape, "--n_theta", "16",
                             "--out", str(path))
        assert code == 1 and "unknown keys" in err and "n_theta" in err
        assert out == "" and not path.exists()


class TestEigCommands:
    def test_limit_csv(self, disk_mesh, tmp_path):
        out_path = tmp_path / "limit.csv"
        code, _, err = run("eig", "limit", "--mesh", disk_mesh, "--count", "4",
                           "--out", str(out_path))
        assert code == 0, err
        lines = out_path.read_text().splitlines()
        assert lines[0] == "# enzspec eig-limit csv v1"
        assert lines[1] == "index,lambda,residual"
        lams = [float(ln.split(",")[1]) for ln in lines[2:]]
        assert lams == sorted(lams) and len(lams) == 4
        assert all(float(ln.split(",")[2]) <= 1e-8 for ln in lines[2:])

    def test_limit_bit_identical(self, disk_mesh, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("eig", "limit", "--mesh", disk_mesh, "--count", "3",
                   "--out", str(a))[0] == 0
        assert run("eig", "limit", "--mesh", disk_mesh, "--count", "3",
                   "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_k0_cross_check(self, disk_mesh, tmp_path):
        out_path = tmp_path / "k0.csv"
        code, _, err = run("eig", "k0", "--mesh", disk_mesh, "--count", "4",
                           "--out", str(out_path))
        assert code == 0, err
        lines = out_path.read_text().splitlines()
        mismatches = [float(ln.split(",")[4]) for ln in lines[2:]]
        assert max(mismatches) <= 1e-7

    def test_k0_tol_is_unknown_key(self, disk_mesh, tmp_path):
        # the accepted pencil/compact-operator mismatch is fixed
        out_path = tmp_path / "k0.csv"
        code, _, err = run("eig", "k0", "--mesh", disk_mesh, "--count", "4",
                           "--tol", "1e-7", "--out", str(out_path))
        assert code == 1 and "unknown keys" in err and "tol" in err
        assert not out_path.exists()

    def test_sweep(self, disk_mesh, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, err = run("eig", "sweep", "--mesh", disk_mesh, "--deltas",
                           "0.05,0.1", "--count", "2", "--out", str(out_path))
        assert code == 0, err
        lines = out_path.read_text().splitlines()
        assert len(lines) == 2 + 4
        for ln in lines[2:]:
            assert abs(float(ln.split(",")[4])) < 1e-9   # real delta: real lambda

    def test_sweep_takes_one_target(self, disk_mesh, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, err = run("eig", "sweep", "--mesh", disk_mesh, "--deltas", "0.05",
                           "--target", "14.5,3", "--out", str(out_path))
        assert code == 1 and "target" in err
        assert not out_path.exists()

    def test_limit_on_a_large_shell(self, tmp_path):
        # area(D)/area(S) is about 1e-16 here: delta = 0 is not degenerate
        mesh_path, out_path = tmp_path / "big.txt", tmp_path / "limit.csv"
        assert run("mesh", "gen", "--shape", "disk", "--size", "1e8", "--rings_core", "4",
                   "--rings_shell", "4", "--out", str(mesh_path))[0] == 0
        code, _, err = run("eig", "limit", "--mesh", str(mesh_path), "--out", str(out_path))
        assert code == 0, err
        rows = [ln.split(",") for ln in out_path.read_text().splitlines()[2:]]
        assert rows and all(float(r[1]) > 0.0 and float(r[2]) <= 1e-8 for r in rows)

    @pytest.mark.xfail(strict=True, reason="the limit shift and the degeneracy tests are "
                       "absolute, not scaled to the pencil: a 1e-8 mesh exits 2")
    def test_limit_on_a_small_mesh(self, tmp_path):
        # a mesh scaled by s has the eigenvalues lambda / s^2
        mesh = generate_disk_in_disk(2.0, 4, 4)
        lams = []
        for scale in (1.0, 1e-8):
            mesh_path, out_path = tmp_path / f"m{scale:g}.txt", tmp_path / f"l{scale:g}.csv"
            save_mesh(dataclasses.replace(mesh, vertices=mesh.vertices * scale), str(mesh_path))
            code, _, err = run("eig", "limit", "--mesh", str(mesh_path), "--count", "4",
                               "--out", str(out_path))
            assert code == 0, err
            lams.append([float(ln.split(",")[1])
                         for ln in out_path.read_text().splitlines()[2:]])
        assert len(lams[0]) == 4
        assert np.allclose(np.array(lams[1]) * 1e-16, lams[0], rtol=1e-10, atol=0.0)

    def test_count_beyond_the_spectrum(self, disk_mesh, tmp_path):
        # the 513-node disk has far fewer than 600 finite limit eigenvalues
        out_path = tmp_path / "limit.csv"
        code, _, err = run("eig", "limit", "--mesh", disk_mesh, "--count", "600",
                           "--out", str(out_path))
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "EigError" and "600" in payload["message"]
        assert "unexpected" not in payload
        assert not out_path.exists()


@pytest.fixture
def block_steps(monkeypatch):
    """The delta of every continuation step (`eig._block_step` call)."""
    deltas = []
    block_step = eig._block_step

    def counted(pencil, delta, *args):
        deltas.append(delta)
        return block_step(pencil, delta, *args)

    monkeypatch.setattr(eig, "_block_step", counted)
    return deltas


_TAYLOR_KEYS = {"a_coeffs", "decay_ratios", "prediction_errors", "reality_defect",
                "closure_defect"}


class TestTaylorCommand:
    def test_zero_radius_is_validation_error(self, disk_mesh, tmp_path):
        code, _, err = run("taylor", "--mesh", disk_mesh, "--lambda0", "3.0",
                           "--radius", "0", "--out", str(tmp_path / "t.json"))
        assert code == 1 and "radius" in err

    def test_report_written(self, disk_mesh, tmp_path):
        # smallest limit eigenvalue of the coarse disk mesh, read back from
        # the limit command's own artifact: the double of angular order 1
        limit_csv = tmp_path / "limit.csv"
        assert run("eig", "limit", "--mesh", disk_mesh, "--count", "1",
                   "--out", str(limit_csv))[0] == 0
        lam0 = float(limit_csv.read_text().splitlines()[2].split(",")[1])
        out_path = tmp_path / "report.json"
        code, _, err = run("taylor", "--mesh", disk_mesh, "--lambda0",
                           f"{lam0:.17g}", "--radius", "0.02", "--samples", "8",
                           "--order", "2", "--out", str(out_path))
        assert code == 0, err
        payload = json.loads(out_path.read_text())
        assert set(payload) == _TAYLOR_KEYS | {"group_size", "power_sum_coeffs"}
        assert payload["group_size"] == 2
        assert payload["closure_defect"] <= 1e-9
        assert payload["reality_defect"] <= 1e-9
        a0 = payload["a_coeffs"][0]
        assert abs(a0[0] - lam0) < 1e-6 * lam0

    def test_double_reports_power_sums(self, disk_mesh, tmp_path):
        # the double 31.173239 is a lambda-group of two copies: the report
        # gains the series of s_2 = lambda_1^2 + lambda_2^2, whose a_0 is the
        # sum of the squares of the copies from scipy's dense eig at delta = 0;
        # the simple 15.005677 gains nothing
        forms = fem.assemble(load_mesh(disk_mesh))
        w = scipy.linalg.eig(forms.A.toarray(), forms.M_D.toarray(), right=False)
        copies = w[np.isfinite(w) & (np.abs(w - 31.173239) <= 1e-6 * 31.173239)].real
        assert len(copies) == 2
        s2 = float(np.sum(copies**2))
        payloads = []
        for lam0 in ("31.173239", "15.005677"):
            out_path = tmp_path / f"{lam0}.json"
            code, _, err = run("taylor", "--mesh", disk_mesh, "--lambda0", lam0,
                               "--radius", "0.01", "--samples", "16", "--out", str(out_path))
            assert code == 0, err
            payloads.append(json.loads(out_path.read_text()))
        double, simple = payloads
        assert double["group_size"] == 2 and set(double["power_sum_coeffs"]) == {"2"}
        assert abs(complex(*double["power_sum_coeffs"]["2"][0]) - s2) <= 1e-9 * s2
        assert set(simple) == _TAYLOR_KEYS

    def test_real_deltas_is_unknown_key(self, disk_mesh, tmp_path):
        # reality is read off the circle: no real-axis ramps are tracked
        out_path = tmp_path / "t.json"
        code, _, err = run("taylor", "--mesh", disk_mesh, "--lambda0", "15.005677",
                           "--radius", "0.01", "--real_deltas", "0.01", "--out", str(out_path))
        assert code == 1 and "unknown keys" in err and "real_deltas" in err
        assert not out_path.exists()

    def test_lost_branch_is_numerical_failure(self, square_mesh, tmp_path):
        # on the 8-ring square the lead-in of the r = 0.04 circle around the
        # branch at 31.17 meets a neighbour at delta = 0.024: exit 2, with a
        # diagnostic naming delta and the residual
        out_path = tmp_path / "t.json"
        code, _, err = run("taylor", "--mesh", square_mesh, "--lambda0", "31.17",
                           "--radius", "0.04", "--samples", "16", "--out", str(out_path))
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "TrackingAmbiguityError" and "unexpected" not in payload
        assert "delta=0.024 " in payload["message"] and "residual" in payload["message"]
        assert not out_path.exists()

    @pytest.mark.parametrize("shape, radius", [("disk", "0.12"), ("square", "0.06")])
    def test_circle_around_a_branch_point_is_numerical_failure(
            self, disk_mesh, square_mesh, tmp_path, shape, radius):
        # the circle encloses a conjugate pair of exceptional points and
        # closes on another sheet: its a_0 (3.1355 on the disk, 2.6519 on
        # the square) misses the delta = 0 start 15.005677
        mesh = disk_mesh if shape == "disk" else square_mesh
        out_path = tmp_path / "t.json"
        code, _, err = run("taylor", "--mesh", mesh, "--lambda0", "15.005677",
                           "--radius", radius, "--samples", "32", "--order", "8",
                           "--out", str(out_path))
        assert code == 2, err
        payload = json.loads(err)
        assert payload["error"] == "EigError" and "unexpected" not in payload
        assert "a_0 = " in payload["message"] and "lambda(0) = 15.0056" in payload["message"]
        assert not out_path.exists()

    def test_one_harvest_per_command(self, disk_mesh, tmp_path, monkeypatch):
        # the circle, whose lead-in holds the held-out point, continues one
        # delta = 0 start
        calls = []
        solve_pencil = eig._solve_pencil

        def counted(*args):
            calls.append(args[1])
            return solve_pencil(*args)

        monkeypatch.setattr(eig, "_solve_pencil", counted)
        code, _, err = run("taylor", "--mesh", disk_mesh, "--lambda0", "15.005677",
                           "--radius", "0.02", "--samples", "8", "--order", "2",
                           "--out", str(tmp_path / "t.json"))
        assert code == 0, err
        assert calls == [0.0]

    def test_block_steps_per_command(self, disk_mesh, tmp_path, block_steps):
        # 4 lead-in and 17 circle steps, which include the held-out point
        code, _, err = run("taylor", "--mesh", disk_mesh, "--lambda0", "15.005677",
                           "--radius", "0.01", "--samples", "16", "--out", str(tmp_path / "t.json"))
        assert code == 0, err
        assert len(block_steps) == 21

    def test_one_pencil_per_command(self, disk_mesh, tmp_path, monkeypatch):
        # the start and all 21 steps read one pencil, which reads the
        # region areas once
        calls = []
        validated_radius = eig.validated_radius

        def counted(forms):
            calls.append(forms)
            return validated_radius(forms)

        monkeypatch.setattr(eig, "validated_radius", counted)
        code, _, err = run("taylor", "--mesh", disk_mesh, "--lambda0", "15.005677",
                           "--radius", "0.01", "--samples", "16", "--out", str(tmp_path / "t.json"))
        assert code == 0, err
        assert len(calls) == 1

    def test_held_out_matches_fresh_solve(self, disk_mesh, tmp_path):
        # second route to lambda(3r/5): an ARPACK harvest with no continuation
        lam0, r = 15.005677, 0.01
        out_path = tmp_path / "t.json"
        code, _, err = run("taylor", "--mesh", disk_mesh, "--lambda0", str(lam0),
                           "--radius", str(r), "--samples", "16", "--out", str(out_path))
        assert code == 0, err
        payload = json.loads(out_path.read_text())
        delta = 3 * r / 5
        lam = eig.delta_spectrum(fem.assemble(load_mesh(disk_mesh)), delta, lam0, 1)[0].lam
        series = sum(complex(*a) * delta**k for k, a in enumerate(payload["a_coeffs"]))
        assert len(payload["prediction_errors"]) == 1
        assert abs(payload["prediction_errors"][0] - abs(series - lam) / abs(lam)) <= 1e-12

    @pytest.mark.parametrize("shape", ["disk", "square"])
    def test_16_rings(self, ring16_meshes, tmp_path, block_steps, shape):
        mesh = ring16_meshes[shape]
        limit_csv = tmp_path / "limit.csv"
        assert run("eig", "limit", "--mesh", mesh, "--count", "8", "--out", str(limit_csv))[0] == 0
        limit = [float(line.split(",")[1]) for line in limit_csv.read_text().splitlines()[2:]]
        reports = []
        for name in ("t1.json", "t2.json"):
            del block_steps[:]
            code, _, err = run("taylor", "--mesh", mesh, "--lambda0", "15.005677",
                               "--radius", "0.01", "--samples", "16",
                               "--out", str(tmp_path / name))
            assert code == 0, err
            assert len(block_steps) == 21
            reports.append((tmp_path / name).read_bytes())
        assert reports[0] == reports[1]
        payload = json.loads(reports[0])
        assert payload["closure_defect"] <= 1e-9
        a0 = complex(*payload["a_coeffs"][0])
        assert min(abs(a0 - lam) for lam in limit) <= 1e-8

    def test_tiny_radius_is_numerical_failure(self, disk2_mesh, tmp_path):
        # radius**k underflows to 0 for k >= 2, so a_2 cannot be finite
        out_path = tmp_path / "t.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run("taylor", "--mesh", disk2_mesh, "--lambda0", "15",
                               "--radius", "1e-300", "--out", str(out_path))
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "NonFiniteSeriesError" and "unexpected" not in payload
        assert "a_2" in payload["message"]
        assert not out_path.exists()


class TestCascadeCommand:
    def test_series_table(self, disk_mesh, tmp_path):
        out_path = tmp_path / "cascade.csv"
        code, _, err = run("cascade", "--mesh", disk_mesh, "--delta", "0.05",
                           "--orders", "4", "--out", str(out_path))
        assert code == 0, err
        lines = out_path.read_text().splitlines()
        assert lines[1].startswith("# psi_energy ")
        energy = float(lines[1].split()[-1])
        assert abs(energy - 2.0 * math.pi / math.log(2.0)) / energy < 0.02
        errors = [float(ln.split(",")[3]) for ln in lines[3:]]
        assert len(errors) == 5
        for a, b in zip(errors, errors[1:]):
            assert b <= 0.5 * a

    @pytest.mark.parametrize("shape", ["disk", "square"])
    def test_six_orders_on_32_rings(self, ring32_meshes, tmp_path, shape):
        out_path = tmp_path / "cascade.csv"
        argv = ("cascade", "--mesh", ring32_meshes[shape], "--delta", "0.05", "--orders", "6")
        code, _, err = run(*argv, "--out", str(out_path))
        assert code == 0, err
        lines = out_path.read_text().splitlines()
        assert float(lines[1].split()[-1]) > 0.0             # psi_energy
        errors = [float(ln.split(",")[3]) for ln in lines[3:]]
        assert len(errors) == 7
        assert all(b < a for a, b in zip(errors, errors[1:]))
        again = tmp_path / "again.csv"
        assert run(*argv, "--out", str(again))[0] == 0
        assert again.read_bytes() == out_path.read_bytes()

    def test_tiny_field_on_32_ring_disk(self, ring32_meshes, tmp_path):
        # the norms square h, which is of the field's size: 1e-200 squared
        # underflows unless the norms rescale first
        out_path = tmp_path / "cascade.csv"
        code, _, err = run("cascade", "--mesh", ring32_meshes["disk"], "--orders", "6",
                           "--delta", "0.05", "--fx", "1e-200", "--fy", "0",
                           "--out", str(out_path))
        assert code == 0, err
        errors = [float(ln.split(",")[3]) for ln in out_path.read_text().splitlines()[3:]]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_field_scale_leaves_the_verdict(self, disk2_mesh, tmp_path):
        # the cascade is linear in F: c and h1_norm scale with it and the
        # relative series error does not, up to rounding
        tables = {}
        for fx in ("1", "1e4", "1e8", "1e12"):
            tables[float(fx)] = self.table(disk2_mesh, tmp_path, fx)
        ref = tables[1.0]
        for fx, table in tables.items():
            assert np.allclose(table[:, :2] / fx, ref[:, :2], rtol=1e-9, atol=1e-12)
            assert np.allclose(table[:, 2], ref[:, 2], rtol=1e-9, atol=1e-14)

    @pytest.mark.parametrize("exponent", [-600, 300])
    def test_power_of_two_field_scale_is_exact(self, disk2_mesh, tmp_path, exponent):
        # scaling F by a power of two commutes with every rounding, so c and
        # h1_norm scale exactly and series_error is equal, as long as no
        # norm squares its values into underflow or overflow
        scale = 2.0 ** exponent
        ref = self.table(disk2_mesh, tmp_path, "1")
        table = self.table(disk2_mesh, tmp_path, repr(scale))
        assert np.array_equal(table[:, :2], ref[:, :2] * scale)
        assert np.array_equal(table[:, 2], ref[:, 2])

    @pytest.mark.parametrize("orders", ["1", "6"])
    def test_three_divergence_operators_per_command(self, disk_mesh, tmp_path,
                                                    monkeypatch, orders):
        # the full mesh assembles it and each subdomain slices its own: no
        # order, load or size bound builds another
        built = []
        div_operator = fem._div_operator

        def counted(*args):
            built.append(args[2])
            return div_operator(*args)

        monkeypatch.setattr(fem, "_div_operator", counted)
        code, _, err = run("cascade", "--mesh", disk_mesh, "--delta", "0.05",
                           "--orders", orders, "--out", str(tmp_path / "c.csv"))
        assert code == 0, err
        assert len(built) == 3
        # then the two subdomains, whose vertex counts overlap on the interface
        assert built[1] + built[2] > built[0]

    @staticmethod
    def table(mesh, tmp_path, fx):
        """The c, h1_norm and series_error columns of a cascade with field (fx, 0)."""
        out_path = tmp_path / f"c{fx}.csv"
        code, _, err = run("cascade", "--mesh", mesh, "--fx", fx, "--fy", "0",
                           "--out", str(out_path))
        assert code == 0, (fx, err)
        lines = out_path.read_text().splitlines()[3:]
        return np.array([ln.split(",")[1:] for ln in lines], dtype=float)

    def test_warns_outside_validated_disk(self, disk2_mesh, tmp_path):
        # area(D) / area(shell) = 1/3 on the radius-2 disk: 0.3 is inside,
        # 0.4 is outside and still writes its table
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("cascade", "--mesh", disk2_mesh, "--delta", "0.3",
                       "--out", str(tmp_path / "in.csv"))[0] == 0
        with pytest.warns(UserWarning, match="validated disk"):
            code, _, err = run("cascade", "--mesh", disk2_mesh, "--delta", "0.4",
                               "--out", str(tmp_path / "out.csv"))
        assert code == 0, err
        assert len((tmp_path / "out.csv").read_text().splitlines()) == 3 + 7

    def test_zero_delta_rejected(self, disk_mesh, tmp_path):
        code, _, err = run("cascade", "--mesh", disk_mesh, "--delta", "0",
                           "--out", str(tmp_path / "c.csv"))
        assert code == 1


def _ring_meshes(tmp_path_factory, rings):
    """Paths of the disk and square meshes with `rings` rings, by shape."""
    root = tmp_path_factory.mktemp(f"ring{rings}")
    paths = {}
    for shape in ("disk", "square"):
        paths[shape] = str(root / f"{shape}{rings}.txt")
        assert run("mesh", "gen", "--shape", shape, "--rings_core", str(rings),
                   "--rings_shell", str(rings), "--out", paths[shape])[0] == 0
    return paths


@pytest.fixture(scope="module")
def ring16_meshes(tmp_path_factory):
    return _ring_meshes(tmp_path_factory, 16)


@pytest.fixture(scope="module")
def ring32_meshes(tmp_path_factory):
    return _ring_meshes(tmp_path_factory, 32)


@pytest.fixture(scope="module")
def disk2_mesh(tmp_path_factory):
    path = tmp_path_factory.mktemp("mesh") / "disk2.txt"
    code, out, err = run("mesh", "gen", "--shape", "disk", "--rings_core", "2",
                         "--rings_shell", "2", "--out", str(path))
    assert code == 0 and "112 triangles" in out, err
    return str(path)


def _field_lines(rows=112):
    return ["field 1"] + ["1 0"] * rows


class TestCascadeFieldFile:
    def cascade(self, mesh, tmp_path, lines):
        field = tmp_path / "field.txt"
        field.write_text("".join(ln + "\n" for ln in lines))
        out_path = tmp_path / "c.csv"
        code, out, err = run("cascade", "--mesh", mesh, "--delta", "0.05", "--orders", "2",
                             "--field", str(field), "--out", str(out_path))
        return code, err, out_path

    def test_constant_field_matches_fx_fy(self, disk2_mesh, tmp_path):
        code, err, out_path = self.cascade(disk2_mesh, tmp_path, _field_lines())
        assert code == 0, err
        ref = tmp_path / "ref.csv"
        assert run("cascade", "--mesh", disk2_mesh, "--delta", "0.05", "--orders", "2",
                   "--fx", "1", "--fy", "0", "--out", str(ref))[0] == 0
        assert out_path.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("lines, fragment", [
        ([], "line 1: unexpected end of file"),
        (["field x"] + ["1 0"] * 112, "line 1: bad count 'x'"),
        (["fields 1"] + ["1 0"] * 112, "line 1: expected 'field N'"),
        (["field -1"], "line 1: negative count -1"),
        (["field 0"], "line 1: a field file holds at least one field"),
        (["field 1", "1 0 5"] + ["1 0"] * 111, "line 2: expected 'fx fy', got '1 0 5'"),
        (["field 1"] + ["1 0"] * 50 + ["1 zero"] + ["1 0"] * 61, "line 52: bad coordinate"),
        (_field_lines(111), "line 113: unexpected end of file"),
        (["field 2"] + ["1 0"] * 112, "line 114: unexpected end of file"),
        (_field_lines(113), "line 114: unexpected line after the field data"),
    ], ids=["empty", "bad-count", "bad-header", "negative-count", "zero-count",
            "token-count", "non-numeric", "too-few-lines", "too-few-fields", "too-many-lines"])
    def test_malformed_file_is_parse_error(self, disk2_mesh, tmp_path, lines, fragment):
        code, err, out_path = self.cascade(disk2_mesh, tmp_path, lines)
        assert code == 3 and err.startswith("i/o error: ") and fragment in err, err
        assert not out_path.exists()

    def test_bytes_that_are_not_utf8(self, disk2_mesh, tmp_path):
        field = tmp_path / "field.txt"
        field.write_bytes(b"field 1\n1 0\n\xff 0\n")
        code, _, err = run("cascade", "--mesh", disk2_mesh, "--field", str(field),
                           "--out", str(tmp_path / "c.csv"))
        assert code == 3 and err == "i/o error: line 3: not UTF-8 text\n"

    def test_divergent_field_is_cascade_error(self, disk2_mesh, tmp_path):
        rng = np.random.default_rng(3)
        rows = [f"{a:.17g} {b:.17g}" for a, b in rng.standard_normal((112, 2))]
        code, err, out_path = self.cascade(disk2_mesh, tmp_path, ["field 1"] + rows)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "CascadeError" and "unexpected" not in payload
        assert "not weakly divergence-free" in payload["message"]


class TestMieCommands:
    def test_electrostatic_example(self, tmp_path):
        out_path = tmp_path / "mode.txt"
        code, out, err = run("mie", "electrostatic", "--n", "1", "--m", "0",
                             "--root", "1", "--R", "2", "--out", str(out_path))
        assert code == 0, err
        assert "k 4.4934094579090" in out_path.read_text()

    def test_nonelectrostatic_logs_both_readings(self, tmp_path):
        out_path = tmp_path / "mode.txt"
        code, out, err = run("mie", "nonelectrostatic", "--p", "2", "--q", "0",
                             "--R", "2", "--interval", "1",
                             "--out", str(out_path))
        assert code == 0, err
        assert "matching_coeff_p " in out
        assert "matching_coeff_plain " in out
        fields = dict(ln.split(None, 1) for ln in out.splitlines())
        assert abs(float(fields["matching_field"])
                   - float(fields["matching_interior"])) < 1e-9

    def test_dispersion_delta_one(self, tmp_path):
        out_path = tmp_path / "disp.csv"
        code, _, err = run("mie", "dispersion", "--family", "electric", "--n",
                           "1", "--R", "2", "--deltas", "1", "--out",
                           str(out_path))
        assert code == 0, err
        row = out_path.read_text().splitlines()[2].split(",")
        k_ref = 4.493409457909064 / 2.0   # first zero of j_1, over R
        assert abs(float(row[2]) - k_ref**2) < 1e-9

    def test_dispersion_electric_n3_is_continuous(self, tmp_path):
        # the branch through the limit root is analytic in delta, so
        # neighbouring samples of a fine circle lie close together
        out_path = tmp_path / "disp.csv"
        code, _, err = run("mie", "dispersion", "--family", "electric", "--n", "3",
                           "--R", "2", "--radius", "0.00912241", "--samples", "256",
                           "--out", str(out_path))
        assert code == 0, err
        rows = [ln.split(",") for ln in out_path.read_text().splitlines()[2:]]
        lam = np.array([complex(float(r[2]), float(r[3])) for r in rows])
        assert len(lam) == 257   # the last sample closes the circle
        assert np.abs(np.diff(lam)).max() < 1.0

    @pytest.mark.parametrize("command, degree", [("electrostatic", "--n"),
                                                 ("nonelectrostatic", "--p")])
    def test_outer_radius_one_rejected(self, tmp_path, command, degree):
        out_path = tmp_path / "mode.txt"
        code, _, err = run("mie", command, degree, "1", "--R", "1",
                           "--out", str(out_path))
        assert code == 1 and "bad value for R" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("family, n, R", [
        ("electric", "0", "2"), ("magnetic", "0", "2"), ("magnetic", "-1", "2"),
        ("electric", "1", "0.5"), ("electric", "1", "0"), ("magnetic", "1", "1")])
    def test_dispersion_rejects_degree_and_radius(self, tmp_path, family, n, R):
        out_path = tmp_path / "d.csv"
        code, _, err = run("mie", "dispersion", "--family", family, "--n", n,
                           "--R", R, "--deltas", "0.01", "--out", str(out_path))
        assert code == 1
        assert "bad value for " + ("n" if n != "1" else "R") in err
        assert not out_path.exists()

    def test_dispersion_jobs_rejected(self, tmp_path):
        code, _, err = run("mie", "dispersion", "--family", "magnetic", "--n", "1",
                           "--radius", "0.01", "--samples", "8",
                           "--out", str(tmp_path / "d.csv"), "--jobs", "2")
        assert code == 1 and "jobs" in err

    def test_dispersion_needs_samples(self, tmp_path):
        code, _, err = run("mie", "dispersion", "--family", "electric", "--n",
                           "1", "--out", str(tmp_path / "d.csv"))
        assert code == 1


@pytest.mark.parametrize("R", ["2", "1e300"])
@pytest.mark.parametrize("n", ["150", "300", "2000"])
def test_large_sphere_orders_never_escape(tmp_path, n, R):
    # orders where j_n underflows below its first zero and R^n overflows:
    # every sphere command ends in success or a numerical diagnostic, and
    # the electrostatic k is the first zero of j_n
    out_path = str(tmp_path / "out.txt")
    circle = ["--radius", "0.01", "--samples", "4"]
    for args in [["electrostatic", "--n", n],
                 ["nonelectrostatic", "--p", n, "--interval", "0"],
                 ["nonelectrostatic", "--p", n, "--interval", "1"],
                 ["dispersion", "--family", "electric", "--n", n, *circle],
                 ["dispersion", "--family", "magnetic", "--n", n, *circle]]:
        code, out, err = run("mie", *args, "--R", R, "--out", out_path)
        assert code in (0, 2), (args, err)
        if code == 2:
            assert "unexpected" not in json.loads(err), (args, err)
        if args[0] == "electrostatic":
            assert code == 0, err
            k = float(dict(ln.split(None, 1) for ln in out.splitlines())["k"])
            oracle = first_zero_oracle(int(n))
            assert abs(k - oracle) <= 1e-12 * oracle


class TestInvarianceCommand:
    def test_disk_and_square_share_radial_eigenvalue(self, tmp_path):
        out_path = tmp_path / "inv.csv"
        code, _, err = run("invariance", "--shapes", "disk,square", "--rings",
                           "8", "--count", "6", "--out", str(out_path))
        assert code == 0, err
        rows = [ln.split(",") for ln in out_path.read_text().splitlines()[2:]]
        by_shape = {}
        for shape, _, lam in rows:
            by_shape.setdefault(shape, []).append(float(lam))
        assert set(by_shape) == {"disk", "square"}
        # the smallest eigenvalues belong to shape-dependent angular modes,
        # but every column is positive and ascending
        for lams in by_shape.values():
            assert lams == sorted(lams) and lams[0] > 0
