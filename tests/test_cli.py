import ast
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

import enzspec
from enzspec import cli
from enzspec.cli import main


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def disk_mesh(tmp_path_factory):
    path = tmp_path_factory.mktemp("mesh") / "disk.txt"
    code, _, err = run("mesh", "gen", "--shape", "disk", "--rings_core", "8",
                       "--rings_shell", "8", "--out", str(path))
    assert code == 0, err
    return str(path)


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
    (["eig", "k0", "--tol", "nan"], "tol"),
    (["eig", "limit", "--count", "0"], "count"),
    (["invariance", "--rings", "2", "--count", "0"], "count"),
    (["eig", "sweep", "--deltas", "nan"], "deltas"),
    (["cascade", "--delta", "nan"], "delta"),
    (["mie", "electrostatic", "--n", "1", "--m", "5"], "|m| <= n"),
    (["mie", "nonelectrostatic", "--p", "1", "--R", "1"], "R"),
], ids=["taylor-samples-12", "taylor-order-9", "dispersion-samples-0", "cascade-orders-neg",
        "k0-tol-nan", "limit-count-0", "invariance-count-0", "sweep-deltas-nan",
        "cascade-delta-nan", "electrostatic-m-5", "nonelectrostatic-R-1"])
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
    # a name counts as used when the module reads it or re-exports it
    for module in _modules():
        tree = ast.parse(open(module.__file__, encoding="utf-8").read())
        imported = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name != "annotations":
                        name = alias.asname or alias.name.split(".")[0]
                        imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(getattr(module, "__all__", ()))
        unused = sorted(name for name in imported if name not in used)
        assert not unused, (module.__name__, unused)


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

    @pytest.mark.parametrize("shape, fragment", [("disk", "n_theta must be >= 3"),
                                                 ("square", "multiple of 8")])
    def test_negative_n_theta_rejected(self, tmp_path, shape, fragment):
        # only 0 selects the default angle count
        path = tmp_path / "m.txt"
        code, out, err = run("mesh", "gen", "--shape", shape, "--n_theta", "-5",
                             "--out", str(path))
        assert code == 1 and fragment in err
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


class TestTaylorCommand:
    def test_zero_radius_is_validation_error(self, disk_mesh, tmp_path):
        code, _, err = run("taylor", "--mesh", disk_mesh, "--lambda0", "3.0",
                           "--radius", "0", "--out", str(tmp_path / "t.json"))
        assert code == 1 and "radius" in err

    def test_report_written(self, disk_mesh, tmp_path):
        # smallest limit eigenvalue of the coarse disk mesh, read back from
        # the limit command's own artifact
        limit_csv = tmp_path / "limit.csv"
        assert run("eig", "limit", "--mesh", disk_mesh, "--count", "1",
                   "--out", str(limit_csv))[0] == 0
        lam0 = float(limit_csv.read_text().splitlines()[2].split(",")[1])
        out_path = tmp_path / "report.json"
        code, _, err = run("taylor", "--mesh", disk_mesh, "--lambda0",
                           f"{lam0:.17g}", "--radius", "0.02", "--samples", "8",
                           "--order", "2", "--real_deltas", "0.01",
                           "--out", str(out_path))
        assert code == 0, err
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"a_coeffs", "decay_ratios", "prediction_errors",
                                "reality_defect", "closure_defect"}
        assert payload["closure_defect"] <= 1e-9
        assert payload["reality_defect"] <= 1e-9
        a0 = payload["a_coeffs"][0]
        assert abs(a0[0] - lam0) < 1e-6 * lam0

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

    def test_six_orders_on_32_ring_disk(self, tmp_path):
        mesh_path = tmp_path / "disk32.txt"
        assert run("mesh", "gen", "--shape", "disk", "--rings_core", "32",
                   "--rings_shell", "32", "--out", str(mesh_path))[0] == 0
        out_path = tmp_path / "cascade.csv"
        code, _, err = run("cascade", "--mesh", str(mesh_path), "--delta", "0.05",
                           "--orders", "6", "--out", str(out_path))
        assert code == 0, err
        lines = out_path.read_text().splitlines()
        assert float(lines[1].split()[-1]) > 0.0             # psi_energy
        errors = [float(ln.split(",")[3]) for ln in lines[3:]]
        assert len(errors) == 7
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_zero_delta_rejected(self, disk_mesh, tmp_path):
        code, _, err = run("cascade", "--mesh", disk_mesh, "--delta", "0",
                           "--out", str(tmp_path / "c.csv"))
        assert code == 1


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
