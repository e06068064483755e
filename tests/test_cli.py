import io
import json
import math

import numpy as np
import pytest

from enzspec import cli
from enzspec.cli import main
from enzspec.specfun import bessel_zeros


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
        k_ref = bessel_zeros(1, 1)[0] / 2.0
        assert abs(float(row[2]) - k_ref**2) < 1e-9

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
