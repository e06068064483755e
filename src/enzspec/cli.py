"""Command-line front end.

Commands operate on the text formats of the mesh and mode modules and emit
CSV tables / JSON reports.  Configuration is a flat key=value file merged
with command-line flags (flags win); unknown keys are rejected.  All
numeric cells use 17 significant digits and row order is fixed, so repeated
runs with the same configuration produce bit-identical artifacts.
`mie dispersion` solves its delta samples by batched Newton with the exact
determinant derivative (from the spherical Bessel equation): a list of deltas
in one call, and a circle of 32 or more samples in two, the second seeded
from the polynomial through the first's samples.  A circle without `--seed`
whose mean misses the squared delta -> 0 root is a numerical failure.

Exit codes: 0 success, 1 validation error, 2 numerical failure (with a
diagnostic JSON on stderr), 3 I/O error.  An unexpected exception is
reported like a numerical failure, so no traceback leaves the front end.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import sys
import traceback

import numpy as np

from .cascade import Cascade, CascadeError, DrivingField, load_field, series_vs_direct
from .eig import EigError, delta_spectrum, discrete_K0, limit_spectrum, track_branch
from .fem import FemError, assemble
from .linalg import ArnoldiError, SingularMatrixError
from .mesh import (
    MeshError,
    MeshParseError,
    generate_disk_in_disk,
    generate_square_with_disk,
    load_mesh,
    save_mesh,
)
from .mie import (
    FAMILY_E,
    FAMILY_H,
    MieError,
    concentric_dispersion,
    electrostatic_mode,
    matching_constants,
    nonelectrostatic_mode,
    save_mode,
)
from .perturb import (
    LEAD_IN_STEPS,
    NonClosedBranchError,
    NonFiniteSeriesError,
    analyticity_report,
    circle_path,
    taylor_from_circle,
)
from .specfun import SpecFunError, bessel_zeros

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    pass


_REQUIRED = object()


def _str_list(text):
    items = [tok.strip() for tok in str(text).split(",") if tok.strip()]
    if not items:
        raise ValueError("must list at least one value")
    return items


def _checked(cast, ok, what):
    """A parser that casts its text and rejects a value v unless ok(v)."""
    def parse(text):
        value = cast(text)
        if not ok(value):
            raise ValueError(f"must be {what}")
        return value
    return parse


def _list_of(cast):
    return lambda text: [cast(tok) for tok in _str_list(text)]


# each key's domain; a value outside it is a validation error (exit 1)
_finite = _checked(float, math.isfinite, "finite")
_finite_complex = _checked(complex, cmath.isfinite, "finite")
_positive = _checked(_finite, lambda x: x > 0, "> 0")
_nonzero = _checked(_finite, lambda x: x != 0, "nonzero")
_outer_radius = _checked(_finite, lambda x: x > 1, "> 1")
_at_least_1 = _checked(int, lambda k: k >= 1, ">= 1")
_at_least_0 = _checked(int, lambda k: k >= 0, ">= 0")
_power_of_two = _checked(int, lambda k: k >= 4 and not k & (k - 1), "a power of two >= 4")
_family = _checked(str, lambda f: f in (FAMILY_E, FAMILY_H), f"{FAMILY_E!r} or {FAMILY_H!r}")
_complex_list = _list_of(_finite_complex)
_nonzero_complex_list = _list_of(_checked(_finite_complex, lambda d: d != 0, "nonzero"))


# largest relative mismatch between the pencil's limit eigenvalues and the
# reciprocals of the compact operator's that `eig k0` accepts
_K0_TOL = 1e-7
# the largest |a_0 - lambda(0)| / (1 + |lambda(0)|) `taylor` and `mie dispersion
# --radius` accept: valid 8-ring `taylor` circles miss by <= 6.1e-5, circles
# around exceptional points by >= 0.74
_START_TOL = 1e-3
# electric `mie dispersion` samples with |delta| at most this seed from the
# delta -> 0 limit root, the others from the delta = 1 root z_1 / R
_LIMIT_SEED_RADIUS = 0.05
# `mie dispersion --radius` first solves every s-th sample of its circle, with
# s the largest divisor of the sample count that leaves at least this many
_COARSE_SAMPLES = 16


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _read_config_file(path: str) -> dict:
    raw = {}
    try:
        with open(path, encoding="utf-8") as f:
            for ln, line in enumerate(f, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{ln}: expected key=value, got {text!r}")
                key, _, value = text.partition("=")
                raw[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return raw


def _parse_args(argv):
    """(command, subcommand, raw key->string map)."""
    if not argv:
        raise ConfigError(
            "usage: enzspec COMMAND [SUBCOMMAND] [--config FILE] [--key value ...]")
    command = argv[0]
    if command not in {cmd for cmd, _ in _COMMANDS}:
        raise ConfigError(f"unknown command {command!r}")
    rest = argv[1:]
    sub = None
    subs = [s for cmd, s in _COMMANDS if cmd == command and s is not None]
    if subs:
        if not rest or rest[0].startswith("--"):
            raise ConfigError(f"command {command!r} needs a subcommand: " + ", ".join(subs))
        sub = rest[0]
        if sub not in subs:
            raise ConfigError(f"unknown subcommand {command} {sub!r}")
        rest = rest[1:]
    raw, config_path = {}, None
    i = 0
    while i < len(rest):
        tok = rest[i]
        if not tok.startswith("--") or len(tok) <= 2:
            raise ConfigError(f"expected --key value pairs, got {tok!r}")
        key = tok[2:]
        if i + 1 >= len(rest):
            raise ConfigError(f"flag --{key} is missing its value")
        value = rest[i + 1]
        i += 2
        if key == "config":
            config_path = value
        else:
            raw[key] = value
    merged = _read_config_file(config_path) if config_path else {}
    merged.update(raw)   # flags win over the config file
    return command, sub, merged


def _validate(command, sub, raw) -> dict:
    schema = _COMMANDS[(command, sub)][1]
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys for {command}"
                          f"{' ' + sub if sub else ''}: {sorted(unknown)}")
    config = {}
    for key, (caster, default) in schema.items():
        if key in raw:
            try:
                config[key] = caster(raw[key])
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {key}: {raw[key]!r} ({exc})") from exc
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            config[key] = default
    return config


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _csv_lines(name: str, header, rows):
    lines = [f"# enzspec {name} csv v1", ",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell)
                              for cell in row))
    return lines


def _generate(shape: str, size: float, rings_core: int, rings_shell: int):
    generators = {"disk": generate_disk_in_disk, "square": generate_square_with_disk}
    if shape not in generators:
        raise ConfigError(f"unknown shape {shape!r} (expected disk or square)")
    return generators[shape](size, rings_core, rings_shell)


# -- command bodies ----------------------------------------------------------

def _cmd_mesh_gen(cfg, out):
    mesh = _generate(cfg["shape"], cfg["size"], cfg["rings_core"], cfg["rings_shell"])
    save_mesh(mesh, cfg["out"])
    print(f"wrote {cfg['out']}: {mesh.n_vertices} vertices, "
          f"{mesh.n_triangles} triangles", file=out)


def _cmd_mesh_info(cfg, out):
    mesh = load_mesh(cfg["mesh"])
    from .mesh import INCLUSION, INTERFACE, OUTER, SHELL
    print(f"vertices {mesh.n_vertices}", file=out)
    print(f"triangles {mesh.n_triangles}", file=out)
    print(f"inclusion_area {_fmt(mesh.region_area(INCLUSION))}", file=out)
    print(f"shell_area {_fmt(mesh.region_area(SHELL))}", file=out)
    print(f"interface_edges {len(mesh.boundary_edges(INTERFACE))}", file=out)
    print(f"outer_edges {len(mesh.boundary_edges(OUTER))}", file=out)


def _cmd_eig_limit(cfg, out):
    forms = assemble(load_mesh(cfg["mesh"]))
    pairs = limit_spectrum(forms, cfg["count"])
    rows = [(str(i), float(np.real(p.lam)), p.residual) for i, p in enumerate(pairs)]
    _write_lines(cfg["out"], _csv_lines("eig-limit", ["index", "lambda", "residual"], rows))


def _cmd_eig_sweep(cfg, out):
    forms = assemble(load_mesh(cfg["mesh"]))
    rows = []
    for d in cfg["deltas"]:
        pairs = delta_spectrum(forms, d, cfg["target"], cfg["count"])
        for i, p in enumerate(pairs):
            rows.append((_fmt(d.real), _fmt(d.imag), str(i),
                         float(np.real(p.lam)), float(np.imag(p.lam)), p.residual))
    _write_lines(cfg["out"], _csv_lines(
        "eig-sweep",
        ["delta_re", "delta_im", "index", "lambda_re", "lambda_im", "residual"],
        rows))


def _cmd_eig_k0(cfg, out):
    forms = assemble(load_mesh(cfg["mesh"]))
    pairs = limit_spectrum(forms, cfg["count"])
    rho, _ = discrete_K0(forms)
    rows, worst = [], 0.0
    for i, p in enumerate(pairs):
        lam = float(np.real(p.lam))
        r = float(rho[i])
        mismatch = abs(lam - 1.0 / r) / abs(lam)
        worst = max(worst, mismatch)
        rows.append((str(i), lam, r, 1.0 / r, mismatch))
    _write_lines(cfg["out"], _csv_lines(
        "eig-k0", ["index", "lambda_pencil", "rho", "lambda_from_rho", "mismatch"],
        rows))
    if worst > _K0_TOL:
        raise EigError(f"pencil/compact-operator mismatch {worst:.3e} exceeds "
                       f"{_K0_TOL:g} (table written to {cfg['out']})")


def _cmd_taylor(cfg, out):
    if cfg["order"] > cfg["samples"] // 4:
        raise ConfigError(f"order {cfg['order']} exceeds the aliasing guard "
                          f"samples / 4 = {cfg['samples'] // 4}")
    forms = assemble(load_mesh(cfg["mesh"]))
    path, start = circle_path(cfg["radius"], cfg["samples"])
    branch = track_branch(forms, cfg["lambda0"], path)
    lams = branch.lambda_samples
    # the held-out point is the circle path's own lead-in sample at
    # delta = 3r/5, outside the DFT
    held = LEAD_IN_STEPS - 1
    report = analyticity_report(lams[start:], cfg["radius"], cfg["order"],
                                [(path[held], lams[held])])
    # a circle around exceptional points can close on another sheet
    a0, lam0 = report.a_coeffs[0], lams[0]
    if abs(a0 - lam0) > _START_TOL * (1.0 + abs(lam0)):
        raise EigError(f"a_0 = {a0:.10g} misses the delta = 0 group mean lambda(0) = "
                       f"{lam0:.10g} by more than {_START_TOL:g} (1 + |lambda(0)|)")
    # a multiple eigenvalue's copies are analytic only through their power sums
    copies = np.asarray(branch.copies[start:])
    report.power_sum_coeffs = {
        p: taylor_from_circle((copies**p).sum(axis=1), cfg["radius"], cfg["order"])
        for p in range(2, copies.shape[1] + 1)}
    with open(cfg["out"], "w", encoding="utf-8", newline="\n") as f:
        f.write(report.to_json() + "\n")
    print(f"wrote {cfg['out']}: closure defect {report.closure_defect:.3e}", file=out)


def _cmd_cascade(cfg, out):
    cascade = Cascade(load_mesh(cfg["mesh"]))
    if cfg["field"]:
        driving = load_field(cfg["field"], cascade.forms)
    else:
        constant = np.tile([cfg["fx"], cfg["fy"]], (cascade.mesh.n_triangles, 1))
        driving = DrivingField([constant])
    state = cascade.run(driving, cfg["orders"])
    errors = series_vs_direct(cascade, driving, cfg["delta"], state)
    lines = _csv_lines("cascade",
                       ["order", "c", "h1_norm", "series_error"],
                       [(str(k), state.c_list[k], state.norm_list[k], errors[k])
                        for k in range(cfg["orders"] + 1)])
    lines.insert(1, f"# psi_energy {_fmt(cascade.psi_energy)}")
    _write_lines(cfg["out"], lines)


def _cmd_mie_electrostatic(cfg, out):
    if abs(cfg["m"]) > cfg["n"]:
        raise ConfigError(f"order m = {cfg['m']} must satisfy |m| <= n = {cfg['n']}")
    mode = electrostatic_mode(cfg["n"], cfg["m"], cfg["root"], cfg["R"])
    save_mode(mode, cfg["out"])
    print(f"k {_fmt(mode.k)}", file=out)
    print(f"lambda {_fmt(mode.lam)}", file=out)


def _cmd_mie_nonelectrostatic(cfg, out):
    if abs(cfg["q"]) > cfg["p"]:
        raise ConfigError(f"order q = {cfg['q']} must satisfy |q| <= p = {cfg['p']}")
    mode = nonelectrostatic_mode(cfg["p"], cfg["q"], cfg["R"], cfg["interval"])
    save_mode(mode, cfg["out"])
    print(f"k {_fmt(mode.k)}", file=out)
    print(f"lambda {_fmt(mode.lam)}", file=out)
    for name, value in sorted(matching_constants(mode).items()):
        print(f"matching_{name} {_fmt(value)}", file=out)


def _cmd_mie_dispersion(cfg, out):
    family = cfg["family"]
    deltas = np.asarray(cfg["deltas"], dtype=complex)
    if cfg["radius"] > 0.0:
        if len(deltas):
            raise ConfigError("give either deltas or a circle radius, not both")
        samples = cfg["samples"]
        deltas = cfg["radius"] * np.exp(2j * np.pi * np.arange(samples + 1) / samples)
    if not len(deltas):
        raise ConfigError("no delta samples requested")
    seed, limit = cfg["seed"], None
    if seed == 0.0:
        # each family's delta -> 0 root: z_1 for magnetic, the root below
        # z_1 in the nonelectrostatic interval 0 for electric
        z1 = float(bessel_zeros(cfg["n"], 1)[0])
        electric = family == FAMILY_E
        limit = nonelectrostatic_mode(cfg["n"], 0, cfg["R"], 0).k if electric else z1
        seed = np.where(electric & (np.abs(deltas) > _LIMIT_SEED_RADIUS), z1 / cfg["R"], limit)

    stride = max((s for s in range(1, cfg["samples"] // _COARSE_SAMPLES + 1)
                  if cfg["samples"] % s == 0), default=1)
    if cfg["radius"] > 0.0 and stride > 1:
        lams = _interpolated_circle(family, cfg["n"], cfg["R"], cfg["radius"], deltas,
                                    seed, stride)
    else:
        lams = concentric_dispersion(family, cfg["n"], cfg["R"], deltas, seed)
    if cfg["radius"] > 0.0 and limit is not None:
        # an analytic branch's circle mean is its delta = 0 value, a_0 = limit^2
        a0, lam0 = lams[:-1].mean(), limit**2
        if abs(a0 - lam0) > _START_TOL * (1.0 + abs(lam0)):
            raise MieError(f"circle mean a_0 = {a0:.10g} misses the delta -> 0 root "
                           f"lambda(0) = {lam0:.10g} by more than {_START_TOL:g} "
                           "(1 + |lambda(0)|): the samples left the branch")
    rows = zip(deltas.real, deltas.imag, lams.real, lams.imag)
    _write_lines(cfg["out"], _csv_lines(
        "mie-dispersion", ["delta_re", "delta_im", "lambda_re", "lambda_im"], rows))


def _interpolated_circle(family, n, R, radius, deltas, seed, stride):
    """The dispersion branch at the samples of a circle |delta| = radius
    whose last sample closes it: first every stride-th sample from its own
    seed (a scalar, or one per sample), then every other one from the square root of the polynomial in
    delta / radius whose coefficients are the DFT of the first call's m
    distinct samples.  The branch is analytic inside its radius rho of
    analyticity, so the polynomial misses it by about (radius / rho)^m, and
    most of the second call's samples need one Newton step.
    """
    coarse = np.zeros(len(deltas), dtype=bool)
    coarse[::stride] = True
    lams = np.empty(len(deltas), dtype=complex)
    lams[coarse] = concentric_dispersion(family, n, R, deltas[coarse],
                                         np.broadcast_to(seed, deltas.shape)[coarse])
    coeffs = np.fft.fft(lams[coarse][:-1]) / (coarse.sum() - 1)
    guess = np.polyval(coeffs[::-1], deltas[~coarse] / radius)
    lams[~coarse] = concentric_dispersion(family, n, R, deltas[~coarse], np.sqrt(guess))
    return lams


def _cmd_invariance(cfg, out):
    rows = []
    for shape in cfg["shapes"]:
        forms = assemble(_generate(shape, cfg["size"], cfg["rings"], cfg["rings"]))
        for i, p in enumerate(limit_spectrum(forms, cfg["count"])):
            rows.append((shape, str(i), float(np.real(p.lam))))
    _write_lines(cfg["out"], _csv_lines("invariance", ["shape", "index", "lambda"],
                                        rows))


# (command, subcommand) -> (handler, key -> (parser, default))
_COMMANDS = {
    ("mesh", "gen"): (_cmd_mesh_gen, {
        "shape": (str, "disk"),
        "size": (_finite, 2.0),
        "rings_core": (int, 8),
        "rings_shell": (int, 8),
        "out": (str, _REQUIRED),
    }),
    ("mesh", "info"): (_cmd_mesh_info, {"mesh": (str, _REQUIRED)}),
    ("eig", "limit"): (_cmd_eig_limit, {
        "mesh": (str, _REQUIRED),
        "count": (_at_least_1, 6),
        "out": (str, _REQUIRED),
    }),
    ("eig", "sweep"): (_cmd_eig_sweep, {
        "mesh": (str, _REQUIRED),
        "deltas": (_complex_list, _REQUIRED),
        "target": (_finite_complex, complex(-1.0)),
        "count": (_at_least_1, 4),
        "out": (str, _REQUIRED),
    }),
    ("eig", "k0"): (_cmd_eig_k0, {
        "mesh": (str, _REQUIRED),
        "count": (_at_least_1, 6),
        "out": (str, _REQUIRED),
    }),
    ("taylor", None): (_cmd_taylor, {
        "mesh": (str, _REQUIRED),
        "lambda0": (_finite, _REQUIRED),
        "radius": (_positive, _REQUIRED),
        "samples": (_power_of_two, 16),
        "order": (_at_least_0, 4),
        "out": (str, _REQUIRED),
    }),
    ("cascade", None): (_cmd_cascade, {
        "mesh": (str, _REQUIRED),
        "field": (str, ""),
        "fx": (_finite, 1.0),
        "fy": (_finite, 0.0),
        "delta": (_nonzero, 0.05),
        "orders": (_at_least_0, 6),
        "out": (str, _REQUIRED),
    }),
    ("mie", "electrostatic"): (_cmd_mie_electrostatic, {
        "n": (_at_least_1, _REQUIRED),
        "m": (int, 0),
        "root": (_at_least_1, 1),
        "R": (_outer_radius, 2.0),
        "out": (str, _REQUIRED),
    }),
    ("mie", "nonelectrostatic"): (_cmd_mie_nonelectrostatic, {
        "p": (_at_least_1, _REQUIRED),
        "q": (int, 0),
        "R": (_outer_radius, 2.0),
        "interval": (_at_least_0, 1),
        "out": (str, _REQUIRED),
    }),
    ("mie", "dispersion"): (_cmd_mie_dispersion, {
        "family": (_family, _REQUIRED),
        "n": (_at_least_1, _REQUIRED),
        "R": (_outer_radius, 2.0),
        "deltas": (_nonzero_complex_list, []),
        "radius": (_positive, 0.0),
        "samples": (_at_least_1, 16),
        "seed": (_finite, 0.0),
        "out": (str, _REQUIRED),
    }),
    ("invariance", None): (_cmd_invariance, {
        "shapes": (_str_list, ["disk", "square"]),
        "size": (_finite, 2.0),
        "rings": (int, 16),
        "count": (_at_least_1, 12),
        "out": (str, _REQUIRED),
    }),
}


_NUMERICAL_ERRORS = (EigError, CascadeError, MieError, FemError,
                     NonClosedBranchError, NonFiniteSeriesError, SpecFunError,
                     ArnoldiError, SingularMatrixError)


def _diagnose(exc, err, **extra) -> None:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc), **extra},
                     sort_keys=True), file=err)


def main(argv=None, out=None, err=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        command, sub, raw = _parse_args(argv)
        _COMMANDS[(command, sub)][0](_validate(command, sub, raw), out)
    except (ConfigError, MeshError) as exc:
        print(f"error: {exc}", file=err)
        return 1
    except _NUMERICAL_ERRORS as exc:
        _diagnose(exc, err)
        return 2
    except (OSError, MeshParseError) as exc:
        print(f"i/o error: {exc}", file=err)
        return 3
    except Exception as exc:
        # a defect, not a bad input: name the innermost frame for the report
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        _diagnose(exc, err, unexpected=True,
                  where=f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}")
        return 2
    return 0


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
