"""Workloads, output checks and statistics of the enzspec benchmark.

Every op is one `enzspec.cli.main(argv)` call.  The benchmark generates the
inputs (mesh files through `mesh gen`, delta lists, targets, field
directions, circle radii) from the seed and checks each artifact against an
oracle that does not come from the code under test: the residual column of
the eigen tables, the closure defect and the limit eigenvalue for Taylor
reports, monotone series errors for the cascade, and scipy's zeros of j_n
for the magnetic sphere modes.

The module imports nothing from enzspec: the entry point is passed in, so
that the set-up child can time the package import itself.
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import io
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("spectra", "continuation", "cascade", "dispersion")

# Statuses of one op.  Everything but "ok" counts as failed.
OK, RAISED, EXIT, CHECK, NONDETERMINISTIC = "ok", "raised", "exit", "check", "nondeterministic"

# (metric, unit) reported by untraced runs, in the order BENCHMARK.json lists them
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("op_p50_ref_s", "s"),
    ("peak_rss_mb", "MB"),
)

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def load_cli():
    """Import enzspec from the checkout's src/ and return the package."""
    src = ROOT / "src"
    if not (src / "enzspec" / "cli.py").is_file():
        raise SystemExit(f"enzspec sources not found under {src}")
    sys.path.insert(0, str(src))
    import enzspec
    import enzspec.cascade
    import enzspec.cli
    import enzspec.eig
    import enzspec.linalg
    import enzspec.mie
    if Path(enzspec.__file__).resolve().parent != (src / "enzspec").resolve():
        raise SystemExit(f"imported enzspec from {enzspec.__file__}, not from {src}")
    return enzspec


# -- ops ----------------------------------------------------------------------

@dataclass
class Op:
    name: str                                  # stable identity within a run
    argv: list
    out: str                                   # artifact the op writes
    check: Callable[[str], str | None] = lambda path: None


@dataclass
class Result:
    op: str
    seconds: float
    status: str
    detail: str = ""
    digest: str | None = None


def execute(op: Op, main) -> Result:
    """Run one op; the latency covers the CLI call only, not the check.

    A failed op is timed until it raises or returns.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        code = main(op.argv, out=out, err=err)
    except Exception as exc:   # the CLI let an exception escape: a failed op
        return Result(op.name, time.perf_counter() - t0, RAISED,
                      f"{type(exc).__name__}: {exc}"[:300])
    seconds = time.perf_counter() - t0
    if code != 0:
        return Result(op.name, seconds, EXIT,
                      f"exit {code}: {err.getvalue().strip()}"[:300])
    try:
        with open(op.out, "rb") as f:
            data = f.read()
        reason = op.check(op.out)
    except Exception as exc:   # a malformed artifact fails its op, not the run
        reason = f"unreadable artifact: {type(exc).__name__}: {exc}"
        data = b""
    digest = hashlib.sha256(data).hexdigest()
    if reason:
        return Result(op.name, seconds, CHECK, reason[:300], digest)
    return Result(op.name, seconds, OK, "", digest)


class DigestBook:
    """First artifact digest of each op; later runs of it must match."""

    def __init__(self):
        self.first: dict[str, str] = {}

    def settle(self, result: Result) -> Result:
        if result.digest is None:
            return result
        first = self.first.setdefault(result.op, result.digest)
        if result.status == OK and first != result.digest:
            result.status = NONDETERMINISTIC
            result.detail = "artifact bytes differ from the first run of this op"
        return result


# -- statistics -----------------------------------------------------------------

def tail_percentile(samples):
    """(percentile, value, samples beyond) for the highest ladder percentile
    that has at least TAIL_MIN_BEYOND samples strictly beyond its nearest
    rank, or None when the run has too few samples for any of them."""
    s = sorted(samples)
    n = len(s)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return p, s[rank - 1], n - rank
    return None


def failure_counts(results):
    """(attempted, failed) over op results."""
    return len(results), sum(1 for r in results if r.status != OK)


# -- machine speed ----------------------------------------------------------------

# The shared hosts this benchmark runs on change speed by up to +-20% over
# tens of seconds to minutes, for every kind of work alike: interpreted
# arithmetic, sparse LU and dense LAPACK all slow and speed up together.
# So each timed run also times a fixed reference workload, for
# REFERENCE_SHARE of the op time, interleaved with the ops, and the gated
# times are divided by the run's slowdown: mean reference time over
# REFERENCE_NOMINAL_S, what it takes on a quiet 2-core Intel Xeon VM.
REFERENCE_SHARE = 0.1
REFERENCE_NOMINAL_S = 0.022


class SpeedGauge:
    """Times the reference workload between ops.

    The reference depends on the interpreter, numpy and scipy only, never on
    enzspec, so a change to enzspec moves the gated times in full.  It runs
    after each op until its total time reaches REFERENCE_SHARE of the total
    op time, so that it samples the machine over the same stretch of time,
    with the same weight, as the ops it is compared with.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu
        n = 40
        path = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.eye(n)
        laplacian = (sp.kron(path, eye) + sp.kron(eye, path)).tocsc()
        dense = np.random.default_rng(0).standard_normal((112, 112))
        ones = np.ones(n * n)

        def reference_work():
            s = 0
            for i in range(45000):             # interpreted integer arithmetic
                s += i * i % 7
            z, c = 0.5 + 0.1j, 0.1 + 0.01j
            for _ in range(40000):             # interpreted complex arithmetic
                z = z * z * 0.3 + c
            splu(laplacian).solve(ones)        # sparse LU (SuperLU)
            np.linalg.eigvals(dense)           # dense LAPACK

        self._work = reference_work
        reference_work()                       # warm up, untimed
        self.samples: list[float] = []
        self._reference_s = 0.0
        self._op_s = 0.0

    def after_op(self, seconds: float) -> None:
        self._op_s += seconds
        while self._reference_s < REFERENCE_SHARE * self._op_s:
            t0 = time.perf_counter()
            self._work()
            self.samples.append(time.perf_counter() - t0)
            self._reference_s += self.samples[-1]

    def slowdown(self) -> float:
        """Mean reference time over its nominal time: 1.2 means the machine
        ran 20% slower than the quiet reference machine."""
        return self._reference_s / len(self.samples) / REFERENCE_NOMINAL_S


# -- checks ---------------------------------------------------------------------

def _csv_rows(path: str):
    with open(path, encoding="utf-8") as f:
        lines = [ln for ln in f.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _comments(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as f:
        for ln in f:
            parts = ln[1:].split() if ln.startswith("#") else []
            if len(parts) == 2:
                out[parts[0]] = parts[1]
    return out


RESIDUAL_TOL = 1e-8


def check_eig(path: str, rows_expected: int, ascending: bool = False):
    _, rows = _csv_rows(path)
    if len(rows) != rows_expected:
        return f"{len(rows)} rows, expected {rows_expected}"
    lams = []
    for row in rows:
        res = float(row["residual"])
        if not res <= RESIDUAL_TOL:
            return f"residual {res:.3e} > {RESIDUAL_TOL:g}"
        lam = float(row.get("lambda", row.get("lambda_re")))
        if not math.isfinite(lam):
            return "non-finite eigenvalue"
        lams.append(lam)
    if ascending and (lams != sorted(lams) or lams[0] <= 0.0):
        return "limit eigenvalues are not positive and ascending"
    return None


CLOSURE_TOL = 1e-9
A0_TOL = 1e-8


def check_taylor(path: str, limit_csv: str, lambda_nominal: float):
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    if not report["closure_defect"] <= CLOSURE_TOL:
        return f"closure defect {report['closure_defect']:.3e} > {CLOSURE_TOL:g}"
    _, rows = _csv_rows(limit_csv)
    ref = min((float(r["lambda"]) for r in rows), key=lambda x: abs(x - lambda_nominal))
    a0 = complex(*report["a_coeffs"][0])
    if not abs(a0 - ref) <= A0_TOL:
        return f"a_0 = {a0} is {abs(a0 - ref):.3e} from the limit eigenvalue {ref!r}"
    return None


def check_cascade(path: str, orders: int):
    energy = float(_comments(path)["psi_energy"])
    _, rows = _csv_rows(path)
    if len(rows) != orders + 1:
        return f"{len(rows)} orders, expected {orders + 1}"
    errs = [float(r["series_error"]) for r in rows]
    if not (energy > 0.0 and all(math.isfinite(e) for e in errs)):
        return "non-finite series error or nonpositive psi energy"
    for k in range(1, len(errs)):
        if not errs[k] < errs[k - 1]:
            return f"series error does not decrease at order {k}: {errs[k - 1]:.3e} -> {errs[k]:.3e}"
    return None


@functools.lru_cache(maxsize=None)
def first_zero_jn(n: int) -> float:
    """First positive zero of the spherical Bessel function j_n, from scipy."""
    from scipy.optimize import brentq
    from scipy.special import spherical_jn
    x, step = 0.5, 0.05
    while spherical_jn(n, x) * spherical_jn(n, x + step) > 0.0:
        x += step
    return brentq(lambda t: spherical_jn(n, t), x, x + step, xtol=1e-15, rtol=1e-15)


# |lambda - z^2| <= MAGNETIC_SLOPE * radius * z^2 on the circle |delta| = radius;
# the leading Taylor coefficient of the magnetic branches is below 3.5 z^2.
MAGNETIC_SLOPE = 5.0
# The circle mean is the Cauchy integral of lambda(delta): it equals z^2.
CIRCLE_MEAN_TOL = 1e-8


def check_dispersion(path: str, family: str, n: int, samples: int, radius: float):
    _, rows = _csv_rows(path)
    if len(rows) != samples + 1:
        return f"{len(rows)} samples, expected {samples + 1}"
    lams = [complex(float(r["lambda_re"]), float(r["lambda_im"])) for r in rows]
    if not all(cmath.isfinite(z) for z in lams):
        return "non-finite eigenvalue"
    defect = abs(lams[-1] - lams[0])
    if not defect <= CLOSURE_TOL * (1.0 + abs(lams[0])):
        return f"circle does not close: defect {defect:.3e}"
    if family == "magnetic":
        z2 = first_zero_jn(n) ** 2
        worst = max(abs(z - z2) for z in lams)
        if not worst <= MAGNETIC_SLOPE * radius * z2:
            return f"lambda strays {worst:.3e} from j_{n} zero^2 = {z2!r}"
        mean = sum(lams[:-1]) / samples
        if not abs(mean - z2) <= CIRCLE_MEAN_TOL * z2:
            return f"circle mean {mean} differs from j_{n} zero^2 = {z2!r}"
    return None


# -- workloads ----------------------------------------------------------------------

def _num(x: float) -> str:
    return f"{x:.6g}"


def _cnum(z: complex) -> str:
    return f"{z.real:.6g}{z.imag:+.6g}j"


@dataclass
class Plan:
    meshes: list                        # (shape, rings) to generate in set-up
    warmup: list                        # ops run once after the meshes exist
    ops: list                           # the timed op list, run once per pass
    probe: list = field(default_factory=list)   # known-defect ops, untimed
    repeat: int = 0                     # index into ops repeated for determinism


def mesh_ops(plan: Plan, workdir: str):
    return [Op(f"mesh/{shape}{rings}",
               ["mesh", "gen", "--shape", shape, "--rings_core", str(rings),
                "--rings_shell", str(rings), "--out", _mesh(workdir, shape, rings)],
               _mesh(workdir, shape, rings))
            for shape, rings in plan.meshes]


def _mesh(workdir, shape, rings):
    return os.path.join(workdir, f"{shape}{rings}.txt")


def _out(workdir, name, ext="csv"):
    return os.path.join(workdir, "out", name.replace("/", "_") + "." + ext)


def _limit_op(workdir, shape, rings, count=8, prefix=""):
    name = f"{prefix}limit/{shape}{rings}"
    out = _out(workdir, name)
    return Op(name, ["eig", "limit", "--mesh", _mesh(workdir, shape, rings),
                     "--count", str(count), "--out", out],
              out, functools.partial(check_eig, rows_expected=count, ascending=True))


def _sweep_op(workdir, kind, shape, rings, deltas, count=6):
    name = f"sweep-{kind}/{shape}{rings}"
    out = _out(workdir, name)
    text = ",".join(_cnum(d) if isinstance(d, complex) else _num(d) for d in deltas)
    return Op(name, ["eig", "sweep", "--mesh", _mesh(workdir, shape, rings),
                     "--count", str(count), "--target", "14.5",
                     "--deltas", text, "--out", out],
              out, functools.partial(check_eig, rows_expected=count * len(deltas)))


def _stratified(rng: random.Random, count: int, lo: float, hi: float):
    """count points, one in each of count equal cells of [lo, hi], at the
    same seeded offset inside every cell."""
    offset = rng.uniform(0.1, 0.9)
    return [lo + (j + offset) * (hi - lo) / count for j in range(count)]


def plan_spectra(rng: random.Random, workdir: str) -> Plan:
    """Limit spectra and delta sweeps on both sides of the dense/sparse LU
    cutoff (n = 513 dense; 2049 and 8193 sparse).

    Whether Arnoldi needs a second, wider Krylov space depends on delta in
    no regular way and doubles the cost of that delta.  Each sweep takes
    many deltas spread evenly (real ones over an interval, complex ones
    around a circle) so that the share of costly deltas, and with it the
    pass time, barely moves with the seed.  The sweeps also put eight of the
    eleven ops above 0.8 s, so that the median op sits inside that group
    rather than at its edge.
    """
    shapes = ("disk", "square")
    ladder = (8, 16, 32)
    real = [round(d, 5) for d in _stratified(rng, 16, 0.02, 0.08)]
    radius = rng.uniform(0.03, 0.05)

    def circle(count):
        return [cmath.rect(radius, phase)
                for phase in _stratified(rng, count, 0.0, 2 * math.pi)]

    ops, probe = [], []
    for shape in shapes:
        for rings in ladder:
            # eig limit on the 16-ring disk and real-delta sweeps on the sparse
            # path raise TypeError today (ROADMAP item 1): probed, untimed.
            limit = _limit_op(workdir, shape, rings)
            (probe if (shape, rings) == ("disk", 16) else ops).append(limit)
            sweep = _sweep_op(workdir, "real", shape, rings, real[::8] if rings > 8 else real)
            (ops if rings == 8 else probe).append(sweep)
            if rings < 32:
                ops.append(_sweep_op(workdir, "complex", shape, rings,
                                     circle(8 if rings == 8 else 4)))
    rng.shuffle(ops)
    return Plan([(s, r) for s in shapes for r in ladder],
                [_limit_op(workdir, "disk", 8, prefix="warmup-")], ops, probe, rng.randrange(len(ops)))


# (mesh, nominal lambda_0, radius range inside the branch's convergence disk)
CONTINUATION_BRANCHES = (
    ("disk", 15.0057, (0.010, 0.020)),
    ("square", 15.0057, (0.006, 0.011)),
    ("disk", 31.1732, (0.010, 0.020)),
    ("square", 31.2993, (0.003, 0.006)),
)


def plan_continuation(rng: random.Random, workdir: str) -> Plan:
    """Circle continuation (taylor) of simple branches on the 8-ring meshes."""
    warmup = [_limit_op(workdir, "disk", 8, prefix="warmup-"),
              _limit_op(workdir, "square", 8, prefix="warmup-")]
    ops = []
    for shape, lam, (r_lo, r_hi) in CONTINUATION_BRANCHES:
        lambda0 = lam * (1.0 + rng.uniform(-2e-4, 2e-4))
        radius = rng.uniform(r_lo, r_hi)
        name = f"taylor/{shape}8-{lam:.0f}"
        out = _out(workdir, name, "json")
        ops.append(Op(name, ["taylor", "--mesh", _mesh(workdir, shape, 8),
                             "--lambda0", _num(lambda0), "--radius", _num(radius),
                             "--samples", "16", "--order", "4", "--out", out],
                      out, functools.partial(check_taylor, limit_csv=warmup[shape == "square"].out,
                                             lambda_nominal=lam)))
    rng.shuffle(ops)
    return Plan([("disk", 8), ("square", 8)], warmup, ops, [], rng.randrange(len(ops)))


def _cascade_op(workdir, shape, rings, delta, angle, orders=6, prefix="", suffix=""):
    name = f"{prefix}cascade/{shape}{rings}{suffix}"
    out = _out(workdir, name)
    return Op(name, ["cascade", "--mesh", _mesh(workdir, shape, rings),
                     "--orders", str(orders), "--delta", _num(delta),
                     "--fx", _num(math.cos(angle)), "--fy", _num(math.sin(angle)),
                     "--out", out],
              out, functools.partial(check_cascade, orders=orders))


def plan_cascade(rng: random.Random, workdir: str) -> Plan:
    """Order-by-order projection on the 32- and 64-ring meshes."""
    meshes = [(s, r) for s in ("disk", "square") for r in (32, 64)]
    # Three 32-ring ops per shape against one 64-ring op: the median op falls
    # inside the 32-ring cluster (0.8 s), which it samples six times a pass,
    # not midway between that cluster and the 64-ring ops (4.8 s).  A single
    # 32-ring op varies by +-15% from one run of it to the next.
    ops = [_cascade_op(workdir, s, r, rng.uniform(0.03, 0.08), rng.uniform(0.0, 2 * math.pi),
                       suffix=f"-{k}" if r == 32 else "")
           for s, r in meshes for k in range(3 if r == 32 else 1)]
    rng.shuffle(ops)
    warmup = [_cascade_op(workdir, "disk", 32, 0.05, 0.0, prefix="warmup-")]
    small = [i for i, op in enumerate(ops) if "32" in op.name]
    return Plan(meshes, warmup, ops, [], rng.choice(small))


def _dispersion_op(workdir, family, n, radius, samples=256, prefix=""):
    name = f"{prefix}dispersion/{family}{n}"
    out = _out(workdir, name)
    return Op(name, ["mie", "dispersion", "--family", family, "--n", str(n), "--R", "2",
                     "--radius", _num(radius), "--samples", str(samples), "--out", out],
              out, functools.partial(check_dispersion, family=family, n=n,
                                     samples=samples, radius=float(_num(radius))))


def plan_dispersion(rng: random.Random, workdir: str) -> Plan:
    """Concentric-sphere dispersion on a 256-sample delta circle."""
    ops = [_dispersion_op(workdir, fam, n, rng.uniform(0.009, 0.011))
           for fam in ("magnetic", "electric") for n in (1, 2, 3)]
    # electric n = 3 jumps between roots around the circle and, for some
    # radii (0.00912241), exits 2 with "Newton derivative vanished": probed.
    probe = [ops.pop()]
    rng.shuffle(ops)
    warmup = [_dispersion_op(workdir, "magnetic", 1, 0.01, samples=16, prefix="warmup-")]
    return Plan([], warmup, ops, probe, rng.randrange(len(ops)))


PLANNERS = {"spectra": plan_spectra, "continuation": plan_continuation,
            "cascade": plan_cascade, "dispersion": plan_dispersion}


def make_plan(workload: str, seed: int, workdir: str) -> Plan:
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    return PLANNERS[workload](random.Random(f"{workload}:{seed}"), workdir)


def set_up(workload: str, seed: int, workdir: str, main) -> list:
    """Generate the workload's meshes and run its warm-up ops."""
    plan = make_plan(workload, seed, workdir)
    return [execute(op, main) for op in mesh_ops(plan, workdir) + plan.warmup]
