"""enzspec benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process per workload drives
`enzspec.cli.main(argv)` in-process: a closed loop with one client, one op
at a time, no thread pool, BLAS fixed at one thread.  A run sets up
SETUP_REPEATS times, each in a fresh interpreter (import, mesh generation,
warm-up op), then runs whole passes of the workload's fixed op list until
S seconds have passed, repeats one op to check that its artifact is
byte-identical, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with nothing
wrapped.  Between ops the run also times a fixed reference workload
(harness.SpeedGauge) for a tenth of the op time; `wall_ref_s` and
`op_p50_ref_s` are the pass and median op times divided by the run's
slowdown against the reference's nominal time, so that the host's own
changes of speed cancel out.  `setup_s` is scaled the same way, by the
reference timed between the set-ups.  The unscaled times are in the
details line.  With --trace 1 untraced and traced passes alternate; the metrics
are the per-layer ones from the traced passes plus the tracing overhead
(traced minus untraced pass wall time).  A line starting with "details"
before the result records versions, thread settings, sample counts, the
tail percentile, failures and the known-defect probe.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import harness  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150


class SetupError(RuntimeError):
    pass


def timed_setups(workload: str, seed: int, workroot: Path, gauge=None):
    """Seconds of each set-up, and whether they produced identical files."""
    seconds, digests = [], []
    for i in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_child.py"), workload, str(seed),
             str(workroot / f"setup{i}")],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"set-up {i} exited {proc.returncode}: {proc.stderr[-2000:]}")
        record = json.loads(proc.stdout.splitlines()[-1])
        if record["failures"]:
            raise SetupError(f"set-up {i} failed: {record['failures']}")
        seconds.append(record["seconds"])
        digests.append(record["digests"])
        if gauge:
            gauge.after_op(seconds[-1])
    return seconds, all(d == digests[0] for d in digests)


def run_pass(plan, main, book, gauge=None):
    results = []
    for op in plan.ops:
        results.append(book.settle(harness.execute(op, main)))
        if gauge:
            gauge.after_op(results[-1].seconds)
    return results, sum(r.seconds for r in results)


def traced_pass(plan, main, book, tracer, wrap_list, results, walls):
    with spans.instrument(tracer, wrap_list):
        traced, wall = run_pass(plan, main, book)
    results += traced
    walls.append(wall)


def run_workload(args, workroot: Path):
    enzspec = harness.load_cli()
    setup_gauge = None if args.trace else harness.SpeedGauge()
    setup_seconds, setup_same = timed_setups(args.workload, args.seed, workroot, setup_gauge)
    workdir = str(workroot / "setup0")
    plan = harness.make_plan(args.workload, args.seed, workdir)

    def main(*a, **k):      # looked up per call, so wrapping takes effect
        return enzspec.cli.main(*a, **k)

    book = harness.DigestBook()
    extra = [book.settle(harness.execute(op, main)) for op in plan.warmup]
    timed, walls, traced_walls = [], [], []
    tracer, setup_tracer = spans.Tracer(), spans.Tracer()
    wrap_list = spans.targets(enzspec)
    gauge = None if args.trace else harness.SpeedGauge()
    if args.trace:
        traced_dir = os.path.join(workdir, "traced")
        os.makedirs(traced_dir)
        with spans.instrument(setup_tracer, wrap_list):
            for op in harness.mesh_ops(plan, traced_dir):
                extra.append(book.settle(harness.execute(op, main)))
    # a traced run makes at least two pairs, one led by each kind of pass
    min_passes = 2 if args.trace else 1
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < args.seconds:
        # traced passes alternate with untraced ones, leading every other time
        if args.trace and len(walls) % 2:
            traced_pass(plan, main, book, tracer, wrap_list, extra, traced_walls)
        results, wall = run_pass(plan, main, book, gauge)
        timed += results
        walls.append(wall)
        if args.trace and len(walls) % 2:
            traced_pass(plan, main, book, tracer, wrap_list, extra, traced_walls)
    repeat = plan.ops[plan.repeat]
    extra.append(book.settle(harness.execute(repeat, main)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe = {}
    for op in plan.probe:
        r = harness.execute(op, main)
        probe[op.name] = r.status if r.status == harness.OK else f"{r.status}: {r.detail[:120]}"

    attempted, failed = harness.failure_counts(timed + extra)
    latencies = [r.seconds for r in timed]
    tail = harness.tail_percentile(latencies)
    by_op = {}
    for r in timed:
        by_op.setdefault(r.op, []).append(r.seconds)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "samples": {"setup_s": len(setup_seconds), "wall_ref_s": len(walls),
                    "op_p50_ref_s": len(latencies), "op_tail_s": len(latencies),
                    "peak_rss_mb": 1, "traced_passes": len(traced_walls),
                    "traced_ops": len(plan.ops) * len(traced_walls)},
        "setup_runs_s": setup_seconds,
        "setup_deterministic": setup_same,
        "ops_per_pass": len(plan.ops),
        "op_tail_s": (dict(zip(("percentile", "value", "beyond"), tail))
                      if tail else None),
        "fail_frac": failed / attempted,
        "op_median_s": {k: median(v) for k, v in sorted(by_op.items())},
        "failures": [{"op": r.op, "status": r.status, "detail": r.detail}
                     for r in timed + extra if r.status != harness.OK],
        "determinism_op": repeat.name,
        "known_defect_probe": probe,
    }
    if args.trace:
        n_ops = len(plan.ops) * len(traced_walls)
        values = spans.layer_metrics(tracer.spans, n_ops, setup_tracer.spans, 1)
        untraced, traced = median(walls), median(traced_walls)
        values["trace.overhead_s"] = traced - untraced
        values["trace.overhead_frac"] = (traced - untraced) / untraced
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        details["untraced_wall_s"], details["traced_wall_s"] = untraced, traced
    else:
        slowdown = gauge.slowdown()
        values = {"setup_s": median(setup_seconds) / setup_gauge.slowdown(),
                  "wall_ref_s": mean(walls) / slowdown,
                  "op_p50_ref_s": median(latencies) / slowdown,
                  "peak_rss_mb": peak_rss_mb}
        units = dict(harness.END_TO_END)
        details["wall_s"], details["op_p50_s"] = mean(walls), median(latencies)
        details["slowdown"], details["setup_slowdown"] = slowdown, setup_gauge.slowdown()
        details["samples"]["reference"] = len(gauge.samples)
        details["samples"]["setup_reference"] = len(setup_gauge.samples)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    correct = failed == 0 and setup_same
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, details


def _version(module: str) -> str:
    from importlib.metadata import version
    return version(module)


def report(result, details, out=sys.stdout):
    for name, m in result["metrics"].items():
        print(f"{details['workload']:<12} {name:<28} {m['value']:.6g} {m['unit']}", file=out)
    for name in ("wall_s", "op_p50_s"):
        if name in details:
            print(f"{details['workload']:<12} {name:<28} {details[name]:.6g} s (unscaled)", file=out)
    if details["op_tail_s"]:
        t = details["op_tail_s"]
        print(f"{details['workload']:<12} {'op_tail_s':<28} {t['value']:.6g} s "
              f"(p{t['percentile']:g}, {t['beyond']} beyond, n={details['samples']['op_tail_s']})",
              file=out)
    else:
        print(f"{details['workload']:<12} {'op_tail_s':<28} n/a "
              f"(fewer than {harness.TAIL_MIN_BEYOND + 1} ops)", file=out)
    print(f"{details['workload']:<12} {'fail_frac':<28} {details['fail_frac']:.6g} ratio "
          f"({result['failed']}/{result['attempted']})", file=out)
    print("details " + json.dumps(details, sort_keys=True), file=out)
    print(json.dumps(result, sort_keys=True), file=out, flush=True)


def run_all(args) -> int:
    """Each workload in its own process; a combined result line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in harness.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined, sort_keys=True), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(harness.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workroot = harness.ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workroot, ignore_errors=True)
    try:
        result, details = run_workload(args, workroot)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    report(result, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
