"""`eig sweep` cases run twice in one fresh process: under one CPU, where the
sweep is serial, and under the first two or three CPUs of its affinity, where
it solves the second half of its deltas in a forked child.

    python split_sweeps.py WORKDIR CASES_JSON

`run_cases` starts it with src/ on the path and the BLAS thread variables at
1, so that the process has one OS thread and may split in every CI job.  A
case is a dict: `mesh` ("disk4", "disk8" or "disk16"), `deltas` (where the
token DEGENERATE stands for -area(D)/area(S)), `target`, `count` and,
optionally, `plant` (delta text -> "arnoldi <converged>", "defect", "kill",
"exit" or "interrupt") and `thread` (keep a second thread alive through the
split run).  A planted "kill" (SIGKILL) or "exit" (os._exit(3)) fires only in
a forked child, an "interrupt" (KeyboardInterrupt) only in the process that
runs the cases.  Each run reports its exit code (or "KeyboardInterrupt"),
stderr, artifact, every pencil and solve with the pid that made it, and
whether `os.waitpid(-1, os.WNOHANG)` found no child left.
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_cases(cases, workdir):
    """One result dict per case (see `_run_case`), or a dict with the key
    "skip" when the process has fewer than two CPUs."""
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"), "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, __file__, str(workdir), json.dumps(cases)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _logged(log, kind):
    def wrap(function):
        def logged(*args):
            with open(log, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()} {kind} {args[1] if kind == 'solve' else ''}\n")
            return function(*args)
        return logged
    return wrap


def _planted(plant, runner_pid, solve):
    from enzspec.linalg import ArnoldiError

    def planted(pencil, delta, target, count):
        for text, kind in plant.items():
            if complex(text) == complex(delta):
                if kind.startswith("arnoldi"):
                    converged = int(kind.split()[1])
                    raise ArnoldiError(converged, count, [0.5] * converged, [[1.0]])
                if kind == "defect":
                    raise TypeError(f"planted defect at delta={delta}")
                if kind == "kill" and os.getpid() != runner_pid:
                    os.kill(os.getpid(), signal.SIGKILL)
                if kind == "exit" and os.getpid() != runner_pid:
                    os._exit(3)
                if kind == "interrupt" and os.getpid() == runner_pid:
                    raise KeyboardInterrupt
        return solve(pencil, delta, target, count)
    return planted


def _run_case(case, workdir, meshes, cpus):
    from enzspec import cli, eig

    log = workdir / "events.log"
    solve, init = eig._solve_pencil, eig._Pencil.__init__
    eig._solve_pencil = _logged(log, "solve")(_planted(case.get("plant", {}), os.getpid(), solve))
    eig._Pencil.__init__ = _logged(log, "pencil")(init)
    results = {}
    try:
        for name, allowed in (("serial", cpus[:1]), ("split", cpus[:3])):
            out = workdir / f"{name}.csv"
            if out.exists():
                out.unlink()
            os.sched_setaffinity(0, allowed)
            release = threading.Event()
            extra = threading.Thread(target=release.wait)
            if case.get("thread") and name == "split":
                extra.start()
            err = io.StringIO()
            argv = ["eig", "sweep", "--mesh", meshes[case["mesh"]], "--deltas", case["deltas"],
                    "--target", str(case["target"]), "--count", str(case["count"]),
                    "--out", str(out)]
            try:
                code = cli.main(argv, out=io.StringIO(), err=err)
            except KeyboardInterrupt:
                code = "KeyboardInterrupt"
            release.set()
            if extra.is_alive():
                extra.join(timeout=60)
                assert not extra.is_alive()
            try:
                os.waitpid(-1, os.WNOHANG)
                reaped = False
            except ChildProcessError:
                reaped = True
            events = log.read_text(encoding="utf-8").splitlines() if log.exists() else []
            if log.exists():
                log.unlink()
            results[name] = {
                "code": code, "err": err.getvalue(), "reaped": reaped, "pid": os.getpid(),
                "artifact": out.read_text(encoding="ascii") if out.exists() else None,
                "events": [line.split(" ", 2) for line in events]}
    finally:
        eig._solve_pencil, eig._Pencil.__init__ = solve, init
        os.sched_setaffinity(0, cpus)
    return results


def main(workdir, cases):
    from enzspec import eig
    from enzspec.fem import assemble
    from enzspec.mesh import generate_disk_in_disk, save_mesh

    workdir = Path(workdir)
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return {"skip": f"{len(cpus)} CPU in the affinity of the process"}
    meshes, degenerate = {}, {}
    for name in {case["mesh"] for case in cases}:
        rings = int(name[len("disk"):])
        mesh = generate_disk_in_disk(2.0, rings, rings)
        meshes[name] = str(workdir / f"{name}.txt")
        save_mesh(mesh, meshes[name])
        pencil = eig._Pencil(assemble(mesh))
        degenerate[name] = repr(-pencil.mass_d / pencil.mass_s)
    return [_run_case({**case, "deltas": case["deltas"].replace("DEGENERATE",
                                                                 degenerate[case["mesh"]])},
                      workdir, meshes, cpus)
            for case in cases]


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], json.loads(sys.argv[2]))))
