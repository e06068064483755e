"""One timed benchmark set-up in a fresh interpreter.

    python3 bench/setup_child.py WORKLOAD SEED WORKDIR

Imports enzspec (and numpy/scipy with it), generates the workload's meshes
into WORKDIR and runs its warm-up ops, then prints one JSON line with the
elapsed seconds and the digest or failure of each set-up op.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    cli = harness.load_cli().cli
    results = harness.set_up(workload, seed, workdir, cli.main)
    seconds = time.perf_counter() - START
    print(json.dumps({
        "seconds": seconds,
        "digests": {r.op: r.digest for r in results},
        "failures": {r.op: r.detail for r in results if r.status != harness.OK},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
