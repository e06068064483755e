"""Exit 0 means right: seeded random `eig limit` and `eig sweep` runs through
the command line, each checked against dense `scipy.linalg.eigvals` of the
same pencil (A, M_D + delta M_S).

A run may end in a numerical failure (exit 2) with its diagnostic.  A run
that exits 0 must have written the finite nonzero eigenvalues nearest its
target, every copy of a multiple eigenvalue included, to 1e-10 relative.
"""

import io
import json
import random
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from enzspec.cli import main
from enzspec.fem import assemble
from enzspec.mesh import load_mesh

_LIMIT_TARGET = -1.0      # `eig limit` returns the smallest, nearest -1


def _draw_cases(seed=20261020, n=24):
    """(mesh key, command args, delta, target) for n random runs."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        mesh = (rng.choice(["disk", "square"]), rng.randint(2, 6), rng.randint(2, 6),
                rng.choice([1.5, 2.0, 3.0]))
        count = str(rng.randint(1, 8))
        kind = rng.choice(["limit", "real", "complex"])
        if kind == "limit":
            cases.append((mesh, ["eig", "limit", "--count", count], 0.0, _LIMIT_TARGET))
            continue
        delta = rng.uniform(0.01, 0.2)
        if kind == "complex":
            delta = complex(delta, rng.uniform(0.01, 0.1))
        target = rng.uniform(5.0, 40.0)
        cases.append((mesh, ["eig", "sweep", "--deltas", str(delta), "--target", str(target),
                             "--count", count], delta, target))
    return cases


_CASES = _draw_cases()


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    return main(list(argv), out=out, err=err), err.getvalue()


@pytest.fixture(scope="module")
def mesh_file(tmp_path_factory):
    """Per (shape, rings_core, rings_shell, size): a mesh file written by
    `mesh gen`."""
    paths = {}

    def get(key):
        if key not in paths:
            shape, rings_core, rings_shell, size = key
            path = str(tmp_path_factory.mktemp("sweep") / "mesh.txt")
            code, err = _run("mesh", "gen", "--shape", shape, "--rings_core", str(rings_core),
                             "--rings_shell", str(rings_shell), "--size", str(size),
                             "--out", path)
            assert code == 0, err
            paths[key] = path
        return paths[key]
    return get


def _written_eigenvalues(path):
    rows = [line.split(",") for line in Path(path).read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]
    columns = {name: i for i, name in enumerate(rows[0])}
    if "lambda" in columns:
        return np.array([float(r[columns["lambda"]]) for r in rows[1:]], dtype=complex)
    return np.array([complex(float(r[columns["lambda_re"]]), float(r[columns["lambda_im"]]))
                     for r in rows[1:]])


def _dense_nearest(path, delta, target, count):
    """The count finite eigenvalues with |lambda| > 1e-8 of the dense pencil
    nearest target, sorted: the constant mode and the infinite eigenvalues of
    a singular M_D drop out."""
    forms = assemble(load_mesh(path))
    w = scipy.linalg.eigvals(forms.A.toarray(), (forms.M_D + delta * forms.M_S).toarray())
    w = w[np.isfinite(w) & (np.abs(w) > 1e-8)]
    return np.sort_complex(w[np.argsort(np.abs(w - target), kind="stable")[:count]])


@pytest.mark.filterwarnings("ignore::UserWarning")   # outside the validated disk
@pytest.mark.parametrize("mesh, args, delta, target", _CASES,
                         ids=[f"{i}-{'-'.join(map(str, mesh))}-"
                              + ("limit" if args[1] == "limit" else type(delta).__name__)
                              for i, (mesh, args, delta, _) in enumerate(_CASES)])
def test_exit_zero_means_the_dense_eigenvalues(mesh_file, tmp_path, mesh, args, delta, target):
    out = str(tmp_path / "out.csv")
    code, err = _run(*args, "--mesh", mesh_file(mesh), "--out", out)
    assert code in (0, 2), err
    if code == 2:
        assert "unexpected" not in json.loads(err), err
        return
    got = np.sort_complex(_written_eigenvalues(out))
    expected = _dense_nearest(mesh_file(mesh), delta, target, int(args[args.index("--count") + 1]))
    assert len(got) == len(expected)
    assert np.all(np.abs(got - expected) <= 1e-10 * np.abs(expected)), (got, expected)
