"""Outside-in tracing for the benchmark.

The traced run wraps the public entry points of each enzspec module from
here, in the benchmark's own files, and records one span per call: name,
parent span, start, end and the exception type if the call raised.  Spans
are kept in memory; the per-layer numbers are computed from them after the
run.  `instrument` restores every wrapped attribute on exit, so untraced
runs execute the unmodified functions.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int          # index into Tracer.spans, -1 for a root span
    start: float
    end: float = 0.0
    error: str | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        """Return fn wrapped so that each call records a span called name."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced


def targets(enzspec):
    """(owner, attribute, span name) for every wrapped entry point.

    Functions that a module binds with `from ... import` are wrapped where
    they are used; class methods are wrapped once, on the class.  The
    private `eig._solve_pencil` is wrapped because every spectrum (limit,
    delta sweep, tracking start and step) goes through it exactly once.
    """
    cli, eig, cascade, mie = enzspec.cli, enzspec.eig, enzspec.cascade, enzspec.mie
    return [
        (cli, "main", "cli"),
        (cli, "generate_disk_in_disk", "mesh.generate"),
        (cli, "generate_square_with_disk", "mesh.generate"),
        (cli, "save_mesh", "mesh.save"),
        (cli, "load_mesh", "mesh.load"),
        (cli, "assemble", "fem.assemble"),
        (cli, "track_branch", "eig.track"),
        (cli, "analyticity_report", "perturb.report"),
        (cli, "series_vs_direct", "cascade.series"),
        (cli, "concentric_dispersion", "mie.dispersion"),
        (cli, "bessel_zeros", "specfun.zeros"),
        (eig, "_solve_pencil", "eig.pencil"),
        (eig, "shift_invert_arnoldi", "linalg.arnoldi"),
        (enzspec.linalg.LUFactors, "__init__", "linalg.factor"),
        (enzspec.linalg.LUFactors, "solve", "linalg.solve"),
        (cascade, "assemble", "fem.assemble"),
        (cascade, "solve_neumann", "fem.neumann"),
        (cascade, "solve_dirichlet", "fem.dirichlet"),
        (cascade, "direct_projection", "cascade.direct"),
        (cascade.Cascade, "__init__", "cascade.init"),
        (cascade.Cascade, "run", "cascade.run"),
        (mie, "spherical_bessel_complex", "specfun.bessel"),
        (mie, "spherical_neumann_complex", "specfun.bessel"),
    ]


@contextmanager
def instrument(tracer: Tracer, wrap_list):
    """Wrap every (owner, attribute, name) for the duration of the block.

    A missing attribute raises AttributeError: a renamed entry point must
    be renamed here too, or its layer would silently read zero.
    """
    saved = []
    try:
        for owner, attr, name in wrap_list:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def ancestor_of(spans, index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def totals(spans):
    """name -> (calls, self seconds)."""
    selfs = self_times(spans)
    out: dict[str, list] = {}
    for s, t in zip(spans, selfs):
        entry = out.setdefault(s.name, [0, 0.0])
        entry[0] += 1
        entry[1] += t
    return {k: (c, t) for k, (c, t) in out.items()}


def count_under(spans, name: str, ancestor: str) -> int:
    """Number of spans called name that run inside a span called ancestor."""
    return sum(1 for i, s in enumerate(spans)
               if s.name == name and ancestor_of(spans, i, ancestor))


# (metric, unit, better) in the order BENCHMARK.json lists them.  Seconds
# are self time; calls and seconds are per attempted op of the traced passes.
PER_LAYER = (
    ("mesh.generate_s", "s/setup", "lower"),
    ("mesh.load_s", "s/op", "lower"),
    ("mesh.load_calls", "count/op", "lower"),
    ("fem.assemble_calls", "count/op", "lower"),
    ("fem.assemble_s", "s/op", "lower"),
    ("fem.neumann_calls", "count/op", "lower"),
    ("fem.neumann_s", "s/op", "lower"),
    ("fem.dirichlet_calls", "count/op", "lower"),
    ("fem.dirichlet_s", "s/op", "lower"),
    ("linalg.factor_calls", "count/op", "lower"),
    ("linalg.factor_s", "s/op", "lower"),
    ("linalg.factor_retries", "count/op", "lower"),
    ("linalg.solve_calls", "count/op", "lower"),
    ("linalg.solve_s", "s/op", "lower"),
    ("linalg.arnoldi_calls", "count/op", "lower"),
    ("linalg.arnoldi_s", "s/op", "lower"),
    ("eig.pencil_calls", "count/op", "lower"),
    ("eig.pencil_s", "s/op", "lower"),
    ("eig.arnoldi_per_pencil", "ratio", "lower"),
    ("eig.track_steps", "count/op", "lower"),
    ("eig.solves_per_step", "ratio", "lower"),
    ("eig.factors_per_step", "ratio", "lower"),
    ("eig.track_s", "s/op", "lower"),
    ("perturb.report_s", "s/op", "lower"),
    ("cascade.init_s", "s/op", "lower"),
    ("cascade.run_s", "s/op", "lower"),
    ("cascade.direct_s", "s/op", "lower"),
    ("cascade.series_s", "s/op", "lower"),
    ("cascade.orders", "count", "higher"),
    ("cascade.factors_per_order", "ratio", "lower"),
    ("mie.dispersion_calls", "count/op", "lower"),
    ("mie.dispersion_s", "s/op", "lower"),
    ("mie.bessel_evals_per_solve", "ratio", "lower"),
    ("specfun.bessel_s", "s/op", "lower"),
    ("specfun.zeros_s", "s/op", "lower"),
    ("cli.self_s", "s/op", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def layer_metrics(pass_spans, n_ops: int, setup_spans, n_setups: int) -> dict:
    """Per-layer values (without the trace.* overhead pair) from the spans
    of the traced passes and of the traced set-ups."""
    tot = totals(pass_spans)

    def calls(name):
        return tot.get(name, (0, 0.0))[0] / n_ops

    def secs(name):
        return tot.get(name, (0, 0.0))[1] / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    steps = count_under(pass_spans, "eig.pencil", "eig.track")
    orders = count_under(pass_spans, "fem.neumann", "cascade.run")
    retries = sum(1 for s in pass_spans
                  if s.name == "linalg.factor" and s.error == "SingularMatrixError")
    setup_tot = totals(setup_spans)
    out = {
        "mesh.generate_s": setup_tot.get("mesh.generate", (0, 0.0))[1] / n_setups,
        "linalg.factor_retries": retries / n_ops,
        "eig.arnoldi_per_pencil": ratio(calls("linalg.arnoldi"), calls("eig.pencil")),
        "eig.track_steps": steps / n_ops,
        "eig.solves_per_step": ratio(count_under(pass_spans, "linalg.solve", "eig.track"), steps),
        "eig.factors_per_step": ratio(count_under(pass_spans, "linalg.factor", "eig.track"), steps),
        "cascade.orders": ratio(orders, tot.get("cascade.run", (0, 0.0))[0]),
        "cascade.factors_per_order": ratio(
            count_under(pass_spans, "linalg.factor", "cascade.run"), orders),
        "mie.bessel_evals_per_solve": ratio(calls("specfun.bessel"), calls("mie.dispersion")),
        "cli.self_s": secs("cli"),
    }
    for name, _, _ in PER_LAYER:
        if name in out or name.startswith("trace."):
            continue
        layer, _, metric = name.rpartition("_")
        out[name] = calls(layer) if metric == "calls" else secs(layer)
    return out
