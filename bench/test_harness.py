"""Tests of the benchmark's own logic: statistics, failure accounting,
span self time, wrapper hygiene and agreement with BENCHMARK.json."""

import json
import os

import harness
import pytest
import spans


def test_tail_percentile_needs_ten_samples_beyond():
    assert harness.tail_percentile(range(10)) is None
    assert harness.tail_percentile(range(11)) is None
    assert harness.tail_percentile(range(20)) == (50.0, 9, 10)
    assert harness.tail_percentile(range(39)) == (50.0, 19, 19)
    assert harness.tail_percentile(range(40)) == (75.0, 29, 10)
    assert harness.tail_percentile(range(100)) == (90.0, 89, 10)
    assert harness.tail_percentile(range(1000)) == (99.0, 989, 10)


def test_self_time_subtracts_nested_children():
    # arnoldi [0, 10] calls two LU solves; the second solve nests a third span
    recorded = [
        spans.Span("linalg.arnoldi", -1, 0.0, 10.0),
        spans.Span("linalg.solve", 0, 1.0, 3.0),
        spans.Span("linalg.solve", 0, 4.0, 7.0),
        spans.Span("inner", 2, 5.0, 6.0),
    ]
    assert spans.self_times(recorded) == [5.0, 2.0, 2.0, 1.0]
    assert spans.totals(recorded)["linalg.solve"] == (2, 4.0)
    assert spans.count_under(recorded, "inner", "linalg.arnoldi") == 1
    assert spans.count_under(recorded, "linalg.arnoldi", "linalg.solve") == 0


def test_tracer_records_parent_and_error():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: 1 / 0, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    with pytest.raises(ZeroDivisionError):
        outer()
    assert [(s.name, s.parent, s.error) for s in tracer.spans] == [
        ("outer", -1, "ZeroDivisionError"), ("inner", 0, "ZeroDivisionError")]
    assert all(s.end >= s.start for s in tracer.spans)


def _op(tmp_path, check=lambda path: None):
    out = tmp_path / "artifact.csv"
    out.write_text("x\n")
    return harness.Op("op", ["cmd"], str(out), check)


def test_failed_ops_count_for_raise_exit_and_check(tmp_path):
    def raises(argv, out, err):
        raise TypeError("complex into real factor")

    def exits(argv, out, err):
        return 2

    def succeeds(argv, out, err):
        return 0

    results = [
        harness.execute(_op(tmp_path), raises),
        harness.execute(_op(tmp_path), exits),
        harness.execute(_op(tmp_path, check=lambda path: "residual too large"), succeeds),
        harness.execute(_op(tmp_path), succeeds),
    ]
    assert [r.status for r in results] == [harness.RAISED, harness.EXIT,
                                           harness.CHECK, harness.OK]
    assert harness.failure_counts(results) == (4, 3)
    assert all(r.seconds >= 0.0 for r in results)


def test_changed_artifact_bytes_fail_the_op(tmp_path):
    book = harness.DigestBook()
    op = _op(tmp_path)
    first = book.settle(harness.execute(op, lambda argv, out, err: 0))
    (tmp_path / "artifact.csv").write_text("y\n")
    second = book.settle(harness.execute(op, lambda argv, out, err: 0))
    assert (first.status, second.status) == (harness.OK, harness.NONDETERMINISTIC)


def test_instrument_restores_every_attribute():
    enzspec = harness.load_cli()
    wrap_list = spans.targets(enzspec)
    originals = [vars(owner)[attr] for owner, attr, _ in wrap_list]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.instrument(tracer, wrap_list):
            assert all(vars(owner)[attr] is not orig
                       for (owner, attr, _), orig in zip(wrap_list, originals))
            raise RuntimeError("leave the block early")
    assert all(vars(owner)[attr] is orig
               for (owner, attr, _), orig in zip(wrap_list, originals))


def test_checks_reject_bad_artifacts(tmp_path):
    eig = tmp_path / "eig.csv"
    eig.write_text("# enzspec eig-limit csv v1\nindex,lambda,residual\n"
                   "0,5.0,1e-15\n1,4.0,1e-15\n")
    assert "ascending" in harness.check_eig(str(eig), 2, ascending=True)
    eig.write_text("# enzspec eig-limit csv v1\nindex,lambda,residual\n0,5.0,1e-6\n")
    assert "residual" in harness.check_eig(str(eig), 1)
    cascade = tmp_path / "cascade.csv"
    cascade.write_text("# enzspec cascade csv v1\n# psi_energy 9.0\n"
                       "order,c,h1_norm,series_error\n0,0,1,0.1\n1,0,1,0.01\n2,0,1,0.01\n")
    assert "order 2" in harness.check_cascade(str(cascade), 2)
    assert harness.check_cascade(str(cascade), 1) is not None


def test_magnetic_zero_matches_closed_form():
    # j_1(x) = sin x / x^2 - cos x / x vanishes where tan x = x
    z = harness.first_zero_jn(1)
    assert abs(z - 4.493409457909064) <= 1e-12


def test_plans_depend_only_on_seed(tmp_path):
    for workload in harness.WORKLOADS:
        a = harness.make_plan(workload, 7, str(tmp_path))
        b = harness.make_plan(workload, 7, str(tmp_path))
        c = harness.make_plan(workload, 8, str(tmp_path))
        assert [op.argv for op in a.ops] == [op.argv for op in b.ops]
        assert [op.argv for op in a.ops] != [op.argv for op in c.ops]
        assert len({op.name for op in a.ops + a.warmup + a.probe}) == len(a.ops + a.warmup + a.probe)


def test_benchmark_json_lists_the_reported_metrics():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)


def test_speed_gauge_keeps_its_share_of_op_time():
    gauge = harness.SpeedGauge()
    gauge.after_op(0.5)
    spent = sum(gauge.samples)
    assert spent >= harness.REFERENCE_SHARE * 0.5
    assert spent - gauge.samples[-1] < harness.REFERENCE_SHARE * 0.5
    gauge.after_op(0.0)     # the share is already met: no further sample
    assert sum(gauge.samples) == spent
    assert gauge.slowdown() == spent / len(gauge.samples) / harness.REFERENCE_NOMINAL_S
