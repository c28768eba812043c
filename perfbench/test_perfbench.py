"""Tests of the benchmark itself: span arithmetic, tracing that changes no
result, and a tiny run of every workload through the command's entry point.

    python3 -m pytest perfbench
"""

import itertools
import json
import signal
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostclock  # noqa: E402
import run  # noqa: E402  (also puts the checkout's src/ on sys.path)
import spans  # noqa: E402
import workloads  # noqa: E402

TINY_N = {"pipeline-r1": 12, "pipeline-r2": 3, "realize-roundtrip": 12, "stats": 20}


def test_self_time_subtracts_the_direct_children():
    tree = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a", 2.0, 3.0, 1, 0],  # recursive call: nested under the first "a"
        ["b", 5.0, 9.0, 0, 0],
        ["c", 5.0, 6.0, 3, 0],
        ["c", 7.0, 9.0, 3, 0],
        ["d", 11.0, 12.0, None, 1],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.0, 2.0, 1.0])
    table = spans.layer_table(tree, Counter({"c": 1}))
    assert table["a"] == {"self_s": pytest.approx(3.0), "calls": 2, "errors": 0}
    assert table["c"] == {"self_s": pytest.approx(3.0), "calls": 2, "errors": 1}
    # Self times add up to the wall time the top-level spans cover.
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(11.0)


def test_host_clock_reports_reference_work_at_reference_speed():
    # A job made of k reference loops takes about k * REFERENCE_S corrected
    # seconds, however fast the host is at the moment.  Samples taken from
    # the signal handler run a little slower than the job's own loops, so
    # the ratio sits between about 0.8 and 1.1.
    k = 1000
    result, timing = hostclock.timed(lambda: [hostclock.reference_loop() for _ in range(k)])
    assert len(result) == k
    assert timing.own_s < timing.wall_s  # samples were taken during the job, and taken out
    assert timing.corrected_s == pytest.approx(k * hostclock.REFERENCE_S, rel=0.3)


def test_host_clock_stops_its_timer_when_the_job_raises():
    with pytest.raises(ZeroDivisionError):
        hostclock.timed(lambda: 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_install_wraps_every_binding_and_uninstall_restores_them():
    m = run.load_mapprox()
    original = m.localtypes.type_distribution
    tracer = spans.Tracer(m.errors.MapproxError)
    tracer.install()
    try:
        assert m.localtypes.type_distribution.__wrapped__ is original
        assert m.realize.type_distribution is m.localtypes.type_distribution
        assert sys.modules["mapprox"].type_distribution is m.localtypes.type_distribution
        assert not hasattr(m.structure.preimage, "__wrapped__")  # per-element helper
    finally:
        tracer.uninstall()
    assert m.localtypes.type_distribution is original
    assert m.realize.type_distribution is original


def test_errors_are_counted_and_reraised():
    m = run.load_mapprox()
    tracer = spans.Tracer(m.errors.MapproxError)
    tracer.install()
    try:
        with pytest.raises(m.errors.MapproxError):
            m.mapfile.measure_from_json({"format": "map"})
    finally:
        tracer.uninstall()
    assert tracer.errors["mapfile.measure_from_json"] == 1
    assert spans.layer_table(tracer.spans, tracer.errors)["mapfile.measure_from_json"]["calls"] == 1


def test_inputs_follow_the_seed():
    m = run.load_mapprox()
    w = replace(workloads.WORKLOADS["pipeline-r1"], n=30)
    first, again, other = (workloads.make_inputs(m, w, s) for s in (1, 1, 2))
    assert [F.f for F in first] == [F.f for F in again]
    assert [F.f for F in first] != [F.f for F in other]
    assert len({F.f for F in first}) == w.pool


def test_benchmark_json_matches_the_metrics_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_layer_figures_are_per_traced_job(monkeypatch, capsys):
    tiny = replace(workloads.WORKLOADS["stats"], n=TINY_N["stats"], pool=2)
    monkeypatch.setitem(workloads.WORKLOADS, "stats", tiny)
    # A clock that advances one second per reading makes the number of
    # passes depend on --seconds only.
    monkeypatch.setattr(run, "perf_counter", itertools.count().__next__)
    lines = {}
    for seconds in ("0", "8"):
        argv = ["--workload", "stats", "--seed", "3", "--seconds", seconds, "--trace", "1"]
        assert run.main(argv) == 0
        lines[seconds] = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (lines["0"]["attempted"], lines["8"]["attempted"]) == (2, 4)  # one and two passes
    for name, unit in run.PER_LAYER.items():
        if unit == "count":
            assert lines["8"]["metrics"][name] == lines["0"]["metrics"][name], name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run(name, trace, monkeypatch, capsys, tmp_path):
    tiny = replace(workloads.WORKLOADS[name], n=TINY_N[name], pool=1)
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny)
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv + ["--out", str(tmp_path)]) == 0

    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    # With tracing on, a job whose traced digests differ from its untraced
    # ones counts as failed, so this also checks that tracing changes nothing.
    assert line["correct"] and line["attempted"] == 1 and line["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    values = {k: v["value"] for k, v in line["metrics"].items()}

    record = json.loads((tmp_path / f"{name}-seed3-trace{trace}.json").read_text())
    assert {"commit", "python", "nproc", "cpu", "seed", "jobs"} <= set(record)
    assert record["jobs"][0]["ok"] and record["jobs"][0]["digests"]
    if trace:
        assert values["localtypes.type_distribution.calls"] >= 1
        assert record["layers"]
        spans_file = json.loads((tmp_path / f"{name}-seed3-trace1.spans.json").read_text())
        assert set(spans_file[0]) == {"name", "start", "end", "parent", "job"}
        if name.startswith("pipeline"):
            # pipeline imports ldist at call time; that binding is traced too
            assert values["equivalence.ldist.calls"] == 1
            assert values["realize.pipeline.calls"] == 1
    else:
        assert all(v > 0 for v in values.values())
