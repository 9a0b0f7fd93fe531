"""Unit tests of the benchmark harness itself (no ``fit()`` is run).

Run explicitly by path — tier-1's ``testpaths`` does not collect this::

    python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
import run  # noqa: E402
import trace as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = measure.load_benchmark()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span(sid, name, start, end, parent=-1, thread=1):
    return (sid, name, start, end, parent, 0, thread)


def fake_fit(workload, accuracies, round_s=1.0, **over):
    rounds = len(accuracies)
    fit = {
        "rounds": rounds, "k": workload.k, "model_size": 100,
        "fit_s": rounds * round_s, "setup_s": 0.5,
        "round_ends": [round_s * (i + 1) for i in range(rounds)],
        "accuracies": list(accuracies), "losses": [2.0] * rounds,
        "comm_up": [workload.k * 100] * rounds, "comm_down": [workload.k * 100] * rounds,
        "leg_failures": [], "suspects": 0, "async": {}, "pool_sha256": "ab",
        "peak_rss_mb": 100.0, "cpu_s": 1.0, "minor_faults": 10, "children": 0,
        "leaks": {"shm": [], "children": [], "sockets": []},
    }
    fit.update(over)
    return fit


# -- self time --------------------------------------------------------------------
def test_self_time_subtracts_what_children_cover():
    spans = [
        span(0, "outer", 0.0, 10.0),
        span(1, "inner", 1.0, 4.0, parent=0),
        span(2, "inner", 6.0, 7.0, parent=0),
        span(3, "leaf", 2.0, 3.0, parent=1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs["outer"] == (pytest.approx(6.0), 1)
    assert selfs["inner"] == (pytest.approx(3.0), 2)
    assert selfs["leaf"] == (pytest.approx(1.0), 1)


def test_self_time_takes_the_union_of_overlapping_children():
    # Children from other threads may overlap each other and overrun
    # their parent; only the covered part of the parent is subtracted.
    spans = [
        span(0, "outer", 0.0, 10.0),
        span(1, "a", 2.0, 6.0, parent=0),
        span(2, "b", 4.0, 12.0, parent=0),
    ]
    assert tracing.self_times(spans)["outer"][0] == pytest.approx(2.0)


def test_recorder_nests_spans_and_keeps_parents():
    rec = tracing.Recorder()

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    rec.wrap(Layer, "outer", "layer.outer")
    rec.wrap(Layer, "inner", "layer.inner")
    assert Layer().outer() == 2
    by_name = {s[1]: s for s in rec.spans}
    assert by_name["layer.inner"][4] == by_name["layer.outer"][0]
    assert by_name["layer.outer"][4] == -1
    assert rec.overhead_s > 0


def test_top_level_wrap_records_only_the_outermost_call():
    rec = tracing.Recorder()

    class Module:
        def __init__(self, child=None):
            self.child = child

        def __call__(self, x):
            return self.child(x) if self.child else x

    rec.wrap(Module, "__call__", "nn.forward", top_level=True)
    assert Module(Module(Module()))(3) == 3
    assert [s[1] for s in rec.spans] == ["nn.forward"]


def test_stream_spans_cover_the_resume_not_the_consumer():
    rec = tracing.Recorder()

    class Backend:
        def stream(self):
            for i in range(3):
                time.sleep(0.01)
                yield i

    rec.wrap_stream(Backend, "stream", "wait", items="legs")
    for _ in Backend().stream():
        time.sleep(0.03)  # consumer work must not be billed to the stream
    waited = sum(s[3] - s[2] for s in rec.spans)
    assert rec.counts["legs"] == 3
    assert len(rec.spans) == 4  # three items + the final StopIteration resume
    assert 0.03 <= waited < 0.06


# -- tail percentile ---------------------------------------------------------------
def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 101))
    pct, value = tracing.tail_percentile(samples)
    assert (pct, value) == (90.0, 90)
    assert sum(1 for s in samples if s > value) == 10
    pct, value = tracing.tail_percentile(list(range(1, 13)))
    assert value == 2 and pct == pytest.approx(100 * 2 / 12)


def test_no_tail_without_ten_samples_beyond():
    assert tracing.tail_percentile(list(range(10))) == (0.0, 0.0)
    assert tracing.tail_percentile([]) == (0.0, 0.0)


def test_round_intervals_average_over_the_rounds_in_flight():
    ends = [1.0, 2.0, 2.1, 2.2, 5.0, 5.1, 5.2, 8.0]
    assert measure.round_intervals(ends) == pytest.approx([1.0, 0.1, 0.1, 2.8, 0.1, 0.1, 2.8])
    # Bursts of three (async, S=2): the raw intervals are bimodal, the
    # windowed ones are the per-round pace.
    windowed = measure.round_intervals(ends, in_flight=3)
    assert windowed == pytest.approx([0.4, 1.0, 1.0, 1.0, 1.0])
    assert WORKLOADS["async_stragglers"].rounds_in_flight == 3
    assert WORKLOADS["pool_k50"].rounds_in_flight == 1


# -- target rule -------------------------------------------------------------------
def test_target_reached_reports_first_crossing():
    workload = WORKLOADS["pool_k50"]
    accuracies = [0.0, workload.target - 0.01, workload.target, 1.0]
    e2e = measure.end_to_end(workload, [fake_fit(workload, accuracies)], [0.5])
    assert e2e["rounds_to_target"] == 2
    assert e2e["time_to_target_s"] == pytest.approx(3.0)


def test_target_never_reached_is_null_and_one_failure():
    workload = WORKLOADS["pool_k50"]
    fit = fake_fit(workload, [0.0, 0.0, 0.0])
    e2e = measure.end_to_end(workload, [fit], [0.5])
    assert e2e["time_to_target_s"] is None and e2e["rounds_to_target"] is None
    checks = measure.gates(workload, [fit])
    assert all(ok for _n, ok, _d in checks)
    reached = measure.tally([fit], checks, crashed=0, runs=1, target_missed=False)
    missed = measure.tally([fit], checks, crashed=0, runs=1, target_missed=True)
    assert missed == (reached[0], reached[1] + 1) and reached[1] == 0


def test_unexpected_leg_failures_count_seeded_ones_do_not():
    workload = WORKLOADS["pool_k50_robust"]
    fit = fake_fit(workload, [0.5], leg_failures=[
        {"kind": "dropout", "attempts": 0}, {"kind": "error", "attempts": 2}])
    _attempted, failed = measure.tally([fit], [], crashed=0, runs=1,
                                       target_missed=False)
    assert failed == 1


# -- gates -------------------------------------------------------------------------
def test_gates_catch_a_diverging_repeat_a_leak_and_a_short_ledger():
    workload = WORKLOADS["cnn_serial"]
    good = fake_fit(workload, [0.1, 0.2])
    assert all(ok for _n, ok, _d in measure.gates(workload, [good, good], good))
    failing = {
        "repeat_identical": fake_fit(workload, [0.1, 0.2], pool_sha256="cd"),
        "teardown_clean": fake_fit(workload, [0.1, 0.2],
                                   leaks={"shm": ["psm_x"], "children": [], "sockets": []}),
    }
    for check, bad in failing.items():
        failed = [n for n, ok, _d in measure.gates(workload, [good, bad]) if not ok]
        assert failed == [check]
    short = fake_fit(workload, [0.1, 0.2], comm_up=[0, 0])
    failed = [n for n, ok, _d in measure.gates(workload, [short]) if not ok]
    assert failed == ["ledger_equals_analytic"]


def test_robust_gates_progress_on_any_seed_floor_on_curated_ones():
    workload = WORKLOADS["pool_k50_robust"]
    below_floor = fake_fit(workload, [0.09, 0.095], losses=[2.33, 2.31],
                           comm_up=[1, 1], comm_down=[1, 1])
    assert all(ok for _n, ok, _d in measure.gates(workload, [below_floor]))
    curated = measure.gates(workload, [below_floor], curated_seed=True)
    assert [n for n, ok, _d in curated if not ok] == ["accuracy_floor"]
    rising = dict(below_floor, losses=[2.33, 2.36])
    assert [n for n, ok, _d in measure.gates(workload, [rising]) if not ok] == ["robust_progress"]


def test_async_gate_checks_the_ledger_structure():
    workload = WORKLOADS["async_stragglers"]
    info = {"speculative_blends": 15, "stale_uploads": 6}
    fit = fake_fit(workload, [0.1, 0.2], **{"async": info})
    assert all(ok for _n, ok, _d in measure.gates(workload, [fit]))
    lost = dict(fit, comm_up=[workload.k * 100, (workload.k - 1) * 100])
    failed = [n for n, ok, _d in measure.gates(workload, [lost]) if not ok]
    assert "async_accounting" in failed


def test_check_repeat_skips_reported_only_and_uses_the_async_tolerance():
    def summary(name, **over):
        e2e = measure.end_to_end(WORKLOADS[name], [fake_fit(WORKLOADS[name], [0.3, 0.4])], [0.5])
        e2e["failed_share"] = 0.0
        e2e.update(over)
        return {name: {"e2e": e2e}}

    same = run.check_repeat(summary("cnn_serial"), summary("cnn_serial", first_round_s=9.0), BENCH)
    assert same == []  # first_round_s is reported only
    sync = run.check_repeat(summary("cnn_serial"), summary("cnn_serial", final_accuracy=0.39), BENCH)
    assert len(sync) == 1 and "final_accuracy" in sync[0]
    tolerated = run.check_repeat(summary("async_stragglers"),
                                 summary("async_stragglers", final_accuracy=0.39), BENCH)
    assert tolerated == []
    slow = run.check_repeat(summary("cnn_serial"), summary("cnn_serial", fit_s=3.0), BENCH)
    assert len(slow) == 1 and "fit_s" in slow[0]


def test_worse_by_respects_direction_and_exactness():
    lower = {"better": "lower", "bound": 0.1}
    higher = {"better": "higher", "bound": 0.1}
    assert run.worse_by(lower, 10.0, 11.0) == pytest.approx(0.1)
    assert run.worse_by(lower, 10.0, 9.0) == pytest.approx(-0.1)
    assert run.worse_by(higher, 10.0, 9.0) == pytest.approx(0.1)
    assert run.worse_by(lower, None, None) == 0.0
    assert run.worse_by(lower, 3.0, None) == float("inf")
    assert run.worse_by(lower, 0, 0) == 0.0


# -- names and schema -----------------------------------------------------------------
def test_benchmark_json_meets_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= BENCH["run_seconds"] <= 60 and isinstance(BENCH["run_seconds"], int)
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16 and 1 <= len(BENCH["per_layer"]) <= 128
    names = []
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert len(json.dumps(BENCH)) <= 64 * 1024


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_every_computed_metric_is_named_in_benchmark_json():
    workload = WORKLOADS["pool_k50"]
    fit = fake_fit(workload, [0.0, 1.0])
    e2e = measure.end_to_end(workload, [fit], [0.5])
    gated = {m["name"] for m in BENCH["end_to_end"]}
    assert gated <= set(e2e)
    assert set(e2e) - gated - {"round_samples"} == set(measure.UNGATED) - {"failed_share"}
    spans = [span(0, "fl.server.fit", 0.0, 2.0), span(1, "fl.server.collect", 0.0, 1.9, parent=0)]
    layers = measure.layer_metrics(workload, fit, spans, {})
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    computed = set(layers) | set(measure.UNGATED) | {"trace.overhead_share"}
    assert computed == per_layer
    assert all(NAME.fullmatch(n) for n in computed)
    assert layers["fl.server.phase_cover"] == pytest.approx(0.95)
