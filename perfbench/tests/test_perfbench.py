"""The benchmark's own tests: ``python3 -m pytest perfbench/tests``."""

import itertools
import json
import math
import threading
import types

import pytest

from perfbench import layers, spans, workloads
from perfbench.measure import (
    HostSpeed,
    OpLog,
    percentile,
    tail,
    tail_percentile,
)
from repro.errors import ServeError


# -- percentile rule ----------------------------------------------------

@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50), (100, 90), (101, 90), (110, 90), (119, 91), (120, 91),
    (121, 91), (125, 92),
    (500, 98), (600, 98), (1000, 99),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected is not None:
        beyond = count - math.ceil(count * expected / 100)
        assert beyond >= 10
        assert expected == 99 or \
            count - math.ceil(count * (expected + 1) / 100) < 10


def test_tail_reports_value_and_sample_count():
    values = [float(v) for v in range(1, 101)]
    assert tail(values) == {"pct": 90, "value": 90.0, "samples": 100}
    assert tail(values[:5]) == {"pct": None, "value": None, "samples": 5}
    assert percentile(values, 50) == 50.0


# -- self time --------------------------------------------------------------

class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def test_self_time_subtracts_child_spans(monkeypatch):
    clock = _FakeClock()
    monkeypatch.setattr(spans, "time", clock)
    tracer = spans.SpanTracer()

    def leaf():
        clock.now += 3.0

    leaf = tracer.wrap(leaf, "leaf", calls="leaf.calls")

    def outer():
        clock.now += 1.0
        leaf()
        leaf()
        clock.now += 2.0

    outer = tracer.wrap(outer, "outer")
    clock.now = 10.0
    outer()
    clock.now += 4.0  # time outside any span

    layers_s, unattributed = spans.attribute(tracer.toplevel(), 10.0, 23.0)
    assert layers_s == {"outer": 3.0, "leaf": 6.0}
    assert unattributed == 4.0
    assert sum(layers_s.values()) + unattributed == 13.0
    assert tracer.counts() == {"leaf.calls": 2}
    kept = {span[3]: span for span in tracer.kept()}
    assert kept["leaf"][2] == kept["outer"][1]  # parent id


def test_concurrent_spans_share_the_wall_clock():
    top = [(0.0, 4.0, {"a": 4.0}), (2.0, 6.0, {"b": 1.0, "c": 3.0})]
    layers_s, unattributed = spans.attribute(top, 0.0, 8.0)
    assert layers_s == pytest.approx({"a": 3.0, "b": 0.75, "c": 2.25})
    assert unattributed == pytest.approx(2.0)


def test_attribute_clips_to_the_window():
    layers_s, unattributed = spans.attribute(
        [(0.0, 10.0, {"a": 10.0})], 5.0, 15.0)
    assert layers_s == {"a": 5.0}
    assert unattributed == 5.0


def test_chrome_trace_holds_kept_spans(tmp_path):
    tracer = spans.SpanTracer()
    tracer.set_case("case-1")
    tracer.wrap(lambda: None, "layer", label="fn")()
    path = tmp_path / "trace.json"
    tracer.write_chrome(path, 0.0)
    events = json.loads(path.read_text())["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert [(e["name"], e["cat"], e["args"]["case"])
            for e in complete] == [("fn", "layer", "case-1")]


def test_layer_points_resolve_and_restore():
    tracer = spans.SpanTracer()
    undo = layers.install(tracer)
    try:
        patched = {(id(owner), name) for owner, name, _ in undo}
        assert len(patched) == len(layers.POINTS)
        for owner, name, original in undo:
            assert owner.__dict__[name].__wrapped__ is original
    finally:
        layers.uninstall(undo)
    for owner, name, original in undo:
        assert owner.__dict__[name] is original


# -- closed-loop accounting -------------------------------------------------

def test_oplog_failures_are_never_timings():
    log = OpLog()
    assert log.settle(0.1)
    assert not log.settle(None, ["refused (429)"])
    assert not log.settle(0.2, ["cycles mismatch"])
    assert (log.attempted, log.failed, log.completed) == (3, 2, 1)
    assert log.latencies.count(math.inf) == 2
    assert 0.2 not in log.latencies
    assert percentile(log.latencies, 50) == math.inf


class _FakeClient:
    """Answers every job at once; sheds every fifth submission."""

    calls = itertools.count()
    seen: set = set()
    lock = threading.Lock()

    def __init__(self, host, port, timeout):
        pass

    def submit(self, kind, params):
        with self.lock:
            call = next(self.calls)
            if call % 5 == 4:
                raise ServeError("queue full", status=429, retry_after=1)
            spec_hash = json.dumps([kind, params], sort_keys=True)
            hit = spec_hash in self.seen
            self.seen.add(spec_hash)
        return {"id": f"job-{call}", "state": "done", "kind": kind,
                "params": params, "spec_hash": spec_hash,
                "artifact_hash": spec_hash, "from_cache": hit,
                "submitted_at": 1.0, "started_at": None if hit else 1.5}

    def artifact(self, artifact_hash):
        return {"spec_hash": artifact_hash, "metrics": {
            "cycles": 7.0, "matches": True, "record_cycles": 7.0,
            "total_committed_instructions": 1000,
            "run_stats": {"total_committed_instructions": 1000}}}


def test_closed_loop_counts_refused_jobs_as_failures(monkeypatch,
                                                     tmp_path):
    monkeypatch.setattr(workloads, "ServeClient", _FakeClient)
    harness = types.SimpleNamespace(
        client=types.SimpleNamespace(host="127.0.0.1", port=0),
        service=types.SimpleNamespace(
            queue=types.SimpleNamespace(lsn=0)))
    mix = workloads.ServeMix(3, tmp_path, {})
    log = OpLog()
    result = mix.run(harness, 0.0, log, HostSpeed())
    assert log.attempted == mix.ROUND  # one whole round, then stop
    assert log.failed >= mix.ROUND // 5
    assert log.latencies.count(math.inf) == log.failed
    assert len(result["records"]) == log.completed
    assert all(r["latency"] < math.inf for r in result["records"])
    assert any("429" in problem for problem in log.problems)


def test_serve_plan_is_seeded_and_hits_name_earlier_jobs(tmp_path):
    mix = workloads.ServeMix(5, tmp_path, {})
    plan = mix.plan_round(0)
    assert plan == workloads.ServeMix(5, tmp_path, {}).plan_round(0)
    assert plan != workloads.ServeMix(6, tmp_path, {}).plan_round(0)
    for position, (role, kind, params, target) in enumerate(plan):
        if role == "record":
            assert target is None
            continue
        assert target <= position - 2
        if role == "hit":
            assert (kind, params) == plan[target][1:3]
        else:
            assert plan[target][0] == "record"


# -- reference checks -------------------------------------------------------

def test_reference_mismatch_is_a_failure_not_a_timing(tmp_path):
    wrong = {"record-replay": {"4": {
        "fft/order_only": {"record_cycles": -1.0}}}}
    bench = workloads.RecordReplay(4, tmp_path, wrong)
    bench.CASES = (("fft", 0.05),)
    bench.MODES = (workloads.ExecutionMode.ORDER_ONLY,)
    log = OpLog()
    result = bench.run(bench.setup(), 0.0, log, HostSpeed())
    assert (log.attempted, log.failed) == (1, 1)
    assert log.latencies == [math.inf]
    assert result["op_seconds"] == []
    assert "reference" in log.problems[0]

    matching = workloads.RecordReplay(4, tmp_path, {})
    matching.CASES, matching.MODES = bench.CASES, bench.MODES
    log = OpLog()
    result = matching.run(matching.setup(), 0.0, log, HostSpeed())
    assert (log.attempted, log.failed) == (1, 0)
    assert len(result["op_seconds"]) == 1
