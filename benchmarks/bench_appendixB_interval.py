"""Appendix B: the checkpoint-interval trade (storage vs replay latency).

The determinism theorem is stated for intervals I(n, m): pair the logs
with periodic commit-boundary checkpoints and a day-long recording
replays from the checkpoint nearest the crash, not from boot.  The
deployment knob is the checkpoint *interval*: dense checkpoints cost
storage (each carries the committed memory image and thread states),
sparse ones cost replay latency (more of the interval's prefix
re-executes before the window of interest).

This bench sweeps the interval on the commercial server workload
(interrupts + DMA + I/O, so the checkpoints' log cursors all do real
work), picks a "crash point" at ~90% of the run, and measures both
sides: serialized checkpoint bytes (the recording is bit-identical
apart from checkpoints, so the delta against an uncheckpointed
recording is exact; the container compresses them), the modeled
full-image and delta-encoded sizes, and the cycles to
deterministically reach the crash window.

Expected shape: latency falls monotonically (in expectation) as
checkpoints densify, storage grows linearly with the checkpoint count,
and every replayed window verifies bit-exactly.  The paper does not
quantify this trade (it cites ReVive/SafetyNet for the checkpoint
substrate); the sweep documents what our substrate delivers.
"""

from repro.core.delorean import DeLoreanSystem
from repro.core.modes import ExecutionMode
from repro.core.serialization import save_recording

from harness import SCALE, emit, program_for, run_once

_APP = "sjbb2k"
_SCALE = 0.6 * SCALE
_CHUNK = 500  # shorter chunks -> enough commits for a dense grid
_WINDOW = 4  # commits of interest around the crash point


def _record(interval: int):
    system = DeLoreanSystem(mode=ExecutionMode.ORDER_ONLY,
                            chunk_size=_CHUNK)
    recording = system.record(
        program_for(_APP, scale=_SCALE),
        checkpoint_every=interval)
    return system, recording


def compute_sweep():
    # From boot: the full replay is the only way to reach the crash
    # point without a checkpoint.  Its commit count also sizes the
    # checkpoint grids, so the sweep works at any REPRO_BENCH_SCALE.
    system, recording = _record(0)
    baseline_bytes = len(save_recording(recording))
    target = int(0.9 * len(recording.fingerprints))
    result = system.replay(recording)
    assert result.determinism.matches
    intervals = [0] + sorted(
        {max(2, target // denominator) for denominator in (3, 8, 20)},
        reverse=True)
    results = {"intervals": intervals}
    results[0] = {
        "checkpoints": 0,
        "bytes": 0,
        "full_bytes": 0,
        "delta_bytes": 0,
        "reexecuted": target,
        "cycles": result.cycles,
    }
    for interval in intervals[1:]:
        system, recording = _record(interval)
        size = len(save_recording(recording))
        store = recording.interval_checkpoints
        delta_bytes = store.delta_size_bits() // 8
        checkpoint = store.at_or_before(target)
        result = system.replay_interval(
            recording, checkpoint=checkpoint,
            length=target - checkpoint.commit_index + _WINDOW)
        assert result.determinism.matches, interval
        results[interval] = {
            "checkpoints": len(store),
            "bytes": size - baseline_bytes,
            "full_bytes": store.full_size_bits() // 8,
            "delta_bytes": delta_bytes,
            "reexecuted": target - checkpoint.commit_index,
            "cycles": result.cycles,
        }
    results["target"] = target
    return results


def test_appendixB_interval_trade(benchmark):
    results = run_once(benchmark, compute_sweep)
    target = results["target"]
    intervals = results["intervals"]
    rows = [[interval if interval else "none",
             results[interval]["checkpoints"],
             f"{results[interval]['bytes']:,}",
             f"{results[interval]['full_bytes']:,}",
             f"{results[interval]['delta_bytes']:,}",
             results[interval]["reexecuted"],
             f"{results[interval]['cycles']:,.0f}"]
            for interval in intervals]
    emit(f"Appendix B -- checkpoint interval vs replay latency to "
         f"commit #{target} ({_APP}, OrderOnly)",
         ["interval", "checkpoints", "checkpoint bytes",
          "full-image bytes", "delta-encoded bytes",
          "commits re-executed",
          "replay cycles"], rows)

    none, sparse, dense = \
        results[0], results[intervals[1]], results[intervals[-1]]
    # Storage grows with density, and scales like the checkpoint count
    # (memory images dominate and the image only grows slowly over the
    # run).
    assert dense["checkpoints"] > sparse["checkpoints"] > 0
    assert dense["bytes"] > sparse["bytes"] > 0
    per_cp = [results[i]["bytes"] / results[i]["checkpoints"]
              for i in intervals[1:]]
    assert max(per_cp) < 2.5 * min(per_cp)
    # Delta encoding collapses the density cost: consecutive images
    # overlap almost entirely, so densifying the grid is nearly free
    # in delta form while full-image storage scales with the count.
    # Both are modeled sizes; the container's compressed checkpoint
    # bytes already squeeze out much of that overlap.
    for interval in intervals[1:]:
        assert 0 < results[interval]["delta_bytes"] < \
            results[interval]["full_bytes"]
    full_blowup = dense["full_bytes"] / sparse["full_bytes"]
    delta_blowup = dense["delta_bytes"] / sparse["delta_bytes"]
    assert delta_blowup < full_blowup
    # Latency: every checkpointed replay beats replay-from-boot, and
    # each grid bounds its own worst case -- re-execution never exceeds
    # one interval.  (A sparse grid can *luckily* land right next to
    # the crash point, so density is a bound, not a monotone series.)
    for interval in intervals[1:]:
        assert results[interval]["cycles"] < none["cycles"]
        assert results[interval]["reexecuted"] < interval
    assert dense["reexecuted"] < intervals[-1]
