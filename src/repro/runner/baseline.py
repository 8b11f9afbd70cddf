"""Machine-readable performance baselines (``BENCH_1.json``).

``repro bench --baseline`` snapshots the simulator's throughput --
record and replay events/second for every execution mode, plus the
wall time of the two headline evaluation sweeps (Figure 10 initial
execution, Figure 11 replay speed) -- into a small JSON document a CI
job can diff against a committed reference with
:func:`compare_baselines`.

Wall-clock numbers are inherently machine-dependent, so the threshold
is a *floor ratio*, not an equality check: a run regresses only when
its throughput falls below ``threshold`` times the reference (default
0.1 -- a 10x slowdown), which catches accidental quadratic blowups
without flaking on hardware variance.  Simulated-cycle counts ride
along as exact, machine-independent cross-checks.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.delorean import DeLoreanSystem
from repro.core.modes import ExecutionMode
from repro.workloads import app_program

#: Document schema; bump on layout changes.
BASELINE_SCHEMA = 1

#: Default workload of the snapshot: small, uses every subsystem.
BASELINE_APP = "fft"

#: Modes the per-mode throughput section covers.
BASELINE_MODES = (
    ExecutionMode.ORDER_AND_SIZE,
    ExecutionMode.ORDER_ONLY,
    ExecutionMode.PICOLOG,
    ExecutionMode.SIZE_ONLY,
)

#: The headline sweeps whose end-to-end wall time is snapshotted.
BASELINE_FIGURES = ("fig10", "fig11")


def _mode_throughput(app: str, mode: ExecutionMode, scale: float,
                     seed: int) -> dict:
    """Record then replay once, timing each phase separately."""
    program = app_program(app, scale=scale, seed=seed)
    system = DeLoreanSystem(mode=mode)
    started = time.perf_counter()
    recording = system.record(program)
    record_wall = time.perf_counter() - started
    started = time.perf_counter()
    result = system.replay(recording)
    replay_wall = time.perf_counter() - started
    instructions = recording.stats.total_committed_instructions
    return {
        "record_wall_seconds": record_wall,
        "replay_wall_seconds": replay_wall,
        "record_events_per_sec": (instructions / record_wall
                                  if record_wall > 0 else 0.0),
        "replay_events_per_sec": (instructions / replay_wall
                                  if replay_wall > 0 else 0.0),
        "instructions": instructions,
        "record_cycles": recording.stats.cycles,
        "replay_cycles": result.cycles,
        "replay_verified": bool(result.determinism.matches),
    }


def _figure_wall(name: str, apps, scale: float, seed: int,
                 jobs: int) -> dict:
    """End-to-end wall time of one evaluation sweep, uncached."""
    from repro.runner.figures import FIGURES, specs_for
    from repro.runner.pool import Runner

    specs = specs_for([FIGURES[name]], apps=tuple(apps), scale=scale,
                      seed=seed)
    runner = Runner(jobs=max(1, jobs), cache=False)
    started = time.perf_counter()
    outcomes = runner.run(specs)
    wall = time.perf_counter() - started
    return {
        "wall_seconds": wall,
        "specs": len(specs),
        "failed": sum(1 for outcome in outcomes if not outcome.ok),
        "jobs": max(1, jobs),
    }


def collect_baseline(app: str = BASELINE_APP, *, scale: float = 0.3,
                     seed: int = 11, jobs: int = 1,
                     figure_apps=None) -> dict:
    """Measure the full baseline snapshot on this machine, now."""
    figure_apps = tuple(figure_apps or (app,))
    return {
        "schema": BASELINE_SCHEMA,
        "kind": "bench-baseline",
        "app": app,
        "scale": scale,
        "seed": seed,
        "modes": {
            mode.value: _mode_throughput(app, mode, scale, seed)
            for mode in BASELINE_MODES
        },
        "figures": {
            name: _figure_wall(name, figure_apps, scale, seed, jobs)
            for name in BASELINE_FIGURES
        },
    }


def write_baseline(path, data: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as stream:
        json.dump(data, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return path


def load_baseline(path) -> dict:
    with Path(path).open("r", encoding="utf-8") as stream:
        data = json.load(stream)
    if data.get("kind") != "bench-baseline":
        raise ValueError(f"{path}: not a bench-baseline document")
    return data


def compare_baselines(current: dict, reference: dict,
                      threshold: float = 0.1) -> list[str]:
    """Regressions of ``current`` against ``reference``.

    Returns human-readable regression lines (empty = within
    threshold).  Throughputs regress when they fall below
    ``threshold`` times the reference; figure wall times regress when
    they exceed the reference by the reciprocal factor.  Replay
    determinism and simulated cycle counts are exact checks: cycles
    are a pure function of the simulated machine, so any drift means
    the simulator's behavior changed, not the host.
    """
    regressions: list[str] = []
    for mode, ref in reference.get("modes", {}).items():
        cur = current.get("modes", {}).get(mode)
        if cur is None:
            regressions.append(f"{mode}: missing from current run")
            continue
        for metric in ("record_events_per_sec",
                       "replay_events_per_sec"):
            ref_value = ref.get(metric, 0.0)
            cur_value = cur.get(metric, 0.0)
            if ref_value > 0 and cur_value < ref_value * threshold:
                regressions.append(
                    f"{mode}.{metric}: {cur_value:,.0f} < "
                    f"{threshold:g} x reference {ref_value:,.0f}")
        if not cur.get("replay_verified", False):
            regressions.append(f"{mode}: replay no longer verifies")
        if (current.get("scale") == reference.get("scale")
                and current.get("seed") == reference.get("seed")
                and current.get("app") == reference.get("app")
                and cur.get("record_cycles")
                != ref.get("record_cycles")):
            regressions.append(
                f"{mode}.record_cycles: {cur.get('record_cycles')} "
                f"!= reference {ref.get('record_cycles')} "
                f"(simulated timing changed)")
    for name, ref in reference.get("figures", {}).items():
        cur = current.get("figures", {}).get(name)
        if cur is None:
            regressions.append(f"{name}: missing from current run")
            continue
        if cur.get("failed", 0):
            regressions.append(
                f"{name}: {cur['failed']} spec(s) failed")
        ref_wall = ref.get("wall_seconds", 0.0)
        if (threshold > 0 and ref_wall > 0
                and cur.get("wall_seconds", 0.0)
                > ref_wall / threshold):
            regressions.append(
                f"{name}.wall_seconds: {cur['wall_seconds']:.1f}s > "
                f"reference {ref_wall:.1f}s / {threshold:g}")
    return regressions


def render_baseline(data: dict) -> str:
    """Compact human-readable rendering for the CLI."""
    lines = [f"bench baseline: {data['app']} scale={data['scale']} "
             f"seed={data['seed']}"]
    for mode, metrics in sorted(data["modes"].items()):
        lines.append(
            f"  {mode:15s} record {metrics['record_events_per_sec']:>12,.0f} ev/s"
            f"  replay {metrics['replay_events_per_sec']:>12,.0f} ev/s"
            f"  verified={'yes' if metrics['replay_verified'] else 'NO'}")
    for name, metrics in sorted(data["figures"].items()):
        lines.append(
            f"  {name:15s} {metrics['wall_seconds']:.2f}s wall "
            f"({metrics['specs']} specs, {metrics['jobs']} jobs, "
            f"{metrics['failed']} failed)")
    return "\n".join(lines)
