"""Shared infrastructure for the benchmark/experiment harness.

Every table and figure of the paper's evaluation (Section 6) has one
bench module that regenerates it.  Simulation runs are described as
:class:`~repro.runner.specs.RunSpec` jobs and executed through the
:class:`~repro.runner.pool.Runner`, which backs them with the
content-addressed result cache under ``.repro-cache/``: figures that
share runs (e.g. the Figure 10 RC baselines and the Figure 11 replays)
pay for them once, and a re-run of the whole suite with a warm cache
is near-instant.

Unlike the old ``lru_cache`` scheme, callers never share mutable
result objects across figures: every ``record_app``/``replay_app``/
``consistency_run`` call materializes a *fresh* object from the
immutable cached artifact, and the artifact encoding is deterministic
(same spec hash => byte-identical bytes), so one figure mutating a
recording can no longer contaminate another.

Environment knobs:

* ``REPRO_BENCH_SCALE`` -- workload scale factor (default 1.0, the full
  synthetic workload size).  Lower it for quick smoke runs.
* ``REPRO_BENCH_SEED`` -- workload seed (default 11).
* ``REPRO_BENCH_JOBS`` -- worker processes for prefetched sweeps
  (default 1 = inline; same engine as ``python -m repro bench -j N``).
* ``REPRO_BENCH_NO_CACHE`` -- set to 1 to bypass the on-disk cache.
* ``REPRO_CACHE_DIR`` -- cache root (default ``.repro-cache``).
"""

from __future__ import annotations

import atexit
import os

from repro.analysis.report import format_table, geometric_mean
from repro.baselines import ConsistencyModel
from repro.core.delorean import DeLoreanSystem
from repro.core.modes import ExecutionMode
from repro.runner import ResultCache, Runner, RunSpec
from repro.runner.figures import FIGURES, specs_for
from repro.runner.jobs import (
    recording_from_artifact,
    result_from_artifact,
)
from repro.workloads import SPLASH2_APPS, app_program

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "11"))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
NO_CACHE = os.environ.get("REPRO_BENCH_NO_CACHE", "0") not in ("", "0")

SPLASH2 = list(SPLASH2_APPS)
COMMERCIAL = ["sjbb2k", "sweb2005"]
ALL_APPS = SPLASH2 + COMMERCIAL

#: The paper's estimated compressed Basic-RTR log size, shown as the
#: reference line of Figures 6-8 (about 1 byte/proc/kiloinstruction).
PAPER_RTR_BITS_PER_PROC_PER_KILOINST = 8.0

#: Paper-reported headline numbers (EXPERIMENTS.md compares against
#: these).
PAPER = {
    "sc_speed_vs_rc": 0.79,
    "orderonly_record_vs_rc": 0.98,
    "picolog_record_vs_rc": 0.86,
    "orderonly_replay_vs_rc": 0.82,
    "picolog_replay_vs_rc": 0.72,
    "orderonly_log_bits_compressed": 1.3,
    "orderonly_log_bits_raw": 2.1,
    "picolog_log_bits_compressed": 0.05,
    "stratified_pi_reduction": 0.54,
}

_RUNNER: Runner | None = None
#: In-process memo of immutable artifacts (hash -> artifact).  Results
#: are *materialized fresh* from these on every call.
_ARTIFACTS: dict[str, dict] = {}


def runner() -> Runner:
    """The session's shared runner (workers/cache from the env)."""
    global _RUNNER
    if _RUNNER is None:
        _RUNNER = Runner(jobs=max(1, JOBS),
                         cache=False if NO_CACHE else ResultCache())
        # One worker pool for the whole session, shut down at exit.
        atexit.register(_RUNNER.close)
    return _RUNNER


def _artifact(spec: RunSpec) -> dict:
    artifact = _ARTIFACTS.get(spec.content_hash())
    if artifact is None:
        artifact = runner().run_one(spec)
        _ARTIFACTS[spec.content_hash()] = artifact
    return artifact


def prefetch(*figure_names: str) -> None:
    """Fan a figure's whole spec batch through the runner up front.

    With ``REPRO_BENCH_JOBS > 1`` this parallelizes the figure's
    simulations; the per-run helpers below then serve everything from
    the (in-process or on-disk) cache.  Serial runs lose nothing: the
    same jobs would have run one-by-one anyway.
    """
    figures = [FIGURES[name] for name in figure_names]
    specs = specs_for(figures, apps=tuple(ALL_APPS), scale=SCALE,
                      seed=SEED)
    for outcome in runner().run(specs):
        if outcome.ok:
            _ARTIFACTS[outcome.spec.content_hash()] = outcome.artifact


def program_for(app: str, num_threads: int = 8, scale: float | None = None):
    """The app's (immutable, memoized) Program at the harness seed."""
    scale = SCALE if scale is None else scale
    return app_program(app, scale=scale, seed=SEED,
                       num_threads=num_threads)


def record_app(app: str, mode: ExecutionMode, chunk_size: int = 0,
               num_threads: int = 8, simultaneous: int = 0,
               scale_key: float = -1.0):
    """Cached recording of one app under one configuration.

    ``chunk_size=0`` means the mode's preferred size; ``simultaneous=0``
    means the Table 5 default (2).  Returns (system, recording) -- a
    fresh pair materialized from the cached artifact.
    """
    scale = SCALE if scale_key < 0 else scale_key
    spec = RunSpec.record(app, mode, chunk_size=chunk_size,
                          num_threads=num_threads,
                          simultaneous=simultaneous, scale=scale,
                          seed=SEED)
    recording = recording_from_artifact(_artifact(spec))
    system = DeLoreanSystem(
        mode=recording.mode_config.mode,
        machine_config=recording.machine_config,
        mode_config=recording.mode_config,
    )
    return system, recording


def replay_app(app: str, mode: ExecutionMode, use_strata: bool = False,
               scale_key: float = -1.0):
    """Cached perturbed replay of one app (Section 6.2.1 methodology)."""
    scale = SCALE if scale_key < 0 else scale_key
    spec = RunSpec.replay(app, mode, use_strata=use_strata,
                          scale=scale, seed=SEED)
    result = result_from_artifact(_artifact(spec))
    assert result.determinism.matches, (
        f"replay diverged for {app}/{mode}: "
        f"{result.determinism.summary()}")
    return result


def consistency_run(app: str, model: ConsistencyModel,
                    num_threads: int = 8, collect_trace: bool = False,
                    scale_key: float = -1.0):
    """Cached interleaved (conventional-machine) run of one app."""
    scale = SCALE if scale_key < 0 else scale_key
    spec = RunSpec.consistency(app, model, num_threads=num_threads,
                               collect_trace=collect_trace,
                               scale=scale, seed=SEED)
    return result_from_artifact(_artifact(spec))


def rc_cycles(app: str, num_threads: int = 8,
              scale_key: float = -1.0) -> float:
    """RC-baseline cycle count (the Figure 10/11/12 normalizer)."""
    scale = SCALE if scale_key < 0 else scale_key
    spec = RunSpec.consistency(app, ConsistencyModel.RC,
                               num_threads=num_threads, scale=scale,
                               seed=SEED)
    return _artifact(spec)["metrics"]["cycles"]


def splash2_gm(values_by_app: dict[str, float]) -> float:
    """Geometric mean over the SPLASH-2 apps (the paper's SP2-G.M.)."""
    return geometric_mean([values_by_app[app] for app in SPLASH2
                           if app in values_by_app])


def emit(title: str, headers, rows) -> None:
    """Print one paper-style table (captured by pytest -s or the
    benchmark log)."""
    print()
    print(format_table(headers, rows, title=title))


def run_once(benchmark, func):
    """Register ``func`` with pytest-benchmark, executing it exactly
    once (these are experiment reproductions, not microbenchmarks)."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
