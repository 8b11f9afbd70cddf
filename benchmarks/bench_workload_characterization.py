"""Workload characterization: evidence for the substitution argument.

DESIGN.md claims the synthetic workloads reproduce the *sharing
structure* that drives DeLorean's results.  This bench profiles every
stand-in on the quantities that matter and asserts the per-app
qualitative contrasts the presets encode:

* chunk-conflict (squash) rate -- low everywhere, highest for the
  paper's outliers (radix, raytrace);
* cross-thread dependence density (what FDR/RTR must log) -- orders of
  magnitude above the squash rate (temporally-distant sharing);
* spin share -- the lock/barrier apps spin, the data-parallel ones
  don't;
* system-reference profile -- only the commercial apps have
  interrupts/DMA/IO.
"""

from repro.baselines import ConsistencyModel, FDRRecorder
from repro.core.modes import ExecutionMode

from harness import (
    ALL_APPS,
    COMMERCIAL,
    SPLASH2,
    consistency_run,
    emit,
    record_app,
    run_once,
)

_SCALE = 0.5


def profile(app: str):
    _, recording = record_app(app, ExecutionMode.ORDER_ONLY,
                              scale_key=_SCALE)
    stats = recording.stats
    trace_run = consistency_run(app, ConsistencyModel.SC,
                                collect_trace=True, scale_key=_SCALE)
    fdr = FDRRecorder(8)
    fdr.process(trace_run["trace"])
    instructions = max(1, trace_run["total_instructions"])
    spin = sum(p.spin_instructions
               for p in stats.per_processor.values())
    return {
        "squash_rate": stats.squash_rate,
        "deps_per_kinst": (fdr.raw_dependences * 1000.0
                           / instructions),
        "spin_pct": 100.0 * spin / max(
            1, stats.total_committed_instructions),
        "handlers": stats.handler_chunks,
        "dma": stats.dma_commits,
        "io_truncations": stats.io_truncations,
    }


def compute_profiles():
    return {app: profile(app) for app in ALL_APPS}


def test_workload_characterization(benchmark):
    profiles = run_once(benchmark, compute_profiles)
    rows = [[app,
             profiles[app]["squash_rate"],
             profiles[app]["deps_per_kinst"],
             profiles[app]["spin_pct"],
             profiles[app]["handlers"],
             profiles[app]["dma"],
             profiles[app]["io_truncations"]]
            for app in ALL_APPS]
    emit("Workload characterization (OrderOnly record + SC trace)",
         ["app", "squash/chunk", "deps/kinst", "spin %",
          "handlers", "DMA", "IO truncs"], rows)

    # The paper's conflict outliers stand out against the quiet apps.
    quiet = min(profiles[a]["squash_rate"]
                for a in ("water-sp", "ocean", "barnes"))
    assert profiles["radix"]["squash_rate"] >= quiet
    assert (max(profiles["radix"]["squash_rate"],
                profiles["raytrace"]["squash_rate"])
            > 2 * max(0.005, quiet))
    # Dependences exist even where conflicts are near-zero: sharing is
    # mostly temporally distant, as in real programs.
    for app in ("fft", "lu", "ocean"):
        assert profiles[app]["squash_rate"] < 0.1, app
        assert profiles[app]["deps_per_kinst"] > 0.02, app
    # Only commercial workloads carry system references (Section 5).
    for app in SPLASH2:
        assert profiles[app]["handlers"] == 0, app
        assert profiles[app]["dma"] == 0, app
    for app in COMMERCIAL:
        assert profiles[app]["handlers"] > 0, app
        assert profiles[app]["dma"] > 0, app
        assert profiles[app]["io_truncations"] > 0, app
    # Spinning never dominates: waiting is bounded by the conflict
    # rates above (at this scale most lock acquisitions are
    # uncontended, so spin shares round to zero).
    for app in ALL_APPS:
        assert profiles[app]["spin_pct"] < 40.0, app
