"""Figure 11: execution vs replay performance, normalized to RC.

Paper series: OrderOnly, Stratified OrderOnly and PicoLog, each during
the initial execution and during replay under the Section 6.2.1
methodology (parallel commit disabled, 50-cycle arbitration, random
10-300-cycle stalls before 30% of commits, 1.5% cache-hit/miss flips).
Headline shape: OrderOnly and Stratified OrderOnly replay at ~82% of
RC; PicoLog replays at ~72%; replay is always slower than recording;
every replay is bit-exact deterministic (asserted).
"""

from repro.core.modes import ExecutionMode

from harness import (
    ALL_APPS,
    PAPER,
    SPLASH2,
    emit,
    prefetch,
    rc_cycles,
    record_app,
    replay_app,
    run_once,
    splash2_gm,
)


def compute_figure():
    prefetch("fig11")   # fans the whole sweep out when REPRO_BENCH_JOBS>1
    results = {}
    for app in ALL_APPS:
        rc = rc_cycles(app)
        _, order_only = record_app(app, ExecutionMode.ORDER_ONLY)
        oo_replay = replay_app(app, ExecutionMode.ORDER_ONLY)
        strat_replay = replay_app(app, ExecutionMode.ORDER_ONLY,
                                  use_strata=True)
        _, picolog = record_app(app, ExecutionMode.PICOLOG)
        pico_replay = replay_app(app, ExecutionMode.PICOLOG)
        results[app] = {
            "OO exec": rc / order_only.stats.cycles,
            "OO replay": rc / oo_replay["cycles"],
            "StratOO replay": rc / strat_replay["cycles"],
            "Pico exec": rc / picolog.stats.cycles,
            "Pico replay": rc / pico_replay["cycles"],
        }
    return results


SERIES = ["OO exec", "OO replay", "StratOO replay", "Pico exec",
          "Pico replay"]


def test_fig11_replay_speed(benchmark):
    results = run_once(benchmark, compute_figure)
    rows = [[app] + [results[app][s] for s in SERIES]
            for app in SPLASH2]
    rows.append(["SP2-G.M."] + [
        splash2_gm({a: results[a][s] for a in SPLASH2})
        for s in SERIES])
    for app in ("sjbb2k", "sweb2005"):
        rows.append([app] + [results[app][s] for s in SERIES])
    emit("Figure 11 -- execution and replay speedup normalized to RC",
         ["app"] + SERIES, rows)
    gm = {s: splash2_gm({a: results[a][s] for a in SPLASH2})
          for s in SERIES}
    from repro.analysis.charts import bar_chart
    print()
    print(bar_chart(SERIES, [gm[s] for s in SERIES],
                    title="Figure 11, SP2-G.M. (bars):", unit="x RC"))
    print(f"Paper: OrderOnly replay "
          f"{PAPER['orderonly_replay_vs_rc']}, PicoLog replay "
          f"{PAPER['picolog_replay_vs_rc']} of RC")

    # Shape assertions.
    assert 0.74 < gm["OO replay"] < 0.95       # paper: 0.82
    assert 0.60 < gm["Pico replay"] < 0.85     # paper: 0.72
    assert gm["Pico replay"] < gm["OO replay"]
    # Stratification does not hurt replay speed noticeably.
    assert abs(gm["StratOO replay"] - gm["OO replay"]) < 0.08
    for app in ALL_APPS:                       # replay < execution
        assert results[app]["OO replay"] < results[app]["OO exec"]
        assert results[app]["Pico replay"] <= results[app][
            "Pico exec"] * 1.02
