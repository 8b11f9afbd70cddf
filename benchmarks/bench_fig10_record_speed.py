"""Figure 10: performance during the initial execution, normalized to RC.

Paper bars per application (plus SP2-G.M., SPECjbb2000, SPECweb2005):
RC, BulkSC, Order&Size, OrderOnly, Stratified OrderOnly, PicoLog, SC.
Headline shape: Order&Size/OrderOnly within 2-3% of RC; PicoLog at 86%
of RC; SC at 79%; every DeLorean mode outruns SC.

Modeling note: DeLorean's logging adds no modeled latency on top of the
BulkSC substrate (the paper measures it as negligible), so the BulkSC
and Stratified-OrderOnly bars share OrderOnly's machine timing here and
are reported as such.
"""

from repro.baselines import ConsistencyModel
from repro.core.modes import ExecutionMode

from harness import (
    ALL_APPS,
    PAPER,
    SPLASH2,
    consistency_run,
    emit,
    prefetch,
    rc_cycles,
    record_app,
    run_once,
    splash2_gm,
)


def compute_figure():
    prefetch("fig10")   # fans the whole sweep out when REPRO_BENCH_JOBS>1
    results = {}
    for app in ALL_APPS:
        rc = rc_cycles(app)
        sc = consistency_run(app, ConsistencyModel.SC)["cycles"]
        _, order_size = record_app(app, ExecutionMode.ORDER_AND_SIZE)
        _, order_only = record_app(app, ExecutionMode.ORDER_ONLY)
        _, picolog = record_app(app, ExecutionMode.PICOLOG)
        results[app] = {
            "RC": 1.0,
            "BulkSC": rc / order_only.stats.cycles,
            "Order&Size": rc / order_size.stats.cycles,
            "OrderOnly": rc / order_only.stats.cycles,
            "StratOO": rc / order_only.stats.cycles,
            "PicoLog": rc / picolog.stats.cycles,
            "SC": rc / sc,
        }
    return results


BARS = ["RC", "BulkSC", "Order&Size", "OrderOnly", "StratOO",
        "PicoLog", "SC"]


def test_fig10_record_speed(benchmark):
    results = run_once(benchmark, compute_figure)
    rows = []
    for app in SPLASH2:
        rows.append([app] + [results[app][bar] for bar in BARS])
    rows.append(["SP2-G.M."] + [
        splash2_gm({a: results[a][bar] for a in SPLASH2})
        for bar in BARS])
    for app in ("sjbb2k", "sweb2005"):
        rows.append([app] + [results[app][bar] for bar in BARS])
    emit("Figure 10 -- initial-execution speedup normalized to RC",
         ["app"] + BARS, rows)
    gm = {bar: splash2_gm({a: results[a][bar] for a in SPLASH2})
          for bar in BARS}
    from repro.analysis.charts import bar_chart
    print()
    print(bar_chart(BARS, [gm[bar] for bar in BARS],
                    title="Figure 10, SP2-G.M. (bars):", unit="x RC"))
    print(f"Paper: OrderOnly ~{PAPER['orderonly_record_vs_rc']}, "
          f"PicoLog {PAPER['picolog_record_vs_rc']}, "
          f"SC {PAPER['sc_speed_vs_rc']} of RC")

    # Shape assertions (the paper's Section 6.2 claims).
    assert gm["OrderOnly"] > 0.93          # records ~at RC speed
    assert gm["Order&Size"] > 0.90
    assert 0.78 < gm["PicoLog"] < 0.97     # paper: 0.86
    assert 0.70 < gm["SC"] < 0.86          # paper: 0.79
    assert gm["PicoLog"] > gm["SC"]        # PicoLog still beats SC
    # Every mode beats SC per SPLASH-2 app.  (The commercial apps'
    # PicoLog bars can dip below SC in this model -- interrupt slot
    # gating and DMA arbitration serialize against the token; see
    # EXPERIMENTS.md.)
    for app in SPLASH2:
        for bar in ("Order&Size", "OrderOnly", "PicoLog"):
            assert results[app][bar] > results[app]["SC"] * 0.98, (
                app, bar)
