"""Section 6.1 text claims: DeLorean's log as a fraction of RTR/Strata.

Paper claims regenerated here, on this framework's own measured
baselines (the paper compares against *published* RTR/Strata numbers
from different applications, so it flags the comparison as rough --
ours is apples-to-apples on identical traces):

* OrderOnly needs ~16% of Basic RTR's compressed log;
* Stratified OrderOnly needs ~7.5%;
* PicoLog needs ~0.6%;
* against Strata: OrderOnly ~64% and PicoLog ~2% of the Strata log
  (per million memory operations).
"""

from repro.baselines import (
    ConsistencyModel,
    RTRRecorder,
    StrataRecorder,
)
from repro.core.modes import ExecutionMode

from harness import (
    SPLASH2,
    consistency_run,
    emit,
    record_app,
    run_once,
    splash2_gm,
)


def compute_ratios():
    per_app = {}
    for app in SPLASH2:
        sc = consistency_run(app, ConsistencyModel.SC,
                             collect_trace=True)
        instructions = sc["total_instructions"]
        rtr = RTRRecorder(8)
        rtr.process(sc["trace"])
        strata = StrataRecorder(8)
        strata.process(sc["trace"])
        strata.finish()
        rtr_bits = rtr.bits_per_proc_per_kiloinst(instructions)
        strata_bits = strata.compressed_size_bits()
        _, order_only = record_app(app, ExecutionMode.ORDER_ONLY)
        _, picolog = record_app(app, ExecutionMode.PICOLOG)
        oo_bits = order_only.log_bits_per_proc_per_kiloinst()
        ordering = order_only.memory_ordering
        strat_total_bits = (
            (ordering.stratified_pi_compressed_bits or 0)
            + ordering.cs_size_bits(True))
        strat_bits = (strat_total_bits * 1000.0
                      / order_only.total_committed_instructions)
        pico_bits = picolog.log_bits_per_proc_per_kiloinst()
        oo_total = ordering.total_size_bits(True)
        per_app[app] = {
            "rtr": rtr_bits,
            "oo_vs_rtr": 100 * oo_bits / rtr_bits if rtr_bits else 0.0,
            "strat_vs_rtr": (100 * strat_bits / rtr_bits
                             if rtr_bits else 0.0),
            "pico_vs_rtr": (100 * pico_bits / rtr_bits
                            if rtr_bits else 0.0),
            # Bytes per million memory ops, the Strata paper's metric.
            "oo_vs_strata": (100 * oo_total / strata_bits
                             if strata_bits else 0.0),
        }
    return per_app


def test_text_log_size_ratios(benchmark):
    per_app = run_once(benchmark, compute_ratios)
    rows = [[app,
             per_app[app]["rtr"],
             per_app[app]["oo_vs_rtr"],
             per_app[app]["strat_vs_rtr"],
             per_app[app]["pico_vs_rtr"]]
            for app in SPLASH2]
    gm = {key: splash2_gm({a: max(1e-6, per_app[a][key])
                           for a in SPLASH2})
          for key in ("rtr", "oo_vs_rtr", "strat_vs_rtr",
                      "pico_vs_rtr", "oo_vs_strata")}
    rows.append(["SP2-G.M.", gm["rtr"], gm["oo_vs_rtr"],
                 gm["strat_vs_rtr"], gm["pico_vs_rtr"]])
    emit("Section 6.1 -- DeLorean log as % of measured Basic RTR "
         "(compressed)",
         ["app", "RTR bits/p/ki", "OrderOnly %", "StratifiedOO %",
          "PicoLog %"], rows)
    print(f"Paper: OrderOnly 16%, Stratified 7.5%, PicoLog 0.6% of "
          f"Basic RTR; measured OrderOnly vs Strata: "
          f"{gm['oo_vs_strata']:.0f}% (paper: 64%)")

    # Shape assertions: the ordering and rough magnitudes hold.
    assert gm["oo_vs_rtr"] < 60.0          # paper: 16%
    assert gm["strat_vs_rtr"] < gm["oo_vs_rtr"]
    assert gm["pico_vs_rtr"] < 0.3 * gm["oo_vs_rtr"]  # paper: 0.6%
