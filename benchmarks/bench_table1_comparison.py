"""Table 1: comparing hardware-assisted full-system replay schemes.

The paper's Table 1 is the qualitative summary of the whole evaluation:
initial execution speed, memory-ordering log size, and replay speed for
FDR, Basic RTR, Strata, and DeLorean's OrderOnly and PicoLog modes.
This bench regenerates the table from *measured* values of this
reproduction (speeds as fractions of RC on the SPLASH-2 geometric mean;
log sizes in compressed bits per processor per kilo-instruction on the
same traces).
"""

from repro.baselines import (
    ConsistencyModel,
    FDRRecorder,
    RTRRecorder,
    StrataRecorder,
)
from repro.core.modes import ExecutionMode

from harness import (
    SPLASH2,
    consistency_run,
    emit,
    rc_cycles,
    record_app,
    replay_app,
    run_once,
    splash2_gm,
)


def _conventional_logs(app):
    sc = consistency_run(app, ConsistencyModel.SC, collect_trace=True)
    instructions = sc["total_instructions"]
    fdr = FDRRecorder(8)
    fdr.process(sc["trace"])
    rtr = RTRRecorder(8)
    rtr.process(sc["trace"])
    strata = StrataRecorder(8)
    strata.process(sc["trace"])
    strata.finish()
    return {
        "FDR": fdr.bits_per_proc_per_kiloinst(instructions),
        "RTR": rtr.bits_per_proc_per_kiloinst(instructions),
        "Strata": strata.bits_per_proc_per_kiloinst(instructions),
    }


def compute_table():
    speed = {"SC": {}, "OrderOnly": {}, "PicoLog": {}}
    logs = {"FDR": {}, "RTR": {}, "Strata": {}, "OrderOnly": {},
            "PicoLog": {}}
    replay = {"OrderOnly": {}, "PicoLog": {}}
    for app in SPLASH2:
        rc = rc_cycles(app)
        speed["SC"][app] = rc / consistency_run(
            app, ConsistencyModel.SC)["cycles"]
        conventional = _conventional_logs(app)
        for scheme, bits in conventional.items():
            logs[scheme][app] = bits
        for mode, name in ((ExecutionMode.ORDER_ONLY, "OrderOnly"),
                           (ExecutionMode.PICOLOG, "PicoLog")):
            _, recording = record_app(app, mode)
            speed[name][app] = rc / recording.stats.cycles
            logs[name][app] = recording.log_bits_per_proc_per_kiloinst()
            replay[name][app] = rc / replay_app(app, mode)["cycles"]
    return speed, logs, replay


def test_table1_scheme_comparison(benchmark):
    speed, logs, replay = run_once(benchmark, compute_table)

    def gm(mapping):
        return splash2_gm(mapping)

    rows = [
        ["FDR", f"SC ({gm(speed['SC']):.2f}x RC)",
         gm(logs["FDR"]), "not reported", "cache hier"],
        ["Basic RTR", f"SC ({gm(speed['SC']):.2f}x RC)",
         gm(logs["RTR"]), "not reported", "cache hier"],
        ["Strata", f"SC ({gm(speed['SC']):.2f}x RC)",
         gm(logs["Strata"]), "not reported", "very little"],
        ["DeLorean OrderOnly", f"{gm(speed['OrderOnly']):.2f}x RC",
         gm(logs["OrderOnly"]), f"{gm(replay['OrderOnly']):.2f}x RC",
         "BulkSC-class mem hier"],
        ["DeLorean PicoLog", f"{gm(speed['PicoLog']):.2f}x RC",
         gm(logs["PicoLog"]), f"{gm(replay['PicoLog']):.2f}x RC",
         "BulkSC-class mem hier"],
    ]
    emit("Table 1 -- scheme comparison (measured, SPLASH-2 G.M.; log "
         "sizes in compressed bits/proc/kilo-instruction)",
         ["scheme", "initial exec speed", "log size", "replay speed",
          "hardware"], rows)

    # The table's qualitative ordering must hold.
    assert gm(speed["OrderOnly"]) > gm(speed["SC"])
    assert gm(speed["PicoLog"]) > gm(speed["SC"])
    assert gm(logs["OrderOnly"]) < gm(logs["FDR"])
    assert gm(logs["OrderOnly"]) < gm(logs["RTR"])
    assert gm(logs["PicoLog"]) < 0.25 * gm(logs["OrderOnly"])
    assert gm(replay["OrderOnly"]) > gm(replay["PicoLog"])
