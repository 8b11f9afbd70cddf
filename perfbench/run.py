"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload record-replay --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``record-replay``, ``fig-sweep``, ``serve-mix`` (see
``workloads.py`` for what each exercises and why).  The seed becomes
the program seed, so one seed always gives the same inputs.

Standard output is a human-readable report (the per-workload figures
by name and unit, the reportable tail percentile with its sample
count, the error rate), then, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``, measured with no instrumentation.  With
``--trace 1`` the run is split: a third untraced, then two thirds
with every layer boundary in ``layers.py`` wrapped in spans; the
metrics are the per-layer metrics, and the spans are written as
Chrome/Perfetto JSON to ``perfbench/out/trace-<workload>-seed<N>.json``.

Every operation's outputs are checked: replays must verify, simulated
statistics must repeat exactly within the run and equal the stored
references in ``references.json`` where the seed has them, and serve
artifacts must match their submissions.  A failed check counts in
``failed``, never as a timing.  The simulated model is unvalidated
against real hardware, so no simulation-error figure is given.

``--record-references`` stores this run's simulated statistics as the
reference for its seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
UNTRACED_SHARE = 1 / 3

#: Times importing everything the benchmark drives, in a fresh
#: interpreter (argv: source root, checkout root).
_IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
                 "t = time.perf_counter(); import perfbench.workloads; "
                 "print(time.perf_counter() - t)")


def _import_program() -> None:
    """Put this checkout's sources first and insist they are used."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import repro from {src}: "
                         f"{error}")
    if Path(repro.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: repro resolved to {repro.__file__}, "
                         f"not to {src}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    return parser.parse_args(argv)


def _import_seconds() -> float:
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"), str(ROOT)],
        capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def _untraced(workload, seconds, log):
    from perfbench.measure import HostSpeed, median

    # Set-up is repeated: a fresh import, then the workload's own
    # set-up, each time normalized by a host-speed probe right after.
    speed = HostSpeed()
    setups = []
    state = None
    for _ in range(SETUP_REPS):
        if state is not None:
            workload.teardown(state)
        spent = _import_seconds()
        t0 = time.perf_counter()
        state = workload.setup()
        spent += time.perf_counter() - t0
        setups.append(spent / speed.probe())
    try:
        result = workload.run(state, seconds, log, speed)
    finally:
        workload.teardown(state)
    result["report"]["host slowdown"] = (speed.factor, "x reference")
    metrics = {
        "setup_s": median(setups),
        "op_ms_p50": result["op_ms_p50"],
        "ops_per_s": result["ops_per_s"],
        "sim_kips": result["sim_kips"],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, result


def _traced(workload, seconds, log, trace_path):
    from perfbench import layers, spans
    from perfbench.measure import HostSpeed

    speed = HostSpeed()
    state = workload.setup()
    try:
        plain = workload.run(state, seconds * UNTRACED_SHARE, log, speed)
        extra = workload.untraced_layer_metrics(state)
    finally:
        workload.teardown(state)

    tracer = spans.SpanTracer()
    undo = layers.install(tracer)
    started = time.perf_counter()
    try:
        state = workload.setup()
        try:
            traced = workload.run(state, seconds * (1 - UNTRACED_SHARE),
                                  log, speed, tracer)
        finally:
            workload.teardown(state)
    finally:
        ended = time.perf_counter()
        layers.uninstall(undo)

    self_seconds, unattributed = spans.attribute(tracer.toplevel(),
                                                 started, ended)
    metrics = layers.layer_metrics(tracer, self_seconds)
    metrics.update(extra)
    metrics.update(workload.traced_layer_metrics(plain, traced, tracer))
    metrics["bench.unattributed_s"] = unattributed
    metrics["bench.traced_wall_s"] = ended - started
    if plain["op_ms_p50"] > 0:
        metrics["bench.trace_overhead_ratio"] = (traced["op_ms_p50"]
                                                 / plain["op_ms_p50"])
    tracer.write_chrome(trace_path, started)
    attributed = sum(self_seconds.values())
    report = dict(traced["report"])
    report["layer self times"] = (attributed, "s")
    report["unattributed"] = (unattributed, "s")
    report["traced wall"] = (ended - started, "s")
    report["kept spans"] = (len(tracer.kept()), "count")
    report["dropped spans"] = (tracer.dropped, "count")
    traced = dict(traced, report=report)
    return metrics, traced


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from perfbench.measure import OpLog, tail
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r} "
                         f"(known: {', '.join(WORKLOADS)})")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    references_path = HERE / "references.json"
    references = json.loads(references_path.read_text())
    out = HERE / "out"
    scratch = out / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, scratch, references)
    log = OpLog()
    try:
        if args.trace:
            trace_path = out / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, result = _traced(workload, args.seconds, log,
                                      trace_path)
            wanted = bench["per_layer"]
        else:
            metrics, result = _untraced(workload, args.seconds, log)
            wanted = bench["end_to_end"]
            missing = [m["name"] for m in wanted if m["name"] not in metrics]
            if missing:
                raise SystemExit(f"perfbench: no value for {missing}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.record_references and workload.observed:
        references.setdefault(args.workload, {})[str(args.seed)] = \
            workload.observed
        references_path.write_text(
            json.dumps(references, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    for name, (value, unit) in result["report"].items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    op_tail = tail(result["op_seconds"])
    if op_tail["pct"] is not None:
        print(f"  {'op tail':28s} p{op_tail['pct']} = "
              f"{op_tail['value'] * 1e3:.2f} ms over "
              f"{op_tail['samples']} ops")
    else:
        print(f"  {'op tail':28s} too few ops ({op_tail['samples']}) "
              f"for a percentile with 10 beyond it")
    print(f"  {'error_rate':28s} {log.error_rate:14.4f} "
          f"({log.failed}/{log.attempted})")
    for problem in log.problems[:20]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print("  simulated model unvalidated against hardware: "
          "no simulation-error figure")
    print(json.dumps({
        "correct": log.failed == 0 and log.attempted > 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
