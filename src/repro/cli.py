"""Command-line interface: record, replay and inspect from a shell.

::

    python -m repro record fft -o fft.dlrn --scale 0.5
    python -m repro inspect fft.dlrn --timeline
    python -m repro replay fft.dlrn --perturb-seed 7
    python -m repro replay fft.dlrn --from-commit 80   # interval replay
    python -m repro modes barnes --scale 0.4 --jobs 4
    python -m repro bench fig10 fig11 --jobs 4         # parallel sweep

Workload names are the SPLASH-2 stand-ins (barnes, cholesky, fft, fmm,
lu, ocean, radiosity, radix, raytrace, water-ns, water-sp) plus sjbb2k
and sweb2005.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import textwrap

from repro.analysis.inspect import (
    commit_timeline,
    describe_recording,
    interleaving_strip,
    per_processor_summary,
)
from repro.analysis.compare import diff_recordings
from repro.analysis.races import find_contended_lines, replay_window_for
from repro.analysis.report import format_table
from repro.core.delorean import DeLoreanSystem
from repro.core.modes import ExecutionMode
from repro.core.replayer import ReplayPerturbation
from repro.core.serialization import load_recording, save_recording
from repro.errors import ReproError
from repro.faults import (
    FaultyJobFn,
    execute_chaos_spec,
    run_campaign,
)
from repro.runner.retry import RetryPolicy
from repro.runner import (
    KINDS,
    ConsoleReporter,
    NullReporter,
    ResultCache,
    Runner,
    RunSpec,
    reporter_from_option,
)
from repro.telemetry import (
    EventTracer,
    chrome_trace,
    commit_spans_per_track,
    diagnose_replay,
    write_events_jsonl,
)
from repro.runner.figures import (
    DEFAULT_APPS,
    FIGURES,
    resolve_figures,
    specs_for,
    validate_apps,
)
from repro.workloads import (
    BUG_ZOO,
    COMMERCIAL_APPS,
    SPLASH2_APPS,
    app_program,
)
from repro.workloads.stress import (
    handoff_program,
    racey_program,
    squash_livelock_program,
    starvation_program,
)

# Determinism-stress and stall-zoo workloads (repro.workloads.stress).
# The zoo specimens (starvation, squash-livelock) hang an unsupervised
# run by construction -- record them with --supervised.
STRESS_APPS = {
    "racey": lambda scale, seed: racey_program(
        rounds=max(1, int(240 * scale)), seed=seed),
    "handoff": lambda scale, seed: handoff_program(
        laps=max(1, int(12 * scale))),
    "starvation": lambda scale, seed: starvation_program(),
    "squash-livelock": lambda scale, seed: squash_livelock_program(),
}

_MODES = {
    "order-and-size": ExecutionMode.ORDER_AND_SIZE,
    "order-only": ExecutionMode.ORDER_ONLY,
    "picolog": ExecutionMode.PICOLOG,
    # Table 2's fourth quadrant, implemented to measure why the paper
    # dismissed it (see benchmarks/bench_table2_quadrants.py).
    "size-only": ExecutionMode.SIZE_ONLY,
}


def _program_for(args):
    if args.workload in STRESS_APPS:
        return STRESS_APPS[args.workload](args.scale, args.seed)
    return app_program(args.workload, scale=args.scale, seed=args.seed)


def _system_for(args) -> DeLoreanSystem:
    return DeLoreanSystem(
        mode=_MODES[args.mode],
        chunk_size=args.chunk_size,
        stratify=args.stratify,
    )


def _cmd_record(args) -> int:
    supervised = (args.supervised or args.deadline is not None
                  or args.max_log_bytes is not None
                  or args.journal is not None)
    if supervised:
        return _cmd_record_supervised(args)
    system = _system_for(args)
    recording = system.record(_program_for(args),
                              checkpoint_every=args.checkpoint_every)
    print(describe_recording(recording))
    if args.output:
        blob = save_recording(recording)
        with open(args.output, "wb") as handle:
            handle.write(blob)
        print(f"\nwrote {len(blob):,} bytes to {args.output}")
    return 0


def _cmd_record_supervised(args) -> int:
    from repro.guard import Budgets, save_segmented, supervise_record

    system = _system_for(args)
    budgets = Budgets(
        deadline_seconds=args.deadline,
        max_log_bytes_per_proc=args.max_log_bytes,
    )
    report = supervise_record(
        _program_for(args),
        mode=system.mode,
        mode_config=system.mode_config,
        budgets=budgets,
        journal_path=args.journal,
        flush_every=args.flush_every,
        degrade=not args.no_degrade,
        verify_segments=args.verify,
        stochastic_overflow_rate=system.stochastic_overflow_rate,
        checkpoint_every=args.checkpoint_every,
    )
    print("supervised record:")
    print(report.summary())
    if report.ok and args.output:
        blob = save_segmented(report.segmented)
        with open(args.output, "wb") as handle:
            handle.write(blob)
        print(f"wrote {len(blob):,} bytes to {args.output}")
    return 0 if report.ok else 2


def _load(path: str):
    with open(path, "rb") as handle:
        return load_recording(handle.read())


def _cmd_replay(args) -> int:
    recording = _load(args.recording)
    system = DeLoreanSystem(
        mode=recording.mode_config.mode,
        machine_config=recording.machine_config,
        mode_config=recording.mode_config,
    )
    perturbation = (ReplayPerturbation(seed=args.perturb_seed)
                    if args.perturb_seed is not None else None)
    if args.from_commit is not None:
        if args.strata:
            print("error: --strata cannot combine with --from-commit "
                  "(a checkpoint may fall inside a stratum)",
                  file=sys.stderr)
            return 2
        result = system.replay_interval(
            recording, at_commit=args.from_commit,
            perturbation=perturbation)
        print(f"interval replay from commit <= {args.from_commit}:")
    else:
        result = system.replay(recording, perturbation=perturbation,
                               use_strata=args.strata)
    print(f"  {result.determinism.summary()}")
    if recording.stats.cycles and args.from_commit is None:
        speed = recording.stats.cycles / result.cycles
        print(f"  replay took {result.cycles:,.0f} cycles "
              f"({speed:.2f}x the recording)")
    return 0 if result.determinism.matches else 1


def _mode_from_spelling(text: str) -> str:
    """Resolve a --mode spelling to its canonical label.

    Tolerant of separators: ``orderonly``, ``order_only`` and
    ``order-only`` all name the same mode.
    """
    key = text.lower().replace("-", "").replace("_", "")
    for label in _MODES:
        if label.replace("-", "") == key:
            return label
    raise ReproError(f"unknown mode {text!r} (expected one of: "
                     + ", ".join(sorted(_MODES)) + ")")


def _cmd_trace(args) -> int:
    label = _mode_from_spelling(args.mode)
    system = DeLoreanSystem(mode=_MODES[label],
                            chunk_size=args.chunk_size)
    record_tracer = (EventTracer()
                     if args.phase in ("record", "both") else None)
    recording = system.record(_program_for(args), tracer=record_tracer)
    tracer = record_tracer
    status = 0
    if args.phase in ("replay", "both"):
        replay_tracer = EventTracer()
        report = diagnose_replay(recording, tracer=replay_tracer)
        if report.diverged:
            print(report.render(), file=sys.stderr)
            status = 1
        else:
            print("replay verified: deterministic")
        if args.phase == "replay":
            tracer = replay_tracer
    stats = recording.stats
    document = chrome_trace(
        tracer.events,
        process_name=f"repro {args.workload} ({label})",
        metadata={
            "app": args.workload,
            "mode": label,
            "phase": args.phase,
            "scale": args.scale,
            "seed": args.seed,
            "run_stats": stats.as_dict(),
        })
    print(f"captured {len(tracer.events)} events on "
          f"{len(tracer.tracks())} tracks")
    if args.phase in ("record", "both"):
        # The artifact's acceptance invariant: per-processor commit
        # spans in the timeline equal the run's RunStats.
        spans = commit_spans_per_track(document)
        bad = sorted(
            proc for proc, pstats in stats.per_processor.items()
            if spans.get(f"p{proc}", 0) != pstats.chunks_committed)
        if bad:
            print(f"WARNING: trace commit spans disagree with "
                  f"RunStats on processor(s) {bad}", file=sys.stderr)
            status = status or 1
        else:
            total = sum(p.chunks_committed
                        for p in stats.per_processor.values())
            print(f"trace matches RunStats: {total} committed chunks "
                  f"across {len(stats.per_processor)} processors")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
            handle.write("\n")
        print(f"wrote Chrome-trace JSON to {args.out} "
              f"(load it in ui.perfetto.dev)")
    if args.events:
        write_events_jsonl(tracer.events, args.events)
        print(f"wrote event stream to {args.events}")
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            json.dump(tracer.metrics.as_dict(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote metrics to {args.metrics}")
    return status


def _cmd_inspect(args) -> int:
    recording = _load(args.recording)
    print(describe_recording(recording))
    print()
    print(per_processor_summary(recording))
    if args.timeline:
        print()
        print(commit_timeline(recording, limit=args.limit))
    if args.interleaving:
        print()
        print(interleaving_strip(recording))
    return 0


def _cmd_diff(args) -> int:
    left = _load(args.left)
    right = _load(args.right)
    diff = diff_recordings(left, right)
    print(diff.summary())
    return 0 if diff.identical else 1


def _cmd_races(args) -> int:
    recording = _load(args.recording)
    report = find_contended_lines(recording,
                                  include_dma=not args.no_dma)
    print(report.summary(top=args.top))
    if report.lines and args.replay:
        line = report.lines[0]
        start, length = replay_window_for(line)
        end = start + length - 1
        store = recording.interval_checkpoints
        if store is None or not len(store):
            print("error: the recording has no interval checkpoints; "
                  "record with --checkpoint-every N to enable "
                  "--replay", file=sys.stderr)
            return 2
        system = DeLoreanSystem(
            mode=recording.mode_config.mode,
            machine_config=recording.machine_config,
            mode_config=recording.mode_config,
        )
        if store.checkpoints[0].commit_index <= start:
            checkpoint = store.at_or_before(start)
            print(f"\nReplaying commits {checkpoint.commit_index}.."
                  f"{end} (checkpoint at {checkpoint.commit_index}, "
                  f"tightest pair in {start}..{end})...")
            result = system.replay_interval(
                recording, checkpoint=checkpoint,
                length=end - checkpoint.commit_index + 1)
        else:
            print(f"\nNo checkpoint precedes commit {start}; full "
                  f"replay instead (tightest pair in {start}..{end})"
                  f"...")
            result = system.replay(recording)
        print(f"  {result.determinism.summary()}")
        return 0 if result.determinism.matches else 1
    return 0


def _make_runner(args, default_reporter) -> Runner:
    """A Runner configured from the shared --jobs/--no-cache/--timeout
    (and, where offered, --report) options."""
    try:
        reporter = reporter_from_option(getattr(args, "report", None),
                                        default_reporter)
    except ValueError as error:
        raise ReproError(str(error)) from None
    return Runner(
        jobs=max(1, args.jobs),
        cache=False if args.no_cache else ResultCache(),
        timeout=getattr(args, "timeout", None),
        reporter=reporter,
    )


def _cmd_modes(args) -> int:
    # The mode comparison is itself a small sweep: 2 jobs per mode
    # (record + verified replay), fanned through the runner so
    # --jobs parallelizes it and repeated invocations hit the cache.
    specs: dict[str, tuple[RunSpec, RunSpec]] = {}
    for label, mode in _MODES.items():
        record = RunSpec.record(args.workload, mode, scale=args.scale,
                                seed=args.seed)
        replay = RunSpec.replay(
            args.workload, mode, scale=args.scale, seed=args.seed,
            perturb_seed=ReplayPerturbation().seed)
        specs[label] = (record, replay)
    with _make_runner(
            args, ConsoleReporter(verbose=args.jobs > 1)) as runner:
        artifacts = runner.artifacts_by_hash(
            [spec for pair in specs.values() for spec in pair])
    rows = []
    for label, (record, replay) in specs.items():
        recorded = artifacts.get(record.content_hash())
        replayed = artifacts.get(replay.content_hash())
        if recorded is None or replayed is None:
            rows.append([label, "FAILED", "-", "-"])
            continue
        metrics = recorded["metrics"]
        rows.append([
            label,
            f"{metrics['cycles']:,.0f}",
            f"{metrics['log_bits_per_proc_per_kiloinst_raw']:.2f}",
            "yes" if replayed["metrics"]["matches"] else "NO",
        ])
    print(format_table(
        ["mode", "record cycles", "log bits/proc/kinst",
         "replay verified"],
        rows, title=f"Execution-mode comparison on {args.workload}"))
    return 0 if runner.metrics.failed == 0 else 1


def _cmd_explore(args) -> int:
    from repro.explore import run_exploration

    app = args.workload
    if app in BUG_ZOO:
        app = f"zoo:{app}"
    label = _mode_from_spelling(args.mode)
    tracer = EventTracer()
    # The campaign runs many tiny waves; per-wave progress lines are
    # noise, so default to the null reporter (--report overrides).
    with _make_runner(args, NullReporter()) as runner:
        report = run_exploration(
            app, _MODES[label],
            budget=args.budget,
            campaign_seed=args.campaign_seed,
            change_points=args.change_points,
            stop_on_first=not args.exhaustive,
            bisect=not args.no_bisect,
            num_threads=args.threads,
            runner=runner, tracer=tracer)
    print(report.summary())
    for result in report.results:
        if result.outcome != "pass":
            print(f"  {result.outcome:10s} [{result.source}] "
                  f"{result.classification}: {result.detail}")
    bisection = report.bisection
    if bisection and "error" in bisection:
        print(f"  bisection failed: {bisection['error']}")
        bisection = None
    if bisection:
        print(f"  minimal repro: {bisection['prefix_length']} "
              f"prescribed grant(s) (full schedule "
              f"{bisection['full_length']}), first divergence at "
              f"commit {bisection['divergence_commit']}, "
              f"debugger-verified="
              f"{'yes' if bisection['verified'] else 'NO'} "
              f"({bisection['runs']} probe runs)")
        if args.dlrn_out and bisection.get("recording_b64"):
            import base64 as _base64

            blob = _base64.b64decode(bisection["recording_b64"])
            with open(args.dlrn_out, "wb") as handle:
                handle.write(blob)
            print(f"  wrote minimal repro to {args.dlrn_out} "
                  f"(load it with: python -m repro debug "
                  f"{args.dlrn_out})")
    if args.out:
        report.write_jsonl(args.out)
        print(f"wrote campaign report to {args.out}")
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            json.dump(tracer.metrics.as_dict(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote telemetry counters to {args.metrics}")
    found = bool(report.failures)
    if args.expect_failure:
        # CI smoke semantics: the campaign must find a reproducible
        # failure AND shrink it to a debugger-verified minimal repro.
        verified = bool(bisection and bisection.get("verified"))
        return 0 if found and verified else 1
    return 0 if report.clean else 1


def _cmd_bench(args) -> int:
    if args.list:
        rows = [[figure.name, figure.description]
                for figure in FIGURES.values()]
        print(format_table(["figure", "sweep"], rows,
                           title="Registered evaluation figures"))
        return 0
    figures = resolve_figures(args.figures)
    apps = validate_apps(args.apps) if args.apps else DEFAULT_APPS
    specs = specs_for(figures, apps=apps, scale=args.scale,
                      seed=args.seed)
    verbose = not args.quiet and args.jobs > 1
    with _make_runner(args, ConsoleReporter(verbose=verbose)) as runner:
        outcomes = runner.run(specs)
    artifacts = {outcome.spec.content_hash(): outcome.artifact
                 for outcome in outcomes if outcome.ok}
    for figure in figures:
        print()
        print(figure.render(artifacts, apps, args.scale, args.seed))
    print()
    print(f"runner: {runner.metrics.summary()}")
    failures = [outcome for outcome in outcomes if not outcome.ok]
    for outcome in failures:
        print(f"\n{outcome.failure.summary()}", file=sys.stderr)
    return 0 if not failures else 1


def _cmd_debug(args) -> int:
    from repro.debugger import (
        DebuggerShell,
        ReplayController,
        load_debug_target,
    )

    recording, stop_after = load_debug_target(
        args.artifact, segment=args.segment)
    controller = ReplayController(
        recording,
        checkpoint_every=args.checkpoint_every,
        verify=not args.no_verify,
        stop_after=stop_after,
    )
    print(f"loaded {recording.program.name}: "
          f"{len(recording.fingerprints)} commits, mode "
          f"{recording.mode_config.mode.name}")
    if args.script:
        with open(args.script, encoding="utf-8") as handle:
            shell = DebuggerShell(controller,
                                  session_log=args.session_log,
                                  stdin=handle)
            shell.cmdloop()
    else:
        shell = DebuggerShell(controller,
                              session_log=args.session_log)
        shell.cmdloop()
    return 0


def _cmd_chaos(args) -> int:
    label = _mode_from_spelling(args.mode)
    job_fn = execute_chaos_spec
    if args.worker_faults:
        # Wrap the job function so pool workers themselves crash and
        # dawdle -- exercising the retry/backoff hardening on top of
        # the data-corruption faults.
        job_fn = FaultyJobFn(
            job_fn=execute_chaos_spec,
            seed=args.plan_seed,
            state_dir=tempfile.mkdtemp(prefix="repro-chaos-"),
            crash_rate=0.2,
            slow_rate=0.3,
            slow_seconds=0.02,
        )
    with Runner(
        jobs=max(1, args.jobs),
        cache=False,
        timeout=args.timeout,
        retry=RetryPolicy(max_attempts=3, backoff_base=0.05,
                          backoff_max=0.5),
        reporter=ConsoleReporter(verbose=args.jobs > 1),
        job_fn=job_fn,
    ) as runner:
        report = run_campaign(
            args.workload, _MODES[label],
            scale=args.scale, seed=args.seed,
            plan_seed=args.plan_seed, fault_count=args.faults,
            checkpoint_every=args.checkpoint_every, runner=runner)
    for result in report.results:
        salvage = result.get("salvage")
        extra = ""
        if salvage:
            extra = (f"  coverage {salvage['coverage']:.0%} "
                     f"({salvage['verified_commits']}/"
                     f"{salvage['total_commits']} commits)")
        detected = result.get("detected_by") or ""
        print(f"  {result['fault_label']:<28} "
              f"{result['outcome']:<18} {detected}{extra}")
    for failure in report.failures:
        print(f"  JOB FAILED: {failure}")
    print(report.summary())
    if args.out:
        report.write_jsonl(args.out)
        print(f"wrote campaign report to {args.out}")
    return 0 if report.invariant_ok else 1


def _cmd_serve(args) -> int:
    import asyncio

    from repro.guard.limits import Budgets
    from repro.serve import ReproService
    from repro.serve.http import run_server
    from repro.telemetry.metrics import MetricsRegistry

    tracer = EventTracer() if args.trace_out else None
    cache = (ResultCache(args.cache_dir) if args.cache_dir
             else ResultCache())
    service = ReproService(
        args.data_dir,
        cache=cache,
        executor=args.executor,
        jobs=max(1, args.jobs),
        capacity=args.capacity,
        tenant_quota=args.tenant_quota,
        budgets=Budgets(deadline_seconds=args.deadline),
        metrics=MetricsRegistry(),
        tracer=tracer,
        auth_token=args.auth_token,
        lease_ttl=args.lease_ttl,
        max_lease_expiries=args.max_lease_expiries,
        degraded_after=args.degraded_after,
        segment_bytes=args.segment_bytes,
        compact_after=args.compact_after,
        retain_terminal=args.retain_terminal,
    )
    if service.queue.recovered_jobs:
        print(f"recovered {service.queue.recovered_jobs} job(s) from "
              f"the journal ({service.queue.requeued_jobs} requeued, "
              f"{service.queue.truncated_bytes} torn byte(s) "
              f"truncated)")

    def ready(server) -> None:
        print(f"serving on http://{server.host}:{server.port}  "
              f"(queue {args.data_dir}, cache {service.cache.root}, "
              f"{service.backend.name} x{service.jobs})", flush=True)
        if args.ready_file:
            # host/port handshake for tests and scripts using --port 0
            with open(args.ready_file, "w", encoding="utf-8") as fh:
                fh.write(f"{server.host} {server.port}\n")

    try:
        asyncio.run(run_server(service, args.host, args.port, ready))
    except KeyboardInterrupt:
        pass
    finally:
        if tracer is not None:
            document = chrome_trace(tracer.events,
                                    process_name="repro serve")
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump(document, fh, separators=(",", ":"))
                fh.write("\n")
            print(f"wrote serve trace to {args.trace_out}")
    return 0


def _parse_job_params(pairs) -> dict:
    """``--param key=value`` pairs; values parse as JSON when they
    can (numbers, booleans) and stay strings otherwise."""
    params: dict = {}
    for item in pairs or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ReproError(
                f"--param needs key=value, got {item!r}")
        try:
            params[key] = json.loads(value)
        except ValueError:
            params[key] = value
    return params


def _serve_client(args):
    from repro.serve.client import ServeClient

    return ServeClient(args.host, args.port,
                       token=getattr(args, "token", None))


def _cmd_worker(args) -> int:
    from repro.serve.worker import run_worker

    run_worker(
        args.host, args.port,
        worker_id=args.worker_id,
        token=args.token,
        cache_root=args.cache_dir,
        lease_ttl=args.lease_ttl,
        poll_interval=args.poll,
        max_jobs=args.max_jobs,
        idle_exit=args.idle_exit,
    )
    return 0


def _cmd_submit(args) -> int:
    from repro.errors import ServeError
    from repro.serve.model import TERMINAL_STATES

    client = _serve_client(args)
    params = _parse_job_params(args.param)
    try:
        job = client.submit(args.kind, params, tenant=args.tenant)
    except ServeError as error:
        if error.status == 429:
            print(f"shed: {error} (retry after "
                  f"{error.retry_after:g}s)", file=sys.stderr)
            return 3
        raise
    source = " (from cache)" if job.get("from_cache") else ""
    print(f"accepted {job['id']}: {job['kind']} -> "
          f"{job['state']}{source}")
    if job["state"] not in TERMINAL_STATES and args.follow:
        for _event_id, data in client.stream(job["id"]):
            snapshot = data["job"]
            print(f"  {snapshot['state']}"
                  + (f": {snapshot['error']}"
                     if snapshot.get("error") else ""))
        job = client.job(job["id"])
    elif job["state"] not in TERMINAL_STATES and args.wait:
        job = client.wait(job["id"], timeout=args.wait)
    if job["state"] == "done":
        print(f"artifact {job['artifact_hash']}")
        return 0
    if job["state"] == "failed":
        print(f"failed: {job['error']}", file=sys.stderr)
        return 1
    return 0


def _cmd_jobs(args) -> int:
    client = _serve_client(args)
    if args.follow:
        print("following job transitions (ctrl-c to stop)...")
        try:
            for event_id, data in client.stream(after=args.after):
                job = data["job"]
                print(f"  [{event_id}] {job['id']} "
                      f"{job['kind']:<12} {job['state']}"
                      + (f": {job['error']}" if job.get("error")
                         else ""))
        except KeyboardInterrupt:
            pass
        return 0
    jobs = client.jobs(tenant=args.tenant, state=args.state)
    if not jobs:
        print("no jobs")
        return 0
    rows = []
    for job in jobs:
        result = (job.get("artifact_hash") or "")[:12] \
            or (job.get("error") or "")[:32]
        rows.append([job["id"], job["kind"], job["state"],
                     job["tenant"],
                     "yes" if job.get("from_cache") else "",
                     result])
    print(format_table(
        ["job", "kind", "state", "tenant", "cached", "result"],
        rows, title=f"{len(jobs)} job(s)"))
    return 0


def _cmd_cache(args) -> int:
    cache = ResultCache(args.dir) if args.dir else ResultCache()
    action = args.cache_command
    if action == "stats":
        print(json.dumps(cache.stats(), indent=2, sort_keys=True))
        return 0
    if action == "gc":
        max_age = (args.max_age_days * 86400.0
                   if args.max_age_days is not None else None)
        if args.max_bytes is None and max_age is None:
            raise ReproError(
                "cache gc needs --max-bytes and/or --max-age-days")
        report = cache.gc(max_bytes=args.max_bytes,
                          max_age_seconds=max_age,
                          dry_run=args.dry_run)
        print(report.summary())
        if args.verbose:
            for spec_hash in report.evicted_hashes:
                print(f"  {spec_hash}")
        return 0
    if action in ("pin", "unpin"):
        for spec_hash in args.hashes:
            if action == "pin":
                cache.pin(spec_hash)
            else:
                cache.unpin(spec_hash)
        print(f"{action}ned {len(args.hashes)} artifact(s)")
        return 0
    raise ReproError(f"unknown cache action {action!r}")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DeLorean chunk-based deterministic record/replay",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    workloads = (sorted(SPLASH2_APPS) + sorted(COMMERCIAL_APPS)
                 + sorted(STRESS_APPS))

    def add_workload_options(p):
        p.add_argument("workload", choices=workloads)
        p.add_argument("--scale", type=float, default=0.5,
                       help="workload scale factor (default 0.5)")
        p.add_argument("--seed", type=int, default=1)

    record = sub.add_parser("record", help="record an execution")
    add_workload_options(record)
    record.add_argument("--mode", choices=sorted(_MODES),
                        default="order-only")
    record.add_argument("--chunk-size", type=int, default=None)
    record.add_argument("--stratify", action="store_true",
                        help="also stratify the PI log (Section 4.3)")
    record.add_argument("--checkpoint-every", type=int, default=0,
                        metavar="N",
                        help="take an interval checkpoint every N "
                             "commits")
    record.add_argument("--supervised", action="store_true",
                        help="run under repro.guard: watchdog stall "
                             "classification, budgets, degradation")
    record.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget (implies --supervised)")
    record.add_argument("--max-log-bytes", type=int, default=None,
                        metavar="BYTES",
                        help="per-processor log budget; on overflow "
                             "the session degrades to a safer mode "
                             "(implies --supervised)")
    record.add_argument("--journal", metavar="PATH", default=None,
                        help="write-ahead recording journal: flushed "
                             "prefixes survive a crash mid-record "
                             "(implies --supervised)")
    record.add_argument("--flush-every", type=int, default=25,
                        metavar="COMMITS",
                        help="journal flush granularity (default 25)")
    record.add_argument("--no-degrade", action="store_true",
                        help="fail on budget exhaustion instead of "
                             "degrading to a safer mode")
    record.add_argument("--verify", action="store_true",
                        help="replay-verify each supervised segment")
    record.add_argument("-o", "--output", help="write the recording "
                                               "to this file")
    record.set_defaults(func=_cmd_record)

    replay = sub.add_parser("replay",
                            help="deterministically replay a recording")
    replay.add_argument("recording")
    replay.add_argument("--perturb-seed", type=int, default=None,
                        help="inject the paper's replay-timing noise")
    replay.add_argument("--strata", action="store_true",
                        help="replay from the stratified PI log")
    replay.add_argument("--from-commit", type=int, default=None,
                        metavar="N",
                        help="interval replay from the newest "
                             "checkpoint at or before commit N")
    replay.set_defaults(func=_cmd_replay)

    trace = sub.add_parser(
        "trace",
        help="record (and optionally replay) a workload with the "
             "event tracer on and export a Perfetto timeline")
    trace.add_argument("--app", dest="workload", required=True,
                       choices=workloads, help="workload to trace")
    trace.add_argument("--mode", default="order-only",
                       help="execution mode (dashes optional: "
                            "orderonly == order-only)")
    trace.add_argument("--scale", type=float, default=0.5,
                       help="workload scale factor (default 0.5)")
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--chunk-size", type=int, default=None)
    trace.add_argument("--phase", choices=["record", "replay", "both"],
                       default="record",
                       help="which phase's timeline to export; replay "
                            "and both also verify determinism and "
                            "print forensics on divergence")
    trace.add_argument("--out", metavar="TRACE.json",
                       help="write the Chrome-trace/Perfetto JSON "
                            "here")
    trace.add_argument("--events", metavar="EVENTS.jsonl",
                       help="also write the raw event stream as "
                            "JSONL")
    trace.add_argument("--metrics", metavar="METRICS.json",
                       help="also write the flat metrics dump")
    trace.set_defaults(func=_cmd_trace)

    inspect = sub.add_parser("inspect", help="describe a recording")
    inspect.add_argument("recording")
    inspect.add_argument("--timeline", action="store_true")
    inspect.add_argument("--interleaving", action="store_true")
    inspect.add_argument("--limit", type=int, default=40)
    inspect.set_defaults(func=_cmd_inspect)

    def add_runner_options(p, timeout: bool = False):
        p.add_argument("-j", "--jobs", type=int, default=1,
                       help="worker processes for the sweep "
                            "(default 1 = serial)")
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache")
        p.add_argument("--report", default=None, metavar="REPORTER",
                       help="progress sink: console (default), null, "
                            "or jsonl:PATH (one JSON object per "
                            "sweep event)")
        if timeout:
            p.add_argument("--timeout", type=float, default=None,
                           metavar="SECONDS",
                           help="per-job wall-clock budget (failed "
                                "jobs are retried, then reported)")

    modes = sub.add_parser(
        "modes", help="compare the three execution modes on a workload")
    add_workload_options(modes)
    add_runner_options(modes)
    modes.set_defaults(func=_cmd_modes)

    bench = sub.add_parser(
        "bench",
        help="run evaluation-figure sweeps through the parallel "
             "runner (cached under .repro-cache/)")
    bench.add_argument("figures", nargs="*", metavar="FIGURE",
                       help="figures to run (default: all; see "
                            "--list)")
    bench.add_argument("--list", action="store_true",
                       help="list registered figures and exit")
    bench.add_argument("--apps", nargs="+", metavar="APP",
                       help="restrict the sweep to these workloads")
    bench.add_argument("--scale", type=float,
                       default=float(os.environ.get(
                           "REPRO_BENCH_SCALE", "1.0")),
                       help="workload scale factor (default: "
                            "$REPRO_BENCH_SCALE or 1.0, the harness "
                            "default -- matching hashes warm the "
                            "pytest bench cache)")
    bench.add_argument("--seed", type=int,
                       default=int(os.environ.get(
                           "REPRO_BENCH_SEED", "11")),
                       help="workload seed (default: "
                            "$REPRO_BENCH_SEED or 11)")
    bench.add_argument("--quiet", action="store_true",
                       help="suppress per-job progress lines")
    add_runner_options(bench, timeout=True)
    bench.set_defaults(func=_cmd_bench)

    explore = sub.add_parser(
        "explore",
        help="hunt schedule-dependent failures: perturb the commit-"
             "grant order (DPOR + PCT) on the deterministic "
             "substrate, then bisect any failure to a minimal "
             "debugger-loadable repro")
    explore.add_argument(
        "workload", choices=sorted(BUG_ZOO) + workloads,
        help="a bug-zoo specimen or any standard workload")
    explore.add_argument("--mode", default="order-only",
                         help="execution mode (separator-"
                              "insensitive); predefined-order modes "
                              "have a single schedule")
    explore.add_argument("--budget", type=int, default=64,
                         help="max schedules to explore (default 64)")
    explore.add_argument("--campaign-seed", type=int, default=0,
                         help="seed of the PCT trial stream (same "
                              "seed => byte-identical campaign)")
    explore.add_argument("--change-points", type=int, default=2,
                         help="PCT priority change points per trial "
                              "(default 2)")
    explore.add_argument("--threads", type=int, default=8,
                         help="simulated processors (default 8)")
    explore.add_argument("--exhaustive", action="store_true",
                         help="run the whole budget instead of "
                              "stopping at the first failure")
    explore.add_argument("--no-bisect", action="store_true",
                         help="skip shrinking the failing schedule")
    explore.add_argument("--expect-failure", action="store_true",
                         help="exit 0 only if a verified reproducible "
                              "failure was found (CI smoke); default "
                              "exit 0 = no failures found")
    explore.add_argument("--out", metavar="REPORT.jsonl",
                         help="write the JSONL campaign report here")
    explore.add_argument("--dlrn-out", metavar="REPRO.dlrn",
                         help="write the minimal repro recording "
                              "here (repro debug loads it)")
    explore.add_argument("--metrics", metavar="METRICS.json",
                         help="write the telemetry counters here")
    add_runner_options(explore, timeout=True)
    explore.set_defaults(func=_cmd_explore)

    races = sub.add_parser(
        "races", help="report cross-writer contention in a recording")
    races.add_argument("recording")
    races.add_argument("--top", type=int, default=10,
                       help="contended lines to show (default 10)")
    races.add_argument("--no-dma", action="store_true",
                       help="ignore DMA writes (processor-processor "
                            "contention only)")
    races.add_argument("--replay", action="store_true",
                       help="interval-replay the window around the "
                            "tightest cross-writer pair")
    races.set_defaults(func=_cmd_races)

    diff = sub.add_parser(
        "diff", help="find where two recordings of the same program "
                     "diverge")
    diff.add_argument("left")
    diff.add_argument("right")
    diff.set_defaults(func=_cmd_diff)

    debug = sub.add_parser(
        "debug",
        help="time-travel debug a recording (interactive REPL over "
             "deterministic replay)")
    debug.add_argument("artifact",
                       help="a .dlrn recording (a degraded record "
                            "holds several segments) or a runner "
                            "record artifact (JSON)")
    debug.add_argument("--segment", type=int, default=None,
                       metavar="N",
                       help="debug the file's recording N (default 0)")
    debug.add_argument("--script", metavar="FILE",
                       help="run debugger commands from FILE instead "
                            "of interactively")
    debug.add_argument("--session-log", metavar="JSONL",
                       help="append a JSONL record of the session "
                            "(commands, stops, printed state)")
    debug.add_argument("--checkpoint-every", type=int, default=64,
                       metavar="N",
                       help="debug-time restore points every N commits"
                            " (default 64); reverse steps re-execute "
                            "at most N-1 commits")
    debug.add_argument("--no-verify", action="store_true",
                       help="skip per-commit fingerprint verification "
                            "against the recording")
    debug.set_defaults(func=_cmd_debug)

    chaos = sub.add_parser(
        "chaos",
        help="record → inject seeded faults → replay/salvage, "
             "asserting detect-or-recover")
    add_workload_options(chaos)
    chaos.add_argument("--mode", default="order-only",
                       help="execution mode (separator-insensitive)")
    chaos_defaults = KINDS["chaos"].defaults
    chaos.add_argument("--faults", type=int,
                       default=chaos_defaults["fault_count"],
                       help="number of faults to draw from the plan")
    chaos.add_argument("--plan-seed", type=int,
                       default=chaos_defaults["plan_seed"],
                       help="fault-plan seed (same seed ⇒ same plan)")
    chaos.add_argument("--checkpoint-every", type=int,
                       default=chaos_defaults["checkpoint_every"],
                       metavar="N",
                       help="interval-checkpoint cadence of the "
                            "baseline recording (salvage resync "
                            "points)")
    chaos.add_argument("--jobs", type=int, default=1,
                       help="parallel campaign workers")
    chaos.add_argument("--timeout", type=float, default=None,
                       help="per-fault wall-clock budget (seconds)")
    chaos.add_argument("--worker-faults", action="store_true",
                       help="also inject worker crashes/slowdowns "
                            "into the pool")
    chaos.add_argument("--out", help="write the JSONL campaign report "
                                     "to this file")
    chaos.set_defaults(func=_cmd_chaos)

    serve = sub.add_parser(
        "serve",
        help="run record/replay as a service: durable job queue, "
             "HTTP submission, SSE streaming, artifact fetch")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="TCP port (0 = ephemeral; see "
                            "--ready-file)")
    serve.add_argument("--data-dir", default=".repro-serve",
                       metavar="DIR",
                       help="queue journal directory; accepted jobs "
                            "survive any crash (default .repro-serve)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="artifact cache root (default: the "
                            "runner's .repro-cache)")
    serve.add_argument("-j", "--jobs", type=int, default=1,
                       help="concurrent job workers (default 1)")
    serve.add_argument("--executor",
                       choices=["inline", "process", "remote"],
                       default=None,
                       help="execution backend (default: inline when "
                            "--jobs 1, else a process pool; 'remote' "
                            "serves a repro worker fleet and falls "
                            "back to a local pool while no worker "
                            "heartbeats)")
    serve.add_argument("--capacity", type=int, default=64,
                       help="max jobs in flight before submissions "
                            "shed with 429 (default 64)")
    serve.add_argument("--tenant-quota", type=int, default=32,
                       help="max in-flight jobs per tenant "
                            "(default 32)")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job wall-clock budget (guard "
                            "budget wiring; unset = unlimited)")
    serve.add_argument("--auth-token", metavar="TOKEN",
                       default=os.environ.get("REPRO_AUTH_TOKEN"),
                       help="shared-secret bearer token required on "
                            "submissions and all fleet calls "
                            "(default $REPRO_AUTH_TOKEN; unset = "
                            "open)")
    serve.add_argument("--lease-ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="worker lease TTL; a claimed job whose "
                            "worker stops heartbeating this long is "
                            "requeued (default 30)")
    serve.add_argument("--max-lease-expiries", type=int, default=None,
                       metavar="N",
                       help="lease expiries before a job is declared "
                            "poison and failed (default 3)")
    serve.add_argument("--degraded-after", type=float, default=None,
                       metavar="SECONDS",
                       help="with --executor remote: no worker "
                            "heartbeat for this long degrades to the "
                            "local fallback pool (default 15)")
    serve.add_argument("--segment-bytes", type=int, default=None,
                       metavar="BYTES",
                       help="rotate the queue journal at this size "
                            "(default 4 MiB)")
    serve.add_argument("--compact-after", type=int, default=None,
                       metavar="N",
                       help="compact the journal once this many "
                            "sealed segments accumulate (default 4)")
    serve.add_argument("--retain-terminal", type=int, default=None,
                       metavar="N",
                       help="compaction keeps at most this many "
                            "done/failed jobs (default: all)")
    serve.add_argument("--ready-file", metavar="PATH", default=None,
                       help="write 'host port' here once listening "
                            "(handshake for --port 0)")
    serve.add_argument("--trace-out", metavar="TRACE.json",
                       default=None,
                       help="write a Perfetto timeline of the serve "
                            "track on shutdown")
    serve.set_defaults(func=_cmd_serve)

    def add_client_options(p):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=8321)
        p.add_argument("--token", metavar="TOKEN",
                       default=os.environ.get("REPRO_AUTH_TOKEN"),
                       help="bearer token for servers started with "
                            "--auth-token (default $REPRO_AUTH_TOKEN)")

    worker = sub.add_parser(
        "worker",
        help="join a repro serve fleet: claim jobs under a lease, "
             "heartbeat while executing, upload verified artifacts")
    worker.add_argument("--worker-id", default=None, metavar="ID",
                        help="stable worker name (default "
                             "hostname-pid)")
    worker.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="local artifact cache for dependency "
                             "reuse (default: the runner's "
                             ".repro-cache)")
    worker.add_argument("--lease-ttl", type=float, default=None,
                        metavar="SECONDS",
                        help="ask for this lease TTL when claiming "
                             "(default: the server's)")
    worker.add_argument("--poll", type=float, default=0.5,
                        metavar="SECONDS",
                        help="idle delay between claim attempts "
                             "(default 0.5)")
    worker.add_argument("--max-jobs", type=int, default=None,
                        metavar="N",
                        help="exit after completing N jobs (tests/CI)")
    worker.add_argument("--idle-exit", type=float, default=None,
                        metavar="SECONDS",
                        help="exit once the queue stays empty this "
                             "long (tests/CI)")
    add_client_options(worker)
    worker.set_defaults(func=_cmd_worker)

    submit = sub.add_parser(
        "submit", help="submit one job to a running repro serve",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="job parameters, by kind:\n" + "\n".join(
            textwrap.fill(", ".join(kind.params), width=76,
                          initial_indent=f"  {kind.name:<12}",
                          subsequent_indent=" " * 14)
            for kind in KINDS.values()))
    submit.add_argument("kind", choices=list(KINDS))
    submit.add_argument("--param", action="append", metavar="K=V",
                        help="job parameter (repeatable); values "
                             "parse as JSON when possible, e.g. "
                             "--param app=fft --param scale=0.3")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--follow", action="store_true",
                        help="stream the job's transitions (SSE) "
                             "until it finishes")
    submit.add_argument("--wait", type=float, default=None,
                        metavar="SECONDS",
                        help="wait (on the job's SSE stream) until "
                             "terminal, up to SECONDS")
    add_client_options(submit)
    submit.set_defaults(func=_cmd_submit)

    jobs_cmd = sub.add_parser(
        "jobs", help="list (or follow) jobs on a running repro serve")
    jobs_cmd.add_argument("--tenant", default=None)
    jobs_cmd.add_argument("--state", default=None,
                          choices=["queued", "running", "done",
                                   "failed"])
    jobs_cmd.add_argument("--follow", action="store_true",
                          help="stream every transition (SSE) instead "
                               "of listing")
    jobs_cmd.add_argument("--after", type=int, default=0,
                          help="with --follow: resume after this "
                               "event id")
    add_client_options(jobs_cmd)
    jobs_cmd.set_defaults(func=_cmd_jobs)

    cache_cmd = sub.add_parser(
        "cache", help="inspect and garbage-collect the result cache")
    cache_sub = cache_cmd.add_subparsers(dest="cache_command",
                                         required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="on-disk inventory and hit/miss counters")
    cache_gc = cache_sub.add_parser(
        "gc", help="evict least-recently-used artifacts")
    cache_gc.add_argument("--max-bytes", type=int, default=None,
                          help="evict oldest artifacts until at most "
                               "this many bytes remain")
    cache_gc.add_argument("--max-age-days", type=float, default=None,
                          help="evict artifacts idle longer than this")
    cache_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be evicted without "
                               "deleting")
    cache_gc.add_argument("--verbose", action="store_true",
                          help="list evicted artifact hashes")
    cache_pin = cache_sub.add_parser(
        "pin", help="exempt artifacts from gc eviction")
    cache_pin.add_argument("hashes", nargs="+", metavar="HASH")
    cache_unpin = cache_sub.add_parser(
        "unpin", help="remove artifacts' eviction exemption")
    cache_unpin.add_argument("hashes", nargs="+", metavar="HASH")
    for p in (cache_stats, cache_gc, cache_pin, cache_unpin):
        p.add_argument("--dir", default=None, metavar="DIR",
                       help="cache root (default .repro-cache or "
                            "$REPRO_CACHE_DIR)")
    cache_cmd.set_defaults(func=_cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
