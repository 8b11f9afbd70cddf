"""The exploration driver: pooled schedule runs and the campaign loop.

Two layers:

* :func:`execute_explore_spec` is the *worker* -- the ``explore``
  entry in the runner's job table.  One call = one schedule: it
  re-records the workload under the spec's
  :class:`~repro.core.arbiter.SchedulePlan` (supervised, with the
  guard's deterministic event budget bounding the run -- no wall-clock
  in the worker, so artifacts stay byte-stable and cache-sound),
  captures the per-commit access sets for the DPOR frontier, checks
  the workload invariant, replay-verifies any violation, and packages
  everything as a standard runner artifact.

* :func:`run_exploration` is the *campaign*: baseline run first, then
  waves of schedules through a :class:`~repro.runner.pool.Runner` --
  DPOR frontier branches before PCT trials -- classifying outcomes,
  expanding the frontier from every completed schedule, and bisecting
  the first failure to a minimal debugger-verified repro.

Outcome vocabulary (see :data:`repro.explore.report.EXPLORE_OUTCOMES`):
``failure`` is reserved for violations that *replay
deterministically* -- a reproducible schedule-dependent bug.  A
violation whose recording diverges on replay is a ``divergence``
(substrate bug), and a run the guard had to kill is a ``stall``.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from dataclasses import replace as _replace

from repro.core.arbiter import SchedulePlan
from repro.core.modes import ExecutionMode, preferred_config
from repro.errors import ConfigurationError
from repro.explore.bisect import minimize_schedule
from repro.explore.frontier import Frontier
from repro.explore.plans import pct_plan
from repro.explore.report import ExploreReport, ScheduleResult
from repro.machine.system import MachineObserver

#: Fallback schedule-length estimate when the baseline produced no
#: grants (degenerate program); keeps PCT sampling well-defined.
_MIN_DEPTH = 2


class _AccessCapture(MachineObserver):
    """Each processor commit's exact read/write line sets, in commit
    order (the DPOR frontier's food)."""

    def __init__(self) -> None:
        self.accesses: list[tuple] = []

    def on_commit(self, chunk, fingerprint, count) -> None:
        self.accesses.append((chunk.processor,
                              tuple(sorted(chunk.read_lines)),
                              tuple(sorted(chunk.write_lines))))


def _invariant_for(spec):
    """The workload's final-memory invariant, if it declares one."""
    if spec.app.startswith("zoo:"):
        from repro.workloads.bugzoo import zoo_specimen

        return zoo_specimen(spec.app[len("zoo:"):]).check
    return None


def execute_explore_spec(spec, cache=None) -> dict:
    """Run one schedule-perturbed supervised record and classify it.

    The runner's ``explore`` job function.  Returns a standard
    artifact whose ``metrics`` carry the classified ``outcome``, the
    observed ``grant_order`` and per-commit ``accesses`` (the DPOR
    frontier's food), and whose payload is the ``.dlrn`` recording
    whenever the run completed.
    """
    from repro.guard.supervisor import supervise_record
    from repro.machine.system import replay_execution
    from repro.runner.jobs import base_artifact, program_for

    if spec.kind != "explore":
        raise ConfigurationError(
            f"execute_explore_spec got a {spec.kind!r} spec")
    program = program_for(spec)
    plan = spec.schedule_plan()
    mode = spec.execution_mode()
    mode_config = preferred_config(mode)
    if spec.chunk_size:
        mode_config = _replace(mode_config,
                               standard_chunk_size=spec.chunk_size)

    capture = _AccessCapture()
    report = supervise_record(
        program,
        mode=mode,
        machine_config=spec.machine_config(),
        mode_config=mode_config,
        degrade=False,
        schedule=None if plan.is_natural else plan,
        observers=[capture],
    )
    accesses = capture.accesses

    invariant = _invariant_for(spec)
    invariant_ok, invariant_detail = True, ""
    replay_matches = None
    recording = None
    if report.ok:
        recording = report.recording
        if invariant is not None:
            verdict = invariant(recording.final_memory)
            invariant_ok = verdict.ok
            invariant_detail = verdict.detail
        if invariant_ok:
            outcome, classification = "pass", "invariant-held"
        else:
            # A violation only counts as a bug if the schedule that
            # produced it replays deterministically.
            try:
                result = replay_execution(recording)
                replay_matches = bool(result.determinism.matches)
                if not replay_matches:
                    invariant_detail += (
                        "; " + result.determinism.summary())
            except Exception as error:  # noqa: BLE001 -- classified
                replay_matches = False
                invariant_detail += (
                    f"; replay raised "
                    f"{type(error).__name__}: {error}")
            if replay_matches:
                outcome, classification = ("failure",
                                           "invariant-violated")
            else:
                outcome, classification = ("divergence",
                                           "replay-diverged")
    else:
        outcome = "stall"
        classification = report.classification or report.outcome

    artifact = base_artifact(spec)
    artifact["metrics"] = {
        "outcome": outcome,
        "classification": classification,
        "supervision": report.outcome,
        "invariant_ok": invariant_ok,
        "invariant_detail": invariant_detail,
        "replay_matches": replay_matches,
        "grant_order": [proc for proc, _, _ in accesses],
        "accesses": [[proc, list(reads), list(writes)]
                     for proc, reads, writes in accesses],
        "commits": report.global_commits,
        "events": report.events,
        "cycles": report.cycles,
    }
    if recording is not None:
        from repro.core.serialization import save_recording

        artifact["payload_codec"] = "dlrn"
        artifact["payload"] = base64.b64encode(
            save_recording(recording)).decode("ascii")
    else:
        artifact["payload_codec"] = "none"
        artifact["payload"] = ""
    return artifact


@dataclass(frozen=True)
class ScheduleOutcome:
    """One explored schedule, parsed back out of its job outcome."""

    spec: object                # the RunSpec that ran
    plan: SchedulePlan
    source: str                 # baseline | dpor | races | pct
    outcome: str                # pass | failure | divergence | stall
    classification: str
    detail: str
    grant_order: tuple
    accesses: tuple
    commits: int
    cached: bool
    wall_time: float
    artifact: dict | None

    @property
    def failed(self) -> bool:
        return self.outcome == "failure"

    @property
    def completed(self) -> bool:
        """The run finished (its grant order is frontier food)."""
        return self.outcome in ("pass", "failure")

    def result(self) -> ScheduleResult:
        return ScheduleResult(
            plan=self.plan.as_dict(),
            source=self.source,
            outcome=self.outcome,
            classification=self.classification,
            detail=self.detail,
            spec_hash=self.spec.content_hash(),
            cached=self.cached,
            wall_time=self.wall_time,
            commits=self.commits,
        )

    @classmethod
    def from_job(cls, spec, plan: SchedulePlan, source: str,
                 job) -> "ScheduleOutcome":
        if not job.ok:
            failure = job.failure
            return cls(
                spec=spec, plan=plan, source=source,
                outcome="stall",
                classification=(f"job-{failure.error_type}"
                                if failure else "job-error"),
                detail=(failure.last.message
                        if failure and failure.attempts else ""),
                grant_order=(), accesses=(), commits=0,
                cached=False, wall_time=job.wall_time,
                artifact=None)
        metrics = job.artifact["metrics"]
        return cls(
            spec=spec, plan=plan, source=source,
            outcome=metrics["outcome"],
            classification=metrics["classification"],
            detail=metrics.get("invariant_detail", ""),
            grant_order=tuple(metrics["grant_order"]),
            accesses=tuple(
                (proc, tuple(reads), tuple(writes))
                for proc, reads, writes in metrics["accesses"]),
            commits=metrics["commits"],
            cached=job.from_cache,
            wall_time=job.wall_time,
            artifact=job.artifact)


def _natural_repro(failing: ScheduleOutcome) -> dict:
    """A degenerate 'minimal repro' for predefined-order modes: the
    natural token schedule itself fails, so the baseline recording is
    already the minimal (zero-grant-prescription) reproducer."""
    return {
        "kind": "minimal-repro",
        "plan": failing.plan.as_dict(),
        "prefix_length": 0,
        "full_length": 0,
        "runs": 0,
        "verified": True,   # worker replay-verified before 'failure'
        "detail": failing.detail,
        "divergence_commit": 0,
        "state_fingerprint": "",
        "recording_b64": failing.artifact["payload"],
    }


def run_exploration(app: str, mode, *, budget: int = 64,
                    campaign_seed: int = 0, change_points: int = 2,
                    stop_on_first: bool = True, bisect: bool = True,
                    chunk_size: int = 0, num_threads: int = 8,
                    runner=None, tracer=None) -> ExploreReport:
    """Hunt schedule-dependent failures in ``app`` under ``mode``.

    Runs the natural schedule first, then up to ``budget`` total
    schedules: DPOR frontier branches (racing-pair reversals mined
    from every completed run, plus the offline race analysis of the
    baseline recording) ahead of seeded PCT trials.  With
    ``stop_on_first`` the campaign stops at the first reproducible
    failure; with ``bisect`` that failure is shrunk to a minimal
    debugger-verified repro (``report.bisection``).

    ``runner`` defaults to an inline single-worker
    :class:`~repro.runner.pool.Runner` without caching; pass a cached
    parallel runner to fan campaigns out and reuse per-schedule
    outcomes across campaigns (explore specs are content-addressed).

    Predefined-order modes (PicoLog / Size-only) have exactly one
    schedule -- the round-robin token order -- so their campaign is
    the baseline run alone; the arbiter rejects plans there by design.
    """
    from repro.runner.pool import Runner
    from repro.runner.specs import RunSpec

    mode = mode if isinstance(mode, ExecutionMode) \
        else ExecutionMode(mode)
    if runner is None:
        runner = Runner(jobs=1, cache=False)
    report = ExploreReport(app=app, mode=mode.value,
                           campaign_seed=campaign_seed, budget=budget)

    def spec_for(plan: SchedulePlan):
        return RunSpec.explore(
            app, mode, schedule_seed=plan.seed, prefix=plan.prefix,
            change_points=plan.change_points, chunk_size=chunk_size,
            num_threads=num_threads)

    def run_wave(tagged) -> list[ScheduleOutcome]:
        specs = [spec_for(plan) for plan, _ in tagged]
        jobs = runner.run(specs)
        return [ScheduleOutcome.from_job(spec, plan, source, job)
                for (plan, source), spec, job in
                zip(tagged, specs, jobs)]

    natural = SchedulePlan()
    [baseline] = run_wave([(natural, "baseline")])
    report.add(baseline.result())
    failing = baseline if baseline.failed else None

    if mode.predefined_order:
        # One schedule total; see the docstring.
        if failing is not None and failing.artifact is not None:
            report.bisection = _natural_repro(failing)
        _count_outcomes(report, tracer)
        return report

    frontier = Frontier()
    frontier.mark_seen(natural)
    sources: dict[tuple, str] = {}

    def plan_key(plan: SchedulePlan) -> tuple:
        return (plan.seed, plan.prefix, plan.change_points)

    if baseline.completed:
        frontier.expand(baseline.grant_order, baseline.accesses)
    if (baseline.artifact is not None
            and baseline.artifact.get("payload_codec") == "dlrn"):
        # Offline race analysis of the baseline recording seeds extra
        # branch points (the analysis layer's ContendedLines).
        from repro.analysis.races import exploration_targets
        from repro.runner.jobs import recording_from_artifact

        recording = recording_from_artifact(baseline.artifact)
        for target in exploration_targets(recording):
            plan = SchedulePlan(prefix=target.prefix)
            if frontier.offer(plan):
                sources[plan_key(plan)] = "races"

    depth = max(len(baseline.grant_order), _MIN_DEPTH)
    wave_size = max(int(getattr(runner, "jobs", 1)), 1)
    trial = 0
    explored = 1
    while explored < budget and not (stop_on_first and failing):
        tagged: list[tuple] = []
        while len(tagged) < min(wave_size, budget - explored):
            plan = frontier.pop()
            if plan is not None:
                source = sources.pop(plan_key(plan), "dpor")
            else:
                plan = pct_plan(campaign_seed, trial, depth,
                                change_points)
                trial += 1
                if not frontier.mark_seen(plan):
                    continue
                source = "pct"
            tagged.append((plan, source))
        for outcome in run_wave(tagged):
            explored += 1
            report.add(outcome.result())
            if outcome.completed:
                frontier.expand(outcome.grant_order,
                                outcome.accesses)
            if outcome.failed and failing is None:
                failing = outcome

    report.frontier_branches = frontier.branches_generated
    report.frontier_deduplicated = frontier.branches_deduplicated

    if (failing is not None and bisect and failing.grant_order
            and not failing.plan.is_natural):
        try:
            minimal = minimize_schedule(
                app, mode, failing.grant_order,
                chunk_size=chunk_size, num_threads=num_threads,
                cache=getattr(runner, "cache", None), tracer=tracer)
            report.bisection = minimal.as_dict(
                include_recording=True)
        except ValueError as error:
            report.bisection = {"kind": "minimal-repro",
                                "error": str(error)}
    elif failing is not None and failing.plan.is_natural \
            and failing.artifact is not None:
        report.bisection = _natural_repro(failing)

    _count_outcomes(report, tracer)
    return report


def _count_outcomes(report: ExploreReport, tracer) -> None:
    if tracer is None:
        return
    counts = report.outcome_counts()
    metrics = tracer.metrics
    metrics.counter("explore_schedules_run").inc(report.count)
    metrics.counter("explore_pass").inc(counts["pass"])
    metrics.counter("explore_failures").inc(counts["failure"])
    metrics.counter("explore_divergences").inc(counts["divergence"])
    metrics.counter("explore_stalls").inc(counts["stall"])
    metrics.counter("explore_cached").inc(
        sum(1 for r in report.results if r.cached))
    metrics.counter("explore_frontier_branches").inc(
        report.frontier_branches)
