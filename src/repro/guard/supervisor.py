"""The supervisor: run a session under watchdogs, budgets, journal and
degradation, and report what happened.

The supervisor runs the machine through its one drive loop,
:meth:`~repro.machine.system.ChunkMachine.run`, with a guard observer
attached that does the guard work at exactly the right moments:

* every ``poll_stride`` dispatched events: :meth:`Watchdog.poll`
  (stall classification); the machine's own event budget is checked
  after every dispatch, exactly as in an unsupervised run;
* at every quiescent chunk boundary: :meth:`BudgetMeter.charge`
  (typed budget enforcement -- never mid-commit), journal flushing,
  and the Perfetto ``guard`` counter track;
* on ``log-bytes`` exhaustion: cut the segment and restart the rest in
  a safer mode (:mod:`repro.guard.degrade`); likewise on repeated
  replay-verification divergence when ``verify_segments`` is on.

Every exit path produces a :class:`SupervisionReport` -- a structured,
JSON-friendly account of the outcome (``completed``,
``degraded-completed``, ``stalled``, ``budget-exceeded``,
``deadlock``, ``verification-failed``), the stall classification and
telemetry snapshot when there is one, budget consumption, journal
state, and the resulting recording artifact.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.modes import ExecutionMode, ModeConfig, preferred_config
from repro.core.recorder import Recording
from repro.errors import (
    BudgetExceeded,
    ConfigurationError,
    DeadlockError,
    IntegrityError,
    ReplayDivergenceError,
    StallError,
)
from repro.guard.degrade import (
    CUT_REASON,
    SegmentedRecording,
    build_segment_record_machine,
    capture_boundary,
    replay_segment,
    replay_stitched,
    safer_mode,
)
from repro.guard.journal import RecordingJournal
from repro.guard.limits import BudgetMeter, Budgets
from repro.guard.watchdog import Watchdog, WatchdogConfig
from repro.machine.system import (
    MachineObserver,
    build_replay_machine,
    finish_recording,
    partial_recording,
    verify_replay,
)
from repro.machine.timing import MachineConfig
from repro.telemetry.tracer import NULL_TRACER

#: Commits between full budget charges (log-size accounting re-encodes
#: the logs, so charging every single boundary would be quadratic).
_CHARGE_EVERY = 8


@dataclass
class SupervisionReport:
    """Structured account of one supervised session."""

    outcome: str
    phase: str = "record"
    classification: str | None = None
    mode: str = ""
    modes: list[str] = field(default_factory=list)
    segments: list[dict] = field(default_factory=list)
    budgets: dict = field(default_factory=dict)
    stall: dict | None = None
    error: str | None = None
    wall_seconds: float = 0.0
    events: int = 0
    cycles: float = 0.0
    global_commits: int = 0
    journal: dict | None = None
    verification: dict | None = None
    #: A completed session's recording, when it has one segment.
    recording: Recording | None = None
    #: Every completed session's segments (one when none was cut).
    segmented: SegmentedRecording | None = None

    @property
    def ok(self) -> bool:
        """True when the session produced a usable recording."""
        return self.outcome in ("completed", "degraded-completed")

    def as_dict(self) -> dict:
        """JSON-friendly form (artifacts excluded)."""
        return {
            "outcome": self.outcome,
            "phase": self.phase,
            "classification": self.classification,
            "mode": self.mode,
            "modes": list(self.modes),
            "segments": list(self.segments),
            "budgets": dict(self.budgets),
            "stall": self.stall,
            "error": self.error,
            "wall_seconds": self.wall_seconds,
            "events": self.events,
            "cycles": self.cycles,
            "global_commits": self.global_commits,
            "journal": self.journal,
            "verification": self.verification,
        }

    def summary(self) -> str:
        """Greppable multi-line summary for CLI output and CI."""
        lines = [
            f"outcome: {self.outcome}",
            f"phase: {self.phase}",
            f"mode: {self.mode}",
            f"commits: {self.global_commits}",
            f"events: {self.events}",
            f"wall-seconds: {self.wall_seconds:.2f}",
        ]
        if self.classification:
            lines.append(f"classification: {self.classification}")
        if self.error:
            lines.append(f"error: {self.error}")
        if len(self.modes) > 1:
            lines.append("mode-chain: " + " -> ".join(self.modes))
        for seg in self.segments:
            lines.append(
                f"segment: mode={seg['mode']} commits={seg['commits']} "
                f"reason={seg['reason']}")
        if self.journal:
            lines.append(
                f"journal: {self.journal.get('path', '?')} "
                f"flushes={self.journal.get('flushes', 0)} "
                f"flushed-commits="
                f"{self.journal.get('flushed_commits', 0)}")
        if self.verification:
            lines.append(
                f"verification: "
                f"{'ok' if self.verification.get('matches') else 'DIVERGED'}")
        return "\n".join(lines)


class _GuardObserver(MachineObserver):
    """Guard work on the machine's drive loop: watchdog notes and polls,
    and at quiescent boundaries budget charges, the Perfetto ``guard``
    counter track and journal flushes."""

    def __init__(self, machine, watchdog: Watchdog, meter: BudgetMeter,
                 journal: RecordingJournal | None, tracer) -> None:
        self.machine = machine
        self.watchdog = watchdog
        self.meter = meter
        self.journal = journal
        self.tracer = tracer
        self.poll_stride = watchdog.config.poll_stride
        self._last_charged = 0
        self._m_flushes = tracer.metrics.counter("guard_journal_flushes")

    def on_commit(self, chunk, fingerprint, count) -> None:
        self.watchdog.note_commit(count)

    def on_dma(self, writes, fingerprint, count) -> None:
        self.watchdog.note_commit(count)

    def on_squash(self, proc, victim_seqs, cause) -> None:
        self.watchdog.note_squash(proc, cause)
        self.meter.note_squash(self.machine.engine.events_processed)

    def on_poll(self, events) -> None:
        self.watchdog.poll()

    def on_boundary(self) -> None:
        machine = self.machine
        commits = machine.commit_count
        if commits - self._last_charged >= _CHARGE_EVERY:
            self._last_charged = commits
            self.meter.charge(machine)
            tracer = self.tracer
            if tracer.enabled:
                engine = machine.engine
                now = engine.now
                tracer.counter("guard", "log_bytes", now,
                               peak=self.meter.peak_log_bytes)
                tracer.counter("guard", "queue_depth", now,
                               depth=engine.pending())
                tracer.counter(
                    "guard", "squash_rate", now,
                    per_1k=round(self.meter.squash_rate(
                        engine.events_processed), 2))
        if self.journal is not None and self.journal.maybe_flush():
            self._m_flushes.inc()


def _stopped_fields(error, watchdog: Watchdog, metrics) -> dict:
    """Report fields (and guard metrics) for a session that ended in
    ``error`` instead of completing."""
    if isinstance(error, StallError):
        metrics.counter("guard_stalls_detected").inc()
        metrics.counter(f"guard_stall_{error.classification}").inc()
        return dict(outcome="stalled", classification=error.classification,
                    stall=error.details, error=str(error))
    if isinstance(error, BudgetExceeded):
        metrics.counter("guard_budget_exceeded").inc()
        return dict(outcome="budget-exceeded",
                    classification=f"budget:{error.budget}",
                    error=str(error))
    deadlock = isinstance(error, DeadlockError)
    return dict(
        outcome="deadlock" if deadlock else "verification-failed",
        classification="deadlock" if deadlock else "replay-divergence",
        stall=watchdog.snapshot(), error=str(error))


def _close_journal(journal: RecordingJournal | None,
                   machine) -> dict | None:
    """Close the journal, final-flushing when the machine is at a
    boundary (a stall can leave it mid-flight)."""
    if journal is None:
        return None
    try:
        journal.close(final_flush=machine.quiescent)
    except ConfigurationError:
        journal.close(final_flush=False)
    return {
        "path": journal.path,
        "flushes": journal.flush_count,
        "flushed_commits": journal.flushed_commits,
        "bytes": journal.bytes_written,
    }


def supervise_record(
    program,
    mode: ExecutionMode = ExecutionMode.ORDER_ONLY,
    machine_config: MachineConfig | None = None,
    mode_config: ModeConfig | None = None,
    *,
    budgets: Budgets | None = None,
    watchdog_config: WatchdogConfig | None = None,
    journal_path: str | None = None,
    flush_every: int = 25,
    degrade: bool = True,
    verify_segments: bool = False,
    verify_attempts: int = 2,
    stochastic_overflow_rate: float = 0.0,
    checkpoint_every: int = 0,
    max_events: int | None = None,
    tracer=None,
    schedule=None,
    observers: Sequence[MachineObserver] = (),
) -> SupervisionReport:
    """Record ``program`` under full supervision.

    Returns a :class:`SupervisionReport`; never hangs and never loses
    the flushed prefix.  On ``log-bytes`` exhaustion (or repeated
    verification divergence with ``verify_segments``) the session
    degrades up the mode ladder instead of failing, producing a
    :class:`~repro.guard.degrade.SegmentedRecording`.

    ``schedule`` (a :class:`~repro.core.arbiter.SchedulePlan`) perturbs
    the first segment's arbiter grant order for schedule-space
    exploration; a degraded continuation segment records naturally
    (the explorer runs with ``degrade=False``).  ``observers`` ride
    every segment's machine after the guard's own (the explorer
    captures exact read/write line sets this way).
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    metrics = tracer.metrics
    # Registered up front so a clean session's metrics list them at 0.
    metrics.counter("guard_stalls_detected")
    metrics.counter("guard_budget_exceeded")
    m_segments = metrics.counter("guard_segments_recorded")
    m_degrades = metrics.counter("guard_mode_degradations")

    machine_config = machine_config or MachineConfig()
    if mode_config is not None and mode_config.mode is not mode:
        raise ConfigurationError(
            f"mode_config is for {mode_config.mode}, not {mode}")
    current_config = mode_config or preferred_config(mode)
    budgets = budgets or Budgets()

    segments: list[Recording] = []
    boundary = None
    verify_failures = 0
    modes_seen: list[str] = []
    total_wall = 0.0
    total_events = 0

    def make_report(outcome: str, **kw) -> SupervisionReport:
        kw.setdefault("global_commits", machine.commit_count)
        # Every segment was cut but the last of a completed session.
        done = outcome in ("completed", "degraded-completed")
        return SupervisionReport(
            outcome=outcome, phase="record",
            mode=current_config.mode.value,
            modes=modes_seen or [current_config.mode.value],
            segments=[{
                "mode": seg.mode_config.mode.value,
                "commits": len(seg.fingerprints),
                "reason": ("completed" if done and seg is segments[-1]
                           else CUT_REASON)} for seg in segments],
            wall_seconds=round(total_wall, 3),
            events=total_events,
            budgets=meter.consumption(machine),
            cycles=machine.engine.now,
            **kw)

    while True:
        if current_config.mode.value not in modes_seen:
            modes_seen.append(current_config.mode.value)
        # A degraded continuation segment records naturally.
        machine = build_segment_record_machine(
            program, boundary, machine_config, current_config,
            stochastic_overflow_rate=stochastic_overflow_rate,
            checkpoint_every=checkpoint_every, tracer=tracer,
            schedule=schedule if boundary is None else None)

        watchdog = Watchdog(machine, watchdog_config)
        meter = BudgetMeter(budgets)
        meter.start()
        journal = None
        if journal_path is not None:
            seg_path = (journal_path if not segments
                        else f"{journal_path}.seg{len(segments)}")
            journal = RecordingJournal(seg_path, machine,
                                       flush_every=flush_every)
        machine.observers.append(
            _GuardObserver(machine, watchdog, meter, journal, tracer))
        machine.observers.extend(observers)

        try:
            result = machine.run(max_events)
        except (StallError, BudgetExceeded, DeadlockError) as error:
            total_wall += meter.elapsed
            total_events += machine.engine.events_processed
            stopped = _stopped_fields(error, watchdog, metrics)
            next_mode = safer_mode(current_config.mode)
            if (degrade and isinstance(error, BudgetExceeded)
                    and error.budget == "log-bytes"
                    and next_mode is not None):
                # Cut here: the budget raised at a quiescent boundary,
                # so the committed prefix is a clean segment.
                segments.append(partial_recording(machine))
                boundary = capture_boundary(machine)
                _close_journal(journal, machine)
                m_segments.inc()
                m_degrades.inc()
                current_config = preferred_config(next_mode)
                verify_failures = 0
                continue
            return make_report(
                **stopped, journal=_close_journal(journal, machine))

        # Clean completion of this (possibly final) segment.
        total_wall += meter.elapsed
        total_events += machine.engine.events_processed
        recording = finish_recording(machine, result)
        journal_info = _close_journal(journal, machine)

        if verify_segments:
            matches, detail = replay_segment(recording, stop_after=0)
            if not matches:
                verify_failures += 1
                next_mode = safer_mode(current_config.mode)
                if verify_failures < verify_attempts:
                    continue  # re-record the same boundary, same mode
                if degrade and next_mode is not None:
                    m_degrades.inc()
                    current_config = preferred_config(next_mode)
                    verify_failures = 0
                    continue  # same boundary, safer mode
                return make_report(
                    "verification-failed",
                    classification="replay-divergence",
                    error=detail,
                    journal=journal_info)

        segments.append(recording)
        m_segments.inc()
        segmented = SegmentedRecording(segments)
        report = make_report(
            "completed" if len(segments) == 1 else "degraded-completed",
            global_commits=segmented.total_commits,
            journal=journal_info)
        report.segmented = segmented
        if len(segments) == 1:
            report.recording = recording
            if verify_segments:
                report.verification = {"matches": True}
        elif verify_segments:
            stitched = replay_stitched(segmented)
            report.verification = {
                "matches": stitched.matches,
                "summary": stitched.summary(),
            }
        return report


def supervise_replay(
    recording: Recording,
    *,
    budgets: Budgets | None = None,
    watchdog_config: WatchdogConfig | None = None,
    perturbation=None,
    max_events: int | None = None,
    tracer=None,
) -> SupervisionReport:
    """Replay ``recording`` under watchdog and budget supervision.

    A replayer waiting forever on an unsatisfiable ordering-log entry
    is classified as a ``replay-stall`` instead of hanging.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    metrics = tracer.metrics
    machine = build_replay_machine(
        recording, perturbation=perturbation, use_strata=False,
        tracer=tracer)
    watchdog = Watchdog(machine, watchdog_config)
    meter = BudgetMeter(budgets or Budgets())
    meter.start()
    machine.observers.append(
        _GuardObserver(machine, watchdog, meter, None, tracer))

    def make_report(outcome: str, **kw) -> SupervisionReport:
        return SupervisionReport(
            outcome=outcome, phase="replay",
            mode=recording.mode_config.mode.value,
            modes=[recording.mode_config.mode.value],
            wall_seconds=round(meter.elapsed, 3),
            events=machine.engine.events_processed,
            cycles=machine.engine.now,
            global_commits=machine.commit_count,
            budgets=meter.consumption(machine),
            **kw)

    try:
        result = machine.run(max_events)
    except (StallError, BudgetExceeded, ReplayDivergenceError,
            DeadlockError, IntegrityError) as error:
        return make_report(**_stopped_fields(error, watchdog, metrics))

    verdict, audit = verify_replay(machine, result)
    report = make_report("completed" if verdict.matches
                         else "verification-failed")
    report.verification = {
        "matches": verdict.matches,
        "summary": verdict.summary(),
        "unconsumed": audit,
    }
    if not verdict.matches:
        report.classification = "replay-divergence"
    return report


__all__ = [
    "SupervisionReport",
    "supervise_record",
    "supervise_replay",
]
