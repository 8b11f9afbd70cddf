"""First-divergence forensics for failed replays.

When a replay diverges, the aggregate determinism report answers
*whether* it happened; this module answers *where and why*.  Two
evidence sources feed one :class:`DivergenceForensics` report:

* a raised :class:`~repro.errors.ReplayDivergenceError`, whose
  structured fields (proc_id, chunk index, expected/actual) and
  attached :class:`DivergenceContext` (the partial replay state the
  machine snapshots before re-raising) localize a hard failure; or
* a fingerprint comparison, when replay runs to completion but commits
  the wrong thing -- the first mismatching global commit is the
  divergence point.

The rendered report shows the diverging processor and chunk, the
expected vs. actual commit record, the last N committed chunks per
processor, and the recorded interleaving window around the divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DeadlockError, ReplayDivergenceError


@dataclass
class DivergenceContext:
    """Partial replay state snapshotted when a replay error unwinds:
    the cycle and the global commit order up to it."""

    cycle: float
    fingerprints: list[tuple]


def _fingerprint_proc(fingerprint: tuple):
    """The processor field of a commit fingerprint ('dma' or int)."""
    return fingerprint[0]


def _last_commits(recording, fingerprints: list[tuple]) -> dict:
    """Replayed commits of each processor that committed any."""
    # Imported here: repro.core.recorder imports this package.
    from repro.core.recorder import commits_by_processor

    return {proc: entries for proc, entries in commits_by_processor(
        fingerprints, recording.machine_config).items() if entries}


def _describe_commit(fingerprint) -> str:
    """Human-readable one-liner for one commit fingerprint.

    Raise sites may also attach scalar expectations (a processor id,
    a quota vector) instead of a full fingerprint; those render as-is.
    """
    if fingerprint is None:
        return "(none)"
    if not isinstance(fingerprint, tuple):
        return repr(fingerprint)
    proc = _fingerprint_proc(fingerprint)
    if proc == "dma" and len(fingerprint) == 3:
        return (f"dma burst #{fingerprint[1]} "
                f"({len(fingerprint[2])} writes)")
    if len(fingerprint) != 7:
        return repr(fingerprint)
    _, seq, piece, is_handler, instructions, writes, _ = fingerprint
    tags = []
    if piece:
        tags.append(f"piece {piece}")
    if is_handler:
        tags.append("handler")
    suffix = f" [{', '.join(tags)}]" if tags else ""
    return (f"p{proc} chunk {seq}: {instructions} instructions, "
            f"{len(writes)} writes{suffix}")


@dataclass
class DivergenceForensics:
    """Everything known about a replay's first divergence."""

    diverged: bool
    reason: str = ""
    proc_id: int | str | None = None
    chunk_index: int | None = None       # global commit index
    expected: tuple | None = None        # recorded commit fingerprint
    actual: tuple | None = None          # replayed commit fingerprint
    cycle: float | None = None
    last_commits: dict = field(default_factory=dict)
    interleaving_window: list = field(default_factory=list)
    log_audit: list = field(default_factory=list)

    def summary(self) -> str:
        """One line naming the diverging processor and chunk."""
        if not self.diverged:
            return "replay deterministic: no divergence"
        where = []
        if self.proc_id is not None:
            name = (self.proc_id if self.proc_id == "dma"
                    else f"processor {self.proc_id}")
            where.append(str(name))
        if self.chunk_index is not None:
            where.append(f"commit #{self.chunk_index}")
        location = " at ".join(where) if where else "unknown location"
        return f"replay DIVERGED at {location}: {self.reason}"

    def render(self, last_n: int = 8) -> str:
        """The full multi-section forensics report."""
        lines = [self.summary()]
        if not self.diverged:
            return lines[0]
        if self.cycle is not None:
            lines.append(f"  failed at cycle {self.cycle:,.0f}")
        if self.expected is not None or self.actual is not None:
            lines.append("")
            lines.append("Expected vs. actual commit:")
            lines.append(f"  expected: {_describe_commit(self.expected)}")
            lines.append(f"  actual:   {_describe_commit(self.actual)}")
        if self.interleaving_window:
            lines.append("")
            lines.append("Recorded interleaving around the divergence:")
            for index, proc, marker in self.interleaving_window:
                pointer = "  >>" if marker else "    "
                name = "dma" if proc == "dma" else f"p{proc}"
                lines.append(f"{pointer} commit #{index}: {name}")
        if self.last_commits:
            lines.append("")
            lines.append(f"Last {last_n} replayed commits per "
                         f"processor:")
            for proc in sorted(self.last_commits,
                               key=lambda p: (p == "dma", p)):
                commits = self.last_commits[proc][-last_n:]
                name = "dma" if proc == "dma" else f"p{proc}"
                lines.append(f"  {name}: {len(self.last_commits[proc])} "
                             f"committed")
                for fingerprint in commits:
                    lines.append(
                        f"      {_describe_commit(fingerprint)}")
        if self.log_audit:
            lines.append("")
            lines.append("Log-consumption audit:")
            for problem in self.log_audit:
                lines.append(f"  - {problem}")
        return "\n".join(lines)


def _window(fingerprints: list[tuple], center: int,
            radius: int = 4) -> list[tuple]:
    """(index, proc, is_center) triples around a global commit."""
    if center is None:
        return []
    start = max(0, center - radius)
    end = min(len(fingerprints), center + radius + 1)
    return [(index, _fingerprint_proc(fingerprints[index]),
             index == center)
            for index in range(start, end)]


def _from_error(recording, error: ReplayDivergenceError,
                radius: int) -> DivergenceForensics:
    context: DivergenceContext | None = error.context
    chunk_index = error.chunk_index
    expected = error.expected
    actual = error.actual
    proc_id = error.proc_id
    last_commits: dict = {}
    cycle = None
    if context is not None:
        cycle = context.cycle
        last_commits = _last_commits(recording, context.fingerprints)
        if chunk_index is None:
            # The next global commit that never happened.
            chunk_index = len(context.fingerprints)
    if (expected is None and chunk_index is not None
            and chunk_index < len(recording.fingerprints)):
        expected = recording.fingerprints[chunk_index]
        if proc_id is None:
            proc_id = _fingerprint_proc(expected)
    return DivergenceForensics(
        diverged=True,
        reason=str(error),
        proc_id=proc_id,
        chunk_index=chunk_index,
        expected=expected,
        actual=actual,
        cycle=cycle,
        last_commits=last_commits,
        interleaving_window=_window(recording.fingerprints,
                                    chunk_index, radius),
    )


def _from_fingerprints(recording, result,
                       radius: int) -> DivergenceForensics:
    expected_all = recording.fingerprints
    actual_all = result.fingerprints
    limit = min(len(expected_all), len(actual_all))
    divergence = None
    for index in range(limit):
        if expected_all[index] != actual_all[index]:
            divergence = index
            break
    if divergence is None and len(expected_all) != len(actual_all):
        divergence = limit
    if divergence is None:
        return DivergenceForensics(diverged=False)
    expected = (expected_all[divergence]
                if divergence < len(expected_all) else None)
    actual = (actual_all[divergence]
              if divergence < len(actual_all) else None)
    sample = actual if actual is not None else expected
    last_commits = _last_commits(recording, actual_all)
    if len(expected_all) == len(actual_all):
        reason = "commit content mismatch"
    else:
        reason = (f"commit count differs: recorded "
                  f"{len(expected_all)}, replayed {len(actual_all)}")
    return DivergenceForensics(
        diverged=True,
        reason=reason,
        proc_id=_fingerprint_proc(sample) if sample else None,
        chunk_index=divergence,
        expected=expected,
        actual=actual,
        last_commits=last_commits,
        interleaving_window=_window(expected_all, divergence, radius),
    )


def diagnose_replay(recording, perturbation=None,
                    use_strata: bool | None = None,
                    tracer=None, radius: int = 4,
                    max_events: int | None = None) -> DivergenceForensics:
    """Replay ``recording`` and report its first divergence (if any).

    Unlike :meth:`DeLoreanSystem.replay` this never raises on a
    corrupted or mismatched log -- the failure *is* the result.  A
    clean, fully-matching replay returns a report with
    ``diverged=False``.
    """
    from repro.machine.system import build_replay_machine

    machine = build_replay_machine(
        recording, perturbation=perturbation, use_strata=use_strata,
        tracer=tracer)
    source = machine.replay_source
    try:
        result = machine.run(max_events)
    except ReplayDivergenceError as error:
        return _from_error(recording, error, radius)
    except DeadlockError as error:
        context = getattr(error, "context", None)
        report = DivergenceForensics(
            diverged=True,
            reason=f"replay deadlocked: {error}",
        )
        if context is not None:
            report.cycle = context.cycle
            report.chunk_index = len(context.fingerprints)
            report.last_commits = _last_commits(recording,
                                                context.fingerprints)
            report.interleaving_window = _window(
                recording.fingerprints, report.chunk_index, radius)
            if report.chunk_index < len(recording.fingerprints):
                # The stuck machine never produced the next recorded
                # commit -- name its owner.
                report.expected = recording.fingerprints[
                    report.chunk_index]
                report.proc_id = _fingerprint_proc(report.expected)
            # The replay may also have already committed the wrong
            # thing before wedging; prefer the first hard mismatch.
            for index, actual in enumerate(context.fingerprints):
                if (index < len(recording.fingerprints)
                        and recording.fingerprints[index] != actual):
                    report.chunk_index = index
                    report.expected = recording.fingerprints[index]
                    report.actual = actual
                    report.proc_id = _fingerprint_proc(actual)
                    report.interleaving_window = _window(
                        recording.fingerprints, index, radius)
                    break
        return report
    report = _from_fingerprints(recording, result, radius)
    audit = source.verify_fully_consumed()
    if audit:
        report.diverged = True
        report.log_audit = audit
        if not report.reason:
            report.reason = "replay left log entries unconsumed"
    return report
