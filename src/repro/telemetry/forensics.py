"""First-divergence forensics for failed replays.

When a replay diverges, the aggregate determinism report answers
*whether* it happened; this module answers *where and why*.  Two
evidence sources feed one :class:`DivergenceForensics` report:

* a raised :class:`~repro.errors.ReplayDivergenceError` (or a
  deadlock), whose attached :class:`DivergenceContext` (the partial
  replay state the machine snapshots before re-raising) localizes a
  hard failure; or
* the replay's verdict (:func:`~repro.machine.system.verify_replay`),
  when replay runs to completion but commits the wrong thing -- the
  first recorded commit it did not reproduce is the divergence point.

Every location comes from one rule,
:func:`~repro.core.replayer.first_divergence`, under the discipline the
replay used: ordered, or per processor for a stratified replay.  A
raised error's own ``chunk_index`` is never a location, because raise
sites store other counters in it (a DMA-log cursor, a per-processor
chunkID, a stratum index); the error's message stays the reason.

The rendered report shows the diverging processor and chunk, the
expected vs. actual commit record, the last N committed chunks per
processor, and the recorded interleaving window around the divergence.
When the expected and actual commits differ but their one-line
summaries are alike (a DMA burst replayed with another burst's data,
a chunk that wrote one wrong value), the report also names the first
write that differs.
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


def _last_commits(recording, fingerprints: list[tuple]) -> dict:
    """Replayed commits of each processor that committed any, and of
    the DMA engine (under ``"dma"``) if it committed any."""
    # Imported here: repro.core.recorder imports this package.
    from repro.core.recorder import commits_by_processor

    dma = recording.machine_config.dma_proc_id
    return {"dma" if proc == dma else proc: entries
            for proc, entries in commits_by_processor(
                fingerprints, recording.machine_config).items()
            if entries}


def _describe_commit(fingerprint) -> str:
    """Human-readable one-liner for one commit fingerprint.

    Raise sites may also attach scalar expectations (a processor id,
    a quota vector) instead of a full fingerprint; those render as-is.
    """
    if fingerprint is None:
        return "(none)"
    if not isinstance(fingerprint, tuple):
        return repr(fingerprint)
    proc = fingerprint[0]
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


def _writes_of(fingerprint) -> tuple | None:
    """The sorted ``(address, value)`` writes of a DMA or chunk commit
    fingerprint, or None for anything else."""
    if not isinstance(fingerprint, tuple):
        return None
    if fingerprint[0] == "dma" and len(fingerprint) == 3:
        return fingerprint[2]
    if len(fingerprint) == 7:
        return fingerprint[5]
    return None


def _first_write_difference(expected, actual) -> str | None:
    """Where two commit fingerprints that render alike differ: the
    first write, in address order, whose value differs or that only
    one of them made.  None unless both are commit fingerprints."""
    recorded_writes = _writes_of(expected)
    replayed_writes = _writes_of(actual)
    if recorded_writes is None or replayed_writes is None:
        return None
    recorded = dict(recorded_writes)
    replayed = dict(replayed_writes)
    for address in sorted(recorded.keys() | replayed.keys()):
        if address not in replayed:
            return (f"0x{address:x} = {recorded[address]} recorded, "
                    f"not written by the replay")
        if address not in recorded:
            return (f"0x{address:x} = {replayed[address]} written by "
                    f"the replay, not recorded")
        if recorded[address] != replayed[address]:
            return (f"0x{address:x}: recorded {recorded[address]}, "
                    f"replayed {replayed[address]}")
    return "none (the writes match; the end thread state differs)"


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
            expected = _describe_commit(self.expected)
            actual = _describe_commit(self.actual)
            lines.append(f"  expected: {expected}")
            lines.append(f"  actual:   {actual}")
            if expected == actual and self.expected != self.actual:
                difference = _first_write_difference(self.expected,
                                                     self.actual)
                if difference is not None:
                    lines.append(f"  first differing write: {difference}")
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
    start = max(0, center - radius)
    end = min(len(fingerprints), center + radius + 1)
    return [(index, fingerprints[index][0], index == center)
            for index in range(start, end)]


def _first_bad(recording, replayed: list[tuple], config) -> int:
    """The first recorded commit a partial replay did not reproduce: the
    rule's index, or the next commit when all so far were reproduced."""
    # Imported here: repro.core.recorder imports this package.
    from repro.core.replayer import first_divergence

    index = first_divergence(recording.fingerprints, replayed, config)
    return len(replayed) if index is None else index


def _diverged_at(recording, replayed: list[tuple], index: int, config,
                 radius: int, **fields) -> DivergenceForensics:
    """A report at recorded commit ``index``: the recorded commit there
    and the replayed commit aligned with it under ``config``'s
    discipline."""
    from repro.core.replayer import aligned_replay

    expected_all = recording.fingerprints
    aligned = aligned_replay(expected_all, replayed, config)
    expected = expected_all[index] if index < len(expected_all) else None
    actual = aligned[index] if index < len(aligned) else None
    sample = actual if actual is not None else expected
    return DivergenceForensics(
        diverged=True,
        proc_id=sample[0] if sample else None,
        chunk_index=index,
        expected=expected,
        actual=actual,
        last_commits=_last_commits(recording, replayed),
        interleaving_window=_window(expected_all, index, radius),
        **fields,
    )


def diagnose_replay(recording, perturbation=None,
                    use_strata: bool | None = None,
                    tracer=None, radius: int = 4,
                    max_events: int | None = None) -> DivergenceForensics:
    """Replay ``recording`` and report its first divergence (if any).

    Unlike :meth:`DeLoreanSystem.replay` this never raises on a
    corrupted or mismatched log -- the failure *is* the result.  A
    replay that runs to completion diverged exactly when its verdict
    (:func:`~repro.machine.system.verify_replay`) fails, so a
    stratified replay whose per-processor streams match reports
    ``diverged=False`` even though its global order differs.
    """
    from repro.machine.system import build_replay_machine, verify_replay

    machine = build_replay_machine(
        recording, perturbation=perturbation, use_strata=use_strata,
        tracer=tracer)
    config = recording.machine_config if machine.use_strata else None
    try:
        result = machine.run(max_events)
    except (ReplayDivergenceError, DeadlockError) as error:
        # The machine attaches a context to every such error.  It is
        # located at the first recorded commit the partial replay did
        # not reproduce: a wrong commit, or the next one it never made.
        context: DivergenceContext = error.context
        reason = (str(error) if isinstance(error, ReplayDivergenceError)
                  else f"replay deadlocked: {error}")
        return _diverged_at(
            recording, context.fingerprints,
            _first_bad(recording, context.fingerprints, config), config,
            radius, reason=reason, cycle=context.cycle)
    verdict, audit = verify_replay(machine, result)
    if verdict.matches:
        return DivergenceForensics(diverged=False)
    index = verdict.first_mismatch
    if index is None:
        # Every commit reproduced: the log audit or final state failed.
        return DivergenceForensics(
            diverged=True, log_audit=audit,
            reason=("replay left log entries unconsumed" if audit
                    else "; ".join(verdict.mismatches)))
    expected_all = recording.fingerprints
    if len(expected_all) == len(result.fingerprints):
        reason = "commit content mismatch"
    else:
        reason = (f"commit count differs: recorded "
                  f"{len(expected_all)}, replayed "
                  f"{len(result.fingerprints)}")
    return _diverged_at(recording, result.fingerprints, index, config,
                        radius, reason=reason, log_audit=audit)
