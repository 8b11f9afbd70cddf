"""Best-effort salvage replay of damaged recordings.

The strict replay path treats any inconsistency as fatal -- correct
for a determinism checker, useless for an operator holding a
half-corrupted ``.dlrn`` from a dead disk.  Salvage replay inverts the
priorities: replay as much of the recorded execution as the surviving
logs support, quantify exactly which committed chunks were reproduced
bit-for-bit, and report the rest as lost.

The state machine (documented in ``docs/INTERNALS.md``):

1. **Replay** from the current resync point (GCC 0, or an interval
   checkpoint from Appendix B).
2. On success, credit every remaining commit and stop.
3. On divergence / deadlock / integrity error -- or a fingerprint
   mismatch in the determinism report -- credit the *verified prefix*
   (the recorded commits before the first one the replay did not
   reproduce, by :func:`~repro.core.replayer.first_divergence` under
   the replay's discipline, so a stratified replay credits its prefix
   too) and record a detected fault.  A replay that reproduced every
   commit but failed its final-state or log audit credits every
   commit it replayed: the fault stays detected (the report is not
   ``clean``), but no commit is to blame.
4. **Resync**: pick the earliest interval checkpoint strictly past the
   first bad commit and go to 1.  Without such a checkpoint (or
   without forward progress), stop.

Coverage is honest by construction: a commit is counted only if its
fingerprint matched the recording, so a salvage report can never claim
recovery of state it did not actually reproduce (the chaos invariant's
"never a silent wrong result").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.recorder import Recording, commits_by_processor
from repro.core.replayer import first_divergence
from repro.core.serialization import (
    SectionDamage,
    load_recording_tolerant,
)
from repro.errors import ReproError
from repro.telemetry.tracer import NULL_TRACER, Tracer


@dataclass(frozen=True)
class SalvageSegment:
    """One contiguous run of verified global commits [start, end)."""

    start: int
    end: int

    def __len__(self) -> int:
        return self.end - self.start


@dataclass
class SalvageReport:
    """What a salvage replay managed to reproduce.

    ``first_bad_gcc`` maps each processor to the global commit count of
    its first unverified commit (None: everything that processor
    committed was reproduced).  ``faults_detected`` lists every typed
    error and damaged section encountered; ``recovered`` is True when
    at least one commit was verified despite detected faults.
    """

    total_commits: int
    verified_commits: int = 0
    segments: list[SalvageSegment] = field(default_factory=list)
    first_bad_gcc: dict[int, int | None] = field(default_factory=dict)
    faults_detected: list[str] = field(default_factory=list)
    damage: list[SectionDamage] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        """Fraction of recorded commits reproduced exactly."""
        if self.total_commits == 0:
            return 1.0 if not self.faults_detected else 0.0
        return self.verified_commits / self.total_commits

    @property
    def clean(self) -> bool:
        """No faults at all: the recording replayed perfectly."""
        return (not self.faults_detected and not self.damage
                and self.verified_commits == self.total_commits)

    @property
    def recovered(self) -> bool:
        """Faults were present, yet some execution was reproduced."""
        return (bool(self.faults_detected or self.damage)
                and self.verified_commits > 0)

    def as_dict(self) -> dict:
        """JSON-friendly form for campaign reports."""
        return {
            "total_commits": self.total_commits,
            "verified_commits": self.verified_commits,
            "coverage": round(self.coverage, 6),
            "segments": [[s.start, s.end] for s in self.segments],
            "first_bad_gcc": {str(proc): gcc for proc, gcc
                              in sorted(self.first_bad_gcc.items())},
            "faults_detected": list(self.faults_detected),
            "damage": [d.describe() for d in self.damage],
            "clean": self.clean,
            "recovered": self.recovered,
        }

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.clean:
            return (f"clean: all {self.total_commits} commits "
                    f"reproduced")
        return (f"salvaged {self.verified_commits}/{self.total_commits} "
                f"commits ({self.coverage:.1%}) across "
                f"{len(self.segments)} segment(s); "
                f"{len(self.faults_detected)} fault(s) detected, "
                f"{len(self.damage)} damaged section(s)")


def salvage_replay(recording: Recording,
                   damage: list[SectionDamage] | None = None,
                   max_events: int | None = None,
                   tracer: Tracer | None = None) -> SalvageReport:
    """Replay a (possibly damaged) recording as far as it will go.

    ``damage`` carries what the tolerant loader already knows is wrong
    (it counts as detected faults even if replay then sails through the
    substituted empty logs -- it cannot, but the report must not hide
    the damage either way).
    """
    # Local import: machine.system imports core.* and telemetry; going
    # the other way at module load would be a cycle.
    from repro.machine.system import replay_execution

    # `or` would discard an empty EventTracer (len() == 0 is falsy).
    tracer = NULL_TRACER if tracer is None else tracer
    total = len(recording.fingerprints)
    report = SalvageReport(total_commits=total,
                           damage=list(damage or []))
    verified: set[int] = set()
    store = recording.interval_checkpoints
    checkpoint = None
    base = 0

    while True:
        # Stratified replay runs from GCC 0 only (strata are not cut at
        # checkpoints); the verified prefix follows the same discipline.
        stratified = recording.stratified and checkpoint is None
        try:
            result = replay_execution(
                recording, use_strata=stratified,
                start_checkpoint=checkpoint,
                max_events=max_events, tracer=tracer)
            determinism = result.determinism
            if determinism.matches:
                verified.update(range(base, total))
                if base < total:
                    report.segments.append(SalvageSegment(base, total))
                break
            report.faults_detected.append(
                f"replay from GCC {base}: {determinism.summary()}")
            if determinism.first_mismatch is None:
                # Every commit reproduced; only the final state or the
                # log audit failed.
                first_bad = total
            else:
                first_bad = base + determinism.first_mismatch
        except ReproError as error:
            report.faults_detected.append(
                f"replay from GCC {base}: "
                f"{type(error).__name__}: {error}")
            context = getattr(error, "context", None)
            first_bad = base
            if context is not None:
                expected = recording.fingerprints[base:]
                prefix = first_divergence(
                    expected, context.fingerprints,
                    recording.machine_config if stratified else None)
                first_bad += len(expected) if prefix is None else prefix
        if first_bad > base:
            verified.update(range(base, first_bad))
            report.segments.append(SalvageSegment(base, first_bad))
        # Resync: earliest checkpoint strictly past the bad commit.
        checkpoints = getattr(store, "checkpoints", None) or []
        candidates = [c for c in checkpoints
                      if c.commit_index > max(first_bad, base)]
        if not candidates:
            break
        checkpoint = candidates[0]
        base = checkpoint.commit_index

    report.verified_commits = len(verified)
    # Each processor's unverified global indices; the DMA engine is
    # named only when one of its bursts went unverified.
    config = recording.machine_config
    unverified = commits_by_processor(
        [(fingerprint[0], index)
         for index, fingerprint in enumerate(recording.fingerprints)
         if index not in verified], config)
    report.first_bad_gcc = {
        proc: entries[0][1] if entries else None
        for proc, entries in unverified.items()
        if entries or proc != config.dma_proc_id}

    metrics = tracer.metrics
    metrics.counter("salvage_faults_detected").inc(
        len(report.faults_detected) + len(report.damage))
    metrics.counter("salvage_commits_verified").inc(
        report.verified_commits)
    metrics.counter("salvage_segments_replayed").inc(
        len(report.segments))
    return report


def salvage_from_blob(blob: bytes,
                      max_events: int | None = None,
                      tracer: Tracer | None = None,
                      ) -> tuple[Recording, SalvageReport]:
    """Tolerant-load a blob and salvage-replay whatever survived.

    Raises :class:`~repro.errors.SalvageError` (via the tolerant
    loader) only when nothing is recoverable at all -- a destroyed
    header or state section (program, config, verify; a legacy trailer).
    """
    recording, damage = load_recording_tolerant(blob)
    return recording, salvage_replay(
        recording, damage=damage, max_events=max_events, tracer=tracer)


__all__ = [
    "SalvageReport",
    "SalvageSegment",
    "salvage_from_blob",
    "salvage_replay",
]
