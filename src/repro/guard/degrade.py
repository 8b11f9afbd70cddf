"""Graceful mode degradation: restart a wedged segment in a safer mode.

PicoLog is the cheapest recording mode but the least robust: it keeps
no processor-interleaving log, so a workload that blows its chunk-size
budget (a truncation storm bloating the CS log) or that repeatedly
fails replay verification has nowhere to go.  The paper's cost ladder
runs the other way -- Order&Size logs the most and constrains replay
the most -- so a supervised session can *escalate*:

    PicoLog -> OrderOnly -> Order&Size        (SIZE_ONLY -> Order&Size)

When the supervisor decides to degrade, it stops the machine at a
quiescent chunk boundary, snapshots the committed prefix as a
:class:`~repro.core.recorder.Recording` (the segment), captures the
boundary's architectural state (:func:`capture_boundary`), and
re-records the *remaining* execution as a fresh derived program in the
safer mode, whose recording carries the boundary as its start
checkpoint.  The segments' recordings make a
:class:`SegmentedRecording`, stored as their DLRN containers back to
back; :func:`replay_stitched` replays them end-to-end, verifying
determinism per segment and architectural continuity across the
seams.

Per-segment numbering is *fresh*: the derived program starts new chunk
sequence numbers, commit slots and log cursors, so each segment is a
self-contained recording in its own mode with no log rewriting -- the
same property that makes interval checkpoints exact (the logs are
indexed by architectural counters, and we reset the counters).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.interval import IntervalCheckpoint
from repro.core.modes import ExecutionMode, ModeConfig
from repro.core.recorder import Recording
from repro.core.serialization import (
    load_recording,
    load_recordings,
    save_recording,
)
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    IntegrityError,
    ReplayDivergenceError,
)
from repro.machine.program import Program
from repro.machine.system import ChunkMachine, replay_execution

#: The magic of the pickled envelope earlier releases wrote.
_LEGACY_MAGIC = b"DLRNSEG1"
#: Why a cut segment ended: the log-bytes budget is the only one
#: :func:`repro.guard.supervisor.supervise_record` cuts on.
CUT_REASON = "degraded:log-bytes"

#: The escalation ladder, safest-last.  ``None`` means "already at the
#: most constrained mode; nothing safer exists".
_SAFER = {
    ExecutionMode.PICOLOG: ExecutionMode.ORDER_ONLY,
    ExecutionMode.ORDER_ONLY: ExecutionMode.ORDER_AND_SIZE,
    ExecutionMode.SIZE_ONLY: ExecutionMode.ORDER_AND_SIZE,
    ExecutionMode.ORDER_AND_SIZE: None,
}


def safer_mode(mode: ExecutionMode) -> ExecutionMode | None:
    """The next mode up the escalation ladder, or ``None`` at the top."""
    return _SAFER[mode]


@dataclass
class SegmentBoundary:
    """The committed architectural state where a segment was cut.

    Captured at a quiescent chunk boundary: the committed state as the
    next segment's commit-index-0 ``start_checkpoint`` (because segment
    numbering is fresh, replaying a segment is exactly interval replay
    of I(0, m)), any interrupt handlers that were delivered but not yet
    committed (they re-inject at the start of the next segment), and
    the still-unconsumed external-event streams with times rebased to
    the new segment's t=0.
    """

    gcc: int
    start_checkpoint: IntervalCheckpoint
    pending_handlers: dict[int, list]
    interrupts_remaining: list
    dma_remaining: list


def capture_boundary(machine) -> SegmentBoundary:
    """Snapshot a recording machine's committed state at a quiescent
    chunk boundary, for restarting the remainder as a new segment.

    Speculative in-flight chunks are rolled back by construction (the
    checkpoint holds each processor's committed boundary state); their
    work simply re-executes in the next segment.  Handlers trapped in
    speculative chunks are requeued, exactly as a squash would requeue
    them, as record-time events the next segment injects at once.
    """
    if machine.recorder is None:
        raise ConfigurationError(
            "capture_boundary needs a recording-phase machine")
    if not machine.quiescent:
        raise ConfigurationError(
            "capture_boundary requires a quiescent commit boundary")
    now = machine.engine.now
    gcc = machine.commit_count
    pending_handlers: dict[int, list] = {}
    for proc in machine.processors:
        carried = []
        for chunk in proc.outstanding:
            if chunk.is_handler and chunk.piece_index == 0:
                carried.append(chunk.handler_event)
        carried.extend(proc.pending_handlers)
        if carried:
            pending_handlers[proc.proc_id] = [
                replace(event, time=0.0, replay_chunk_id=0)
                for event in carried]
    procs = [proc.proc_id for proc in machine.processors]
    start_checkpoint = replace(
        machine.checkpoint(), commit_index=0,
        committed_counts=dict.fromkeys(procs, 0),
        io_consumed=dict.fromkeys(procs, 0), dma_consumed=0,
        label=f"segment@gcc{gcc}")

    interrupts = [
        replace(event, time=max(0.0, event.time - now))
        for event in machine.program.interrupts if event.time > now]
    committed_dma = len(machine.recorder.dma_log.entries)
    arrivals = sorted(machine.program.dma_transfers,
                      key=lambda t: t.time)
    dma = [replace(t, time=max(0.0, t.time - now))
           for t in arrivals[committed_dma:]]
    return SegmentBoundary(
        gcc=gcc,
        start_checkpoint=start_checkpoint,
        pending_handlers=pending_handlers,
        interrupts_remaining=interrupts,
        dma_remaining=dma,
    )


def derive_segment_program(program: Program,
                           boundary: SegmentBoundary) -> Program:
    """The remaining execution as a standalone program.

    Same thread op lists (the restored thread states carry the resume
    positions), committed memory as the initial image, and only the
    not-yet-consumed external events.
    """
    return Program(
        threads=program.threads,
        name=f"{program.name}@gcc{boundary.gcc}",
        initial_memory=boundary.start_checkpoint.memory_image,
        interrupts=boundary.interrupts_remaining,
        dma_transfers=boundary.dma_remaining,
        io_seed=program.io_seed,
    )


def build_segment_record_machine(
    program: Program,
    boundary: SegmentBoundary | None,
    machine_config,
    mode_config: ModeConfig,
    stochastic_overflow_rate: float = 0.0,
    checkpoint_every: int = 0,
    tracer=None,
    schedule=None,
) -> ChunkMachine:
    """A fresh recording machine for one segment (not yet started), at
    ``mode_config``'s chunk size.  The first segment (``boundary``
    None) runs ``program``; a later one resumes from ``boundary``: the
    machine restores its start checkpoint, so its recording carries
    it, and the carried handlers queue for injection."""
    if boundary is not None:
        program = derive_segment_program(program, boundary)
    machine = ChunkMachine(
        program,
        replace(machine_config,
                standard_chunk_size=mode_config.standard_chunk_size),
        mode_config,
        stochastic_overflow_rate=stochastic_overflow_rate,
        checkpoint_every=checkpoint_every,
        start_checkpoint=None if boundary is None
        else boundary.start_checkpoint,
        tracer=tracer, schedule=schedule)
    if boundary is not None:
        for proc_id, events in boundary.pending_handlers.items():
            machine.processors[proc_id].pending_handlers.extend(events)
    return machine


@dataclass
class SegmentedRecording:
    """A recording stitched across mode escalations: its segments'
    recordings, in order.  Every segment after the first carries its
    boundary as its ``start_checkpoint``."""

    segments: list[Recording] = field(default_factory=list)

    @property
    def program_name(self) -> str:
        """The recorded program's name (segment 0's)."""
        return self.segments[0].program.name if self.segments else ""

    @property
    def total_commits(self) -> int:
        """Logical commits across all segments."""
        return sum(len(seg.fingerprints) for seg in self.segments)

    @property
    def modes(self) -> list[ExecutionMode]:
        """Per-segment recording modes, in order."""
        return [seg.mode_config.mode for seg in self.segments]

    def replay_bound(self, index: int) -> int | None:
        """The ``stop_after`` that replays segment ``index`` no further
        than it was recorded.

        A cut segment (every one but the last) ends mid-program, so its
        replay stops after its commit count; the last one runs to the
        program end (0).  ``None`` for a cut segment that committed
        nothing: it has nothing to replay.
        """
        if index == len(self.segments) - 1:
            return 0
        return len(self.segments[index].fingerprints) or None


def save_segmented(segmented: SegmentedRecording) -> bytes:
    """Serialize a stitched recording: its segments' DLRN containers
    back to back, so a one-segment recording is exactly its
    :func:`~repro.core.serialization.save_recording` bytes."""
    return b"".join(map(save_recording, segmented.segments))


def load_segmented(blob: bytes) -> SegmentedRecording:
    """Invert :func:`save_segmented`.  This reads local files, so
    earlier releases' formats load too: a v1/v2 recording as one
    segment, and a ``DLRNSEG1`` file (the pickled envelope degraded
    recordings used to be) through
    :func:`repro.core.legacy.unpickle_envelope`, which refuses every
    global such an envelope never holds; each envelope checkpoint
    becomes its recording's start checkpoint."""
    if not blob.startswith(_LEGACY_MAGIC):
        return SegmentedRecording(load_recordings(blob))
    # Imported on first use: only a legacy file needs it.
    from repro.core.legacy import unpickle_envelope

    envelope = unpickle_envelope(blob[len(_LEGACY_MAGIC):])
    return SegmentedRecording([
        replace(load_recording(entry["blob"]),
                start_checkpoint=entry["start_checkpoint"])
        for entry in envelope["segments"]])


@dataclass
class StitchReport:
    """End-to-end verification of a segmented recording."""

    segments: list[dict] = field(default_factory=list)
    continuity_breaks: list[str] = field(default_factory=list)
    total_commits: int = 0

    @property
    def matches(self) -> bool:
        """Every segment deterministic and every seam continuous."""
        return (not self.continuity_breaks
                and all(seg["matches"] for seg in self.segments))

    def summary(self) -> str:
        """One line for reports and CLI output."""
        verdict = "OK" if self.matches else "DIVERGED"
        return (f"stitched replay {verdict}: {len(self.segments)} "
                f"segments, {self.total_commits} commits, "
                f"{len(self.continuity_breaks)} continuity breaks")


def replay_segment(recording: Recording, stop_after: int,
                   max_events: int | None = None,
                   tracer=None) -> tuple[bool, str]:
    """Replay-verify one segment from its start checkpoint (the
    program's initial state for the first segment), PI-ordered.
    ``stop_after`` is 0 for a complete segment and the commit count
    for a cut one.  Returns the verdict and its text; a replay that
    raises fails with the error's text instead of propagating it."""
    try:
        result = replay_execution(
            recording, use_strata=False, stop_after=stop_after,
            max_events=max_events, tracer=tracer)
    except (ReplayDivergenceError, DeadlockError,
            IntegrityError) as error:
        return False, f"{type(error).__name__}: {error}"
    return result.determinism.matches, result.determinism.summary()


def replay_stitched(segmented: SegmentedRecording,
                    max_events: int | None = None,
                    tracer=None) -> StitchReport:
    """Replay every segment in order and verify the whole chain.

    Each segment replays from its start checkpoint.  Intermediate
    segments are partial recordings (the machine was cut mid-program),
    so they replay only to :meth:`SegmentedRecording.replay_bound`, and
    the determinism check compares the recorded prefix; the final segment
    gets the full end-of-run verification, final memory included.
    Seams are checked for architectural continuity: segment k+1 must
    start from exactly the memory image segment k committed.  A segment
    whose replay raises does not match; its entry carries the error.
    """
    if not segmented.segments:
        raise ConfigurationError("a segmented recording needs segments")
    report = StitchReport()
    for index, seg in enumerate(segmented.segments):
        checkpoint = seg.start_checkpoint
        if index and checkpoint is None:
            report.continuity_breaks.append(
                f"segment {index} has no start checkpoint")
        elif index and segmented.segments[index - 1].final_memory != {
                address: value for address, value
                in checkpoint.memory_image.items() if value}:
            report.continuity_breaks.append(
                f"segment {index} does not start from segment "
                f"{index - 1}'s committed memory")
        stop_after = segmented.replay_bound(index)
        if stop_after is None:  # a cut segment that committed nothing
            matches, detail = True, "empty segment (skipped)"
        else:
            matches, detail = replay_segment(
                seg, stop_after, max_events=max_events, tracer=tracer)
        commits = len(seg.fingerprints)
        report.segments.append({
            "mode": seg.mode_config.mode.value,
            "commits": commits,
            "reason": ("completed" if index == len(segmented.segments) - 1
                       else CUT_REASON),
            "matches": matches,
            "determinism": detail,
        })
        report.total_commits += commits
    return report


__all__ = [
    "CUT_REASON",
    "SegmentBoundary",
    "SegmentedRecording",
    "StitchReport",
    "build_segment_record_machine",
    "capture_boundary",
    "derive_segment_program",
    "load_segmented",
    "replay_segment",
    "replay_stitched",
    "safer_mode",
    "save_segmented",
]
