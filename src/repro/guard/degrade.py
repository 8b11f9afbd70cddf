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
safer mode.  The segments are stitched into a
:class:`SegmentedRecording`; :func:`replay_stitched` replays them
end-to-end -- each from its boundary checkpoint, verifying determinism
per segment and architectural continuity across the seams.

Per-segment numbering is *fresh*: the derived program starts new chunk
sequence numbers, commit slots and log cursors, so each segment is a
self-contained recording in its own mode with no log rewriting -- the
same property that makes interval checkpoints exact (the logs are
indexed by architectural counters, and we reset the counters).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace

from repro.core.interval import IntervalCheckpoint
from repro.core.modes import ExecutionMode, ModeConfig, preferred_config
from repro.core.recorder import Recording
from repro.core.serialization import load_recording, save_recording
from repro.errors import ConfigurationError, SalvageError
from repro.machine.program import Program
from repro.machine.system import ChunkMachine, replay_execution

_SEGMENT_MAGIC = b"DLRNSEG1"

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

    cycle: float
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
        cycle=now,
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
    boundary: SegmentBoundary,
    machine_config,
    mode: ExecutionMode,
    mode_config: ModeConfig | None = None,
    stochastic_overflow_rate: float = 0.0,
    checkpoint_every: int = 0,
    tracer=None,
) -> tuple[ChunkMachine, Program]:
    """A fresh recording machine resuming from ``boundary`` in
    ``mode`` (not yet started): the machine restores the boundary's
    start checkpoint, and the carried handlers queue for injection."""
    seg_mode_config = mode_config or preferred_config(mode)
    seg_machine_config = replace(
        machine_config,
        standard_chunk_size=seg_mode_config.standard_chunk_size)
    seg_program = derive_segment_program(program, boundary)
    machine = ChunkMachine(
        seg_program, seg_machine_config, seg_mode_config,
        stochastic_overflow_rate=stochastic_overflow_rate,
        checkpoint_every=checkpoint_every,
        start_checkpoint=boundary.start_checkpoint,
        tracer=tracer)
    for proc_id, events in boundary.pending_handlers.items():
        machine.processors[proc_id].pending_handlers.extend(events)
    return machine, seg_program


@dataclass
class RecordedSegment:
    """One stitch of a degraded recording.

    ``start_checkpoint`` is ``None`` for the first segment (it starts
    from the program's own initial state) and a commit-index-0 interval
    checkpoint for every later one.  ``reason`` says why this segment
    ended (``degraded:log-bytes`` for a cut, ``completed`` for the
    last one).
    """

    recording: Recording
    mode: ExecutionMode
    start_checkpoint: IntervalCheckpoint | None = None
    reason: str = ""

    @property
    def commits(self) -> int:
        """Logical commits recorded in this segment."""
        return len(self.recording.fingerprints)


@dataclass
class SegmentedRecording:
    """A multi-segment recording stitched across mode escalations."""

    segments: list[RecordedSegment] = field(default_factory=list)
    program_name: str = ""

    @property
    def total_commits(self) -> int:
        """Logical commits across all segments."""
        return sum(seg.commits for seg in self.segments)

    @property
    def modes(self) -> list[ExecutionMode]:
        """Per-segment recording modes, in order."""
        return [seg.mode for seg in self.segments]

    def summary(self) -> str:
        """One line for reports and CLI output."""
        chain = " -> ".join(
            f"{seg.mode.value}[{seg.commits}]" for seg in self.segments)
        return (f"segmented recording '{self.program_name}': "
                f"{len(self.segments)} segments, "
                f"{self.total_commits} commits ({chain})")


def save_segmented(segmented: SegmentedRecording) -> bytes:
    """Serialize a stitched recording.

    Each segment's Recording goes through the regular DLRN container
    (CRC-framed, independently loadable); the stitch metadata rides in
    a pickled envelope behind its own magic.
    """
    envelope = {
        "program_name": segmented.program_name,
        "segments": [
            {
                "blob": save_recording(seg.recording),
                "mode": seg.mode.value,
                "start_checkpoint": seg.start_checkpoint,
                "reason": seg.reason,
            }
            for seg in segmented.segments
        ],
    }
    return _SEGMENT_MAGIC + pickle.dumps(envelope, protocol=4)


def load_segmented(blob: bytes) -> SegmentedRecording:
    """Invert :func:`save_segmented`.  The envelope is read by
    :func:`repro.core.legacy.unpickle_envelope`, which refuses every
    global a segmented recording never holds."""
    if not blob.startswith(_SEGMENT_MAGIC):
        raise SalvageError(
            "not a segmented recording (missing DLRNSEG1 magic)")
    # Imported on first use: only a segmented file needs it.
    from repro.core.legacy import unpickle_envelope

    envelope = unpickle_envelope(blob[len(_SEGMENT_MAGIC):])
    segments = [
        RecordedSegment(
            recording=load_recording(entry["blob"]),
            mode=ExecutionMode(entry["mode"]),
            start_checkpoint=entry["start_checkpoint"],
            reason=entry["reason"],
        )
        for entry in envelope["segments"]
    ]
    return SegmentedRecording(
        segments=segments,
        program_name=envelope.get("program_name", ""))


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


def _nonzero(image: dict[int, int]) -> dict[int, int]:
    return {addr: value for addr, value in image.items() if value}


def replay_stitched(segmented: SegmentedRecording,
                    max_events: int | None = None,
                    tracer=None) -> StitchReport:
    """Replay every segment in order and verify the whole chain.

    Each segment replays from its boundary checkpoint.  Intermediate
    segments are partial recordings (the machine was cut mid-program),
    so they replay with ``stop_after`` at their commit count and the
    determinism check compares the recorded prefix; the final segment
    gets the full end-of-run verification, final memory included.
    Seams are checked for architectural continuity: segment k+1 must
    start from exactly the memory image segment k committed.
    """
    if not segmented.segments:
        raise ConfigurationError("a segmented recording needs segments")
    report = StitchReport()
    for index, seg in enumerate(segmented.segments):
        last = index == len(segmented.segments) - 1
        if index:
            checkpoint = seg.start_checkpoint
            if checkpoint is None:
                report.continuity_breaks.append(
                    f"segment {index} has no start checkpoint")
            else:
                previous = segmented.segments[index - 1].recording
                if (_nonzero(checkpoint.memory_image)
                        != dict(previous.final_memory)):
                    report.continuity_breaks.append(
                        f"segment {index} does not start from segment "
                        f"{index - 1}'s committed memory")
        if not last and seg.commits == 0:
            # Nothing was committed before the cut; nothing to verify.
            report.segments.append({
                "mode": seg.mode.value, "commits": 0,
                "reason": seg.reason, "matches": True,
                "determinism": "empty segment (skipped)"})
            continue
        result = replay_execution(
            seg.recording,
            use_strata=False,
            start_checkpoint=seg.start_checkpoint,
            stop_after=0 if last else seg.commits,
            max_events=max_events,
            tracer=tracer,
        )
        report.segments.append({
            "mode": seg.mode.value,
            "commits": seg.commits,
            "reason": seg.reason,
            "matches": result.determinism.matches,
            "determinism": result.determinism.summary(),
        })
        report.total_commits += seg.commits
    return report


__all__ = [
    "RecordedSegment",
    "SegmentBoundary",
    "SegmentedRecording",
    "StitchReport",
    "build_segment_record_machine",
    "capture_boundary",
    "derive_segment_program",
    "load_segmented",
    "replay_stitched",
    "safer_mode",
    "save_segmented",
]
