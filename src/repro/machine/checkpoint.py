"""System checkpointing (Section 3.3).

DeLorean, like other full-system replayers, pairs its logs with a
system checkpoint taken at the start of the recorded interval (the
paper points to ReVive/SafetyNet and explicitly does not focus on the
mechanism).  We provide the equivalent: a :class:`SystemCheckpoint`
captures the committed architectural state of a machine -- memory image
plus per-thread architectural state and commit counts -- and can seed a
fresh machine so that replay starts from exactly the checkpointed
state.

The whole-execution replay drivers replay from GCC = 0 (in the paper's
terms), but the checkpoint object captures any committed commit
boundary: :meth:`SystemCheckpoint.capture` snapshots a quiescent
machine, :meth:`SystemCheckpoint.capture_committed` snapshots the
*committed* view of a machine paused mid-execution (the debugger's
case: speculation may be in flight, but committed state is exact at a
commit boundary), and :meth:`SystemCheckpoint.to_interval` bridges into
the replayer's ``start_checkpoint`` path so a mid-execution checkpoint
can seed an interval replay I(n, m).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.machine.program import Program, ThreadState


@dataclass(frozen=True)
class SystemCheckpoint:
    """Committed architectural state at one global commit boundary.

    ``global_commit_count`` is the boundary's GCC -- logical commits in
    grant order including DMA bursts, i.e. the position in the
    recording's fingerprint sequence.  ``io_consumed`` and
    ``dma_consumed`` are the input-log consumption cursors at that
    boundary; they are what lets a mid-execution checkpoint resume
    consuming every log mid-stream (zero for the GCC = 0 checkpoint).
    """

    memory_image: dict[int, int]
    thread_states: dict[int, ThreadState]
    committed_counts: dict[int, int]
    global_commit_count: int = 0
    label: str = "gcc0"
    io_consumed: dict[int, int] = field(default_factory=dict)
    dma_consumed: int = 0

    @classmethod
    def initial(cls, program: Program) -> "SystemCheckpoint":
        """The checkpoint at the very start of an execution."""
        return cls(
            memory_image=dict(program.initial_memory),
            thread_states={
                index: ThreadState(thread_id=index,
                                   finished=not ops)
                for index, ops in enumerate(program.threads)},
            committed_counts={
                index: 0 for index in range(program.num_threads)},
            global_commit_count=0,
            label="gcc0",
        )

    @classmethod
    def capture(cls, machine, label: str = "capture") -> \
            "SystemCheckpoint":
        """Snapshot a machine's committed state.

        The machine must be quiescent at a commit boundary (no
        speculative chunks in flight); capturing mid-speculation would
        leak uncommitted state into the checkpoint.  For a machine
        paused mid-execution with speculation in flight, use
        :meth:`capture_committed` instead.
        """
        for proc in machine.processors:
            if proc.outstanding:
                raise ConfigurationError(
                    f"cannot checkpoint: processor {proc.proc_id} has "
                    f"{len(proc.outstanding)} speculative chunks in "
                    f"flight")
        return cls.capture_committed(machine, label=label)

    @classmethod
    def capture_committed(cls, machine, label: str = "capture") -> \
            "SystemCheckpoint":
        """Snapshot the *committed* view of a machine at a commit
        boundary, tolerating speculative chunks in flight.

        A processor's committed architectural state is the start state
        of its oldest uncommitted chunk (speculation builds linearly
        from the committed frontier; squash rolls back to it), or its
        live state when nothing is outstanding.  Committed memory is
        exact because speculative stores live in per-chunk write
        buffers until commit.  This is how the debugger checkpoints a
        paused replay: it always pauses at the finalization of a
        global commit, where committed state is precisely the first
        GCC commits -- unless a split logical chunk has committed only
        some of its pieces, which raises :class:`ConfigurationError`.
        """
        if machine.arbiter.has_reservation or machine._piece_accum:
            raise ConfigurationError(
                "cannot checkpoint between the pieces of a split chunk")
        base = 0
        io_consumed: dict[int, int] = {}
        dma_consumed = 0
        if machine.is_replay:
            cursors = machine.replay_source.cursors()
            io_consumed = cursors["io"]
            dma_consumed = cursors["dma"]
            if machine.start_checkpoint is not None:
                base = machine.start_checkpoint.commit_index
        elif machine.recorder is not None:
            io_consumed = {
                proc: len(log)
                for proc, log in machine.recorder.io_logs.items()}
            dma_consumed = len(machine.recorder.dma_log.entries)
        return cls(
            memory_image=machine.memory.snapshot(),
            thread_states={
                proc.proc_id: proc.committed_state.snapshot()
                for proc in machine.processors},
            committed_counts={
                proc.proc_id: proc.committed_count
                for proc in machine.processors},
            global_commit_count=base + machine.commit_count,
            label=label,
            io_consumed=io_consumed,
            dma_consumed=dma_consumed,
        )

    def to_interval(self) -> "IntervalCheckpoint":
        """Bridge into the replayer's ``start_checkpoint`` path.

        The resulting :class:`~repro.core.interval.IntervalCheckpoint`
        seeds :meth:`DeLoreanSystem.replay_interval` /
        ``build_replay_machine`` so replay resumes at this boundary --
        the mechanism behind the debugger's ``goto``/``rstep``.
        """
        from repro.core.interval import IntervalCheckpoint

        return IntervalCheckpoint(
            commit_index=self.global_commit_count,
            memory_image=dict(self.memory_image),
            thread_states={
                proc: state.snapshot()
                for proc, state in self.thread_states.items()},
            committed_counts=dict(self.committed_counts),
            io_consumed=dict(self.io_consumed),
            dma_consumed=self.dma_consumed,
            label=self.label or f"gcc{self.global_commit_count}",
        )

    @classmethod
    def from_interval(cls, checkpoint) -> "SystemCheckpoint":
        """The inverse bridge (an
        :class:`~repro.core.interval.IntervalCheckpoint` as a
        :class:`SystemCheckpoint`)."""
        return cls(
            memory_image=dict(checkpoint.memory_image),
            thread_states={
                proc: state.snapshot()
                for proc, state in checkpoint.thread_states.items()},
            committed_counts=dict(checkpoint.committed_counts),
            global_commit_count=checkpoint.commit_index,
            label=checkpoint.label or f"gcc{checkpoint.commit_index}",
            io_consumed=dict(checkpoint.io_consumed),
            dma_consumed=checkpoint.dma_consumed,
        )

    def restore_into(self, machine) -> None:
        """Load this checkpoint into a freshly-constructed machine."""
        for proc in machine.processors:
            if proc.outstanding or proc.committed_count:
                raise ConfigurationError(
                    "checkpoints restore only into fresh machines")
        machine.memory.restore(self.memory_image)
        for proc_id, state in self.thread_states.items():
            machine.processors[proc_id].spec_state.restore(state)
            machine.processors[proc_id].committed_count = (
                self.committed_counts.get(proc_id, 0))
            machine.processors[proc_id].next_seq = (
                self.committed_counts.get(proc_id, 0) + 1)

    def matches_state(
        self,
        memory_image: dict[int, int],
        thread_states: dict[int, ThreadState],
    ) -> bool:
        """True when a (memory, threads) pair equals this checkpoint --
        the test suite's capture/restore identity check."""
        if {a: v for a, v in self.memory_image.items() if v} != \
                {a: v for a, v in memory_image.items() if v}:
            return False
        for proc_id, state in self.thread_states.items():
            other = thread_states.get(proc_id)
            if other is None:
                return False
            if state.architectural_key() != other.architectural_key():
                return False
        return True


@dataclass
class CheckpointStore:
    """An ordered collection of checkpoints (ReVive-style ring)."""

    capacity: int = 8
    checkpoints: list[SystemCheckpoint] = field(default_factory=list)

    def add(self, checkpoint: SystemCheckpoint) -> None:
        """Keep the newest ``capacity`` checkpoints."""
        self.checkpoints.append(checkpoint)
        if len(self.checkpoints) > self.capacity:
            self.checkpoints.pop(0)

    def latest(self) -> SystemCheckpoint:
        """Most recent checkpoint."""
        if not self.checkpoints:
            raise ConfigurationError("no checkpoints taken yet")
        return self.checkpoints[-1]

    def before_commit(self, global_commit_count: int) -> SystemCheckpoint:
        """Newest checkpoint at or before a global commit count."""
        eligible = [c for c in self.checkpoints
                    if c.global_commit_count <= global_commit_count]
        if not eligible:
            raise ConfigurationError(
                f"no checkpoint at or before commit "
                f"{global_commit_count}")
        return eligible[-1]
