"""Deterministic replay: log cursors, perturbation, and verification.

The :class:`ReplaySource` wraps a :class:`~repro.core.recorder.Recording`
with consuming cursors for every log.  During replay the machine asks
it for chunk-size targets (CS log), interrupt injections (Interrupt
log, keyed by processor-local chunkID), I/O load values (I/O log) and
DMA data (DMA log); the arbiter's replay policy consumes the PI log (or
strata, or enforces round-robin for PicoLog).  The source never touches
the original workload's event streams or the modeled I/O device -- that
separation is what makes the input-log tests meaningful.

:class:`ReplayPerturbation` reproduces the paper's replay-speed
methodology (Section 6.2.1): parallel commit disabled, arbitration
latency raised from 30 to 50 cycles, random 10-300-cycle stalls before
30% of commit operations, and a 1.5% hit/miss timing flip -- all of
which must *not* change the replayed architectural state, only its
timing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.analysis.stats import RunStats
from repro.chunks.chunk import TruncationReason
from repro.core.recorder import Recording, commits_by_processor
from repro.errors import ReplayDivergenceError
from repro.machine.events import InterruptEvent


@dataclass(frozen=True)
class ReplayPerturbation:
    """Timing noise injected during replay (Section 6.2.1)."""

    seed: int = 12345
    commit_stall_probability: float = 0.30
    commit_stall_min_cycles: int = 10
    commit_stall_max_cycles: int = 300
    cache_flip_rate: float = 0.015
    disable_parallel_commit: bool = True
    # Replay proceeds under a hypervisor layer (Section 3.4.2) that
    # validates every chunk boundary against the logs.  Two timing-only
    # models of that cost are available: a fixed per-chunk validation
    # overhead (default), and -- more drastic -- shrinking the
    # speculative window to a single chunk.  Neither can change the
    # replayed architectural state (chunk contents depend solely on
    # pre-commit state); both only slow replay down.
    chunk_validation_cycles: float = 250.0
    single_chunk_window: bool = False

    @classmethod
    def none(cls) -> "ReplayPerturbation":
        """No injected noise (used by determinism unit tests that want
        a clean baseline; the property tests use real noise)."""
        return cls(commit_stall_probability=0.0, cache_flip_rate=0.0,
                   chunk_validation_cycles=0.0,
                   single_chunk_window=False)


class ReplaySource:
    """Consuming cursors over a recording's logs.

    ``start_checkpoint`` (interval replay, Appendix B) fast-forwards
    every cursor to the checkpoint's consumption state: I/O values and
    DMA bursts consumed by the prefix are skipped, and interrupt
    entries whose handler chunks already committed are passed over.
    CS-log lookups need no cursor -- they are keyed by absolute
    per-processor chunk sequence numbers.
    """

    def __init__(self, recording: Recording,
                 start_checkpoint=None) -> None:
        self.recording = recording
        config = recording.mode_config
        self._order_and_size = config.mode.logs_every_chunk_size
        if self._order_and_size:
            self._sizes = {
                proc: log.sizes_in_order()
                for proc, log in recording.cs_logs.items()}
        else:
            self._forced = {
                proc: log.truncations_by_seq()
                for proc, log in recording.cs_logs.items()}
        self._interrupt_cursor = {
            proc: 0 for proc in recording.interrupt_logs}
        self._io_cursor = {proc: 0 for proc in recording.io_logs}
        self._dma_cursor = 0
        self._dma_slot_cursor = 0
        if start_checkpoint is not None:
            for proc, consumed in start_checkpoint.io_consumed.items():
                if proc in self._io_cursor:
                    self._io_cursor[proc] = consumed
            self._dma_cursor = start_checkpoint.dma_consumed
            self._dma_slot_cursor = start_checkpoint.dma_consumed
            for proc, log in recording.interrupt_logs.items():
                committed = start_checkpoint.committed_counts.get(
                    proc, 0)
                cursor = 0
                while (cursor < len(log.entries)
                       and log.entries[cursor].chunk_id <= committed):
                    cursor += 1
                self._interrupt_cursor[proc] = cursor

    # -- chunk sizing ----------------------------------------------------

    def chunk_target(self, proc: int, seq: int) -> \
            tuple[int, TruncationReason]:
        """Instruction budget (and truncation reason to report when it
        is reached) for the chunk ``(proc, seq)``."""
        if self._order_and_size:
            sizes = self._sizes.get(proc, [])
            if seq - 1 < len(sizes):
                return max(1, sizes[seq - 1]), TruncationReason.CS_FORCED
            # Past the end of the log: the thread must be about to end.
            return (self.recording.mode_config.standard_chunk_size,
                    TruncationReason.SIZE_LIMIT)
        forced = self._forced.get(proc, {})
        if seq in forced:
            return max(1, forced[seq]), TruncationReason.CS_FORCED
        return (self.recording.mode_config.standard_chunk_size,
                TruncationReason.SIZE_LIMIT)

    # -- interrupts --------------------------------------------------------

    def maybe_interrupt(self, proc: int, next_seq: int) -> \
            InterruptEvent | None:
        """The interrupt to inject if the chunk about to be built is a
        logged handler chunk; consumes the entry."""
        log = self.recording.interrupt_logs.get(proc)
        if log is None:
            return None
        cursor = self._interrupt_cursor[proc]
        if cursor >= len(log.entries):
            return None
        entry = log.entries[cursor]
        if entry.chunk_id != next_seq:
            if entry.chunk_id < next_seq:
                raise ReplayDivergenceError(
                    f"processor {proc} passed interrupt chunkID "
                    f"{entry.chunk_id} without injecting its handler",
                    proc_id=proc, chunk_index=entry.chunk_id,
                    expected=entry.chunk_id, actual=next_seq)
            return None
        self._interrupt_cursor[proc] = cursor + 1
        return InterruptEvent(
            time=0.0,
            processor=proc,
            vector=entry.vector,
            payload=entry.payload,
            handler_ops=entry.handler_ops,
            high_priority=entry.high_priority,
            replay_chunk_id=entry.chunk_id,
        )

    def has_pending_interrupts(self, proc: int) -> bool:
        """True while logged handlers remain un-injected for ``proc``
        (keeps an otherwise-finished processor alive)."""
        log = self.recording.interrupt_logs.get(proc)
        if log is None:
            return False
        return self._interrupt_cursor[proc] < len(log.entries)

    def gate_for(self, proc: int, committed_count: int) -> int | None:
        """PicoLog: the commit slot gating ``proc``'s next commit.

        Returns the recorded slot when the next chunk ``proc`` will
        commit (``committed_count + 1``) is a logged handler chunk, or
        None otherwise.  Stateless in the injection cursor: the gate
        must hold from handler injection (which consumes the log entry)
        until the handler chunk actually commits.
        """
        if not self.recording.mode_config.mode.predefined_order:
            return None
        log = self.recording.interrupt_logs.get(proc)
        if log is None:
            return None
        for entry in log.entries:
            if entry.chunk_id > committed_count:
                if entry.chunk_id == committed_count + 1:
                    return entry.commit_slot
                return None
        return None

    # -- I/O ---------------------------------------------------------------

    def io_load(self, proc: int, port: int) -> int:
        """Next recorded I/O load value for ``proc`` (ports are
        implicit: values replay in program order, Section 4.2.2)."""
        log = self.recording.io_logs.get(proc)
        cursor = self._io_cursor.get(proc, 0)
        if log is None or cursor >= len(log.values):
            raise ReplayDivergenceError(
                f"processor {proc} performed an I/O load with an empty "
                f"I/O log (port {port})", proc_id=proc)
        self._io_cursor[proc] = cursor + 1
        return log.values[cursor]

    def io_store(self, proc: int, port: int, value: int) -> None:
        """I/O stores need no log; the replayed value equals the
        recorded one by determinism."""

    # -- DMA -----------------------------------------------------------------

    def next_dma_writes(self) -> dict[int, int]:
        """Consume the next DMA burst's data."""
        if self._dma_cursor >= len(self.recording.dma_log.entries):
            raise ReplayDivergenceError(
                "DMA commit due but the DMA log is exhausted",
                proc_id="dma", chunk_index=self._dma_cursor)
        entry = self.recording.dma_log.entries[self._dma_cursor]
        self._dma_cursor += 1
        return dict(entry.writes)

    def dma_due_at_slot(self, grant_count: int) -> bool:
        """PicoLog: is a DMA burst recorded at this commit slot?"""
        slots = self.recording.dma_log.commit_slots
        if self._dma_slot_cursor >= len(slots):
            return False
        return slots[self._dma_slot_cursor] <= grant_count

    def consume_dma_slot(self) -> None:
        """Advance the PicoLog DMA slot cursor."""
        self._dma_slot_cursor += 1

    def cursors(self) -> dict:
        """Absolute log-cursor positions (debugger/checkpoint support).

        All cursors count from the start of the *recording*, even for a
        source fast-forwarded by an interval checkpoint, so a snapshot
        of them can seed a new :class:`IntervalCheckpoint` directly.
        """
        return {
            "io": dict(self._io_cursor),
            "dma": self._dma_cursor,
            "interrupt": dict(self._interrupt_cursor),
        }

    def verify_fully_consumed(self) -> list[str]:
        """End-of-replay audit: every log cursor must be at its end.
        Returns a list of problems (empty when clean)."""
        problems = []
        for proc, cursor in self._interrupt_cursor.items():
            total = len(self.recording.interrupt_logs[proc].entries)
            if cursor != total:
                problems.append(
                    f"processor {proc}: {total - cursor} interrupt "
                    f"entries not injected")
        for proc, cursor in self._io_cursor.items():
            total = len(self.recording.io_logs[proc].values)
            if cursor != total:
                problems.append(
                    f"processor {proc}: {total - cursor} I/O values "
                    f"not consumed")
        if self._dma_cursor != len(self.recording.dma_log.entries):
            problems.append("DMA log not fully consumed")
        return problems


@dataclass
class DeterminismReport:
    """Outcome of comparing a replay against its recording."""

    matches: bool
    compared_chunks: int
    mismatches: list[str] = field(default_factory=list)
    #: :func:`first_divergence` of the compared commit lists: every
    #: recorded commit before it was reproduced.  None when every commit
    #: was (the final state may still differ).  Salvage replay uses this
    #: to credit the verified prefix of a damaged recording before
    #: resyncing past the fault.
    first_mismatch: int | None = None

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.matches:
            return (f"deterministic: {self.compared_chunks} chunk "
                    f"commits reproduced exactly")
        head = "; ".join(self.mismatches[:3])
        return (f"DIVERGED ({len(self.mismatches)} mismatches): {head}")


@dataclass
class ReplayResult:
    """Everything a replay run produced."""

    stats: RunStats
    determinism: DeterminismReport
    final_memory: dict[int, int]
    perturbation: ReplayPerturbation

    @property
    def cycles(self) -> float:
        """Replay duration in cycles."""
        return self.stats.cycles


def aligned_replay(recorded: list[tuple], replayed: list[tuple],
                   machine_config=None) -> list:
    """The replayed commits lined up with the recorded ones: as they
    are (ordered discipline), or, given ``machine_config`` (the
    per-processor discipline of stratified replay), the replayed commit
    at each recorded commit's position in its processor's stream (None
    past that stream's end), then the replayed commits past the end of
    their processor's recorded stream."""
    if machine_config is None:
        return replayed
    aligned: list = [None] * len(recorded)
    extras: list[tuple] = []
    # Each recorded commit's global index, filed under its processor.
    slots = commits_by_processor(
        [(fingerprint[0], index)
         for index, fingerprint in enumerate(recorded)], machine_config)
    for proc, stream in commits_by_processor(
            replayed, machine_config).items():
        positions = slots.get(proc, [])
        for (_, index), fingerprint in zip(positions, stream):
            aligned[index] = fingerprint
        extras.extend(stream[len(positions):])
    return aligned + extras


def first_divergence(recorded: list[tuple], replayed: list[tuple],
                     machine_config=None) -> int | None:
    """The smallest recorded global index whose commit the replay did
    not reproduce, or None when it reproduced every commit and no more,
    under :func:`aligned_replay`'s discipline.  A missing commit counts
    as a difference; extra replayed commits give ``len(recorded)``."""
    aligned = aligned_replay(recorded, replayed, machine_config)
    for index, (expected, actual) in enumerate(zip(recorded, aligned)):
        if expected != actual:
            return index
    if len(recorded) == len(aligned):
        return None
    return min(len(recorded), len(aligned))


def verify_determinism(
    recording: Recording,
    replay_fingerprints: list[tuple],
    replay_final_memory: dict[int, int],
    replay_thread_keys: dict[int, tuple],
    ordered: bool,
    start_checkpoint=None,
    stop_after: int = 0,
) -> DeterminismReport:
    """Compare a replay's capture against the recording: the only
    comparison of a replay with its recording.

    ``replay_fingerprints`` is the replay's global commit order.
    ``ordered`` selects the comparison discipline: exact global commit
    order for PI-log/round-robin replay, per-processor order only for
    stratified replay (within a stratum the global order is legitimately
    free, Section 4.3).  The per-processor streams are projections of
    both global lists (:func:`~repro.core.recorder.commits_by_processor`).
    For interval replay, only the commits after ``start_checkpoint`` are
    expected (the prefix was never executed).  The lists are compared
    whole; only when they differ does :func:`first_divergence` locate
    ``first_mismatch`` under the same discipline.
    """
    expected_global = recording.fingerprints
    if start_checkpoint is not None:
        expected_global = expected_global[
            start_checkpoint.commit_index:]
    if stop_after:
        # Bounded replay of I(n, m): compare exactly the m-commit
        # window.  The replay may legally finalize a few extra
        # in-flight commits past the stop point; they are ignored, as
        # is the (mid-flight) final machine state.
        expected_global = expected_global[:stop_after]
        replay_fingerprints = replay_fingerprints[:stop_after]
    mismatches: list[str] = []
    first_mismatch: int | None = None
    compared = len(replay_fingerprints)
    if ordered:
        if expected_global != replay_fingerprints:
            first_mismatch = first_divergence(expected_global,
                                              replay_fingerprints)
            if len(expected_global) != len(replay_fingerprints):
                mismatches.append(
                    f"commit count differs: recorded "
                    f"{len(expected_global)}, replayed "
                    f"{len(replay_fingerprints)}")
            pairs = zip(expected_global[first_mismatch:],
                        replay_fingerprints[first_mismatch:])
            for index, (expected, actual) in enumerate(pairs,
                                                       first_mismatch):
                if expected != actual:
                    mismatches.append(
                        f"commit #{index}: recorded {expected[:5]}..., "
                        f"replayed {actual[:5]}...")
                    if len(mismatches) > 10:
                        break
    else:
        config = recording.machine_config
        replayed = commits_by_processor(replay_fingerprints, config)
        for proc, expected_list in commits_by_processor(
                expected_global, config).items():
            actual_list = replayed.get(proc, [])
            if expected_list != actual_list:
                mismatches.append(
                    f"processor {proc}: chunk stream differs "
                    f"({len(expected_list)} recorded vs "
                    f"{len(actual_list)} replayed chunks)")
        if mismatches:
            first_mismatch = first_divergence(
                expected_global, replay_fingerprints, config)
    if not stop_after:  # a bounded window's final state is mid-flight
        final = recording.final_memory
        if final != replay_final_memory:
            missing = set(final) ^ set(replay_final_memory)
            diff = {a for a in set(final) & set(replay_final_memory)
                    if final[a] != replay_final_memory[a]}
            mismatches.append(
                f"final memory differs: {len(missing)} addresses "
                f"present in only one image, {len(diff)} with different "
                f"values")
        if recording.final_thread_keys != replay_thread_keys:
            mismatches.append("final thread architectural states differ")
    return DeterminismReport(
        matches=not mismatches,
        compared_chunks=compared,
        mismatches=mismatches,
        first_mismatch=first_mismatch,
    )


def make_perturbation_rng(perturbation: ReplayPerturbation) -> \
        random.Random:
    """The RNG driving injected replay noise (seeded, reproducible)."""
    return random.Random(perturbation.seed)
