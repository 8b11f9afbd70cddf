"""The DeLorean recorder and the Recording it produces.

The recorder is a set of hooks the machine calls during the initial
execution:

* ``on_grant`` -- the arbiter granted a chunk commit: append the procID
  to the PI log (Order&Size/OrderOnly) and feed the Stratifier.
* ``on_commit`` -- a chunk's commit fully propagated: account its size
  in the CS log (every chunk in Order&Size; only non-deterministic
  truncations otherwise), and capture Interrupt/IO log entries.
* ``on_dma`` -- a DMA burst committed: log its data (and, in PicoLog,
  its commit slot) and its PI entry.

The resulting :class:`Recording` bundles the memory-ordering log, the
input logs, the start checkpoint of a segment that does not begin at
its program's initial state, and -- clearly separated --
*verification instrumentation* (commit fingerprints and the final
memory image) that a real hardware recorder would not keep but that our
test suite uses to prove replay determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chunks.chunk import Chunk
from repro.core.logs import (
    ChunkSizeLog,
    DMALog,
    InterruptEntry,
    InterruptLog,
    IOLog,
    MemoryOrderingLog,
    PILog,
)
from repro.core.modes import ModeConfig
from repro.core.stratifier import Stratifier
from repro.analysis.stats import RunStats
from repro.chunks.signature import Signature
from repro.machine.timing import MachineConfig
from repro.telemetry.tracer import NULL_TRACER


class Recorder:
    """Log-producing hooks attached to a recording machine."""

    def __init__(self, machine_config: MachineConfig,
                 mode_config: ModeConfig, tracer=None) -> None:
        self.machine_config = machine_config
        self.mode_config = mode_config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.pi_log = PILog(machine_config.pi_entry_bits)
        self.cs_logs = {
            proc: ChunkSizeLog(mode_config)
            for proc in range(machine_config.num_processors)}
        self.interrupt_logs = {
            proc: InterruptLog()
            for proc in range(machine_config.num_processors)}
        self.io_logs = {
            proc: IOLog()
            for proc in range(machine_config.num_processors)}
        self.dma_log = DMALog()
        # Stratifiers run alongside whenever a PI log exists, one per
        # Figure 9 configuration (1/3/7 chunks per processor per
        # stratum) plus the configured cap, so every recording carries
        # the full stratified-size comparison.  Only the configured
        # cap's stratified log is *authoritative* for replay.
        self.stratifiers: dict[int, Stratifier] = {}
        if mode_config.mode.has_pi_log:
            caps = {1, 3, 7, mode_config.chunks_per_stratum}
            self.stratifiers = {
                cap: Stratifier(
                    num_slots=machine_config.num_processors + 1,
                    chunks_per_stratum=cap,
                    signature_config=machine_config.signature,
                )
                for cap in sorted(caps)}

    @property
    def stratifier(self) -> Stratifier | None:
        """The Stratifier for the configured chunks-per-stratum cap."""
        if not self.stratifiers:
            return None
        return self.stratifiers[self.mode_config.chunks_per_stratum]

    def on_grant(self, chunk: Chunk) -> None:
        """Arbiter granted a commit: update the interleaving logs."""
        if chunk.piece_index > 0:
            return  # continuation pieces share the parent's entry
        if self.mode_config.mode.has_pi_log:
            self.pi_log.append(chunk.processor)
            for stratifier in self.stratifiers.values():
                stratifier.observe(
                    chunk.processor, chunk.read_signature,
                    chunk.write_signature)
            if self.tracer.enabled:
                self.tracer.counter(
                    "log", "pi_bits", chunk.grant_time,
                    bits=self.pi_log.size_bits)

    def on_commit(self, chunk: Chunk) -> None:
        """A chunk commit finalized: size, interrupt and I/O logging."""
        self.cs_logs[chunk.processor].note_commit(
            size=chunk.instructions,
            truncated=chunk.truncation.is_nondeterministic,
        )
        if self.tracer.enabled:
            self.tracer.counter(
                "log", "cs_bits", chunk.commit_time,
                bits=sum(log.size_bits
                         for log in self.cs_logs.values()))
        if chunk.is_handler and chunk.piece_index == 0:
            event = chunk.handler_event
            slot = (chunk.grant_slot
                    if self.mode_config.mode.predefined_order
                    else 0)
            self.interrupt_logs[chunk.processor].append(InterruptEntry(
                chunk_id=chunk.logical_seq,
                vector=event.vector,
                payload=event.payload,
                handler_ops=event.handler_ops,
                high_priority=event.high_priority,
                commit_slot=slot,
            ))
        for value in chunk.io_values:
            self.io_logs[chunk.processor].append(value)

    def on_dma_grant(self, write_signature: Signature) -> None:
        """A DMA burst was granted: record its interleaving position.

        Like processor chunks, the DMA's PI entry is written at *grant*
        time so the PI log is exactly the commit (grant) order even
        when a chunk and a DMA burst are in flight simultaneously.
        """
        if self.mode_config.mode.has_pi_log:
            self.pi_log.append(self.machine_config.dma_proc_id)
            empty_reads = Signature(self.machine_config.signature)
            for stratifier in self.stratifiers.values():
                stratifier.observe(
                    self.machine_config.dma_proc_id, empty_reads,
                    write_signature)

    def on_dma_commit(self, writes: dict[int, int],
                      grant_slot: int) -> None:
        """A DMA burst's commit finalized: log its data (Section 3.3).

        In PicoLog the arbiter also records the burst's commit slot.
        """
        if self.mode_config.mode.has_pi_log:
            self.dma_log.append(writes)
        else:
            self.dma_log.append(writes, commit_slot=grant_slot)

    def finish(self) -> None:
        """Flush end-of-run state (the Stratifiers' partial strata)."""
        for stratifier in self.stratifiers.values():
            stratifier.finish()

    def memory_ordering_log(self) -> MemoryOrderingLog:
        """The structure whose size Figures 6-9 report."""
        log = MemoryOrderingLog(
            pi_log=self.pi_log,
            cs_logs=self.cs_logs,
            mode=self.mode_config.mode,
        )
        if self.stratifier is not None:
            log.stratified_pi_bits = self.stratifier.size_bits
            log.stratified_pi_compressed_bits = (
                self.stratifier.compressed_size_bits())
            log.stratified_by_cap = {
                cap: (s.size_bits, s.compressed_size_bits())
                for cap, s in self.stratifiers.items()}
        return log


def commits_by_processor(fingerprints: list[tuple],
                         config: MachineConfig) -> dict[int, list[tuple]]:
    """Each processor's chunk stream, projected from the global commit
    order (DMA bursts under ``config.dma_proc_id``).  Every processor
    and the DMA engine get a key, in id order, even with no commits."""
    dma = config.dma_proc_id
    streams = {proc: [] for proc in (*range(config.num_processors), dma)}
    for fingerprint in fingerprints:
        owner = fingerprint[0]
        streams.setdefault(dma if owner == "dma" else owner, []).append(
            fingerprint)
    return streams


@dataclass
class Recording:
    """Everything needed to deterministically replay an execution.

    The ``fingerprints`` / ``final_memory`` / ``final_thread_keys``
    fields are verification instrumentation (see module docstring), not
    part of the hardware log; log-size accounting never includes them.
    ``fingerprints`` is the one commit record, in global commit order;
    :func:`commits_by_processor` projects each processor's stream.  A
    chunk's fingerprint is ``(proc, seq, piece, is_handler,
    instructions, writes, end_key)`` and a DMA burst's ``("dma", seq,
    writes)``; ``writes`` is ``(addresses, values)``, two int tuples
    ascending by address (:func:`repro.chunks.chunk.write_columns`),
    and :func:`repro.chunks.chunk.write_pairs` reads it as pairs.
    """

    mode_config: ModeConfig
    machine_config: MachineConfig
    program: object
    pi_log: PILog
    cs_logs: dict[int, ChunkSizeLog]
    interrupt_logs: dict[int, InterruptLog]
    io_logs: dict[int, IOLog]
    dma_log: DMALog
    strata: list[tuple[int, ...]] = field(default_factory=list)
    stratified: bool = False
    # Verification instrumentation:
    fingerprints: list[tuple] = field(default_factory=list)
    final_memory: dict[int, int] = field(default_factory=dict)
    final_thread_keys: dict[int, tuple] = field(default_factory=dict)
    stats: RunStats = field(default_factory=RunStats)
    memory_ordering: MemoryOrderingLog | None = None
    # Commit-boundary checkpoints for interval replay (Appendix B).
    interval_checkpoints: object | None = None
    # A degraded segment's commit-index-0 start (repro.guard.degrade).
    start_checkpoint: object | None = None

    @property
    def total_commits(self) -> int:
        """Committed chunks across all processors."""
        return self.stats.total_committed_chunks

    @property
    def total_committed_instructions(self) -> int:
        """Committed dynamic instructions across all processors."""
        return self.stats.total_committed_instructions

    def log_bits_per_proc_per_kiloinst(self, compressed: bool = True) -> \
            float:
        """Memory-ordering log size in the paper's headline metric."""
        if self.memory_ordering is None:
            return 0.0
        return self.memory_ordering.bits_per_proc_per_kiloinst(
            self.total_committed_instructions, compressed)
