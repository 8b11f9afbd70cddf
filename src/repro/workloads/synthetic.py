"""Parameterized synthetic concurrent-program generator.

A :class:`SyntheticSpec` describes a workload's sharing structure; the
generator turns it into a concrete :class:`~repro.machine.program.Program`.
Each thread executes ``work_items`` *items*; an item is a compute block
followed by a handful of memory accesses, with optional lock-protected
critical sections, periodic barriers, and rare I/O or special
instructions.  Accesses within an item cluster on a small number of
cache lines (real programs have spatial locality; this keeps chunk
footprints, and therefore signature densities and conflict rates, in a
realistic range).

The knobs map directly onto the behaviours DeLorean is sensitive to:

* ``sharing_fraction`` and ``shared_lines`` set the cross-thread
  conflict rate (squashes, strata breaks);
* ``lock_*`` set contended-critical-section behaviour (serialization,
  spin instructions);
* ``barrier_every`` sets global synchronization cadence;
* ``imbalance`` skews per-thread work (raytrace-style token stalls);
* ``io_rate`` / ``special_rate`` set deterministic chunk truncations;
* interrupt/DMA rates (commercial workloads) set input-log traffic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.machine.events import DmaTransfer, InterruptEvent
from repro.machine.program import Op, OpKind, Program
from repro.workloads.program_builder import (
    barrier_address,
    lock_address,
    private_address,
    shared_address,
)


@dataclass(frozen=True)
class SyntheticSpec:
    """Complete description of one synthetic workload."""

    name: str
    num_threads: int = 8
    work_items: int = 600
    compute_per_item: int = 24
    private_accesses_per_item: int = 3
    shared_accesses_per_item: int = 2
    sharing_fraction: float = 0.2
    write_fraction: float = 0.35
    shared_lines: int = 8192
    private_lines: int = 512
    line_words: int = 8
    # Structure of the shared region.  Most shared data in real
    # parallel programs is *partitioned*: each thread mostly touches
    # its own slice, with cross-thread traffic through reads (consumer
    # phases), writes into other slices (all-to-all phases like radix's
    # permutation), and a small truly-hot region (queue heads, global
    # counters) where concurrent write conflicts actually happen.
    hot_lines: int = 256
    hot_fraction: float = 0.05
    remote_read_fraction: float = 0.30
    remote_write_fraction: float = 0.0
    # Temporal locality: probability that an item reuses the previous
    # item's shared line instead of drawing a new one.  Real programs
    # revisit working-set lines heavily; this keeps per-chunk footprints
    # (and therefore conflict and signature-occupancy rates) realistic.
    shared_reuse: float = 0.65
    # Producer/consumer structure: each thread owns a "publish ring" at
    # the head of its partition that it appends results to; remote
    # reads consume *lagged* ring slots (slots published well before
    # the reader's own progress point).  This produces the dense,
    # temporally-distant cross-thread RAW dependences that conventional
    # recorders (FDR/RTR/Strata) must log, without inflating the
    # concurrent-conflict (squash) rate -- consumers stay
    # ``consume_lag`` publishes behind the producer's frontier.
    publish_lines: int = 512
    publish_rate: float = 0.5
    publish_every: int = 4           # items per ring slot advance
    consume_lag: int = 40            # slots consumers stay behind
    # Locking.
    lock_count: int = 16
    lock_probability: float = 0.05
    critical_accesses: int = 3
    hot_lock_fraction: float = 0.0   # fraction of acquires on lock 0
    # Barriers.
    barrier_every: int = 0           # items between barriers; 0 = none
    # Load imbalance: thread t runs work_items * (1 + imbalance * t/T).
    imbalance: float = 0.0
    # Deterministic truncation sources.
    io_rate: float = 0.0             # I/O load probability per item
    special_rate: float = 0.0        # special-instruction prob per item
    trap_rate: float = 0.0           # inline trap probability per item
    # System activity (commercial workloads).
    interrupts_per_thousand_items: float = 0.0
    interrupt_handler_ops: int = 96
    dma_bursts: int = 0
    dma_words_per_burst: int = 16
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ConfigurationError("need at least one thread")
        if self.work_items < 1:
            raise ConfigurationError("need at least one work item")
        for name in ("sharing_fraction", "write_fraction",
                     "lock_probability", "hot_lock_fraction", "io_rate",
                     "special_rate", "trap_rate", "hot_fraction",
                     "remote_read_fraction", "remote_write_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be a probability, got {value}")
        if (self.hot_fraction + self.remote_read_fraction
                + self.remote_write_fraction) > 1.0:
            raise ConfigurationError(
                "hot/remote access fractions must sum to at most 1")

    def scaled(self, scale: float) -> "SyntheticSpec":
        """The same workload with ``work_items`` scaled (bench knob);
        ``scale`` must be finite and above 0."""
        if not 0 < scale < math.inf:
            raise ConfigurationError(
                f"scale must be finite and above 0, got {scale!r}")
        items = max(1, int(self.work_items * scale))
        return dataclass_replace(self, work_items=items)

    def with_threads(self, num_threads: int) -> "SyntheticSpec":
        """The same workload on a different processor count."""
        return dataclass_replace(self, num_threads=num_threads)

    def with_seed(self, seed: int) -> "SyntheticSpec":
        """The same workload with a different random seed."""
        return dataclass_replace(self, seed=seed)

    def estimated_instructions_per_thread(self) -> int:
        """Rough dynamic instruction count (spin-free lower bound)."""
        per_item = (self.compute_per_item
                    + self.private_accesses_per_item
                    + self.shared_accesses_per_item
                    + self.lock_probability * (
                        8 + 2 * self.critical_accesses)
                    + self.trap_rate * 16)
        return int(self.work_items * per_item)


def dataclass_replace(spec: SyntheticSpec, **changes) -> SyntheticSpec:
    """`dataclasses.replace` without the import noise at call sites."""
    from dataclasses import replace
    return replace(spec, **changes)


def _other_thread(spec: SyntheticSpec, thread: int,
                  rng: random.Random) -> int:
    other = rng.randrange(spec.num_threads)
    if spec.num_threads > 1:
        while other == thread:
            other = rng.randrange(spec.num_threads)
    return other


def _shared_line(spec: SyntheticSpec, thread: int,
                 rng: random.Random, locality: dict) -> tuple[int, bool]:
    """Pick a shared line for one item's cluster.

    Returns ``(line_index, writable)``: remote-partition reads are
    read-only (consumer traffic), everything else may be written.
    Partition layout: ``[publish ring | scratch]``; the ring is where
    cross-thread traffic concentrates (see ``publish_lines``).
    """
    partition = max(1, spec.shared_lines // spec.num_threads)
    ring = min(spec.publish_lines, max(1, partition // 2))
    roll = rng.random()
    if roll < spec.hot_fraction:
        return rng.randrange(max(1, spec.hot_lines)), True
    base = spec.hot_lines
    frontier = locality.get("item", 0) // max(1, spec.publish_every)
    if roll < spec.hot_fraction + spec.remote_read_fraction:
        # Consume a lagged publish-ring slot of another thread.  Peer
        # progress is approximated by this thread's own item progress
        # (threads advance at similar rates); the slot lag keeps
        # consumers well clear of the producer's concurrent frontier,
        # so these dependences are temporally distant: conventional
        # recorders must log them, but they rarely squash chunks.
        other = _other_thread(spec, thread, rng)
        available = min(frontier - spec.consume_lag, ring)
        if available >= 1:
            slot = rng.randrange(available)
            return base + other * partition + slot, False
        # Nothing safely published yet: read the peer's scratch area.
        return (base + other * partition + ring
                + rng.randrange(max(1, partition - ring)), False)
    if roll < (spec.hot_fraction + spec.remote_read_fraction
               + spec.remote_write_fraction):
        # All-to-all phase (radix permutation): write into another
        # thread's ring at a random slot.
        other = _other_thread(spec, thread, rng)
        return base + other * partition + rng.randrange(ring), True
    # Own partition: publish at the ring frontier or work in scratch.
    if rng.random() < spec.publish_rate:
        return base + thread * partition + (frontier % ring), True
    return (base + thread * partition + ring
            + rng.randrange(max(1, partition - ring)), True)


def _item_ops(spec: SyntheticSpec, thread: int,
              rng: random.Random,
              locality: dict) -> list[Op]:
    """Ops for one work item of one thread.

    ``locality`` carries the thread's last-used shared line between
    items (see ``shared_reuse``).
    """
    ops: list[Op] = []
    compute = max(1, int(rng.gauss(spec.compute_per_item,
                                   spec.compute_per_item * 0.25)))
    ops.append(Op(OpKind.COMPUTE, count=compute))
    # Private accesses: clustered on one private line per item.
    base = rng.randrange(spec.private_lines) * spec.line_words
    for index in range(spec.private_accesses_per_item):
        address = private_address(thread, base + index % spec.line_words)
        if rng.random() < spec.write_fraction:
            ops.append(Op(OpKind.STORE, address=address))
        else:
            ops.append(Op(OpKind.LOAD, address=address))
    # Shared accesses: clustered on one shared line per item.
    if rng.random() < spec.sharing_fraction:
        if ("line" in locality
                and rng.random() < spec.shared_reuse):
            line, writable = locality["line"], locality["writable"]
        else:
            line, writable = _shared_line(spec, thread, rng, locality)
            locality["line"] = line
            locality["writable"] = writable
        base = line * spec.line_words
        for index in range(spec.shared_accesses_per_item):
            address = shared_address(base + index % spec.line_words)
            if writable and rng.random() < spec.write_fraction:
                ops.append(Op(OpKind.STORE, address=address))
            else:
                ops.append(Op(OpKind.LOAD, address=address))
    # Lock-protected critical section.
    if spec.lock_count and rng.random() < spec.lock_probability:
        if rng.random() < spec.hot_lock_fraction:
            lock_index = 0
        else:
            lock_index = rng.randrange(spec.lock_count)
        lock = lock_address(lock_index)
        counter = shared_address(
            (spec.hot_lines + spec.shared_lines + 64) * spec.line_words
            + lock_index * spec.line_words)
        ops.append(Op(OpKind.LOCK, address=lock))
        ops.append(Op(OpKind.RMW, address=counter, value=1))
        for _ in range(spec.critical_accesses - 1):
            ops.append(Op(OpKind.LOAD, address=counter))
        ops.append(Op(OpKind.UNLOCK, address=lock))
    # Rare deterministic truncation sources.
    roll = rng.random()
    if roll < spec.io_rate:
        ops.append(Op(OpKind.IO_LOAD, address=thread % 4))
    elif roll < spec.io_rate + spec.special_rate:
        ops.append(Op(OpKind.SPECIAL))
    if rng.random() < spec.trap_rate:
        ops.append(Op(OpKind.TRAP, count=16))
    return ops


def build_program(spec: SyntheticSpec) -> Program:
    """Generate the concrete Program for a spec (deterministic in the
    spec, including its seed)."""
    rng = random.Random(spec.seed)
    threads: list[list[Op]] = []
    for thread in range(spec.num_threads):
        thread_rng = random.Random(rng.randrange(1 << 62) + thread)
        if spec.num_threads > 1:
            skew = 1.0 + spec.imbalance * thread / (spec.num_threads - 1)
        else:
            skew = 1.0
        items = max(1, int(spec.work_items * skew))
        ops: list[Op] = []
        locality: dict = {}
        for item in range(items):
            locality["item"] = item
            ops.extend(_item_ops(spec, thread, thread_rng, locality))
            if (spec.barrier_every
                    and item % spec.barrier_every == spec.barrier_every - 1
                    and spec.imbalance == 0.0):
                # Barriers only make sense with balanced work.
                ops.append(Op(OpKind.BARRIER,
                              address=barrier_address(0),
                              count=spec.num_threads))
        threads.append(ops)
    initial_memory = {
        shared_address(offset * spec.line_words): offset + 1
        for offset in range(min(spec.shared_lines, 256))}
    interrupts = _generate_interrupts(spec, rng)
    dma_transfers = _generate_dma(spec, rng)
    return Program(
        threads=threads,
        name=spec.name,
        initial_memory=initial_memory,
        interrupts=interrupts,
        dma_transfers=dma_transfers,
        io_seed=spec.seed,
    )


def _estimated_duration_cycles(spec: SyntheticSpec) -> float:
    """Crude duration estimate used to place external events."""
    instructions = spec.estimated_instructions_per_thread()
    return max(10_000.0, instructions * 0.8)


def _generate_interrupts(spec: SyntheticSpec,
                         rng: random.Random) -> list[InterruptEvent]:
    rate = spec.interrupts_per_thousand_items
    if rate <= 0:
        return []
    duration = _estimated_duration_cycles(spec)
    count = max(1, int(spec.work_items * rate / 1000.0))
    events = []
    for index in range(count * spec.num_threads):
        events.append(InterruptEvent(
            time=rng.uniform(0.05, 0.75) * duration,
            processor=index % spec.num_threads,
            vector=rng.randrange(32),
            payload=rng.randrange(1 << 32),
            handler_ops=spec.interrupt_handler_ops,
            high_priority=rng.random() < 0.10,
        ))
    return sorted(events, key=lambda e: e.time)


def _generate_dma(spec: SyntheticSpec,
                  rng: random.Random) -> list[DmaTransfer]:
    if spec.dma_bursts <= 0:
        return []
    duration = _estimated_duration_cycles(spec)
    transfers = []
    # DMA writes land in a dedicated tail past the shared region (and
    # past the lock counters) so they conflict with processor accesses
    # only occasionally.
    tail_lines = (spec.hot_lines + spec.shared_lines + 64
                  + spec.lock_count + 8)
    dma_base = shared_address(tail_lines * spec.line_words)
    for index in range(spec.dma_bursts):
        start = dma_base + index * spec.dma_words_per_burst
        writes = {start + w: rng.randrange(1 << 32)
                  for w in range(spec.dma_words_per_burst)}
        # A minority of bursts deliberately overlap the hot shared
        # region to exercise DMA-vs-chunk conflict handling.
        if rng.random() < 0.2:
            hot = shared_address(
                rng.randrange(max(1, spec.hot_lines)) * spec.line_words)
            writes[hot] = rng.randrange(1 << 32)
        transfers.append(DmaTransfer(
            time=rng.uniform(0.05, 0.75) * duration,
            writes=writes,
        ))
    return sorted(transfers, key=lambda t: t.time)
