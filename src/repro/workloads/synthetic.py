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
from dataclasses import dataclass, replace
from operator import attrgetter

from repro.errors import ConfigurationError
from repro.machine.events import DmaTransfer, InterruptEvent
from repro.machine.program import Op, OpKind, Program, trusted_op
from repro.workloads.program_builder import (
    BARRIER_REGION,
    LOCK_REGION,
    PRIVATE_REGION,
    PRIVATE_STRIDE,
    SHARED_REGION,
    SYNC_STRIDE,
    shared_address,
)


#: The least value of each integer field that :func:`build_program`
#: can generate from (it draws from or divides by those held at 1).  A
#: negative ``line_words`` fails its address check; 0 fails here.
_INT_MINIMUMS = dict(
    num_threads=1, work_items=1, private_lines=1, publish_lines=1,
    interrupt_handler_ops=1, compute_per_item=0,
    private_accesses_per_item=0, shared_accesses_per_item=0,
    shared_lines=0, hot_lines=0, publish_every=0, consume_lag=0,
    lock_count=0, critical_accesses=0, barrier_every=0, dma_bursts=0,
    dma_words_per_burst=0)


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
        for name, least in _INT_MINIMUMS.items():
            value = getattr(self, name)
            if value < least:
                raise ConfigurationError(
                    f"{name} must be at least {least}, got {value}")
        if self.line_words == 0:
            raise ConfigurationError("line_words must not be 0")
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
        return replace(self, work_items=items)

    def with_threads(self, num_threads: int) -> "SyntheticSpec":
        """The same workload on a different processor count."""
        return replace(self, num_threads=num_threads)

    def with_seed(self, seed: int) -> "SyntheticSpec":
        """The same workload with a different random seed."""
        return replace(self, seed=seed)

    def estimated_instructions_per_thread(self) -> int:
        """Rough dynamic instruction count (spin-free lower bound)."""
        per_item = (self.compute_per_item
                    + self.private_accesses_per_item
                    + self.shared_accesses_per_item
                    + self.lock_probability * (
                        8 + 2 * self.critical_accesses)
                    + self.trap_rate * 16)
        return int(self.work_items * per_item)


def _other_thread(spec: SyntheticSpec, thread: int,
                  rng: random.Random) -> int:
    other = rng.randrange(spec.num_threads)
    if spec.num_threads > 1:
        while other == thread:
            other = rng.randrange(spec.num_threads)
    return other


def _shared_line(spec: SyntheticSpec, thread: int, rng: random.Random,
                 item: int) -> tuple[int, bool]:
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
    frontier = item // max(1, spec.publish_every)
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


def build_program(spec: SyntheticSpec) -> Program:
    """Generate the concrete Program for a spec (deterministic in the
    spec, including its seed).

    Replay reruns the program the recording ran, so a spec must give
    equal programs on every supported Python: every draw is a public
    :class:`random.Random` method call, never a private helper such as
    ``_randbelow``, and moving, adding or dropping a draw changes the
    programs ``tests/test_generator_pins.py`` pins.

    Each thread's items are generated by one loop over locals: the op
    kinds, the spec's fields and the thread generator's methods are
    bound before it.  Ops are built with :func:`trusted_op`, and one
    check of the finished threads' address and count columns raises
    :class:`~repro.errors.ConfigurationError` where ``Op()`` would.
    Ops are immutable, so COMPUTE ops are shared by count within one
    build.
    """
    LOAD, STORE, COMPUTE, RMW = (
        OpKind.LOAD, OpKind.STORE, OpKind.COMPUTE, OpKind.RMW)
    LOCK, UNLOCK, BARRIER = OpKind.LOCK, OpKind.UNLOCK, OpKind.BARRIER
    IO_LOAD, SPECIAL, TRAP = OpKind.IO_LOAD, OpKind.SPECIAL, OpKind.TRAP
    make = trusted_op
    num_threads = spec.num_threads
    compute_mean = spec.compute_per_item
    compute_sigma = compute_mean * 0.25
    private_lines = spec.private_lines
    line_words = spec.line_words
    private_offsets = [index % line_words
                       for index in range(spec.private_accesses_per_item)]
    shared_offsets = [index % line_words
                      for index in range(spec.shared_accesses_per_item)]
    write_fraction = spec.write_fraction
    sharing_fraction = spec.sharing_fraction
    shared_reuse = spec.shared_reuse
    lock_count = spec.lock_count
    lock_probability = spec.lock_probability
    hot_lock_fraction = spec.hot_lock_fraction
    counter_base = (spec.hot_lines + spec.shared_lines + 64) * line_words
    counter_loads = range(spec.critical_accesses - 1)
    io_rate = spec.io_rate
    io_or_special = spec.io_rate + spec.special_rate
    trap_rate = spec.trap_rate
    # Barriers only make sense with balanced work.
    barrier_every = spec.barrier_every if spec.imbalance == 0.0 else 0
    barrier_last = barrier_every - 1
    compute_ops: dict[int, Op] = {}
    rng = random.Random(spec.seed)
    threads: list[list[Op]] = []
    for thread in range(num_threads):
        thread_rng = random.Random(rng.randrange(1 << 62) + thread)
        draw = thread_rng.random
        randrange = thread_rng.randrange
        gauss = thread_rng.gauss
        if num_threads > 1:
            skew = 1.0 + spec.imbalance * thread / (num_threads - 1)
        else:
            skew = 1.0
        items = max(1, int(spec.work_items * skew))
        private_base = PRIVATE_REGION + thread * PRIVATE_STRIDE
        io_port = thread % 4
        ops: list[Op] = []
        append = ops.append
        # The item's shared line, kept for the next (``shared_reuse``).
        line = None
        writable = False
        for item in range(items):
            count = int(gauss(compute_mean, compute_sigma))
            if count < 1:
                count = 1
            op = compute_ops.get(count)
            if op is None:
                op = compute_ops[count] = make(COMPUTE, 0, None, count)
            append(op)
            # Private accesses: clustered on one private line per item.
            base = private_base + randrange(private_lines) * line_words
            for offset in private_offsets:
                append(make(STORE if draw() < write_fraction else LOAD,
                            base + offset, None, 1))
            # Shared accesses: clustered on one shared line per item.
            if draw() < sharing_fraction:
                if line is None or not draw() < shared_reuse:
                    line, writable = _shared_line(spec, thread,
                                                  thread_rng, item)
                base = SHARED_REGION + line * line_words
                for offset in shared_offsets:
                    append(make(
                        STORE if writable and draw() < write_fraction
                        else LOAD, base + offset, None, 1))
            # Lock-protected critical section.
            if lock_count and draw() < lock_probability:
                if draw() < hot_lock_fraction:
                    lock_index = 0
                else:
                    lock_index = randrange(lock_count)
                lock = LOCK_REGION + lock_index * SYNC_STRIDE
                counter = SHARED_REGION + (counter_base
                                           + lock_index * line_words)
                append(make(LOCK, lock, None, 1))
                append(make(RMW, counter, 1, 1))
                for _ in counter_loads:
                    append(make(LOAD, counter, None, 1))
                append(make(UNLOCK, lock, None, 1))
            # Rare deterministic truncation sources.
            roll = draw()
            if roll < io_rate:
                append(make(IO_LOAD, io_port, None, 1))
            elif roll < io_or_special:
                append(make(SPECIAL, 0, None, 1))
            if draw() < trap_rate:
                append(make(TRAP, 0, None, 16))
            if barrier_every and item % barrier_every == barrier_last:
                append(make(BARRIER, BARRIER_REGION, None, num_threads))
        threads.append(ops)
    _check_columns(threads)
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


_address_of = attrgetter("address")
_count_of = attrgetter("count")


def _check_columns(threads: list[list[Op]]) -> None:
    """Raise :class:`ConfigurationError`, as ``Op()`` does, for an op
    with a negative address or a count below 1."""
    for ops in threads:
        if ops and min(map(_address_of, ops)) < 0:
            bad = next(op for op in ops if op.address < 0)
            raise ConfigurationError(f"negative address in {bad!r}")
        if ops and min(map(_count_of, ops)) < 1:
            bad = next(op for op in ops if op.count < 1)
            raise ConfigurationError(f"non-positive count in {bad!r}")


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
