"""Conventional (non-chunked) execution under SC, PC/TSO and RC timing.

This executor runs the same concurrent programs as the chunk machine,
but the way real FDR/RTR/Strata hosts do: every memory access becomes
globally visible immediately, and the interleaving is decided by
per-processor clocks (the processor with the earliest next-op time
executes next).  Two things come out of a run:

* **Timing** -- the cycle count under a consistency model.  The models
  differ only in how much of each miss latency the pipeline exposes
  (:class:`~repro.machine.timing.TimingModel` exposure factors):
  RC hides almost everything (speculation across fences + store
  buffering), aggressive SC exposes most of a load miss despite
  speculative loads and store prefetching, and PC/TSO -- the paper's
  stand-in estimate for Advanced RTR -- sits in between.  These produce
  the RC and SC reference bars of Figure 10.
* **A sequentially-consistent access trace** -- the ordered list of
  memory accesses (with per-processor instruction counts) that the
  conventional recorders (FDR/RTR/Strata) consume.

The executor shares the line-granularity cache model with the chunk
machine so cycle counts are comparable across Figure 10's bars.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass

from repro.chunks.cache import CacheConfig, SharedL2Filter, SpeculativeCache
from repro.errors import DeadlockError
from repro.machine.events import IODevice, build_handler_ops
from repro.machine.memory import MainMemory
from repro.machine.program import (
    BARRIER_SPIN_COST,
    LOCK_SPIN_COST,
    WORD_MASK,
    OpKind,
    Program,
    ThreadState,
    compute_mix,
)
from repro.machine.timing import MachineConfig

_STAGE_START = 0
_STAGE_BARRIER_WAIT = 1


class ConsistencyModel(enum.Enum):
    """Memory consistency models with distinct timing."""

    SC = "sc"
    PC = "pc"   # PC/TSO estimate (Advanced RTR, Section 6.2)
    RC = "rc"

    def exposures(self, timing) -> tuple[float, float]:
        """(load_exposure, store_exposure) for this model."""
        if self is ConsistencyModel.SC:
            return timing.sc_load_exposure, timing.sc_store_exposure
        if self is ConsistencyModel.PC:
            return timing.pc_load_exposure, timing.pc_store_exposure
        return timing.rc_load_exposure, timing.rc_store_exposure


@dataclass(frozen=True)
class AccessRecord:
    """One memory access in the global (SC) order.

    ``instruction`` is the per-processor dynamic instruction count at
    the access (what FDR/RTR put in their log entries); ``operation``
    is the per-processor memory-operation count (what Strata counts).
    """

    index: int
    processor: int
    line: int
    is_write: bool
    instruction: int
    operation: int
    # Word address and value moved (used by the BugNet baseline, which
    # logs load values rather than orderings).
    address: int = 0
    value: int = 0


@dataclass
class InterleavedResult:
    """Outcome of one interleaved execution."""

    model: ConsistencyModel
    cycles: float
    total_instructions: int
    per_proc_instructions: dict[int, int]
    trace: list[AccessRecord]
    final_memory: dict[int, int]
    spin_instructions: int = 0

    @property
    def ipc(self) -> float:
        """Whole-machine committed instructions per cycle."""
        return (self.total_instructions / self.cycles
                if self.cycles > 0 else 0.0)


class InterleavedExecutor:
    """Runs a Program under a conventional consistency model."""

    def __init__(
        self,
        program: Program,
        machine_config: MachineConfig | None = None,
        model: ConsistencyModel = ConsistencyModel.SC,
        collect_trace: bool = True,
    ) -> None:
        self.program = program
        self.config = machine_config or MachineConfig()
        self.model = model
        self.collect_trace = collect_trace
        self.memory = MainMemory(program.initial_memory)
        self.io_device = IODevice(program.io_seed)
        shared_l2 = SharedL2Filter(self.config.l2_lines)
        cache_config = CacheConfig(self.config.l1_sets,
                                   self.config.l1_ways)
        self._caches = [SpeculativeCache(cache_config, shared_l2)
                        for _ in range(program.num_threads)]

    def run(self, max_steps: int | None = None) -> InterleavedResult:
        """Execute to completion; returns timing and the access trace.

        One loop runs every op: the processor with the earliest clock,
        at the heap's top, takes due DMA and interrupts, fetches and
        executes its op, and its top entry is replaced by its new clock
        (popped once its thread finishes).  Every store is immediately
        visible, so spins re-read live memory one iteration at a time.
        What stays fixed for the run is bound before the loop, and
        costs keep their operand order (docs/INTERNALS.md §6).
        ``compute_mix`` is looked up here, never at import, so a
        wrapper installed before the run sees every call.
        """
        program = self.program
        threads = program.threads
        num_threads = program.num_threads
        timing = self.config.timing
        line_shift = self.config.line_shift
        base = timing.base_cpi
        load_exposure, store_exposure = self.model.exposures(timing)
        load_stall = {"l1": 0.0, "l2": timing.l2_hit_cycles * load_exposure,
                      "memory": timing.memory_cycles * load_exposure}
        store_stall = {"l1": 0.0, "l2": timing.l2_hit_cycles * store_exposure,
                       "memory": timing.memory_cycles * store_exposure}
        memory = self.memory
        read, write = memory.read, memory.write
        accesses = [cache.access for cache in self._caches]
        mix = compute_mix
        heapreplace = heapq.heapreplace
        LOAD, STORE, COMPUTE, TRAP, RMW, LOCK = (
            OpKind.LOAD, OpKind.STORE, OpKind.COMPUTE, OpKind.TRAP,
            OpKind.RMW, OpKind.LOCK)
        UNLOCK, BARRIER, IO_LOAD, IO_STORE, SPECIAL = (
            OpKind.UNLOCK, OpKind.BARRIER, OpKind.IO_LOAD, OpKind.IO_STORE,
            OpKind.SPECIAL)
        states = [ThreadState(thread_id=index, finished=not ops)
                  for index, ops in enumerate(threads)]
        collect_trace = self.collect_trace
        trace: list[AccessRecord] = []
        mem_ops = [0] * num_threads

        def record(proc, line, is_write, address, value) -> None:
            mem_ops[proc] += 1
            trace.append(AccessRecord(
                len(trace), proc, line, is_write, states[proc].retired,
                mem_ops[proc], address, value))

        spin_instructions = 0
        cycles = 0.0
        # External events: interrupts are delivered when the target
        # processor's clock passes the event time; DMA bursts apply
        # when the global minimum clock passes theirs.  Each stream is
        # kept latest first, so its next event is its last.
        dma = sorted(program.dma_transfers, key=lambda t: t.time)[::-1]
        interrupts: list[list] = [[] for _ in range(num_threads)]
        for event in sorted(program.interrupts, key=lambda e: e.time)[::-1]:
            if event.processor < num_threads:
                interrupts[event.processor].append(event)
        heap = [(0.0, index) for index in range(num_threads)
                if not states[index].finished]
        heapq.heapify(heap)
        if max_steps is None:
            max_steps = 400 * max(1, program.total_static_ops()) + 100_000
        steps = 0
        while heap:
            steps += 1
            if steps > max_steps:
                raise DeadlockError(
                    f"interleaved execution exceeded {max_steps} steps "
                    f"(likely a deadlocked spin)")
            clock, proc = heap[0]
            state = states[proc]
            # Deliver any due DMA (globally ordered at the minimum
            # clock, which the heap's top is).
            while dma and dma[-1].time <= clock:
                memory.apply(dma.pop().writes)
            handler = state.handler_ops
            queue = interrupts[proc]
            if queue and queue[-1].time <= clock and handler is None:
                event = queue.pop()
                state.enter_handler(build_handler_ops(
                    event.vector, event.payload, event.handler_ops))
                handler = state.handler_ops
            if handler is not None:
                if state.handler_index < len(handler):
                    op = handler[state.handler_index]
                else:
                    state.exit_handler()
                    handler = None
            if handler is None:
                ops = threads[proc]
                if state.op_index >= len(ops):
                    state.finished = True
                    heapq.heappop(heap)
                    cycles = max(cycles, clock)
                    continue
                op = ops[state.op_index]
            kind = op.kind
            address = op.address  # an I/O op's port
            line = address >> line_shift
            if kind is LOAD:
                value = read(address)
                state.accumulator = value
                if collect_trace:
                    record(proc, line, False, address, value)
                state.retired += 1
                cost = base + load_stall[accesses[proc](line)]
            elif kind is STORE:
                value = op.value if op.value is not None else state.accumulator
                write(address, value)
                if collect_trace:
                    record(proc, line, True, address, value)
                state.retired += 1
                cost = base + store_stall[accesses[proc](line)]
            elif kind is COMPUTE or kind is TRAP:
                count = state.compute_remaining or op.count
                state.accumulator = mix(state.accumulator, count)
                state.retired += count
                state.compute_remaining = 0
                cost = count * base
            elif kind is RMW:
                old = read(address)
                delta = op.value if op.value is not None else 1
                write(address, old + delta)
                if collect_trace:
                    record(proc, line, True, address, old + delta)
                state.accumulator = old
                state.retired += 1
                # An atomic exposes its full round trip under every model.
                cost = base + load_stall[accesses[proc](line)]
            elif kind is LOCK:
                value = read(address)
                cost = LOCK_SPIN_COST * base + load_stall[accesses[proc](line)]
                state.retired += LOCK_SPIN_COST
                if value != 0:
                    # Held: this iteration spins; the next one tests again.
                    if collect_trace:
                        record(proc, line, False, address, value)
                    spin_instructions += LOCK_SPIN_COST
                    heapreplace(heap, (clock + cost, proc))
                    continue
                write(address, 1)
                if collect_trace:
                    record(proc, line, True, address, 1)
            elif kind is UNLOCK:
                write(address, 0)
                if collect_trace:
                    record(proc, line, True, address, 0)
                state.retired += 1
                cost = base + store_stall[accesses[proc](line)]
            elif kind is BARRIER:
                if state.stage == _STAGE_START:
                    old = read(address)
                    write(address, old + 1)
                    if collect_trace:
                        record(proc, line, True, address, old + 1)
                    state.barrier_target = (old // op.count + 1) * op.count
                    state.stage = _STAGE_BARRIER_WAIT
                    state.retired += 1
                    cost = base + load_stall[accesses[proc](line)]
                    heapreplace(heap, (clock + cost, proc))
                    continue
                value = read(address)
                cost = (BARRIER_SPIN_COST * base
                        + load_stall[accesses[proc](line)])
                state.retired += BARRIER_SPIN_COST
                if value < state.barrier_target:
                    if collect_trace:
                        record(proc, line, False, address, value)
                    spin_instructions += BARRIER_SPIN_COST
                    heapreplace(heap, (clock + cost, proc))
                    continue
                state.stage = _STAGE_START
                state.barrier_target = 0
            elif kind is IO_LOAD:
                state.accumulator = self.io_device.load(address) & WORD_MASK
                state.retired += 1
                # Uncached: the full memory round trip is exposed.
                cost = base + timing.memory_cycles
            elif kind is IO_STORE:
                self.io_device.store(address, state.accumulator)
                state.retired += 1
                cost = base + timing.memory_cycles
            elif kind is SPECIAL:
                state.retired += 1
                cost = base + timing.memory_cycles / 2
            else:
                raise ValueError(f"unhandled op kind {kind}")
            # The op completed: step past it.
            if handler is None:
                state.op_index += 1
            else:
                state.handler_index += 1
            heapreplace(heap, (clock + cost, proc))
        return InterleavedResult(
            model=self.model,
            cycles=cycles,
            total_instructions=sum(state.retired for state in states),
            per_proc_instructions={
                index: state.retired for index, state in enumerate(states)},
            trace=trace,
            final_memory=memory.nonzero_words(),
            spin_instructions=spin_instructions,
        )
