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
from dataclasses import dataclass, field

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
        """Execute to completion; returns timing and the access trace."""
        program = self.program
        timing = self.config.timing
        line_shift = self.config.line_shift
        load_exposure, store_exposure = self.model.exposures(timing)
        states = [ThreadState(thread_id=index, finished=not ops)
                  for index, ops in enumerate(program.threads)]
        clocks = [0.0] * program.num_threads
        mem_ops = [0] * program.num_threads
        trace: list[AccessRecord] = []
        spin_instructions = 0
        # External events: interrupts are delivered when the target
        # processor's clock passes the event time; DMA bursts apply
        # when the global minimum clock passes theirs.
        interrupts = sorted(program.interrupts, key=lambda e: e.time)
        interrupt_cursor = {p: 0 for p in range(program.num_threads)}
        by_proc: dict[int, list] = {p: [] for p in range(
            program.num_threads)}
        for event in interrupts:
            if event.processor < program.num_threads:
                by_proc[event.processor].append(event)
        dma = sorted(program.dma_transfers, key=lambda t: t.time)
        dma_cursor = 0

        heap = [(0.0, index) for index in range(program.num_threads)
                if not states[index].finished]
        heapq.heapify(heap)
        if max_steps is None:
            max_steps = 400 * max(1, program.total_static_ops()) + 100_000
        steps = 0

        def charge_read(proc: int, line: int) -> float:
            level = self._caches[proc].access(line)
            if level == "l2":
                return timing.l2_hit_cycles * load_exposure
            if level == "memory":
                return timing.memory_cycles * load_exposure
            return 0.0

        def charge_write(proc: int, line: int) -> float:
            level = self._caches[proc].access(line)
            if level == "l2":
                return timing.l2_hit_cycles * store_exposure
            if level == "memory":
                return timing.memory_cycles * store_exposure
            return 0.0

        def record(proc: int, line: int, is_write: bool,
                   address: int = 0, value: int = 0) -> None:
            mem_ops[proc] += 1
            if self.collect_trace:
                trace.append(AccessRecord(
                    index=len(trace),
                    processor=proc,
                    line=line,
                    is_write=is_write,
                    instruction=states[proc].retired,
                    operation=mem_ops[proc],
                    address=address,
                    value=value,
                ))

        while heap:
            steps += 1
            if steps > max_steps:
                raise DeadlockError(
                    f"interleaved execution exceeded {max_steps} steps "
                    f"(likely a deadlocked spin)")
            clock, proc = heapq.heappop(heap)
            state = states[proc]
            # Deliver any due DMA (globally ordered at the minimum
            # clock, which this pop is).
            while dma_cursor < len(dma) and dma[dma_cursor].time <= clock:
                self.memory.apply(dma[dma_cursor].writes)
                dma_cursor += 1
            # Deliver due interrupts for this processor.
            queue = by_proc[proc]
            cursor = interrupt_cursor[proc]
            if (cursor < len(queue) and queue[cursor].time <= clock
                    and not state.in_handler):
                event = queue[cursor]
                interrupt_cursor[proc] = cursor + 1
                state.enter_handler(build_handler_ops(
                    event.vector, event.payload, event.handler_ops))
            op = self._current_op(state)
            if op is None:
                continue  # thread finished
            cost, spin = self._step(proc, state, op, charge_read,
                                    charge_write, record, timing,
                                    line_shift)
            spin_instructions += spin
            clocks[proc] = clock + cost
            heapq.heappush(heap, (clocks[proc], proc))
        total = sum(s.retired for s in states)
        return InterleavedResult(
            model=self.model,
            cycles=max(clocks) if clocks else 0.0,
            total_instructions=total,
            per_proc_instructions={
                index: states[index].retired
                for index in range(program.num_threads)},
            trace=trace,
            final_memory=self.memory.nonzero_words(),
            spin_instructions=spin_instructions,
        )

    def _current_op(self, state: ThreadState):
        if state.handler_ops is not None:
            if state.handler_index < len(state.handler_ops):
                return state.handler_ops[state.handler_index]
            state.exit_handler()
        if state.op_index >= len(self.program.threads[state.thread_id]):
            state.finished = True
            return None
        return self.program.threads[state.thread_id][state.op_index]

    @staticmethod
    def _advance(state: ThreadState) -> None:
        if state.handler_ops is not None:
            state.handler_index += 1
        else:
            state.op_index += 1

    def _step(self, proc, state, op, charge_read, charge_write, record,
              timing, line_shift):
        """Execute one op step; returns (cycle cost, spin instructions).

        Unlike the chunk interpreter there is no isolation: every store
        is immediately visible, so spins re-read live memory one
        iteration at a time.  ``line_shift`` is the configuration's
        word-to-line shift, derived once per run.
        """
        kind = op.kind
        base = timing.base_cpi
        if kind is OpKind.COMPUTE or kind is OpKind.TRAP:
            count = (state.compute_remaining
                     if state.compute_remaining else op.count)
            state.accumulator = compute_mix(state.accumulator, count)
            state.retired += count
            state.compute_remaining = 0
            self._advance(state)
            return count * base, 0
        if kind is OpKind.LOAD:
            line = op.address >> line_shift
            state.accumulator = self.memory.read(op.address)
            record(proc, line, False, op.address, state.accumulator)
            state.retired += 1
            self._advance(state)
            return base + charge_read(proc, line), 0
        if kind is OpKind.STORE:
            line = op.address >> line_shift
            value = op.value if op.value is not None else state.accumulator
            self.memory.write(op.address, value)
            record(proc, line, True, op.address, value)
            state.retired += 1
            self._advance(state)
            return base + charge_write(proc, line), 0
        if kind is OpKind.RMW:
            line = op.address >> line_shift
            old = self.memory.read(op.address)
            delta = op.value if op.value is not None else 1
            self.memory.write(op.address, old + delta)
            record(proc, line, True, op.address, old + delta)
            state.accumulator = old
            state.retired += 1
            self._advance(state)
            # An atomic exposes its full round trip under every model.
            return base + charge_read(proc, line), 0
        if kind is OpKind.LOCK:
            line = op.address >> line_shift
            value = self.memory.read(op.address)
            cost = LOCK_SPIN_COST * base + charge_read(proc, line)
            state.retired += LOCK_SPIN_COST
            if value == 0:
                self.memory.write(op.address, 1)
                record(proc, line, True, op.address, 1)
                self._advance(state)
                return cost, 0
            record(proc, line, False, op.address, value)
            return cost, LOCK_SPIN_COST
        if kind is OpKind.UNLOCK:
            line = op.address >> line_shift
            self.memory.write(op.address, 0)
            record(proc, line, True, op.address, 0)
            state.retired += 1
            self._advance(state)
            return base + charge_write(proc, line), 0
        if kind is OpKind.BARRIER:
            line = op.address >> line_shift
            if state.stage == _STAGE_START:
                old = self.memory.read(op.address)
                self.memory.write(op.address, old + 1)
                record(proc, line, True, op.address, old + 1)
                state.barrier_target = (old // op.count + 1) * op.count
                state.stage = _STAGE_BARRIER_WAIT
                state.retired += 1
                return base + charge_read(proc, line), 0
            value = self.memory.read(op.address)
            cost = BARRIER_SPIN_COST * base + charge_read(proc, line)
            state.retired += BARRIER_SPIN_COST
            if value >= state.barrier_target:
                state.stage = _STAGE_START
                state.barrier_target = 0
                self._advance(state)
                return cost, 0
            record(proc, line, False, op.address, value)
            return cost, BARRIER_SPIN_COST
        if kind is OpKind.IO_LOAD:
            state.accumulator = self.io_device.load(op.address) & WORD_MASK
            state.retired += 1
            self._advance(state)
            # Uncached: the full memory round trip is exposed.
            return base + timing.memory_cycles, 0
        if kind is OpKind.IO_STORE:
            self.io_device.store(op.address, state.accumulator)
            state.retired += 1
            self._advance(state)
            return base + timing.memory_cycles, 0
        if kind is OpKind.SPECIAL:
            state.retired += 1
            self._advance(state)
            return base + timing.memory_cycles / 2, 0
        raise ValueError(f"unhandled op kind {kind}")

    # NOTE: loads record into the trace lazily -- see record() call
    # sites above.  Loads that hit a spin loop record as reads so the
    # dependence recorders see the WAR/RAW structure of the spin.
