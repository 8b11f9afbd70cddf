"""A store-buffer TSO executor (Advanced RTR's substrate).

Advanced RTR (Section 2.1) records executions on a Total Store Order
machine: loads may bypass older stores sitting in a per-processor FIFO
store buffer, and the recorder must log the value of any load that
violated SC.  The paper only *estimates* Advanced RTR's speed via PC;
this module provides an actual TSO execution so the estimate can be
checked, plus the SC-violation detection Advanced RTR's logging
algorithm needs.

Model: each processor owns a FIFO store buffer of configurable depth.
Stores retire into the buffer immediately (no stall) and drain to
memory ``drain_cycles`` after issue (or earlier if the buffer fills,
which stalls the store).  Loads forward from the youngest matching
buffered store; otherwise they read memory, *bypassing* older buffered
stores.  A bypass becomes an **observable SC violation** -- the case
whose load value Advanced RTR must log -- only when the loaded
location was written by another processor after the oldest buffered
store was issued; unobservable bypasses are SC-equivalent and need no
logging, which is why Advanced RTR's additions are modest.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.chunks.cache import CacheConfig, SharedL2Filter, l1_group
from repro.errors import ConfigurationError, DeadlockError
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


@dataclass
class _BufferedStore:
    """One store waiting in a processor's store buffer."""

    address: int
    value: int
    drain_time: float


@dataclass
class TSOResult:
    """Outcome of a TSO execution."""

    cycles: float
    total_instructions: int
    final_memory: dict[int, int]
    sc_violations: int = 0
    violating_load_values: list[int] = field(default_factory=list)
    store_buffer_stalls: int = 0

    @property
    def ipc(self) -> float:
        """Whole-machine committed instructions per cycle."""
        return (self.total_instructions / self.cycles
                if self.cycles > 0 else 0.0)


class TSOExecutor:
    """Runs a Program under TSO with real store buffers."""

    def __init__(
        self,
        program: Program,
        machine_config: MachineConfig | None = None,
        buffer_depth: int = 16,
        drain_cycles: float = 40.0,
    ) -> None:
        if buffer_depth < 1:
            raise ConfigurationError("store buffer needs >= 1 entry")
        self.program = program
        self.config = machine_config or MachineConfig()
        self.buffer_depth = buffer_depth
        self.drain_cycles = drain_cycles
        self.memory = MainMemory(program.initial_memory)
        self.io_device = IODevice(program.io_seed)
        self._caches = l1_group(
            program.num_threads,
            CacheConfig(self.config.l1_sets, self.config.l1_ways),
            SharedL2Filter(self.config.l2_lines))
        # addr -> (writer proc, memory-visible time): the observability
        # test for SC violations.
        self._last_writer: dict[int, tuple[int, float]] = {}

    def _charge_load(self, proc: int, address: int) -> float:
        """TSO loads expose the PC-class fraction of a miss."""
        timing = self.config.timing
        level = self._caches[proc].access(self.config.line_of(address))
        if level == "l2":
            return timing.l2_hit_cycles * timing.pc_load_exposure
        if level == "memory":
            return timing.memory_cycles * timing.pc_load_exposure
        return 0.0

    def run(self, max_steps: int | None = None) -> TSOResult:
        """Execute to completion under TSO timing and semantics."""
        program = self.program
        timing = self.config.timing
        states = [ThreadState(thread_id=index, finished=not ops)
                  for index, ops in enumerate(program.threads)]
        buffers: list[list[_BufferedStore]] = [
            [] for _ in range(program.num_threads)]
        clocks = [0.0] * program.num_threads
        violations = 0
        violating_values: list[int] = []
        buffer_stalls = 0
        heap = [(0.0, index) for index in range(program.num_threads)
                if not states[index].finished]
        heapq.heapify(heap)
        if max_steps is None:
            max_steps = 400 * max(1, program.total_static_ops()) + 100_000
        steps = 0

        def drain_due(proc: int, now: float) -> None:
            buffer = buffers[proc]
            while buffer and buffer[0].drain_time <= now:
                store = buffer.pop(0)
                self.memory.write(store.address, store.value)
                self._last_writer[store.address] = (proc,
                                                    store.drain_time)

        def drain_all(proc: int, now: float) -> float:
            """Flush the whole buffer (fences/atomics); returns the
            cycle the last store lands."""
            buffer = buffers[proc]
            last = now
            for store in buffer:
                last = max(last, store.drain_time)
                self.memory.write(store.address, store.value)
                self._last_writer[store.address] = (proc, now)
            buffer.clear()
            return last

        def read(proc: int, address: int,
                 now: float) -> tuple[int, bool]:
            """TSO load: forward from the youngest buffered store;
            otherwise read memory, flagging an *observable* SC
            violation when a remote write to this address landed after
            our oldest buffered store was issued."""
            for store in reversed(buffers[proc]):
                if store.address == address:
                    return store.value, False
            value = self.memory.read(address)
            if not buffers[proc]:
                return value, False
            oldest_issue = buffers[proc][0].drain_time - \
                self.drain_cycles
            writer = self._last_writer.get(address)
            violated = (writer is not None and writer[0] != proc
                        and writer[1] > oldest_issue)
            return value, violated

        while heap:
            steps += 1
            if steps > max_steps:
                raise DeadlockError(
                    f"TSO execution exceeded {max_steps} steps")
            clock, proc = heapq.heappop(heap)
            for other in range(program.num_threads):
                drain_due(other, clock)
            state = states[proc]
            op = self._current_op(state)
            if op is None:
                continue
            cost = timing.base_cpi
            kind = op.kind
            if kind is OpKind.COMPUTE or kind is OpKind.TRAP:
                count = (state.compute_remaining
                         if state.compute_remaining else op.count)
                state.accumulator = compute_mix(state.accumulator,
                                                count)
                state.retired += count
                state.compute_remaining = 0
                self._advance(state)
                cost = count * timing.base_cpi
            elif kind is OpKind.LOAD:
                value, violated = read(proc, op.address, clock)
                if violated:
                    violations += 1
                    violating_values.append(value)
                state.accumulator = value
                state.retired += 1
                self._advance(state)
                cost += self._charge_load(proc, op.address)
            elif kind is OpKind.STORE:
                value = (op.value if op.value is not None
                         else state.accumulator)
                if len(buffers[proc]) >= self.buffer_depth:
                    # Full buffer: stall until the head drains.
                    head = buffers[proc][0]
                    stall = max(0.0, head.drain_time - clock)
                    cost += stall
                    buffer_stalls += 1
                    drain_due(proc, head.drain_time)
                # The store installs its line (write-allocate); the
                # buffer hides the latency, so no cycles are charged.
                self._caches[proc].access(
                    self.config.line_of(op.address))
                buffers[proc].append(_BufferedStore(
                    op.address, value & WORD_MASK,
                    clock + self.drain_cycles))
                state.retired += 1
                self._advance(state)
            elif kind in (OpKind.RMW, OpKind.LOCK, OpKind.UNLOCK,
                          OpKind.BARRIER):
                # Atomics and synchronization fence the store buffer.
                landed = drain_all(proc, clock)
                cost += max(0.0, landed - clock)
                cost += self._synchronize(proc, state, op, timing,
                                          clock)
            elif kind is OpKind.IO_LOAD:
                landed = drain_all(proc, clock)
                cost += max(0.0, landed - clock)
                state.accumulator = self.io_device.load(op.address)
                state.retired += 1
                self._advance(state)
                cost += timing.memory_cycles
            elif kind is OpKind.IO_STORE:
                landed = drain_all(proc, clock)
                cost += max(0.0, landed - clock)
                self.io_device.store(op.address, state.accumulator)
                state.retired += 1
                self._advance(state)
                cost += timing.memory_cycles
            elif kind is OpKind.SPECIAL:
                landed = drain_all(proc, clock)
                cost += max(0.0, landed - clock)
                state.retired += 1
                self._advance(state)
                cost += timing.memory_cycles / 2
            else:
                raise ConfigurationError(f"unhandled op kind {kind}")
            clocks[proc] = clock + cost
            heapq.heappush(heap, (clocks[proc], proc))
        # Final drain: nothing may remain buffered at the end.
        final = max(clocks) if clocks else 0.0
        for proc in range(program.num_threads):
            for store in buffers[proc]:
                self.memory.write(store.address, store.value)
                final = max(final, store.drain_time)
        return TSOResult(
            cycles=final,
            total_instructions=sum(s.retired for s in states),
            final_memory=self.memory.nonzero_words(),
            sc_violations=violations,
            violating_load_values=violating_values,
            store_buffer_stalls=buffer_stalls,
        )

    def _synchronize(self, proc, state, op, timing,
                     now: float) -> float:
        """Fenced synchronization ops execute against drained memory."""
        if op.kind is OpKind.RMW:
            old = self.memory.read(op.address)
            delta = op.value if op.value is not None else 1
            self.memory.write(op.address, old + delta)
            self._last_writer[op.address] = (proc, now)
            state.accumulator = old
            state.retired += 1
            self._advance(state)
            return self._charge_load(state.thread_id, op.address)
        if op.kind is OpKind.LOCK:
            value = self.memory.read(op.address)
            state.retired += LOCK_SPIN_COST
            if value == 0:
                self.memory.write(op.address, 1)
                self._last_writer[op.address] = (proc, now)
                self._advance(state)
            return LOCK_SPIN_COST * timing.base_cpi
        if op.kind is OpKind.UNLOCK:
            self.memory.write(op.address, 0)
            self._last_writer[op.address] = (proc, now)
            state.retired += 1
            self._advance(state)
            return timing.base_cpi
        # BARRIER
        if state.stage == _STAGE_START:
            old = self.memory.read(op.address)
            self.memory.write(op.address, old + 1)
            self._last_writer[op.address] = (proc, now)
            state.barrier_target = (old // op.count + 1) * op.count
            state.stage = _STAGE_BARRIER_WAIT
            state.retired += 1
            return timing.base_cpi
        value = self.memory.read(op.address)
        state.retired += BARRIER_SPIN_COST
        if value >= state.barrier_target:
            state.stage = _STAGE_START
            state.barrier_target = 0
            self._advance(state)
        return BARRIER_SPIN_COST * timing.base_cpi

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
