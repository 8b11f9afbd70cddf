"""A small DSL for constructing concurrent programs by hand.

The synthetic generators use :class:`SyntheticSpec`; the examples and
many unit tests instead build programs explicitly, for which this
builder provides readable helpers::

    builder = ProgramBuilder(num_threads=2, name="counter-race")
    for thread in range(2):
        with builder.thread(thread) as t:
            for _ in range(100):
                t.lock(LOCK)
                t.load(COUNTER)
                t.compute(5)
                t.store(COUNTER)
                t.unlock(LOCK)
    program = builder.build()

Address-space conventions (word addresses) shared by all generated
workloads live here as module constants so tests and examples agree on
where locks, barriers and arrays sit.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import ConfigurationError
from repro.machine.events import DmaTransfer, InterruptEvent
from repro.machine.program import Op, OpKind, Program

#: Word-address bases of the shared layout used by generated workloads.
LOCK_REGION = 0x0010_0000
BARRIER_REGION = 0x0011_0000
SHARED_REGION = 0x0020_0000
PRIVATE_REGION = 0x0040_0000
PRIVATE_STRIDE = 0x0001_0000

#: Locks and barrier counters sit one cache line apart to avoid false
#: sharing between unrelated synchronization variables.
SYNC_STRIDE = 8


def lock_address(index: int) -> int:
    """Word address of lock ``index``."""
    return LOCK_REGION + index * SYNC_STRIDE


def barrier_address(index: int) -> int:
    """Word address of barrier counter ``index``."""
    return BARRIER_REGION + index * SYNC_STRIDE


def shared_address(offset: int) -> int:
    """Word address of shared-array word ``offset``."""
    return SHARED_REGION + offset


def private_address(thread: int, offset: int) -> int:
    """Word address of thread-private word ``offset``."""
    return PRIVATE_REGION + thread * PRIVATE_STRIDE + offset


class _ThreadWriter:
    """Accumulates ops for a single thread (see ProgramBuilder)."""

    def __init__(self) -> None:
        self.ops: list[Op] = []

    def load(self, address: int) -> "_ThreadWriter":
        """acc <- mem[address]."""
        self.ops.append(Op(OpKind.LOAD, address=address))
        return self

    def store(self, address: int, value: int | None = None) -> \
            "_ThreadWriter":
        """mem[address] <- value (literal) or the accumulator."""
        self.ops.append(Op(OpKind.STORE, address=address, value=value))
        return self

    def compute(self, instructions: int) -> "_ThreadWriter":
        """Run ``instructions`` ALU instructions (mixes the
        accumulator)."""
        self.ops.append(Op(OpKind.COMPUTE, count=instructions))
        return self

    def rmw(self, address: int, delta: int = 1) -> "_ThreadWriter":
        """Atomic fetch-and-add; acc <- old value."""
        self.ops.append(Op(OpKind.RMW, address=address, value=delta))
        return self

    def lock(self, address: int) -> "_ThreadWriter":
        """Spin until the lock at ``address`` is acquired."""
        self.ops.append(Op(OpKind.LOCK, address=address))
        return self

    def unlock(self, address: int) -> "_ThreadWriter":
        """Release the lock at ``address``."""
        self.ops.append(Op(OpKind.UNLOCK, address=address))
        return self

    def barrier(self, address: int, participants: int) -> "_ThreadWriter":
        """Sense-free counting barrier across ``participants`` threads."""
        self.ops.append(Op(OpKind.BARRIER, address=address,
                           count=participants))
        return self

    def io_load(self, port: int) -> "_ThreadWriter":
        """Uncached I/O load (truncates the current chunk)."""
        self.ops.append(Op(OpKind.IO_LOAD, address=port))
        return self

    def io_store(self, port: int) -> "_ThreadWriter":
        """Uncached I/O store (truncates the current chunk)."""
        self.ops.append(Op(OpKind.IO_STORE, address=port))
        return self

    def special(self) -> "_ThreadWriter":
        """Special system instruction (truncates the current chunk)."""
        self.ops.append(Op(OpKind.SPECIAL))
        return self

    def trap(self, handler_instructions: int) -> "_ThreadWriter":
        """A trap whose handler runs inline (does not truncate)."""
        self.ops.append(Op(OpKind.TRAP, count=handler_instructions))
        return self

    def critical_section(self, lock_addr: int, body_ops: list[Op]) -> \
            "_ThreadWriter":
        """lock; body; unlock."""
        self.lock(lock_addr)
        self.ops.extend(body_ops)
        self.unlock(lock_addr)
        return self


class ProgramBuilder:
    """Constructs a :class:`~repro.machine.program.Program`."""

    def __init__(self, num_threads: int, name: str = "built") -> None:
        if num_threads < 1:
            raise ConfigurationError("need at least one thread")
        self.name = name
        self._writers = [_ThreadWriter() for _ in range(num_threads)]
        self.initial_memory: dict[int, int] = {}
        self.interrupts: list[InterruptEvent] = []
        self.dma_transfers: list[DmaTransfer] = []
        self.io_seed = 0

    @contextmanager
    def thread(self, index: int):
        """Context manager yielding the writer for thread ``index``."""
        yield self._writers[index]

    def writer(self, index: int) -> _ThreadWriter:
        """The op writer for thread ``index``."""
        return self._writers[index]

    def set_memory(self, address: int, value: int) -> None:
        """Initialize one memory word."""
        self.initial_memory[address] = value

    def add_interrupt(self, event: InterruptEvent) -> None:
        """Attach an external interrupt to the workload."""
        self.interrupts.append(event)

    def add_dma(self, transfer: DmaTransfer) -> None:
        """Attach a DMA burst to the workload."""
        self.dma_transfers.append(transfer)

    def build(self) -> Program:
        """Produce the immutable Program."""
        return Program(
            threads=[w.ops for w in self._writers],
            name=self.name,
            initial_memory=self.initial_memory,
            interrupts=sorted(self.interrupts, key=lambda e: e.time),
            dma_transfers=sorted(self.dma_transfers,
                                 key=lambda t: t.time),
            io_seed=self.io_seed,
        )
