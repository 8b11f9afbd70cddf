"""The concurrent-program model executed by the simulated processors.

DeLorean's determinism guarantee is about *architectural* state: the
same instruction in the initial and replayed execution must see exactly
the same full-system state (Section 4.2), including performing "the same
number of spins on a spinlock".  To exercise that guarantee we need
programs whose dynamic instruction stream genuinely depends on the
interleaving, so the model includes spin-locks, barriers and atomic
read-modify-writes alongside plain loads, stores and compute blocks,
plus the uncached I/O and special system instructions of Table 4 that
truncate chunks deterministically.

A :class:`Program` is one statically-known op list per thread plus
initial memory contents and external-event streams.  A
:class:`ThreadState` is the full architectural state of one hardware
thread -- program position, intra-op progress, the accumulator register
and retired-instruction count -- and is cheap to snapshot, which is how
processors roll back on chunk squash.

Dynamic instruction accounting (used for chunk sizing and for the
bits-per-kilo-instruction log metrics):

========  =====================================================
Op         Dynamic instructions
========  =====================================================
LOAD       1
STORE      1
RMW        1 (atomic; counts as a single memory instruction)
COMPUTE    ``count`` ALU instructions (no memory traffic)
LOCK       4 per spin iteration (load, test, branch, CAS/retry)
UNLOCK     1 (store)
BARRIER    1 (atomic increment) + 2 per spin iteration
IO_LOAD    1 (uncached; truncates the chunk)
IO_STORE   1 (uncached; truncates the chunk)
SPECIAL    1 (system instruction; truncates the chunk)
TRAP       ``count`` handler instructions executed inline
========  =====================================================
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.errors import ConfigurationError

#: Architectural word mask -- the accumulator and memory hold 64-bit words.
WORD_MASK = (1 << 64) - 1

#: Instructions charged per spin iteration of a LOCK (load/test/branch/CAS).
LOCK_SPIN_COST = 4

#: Instructions charged per spin iteration of a BARRIER wait (load/branch).
BARRIER_SPIN_COST = 2


class OpKind(enum.Enum):
    """The operation vocabulary of simulated threads."""

    LOAD = "load"
    STORE = "store"
    COMPUTE = "compute"
    RMW = "rmw"
    LOCK = "lock"
    UNLOCK = "unlock"
    BARRIER = "barrier"
    IO_LOAD = "io_load"
    IO_STORE = "io_store"
    SPECIAL = "special"
    TRAP = "trap"


class Op:
    """One static operation in a thread's program.

    Fields are interpreted per :class:`OpKind`:

    * ``address`` -- word address for memory ops; port number for I/O ops.
    * ``value`` -- literal store/RMW operand; ``None`` means "derive from
      the accumulator", which makes stored values path-dependent and thus
      sensitive to the interleaving (good for determinism testing).
    * ``count`` -- ALU instructions for COMPUTE; handler length for TRAP;
      participant count for BARRIER.

    An immutable, hashable ``__slots__`` record: the interpreter reads
    ``kind`` and ``address`` on every op, and slot reads are the
    cheapest attribute access there is.  Construction validates; the
    program decoder and generator, which validate whole columns, build
    ops with :func:`trusted_op` instead.  Equality is class-sensitive.
    """

    __slots__ = ("kind", "address", "value", "count")

    kind: OpKind
    address: int
    value: int | None
    count: int

    def __new__(cls, kind: OpKind, address: int = 0,
                value: int | None = None, count: int = 1) -> "Op":
        if address < 0:
            raise ConfigurationError(
                f"negative address in {_op_repr(kind, address, value, count)}")
        if count < 1:
            raise ConfigurationError(
                f"non-positive count in "
                f"{_op_repr(kind, address, value, count)}")
        return trusted_op(kind, address, value, count)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an Op")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an Op")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.address, self.value, self.count)
                == (other.kind, other.address, other.value, other.count))

    def __hash__(self) -> int:
        return hash((self.kind, self.address, self.value, self.count))

    def __repr__(self) -> str:
        return _op_repr(self.kind, self.address, self.value, self.count)

    def __reduce__(self):
        return (Op, (self.kind, self.address, self.value, self.count))

    def __copy__(self) -> "Op":
        return self

    def __deepcopy__(self, memo) -> "Op":
        return self


def _op_repr(kind, address, value, count) -> str:
    return (f"Op(kind={kind!r}, address={address!r}, value={value!r}, "
            f"count={count!r})")


class _OpDraft:
    """A mutable twin of :class:`Op` with the same slots.  Filling a
    draft and then reassigning its ``__class__`` to ``Op`` is the
    cheapest way to build an immutable slotted object in Python."""

    __slots__ = Op.__slots__


def trusted_op(kind: OpKind, address: int, value: int | None,
               count: int) -> Op:
    """An :class:`Op` built without validation, for callers that check
    whole columns instead (address >= 0, count >= 1): the DLRN program
    decoder before it builds the ops, and the synthetic program
    generator (:func:`repro.workloads.synthetic.build_program`) once
    its threads are finished."""
    # Calling the class allocates faster than object.__new__(_OpDraft).
    op = _OpDraft()
    op.kind = kind
    op.address = address
    op.value = value
    op.count = count
    op.__class__ = Op
    return op


_AFFINE_A = 0x5851F42D4C957F2D
_AFFINE_C = 0x14057B7EF767814F
_WORD_MOD = 1 << 64


# A pure function of ``count``, memoized: a benchmark pass makes ~60k
# calls with ~60 distinct counts.  The bound, far above that, keeps
# programs with many distinct block lengths from growing the memo
# without limit.  Entries are immutable ints, safe to share, and nothing
# is computed before the first call.
@functools.lru_cache(maxsize=4096)
def _affine_power(count: int) -> tuple[int, int]:
    """(A^n mod 2^64, 1 + A + ... + A^(n-1) mod 2^64) by fast doubling."""
    multiplier = 1
    geometric = 0
    base = _AFFINE_A        # A^(2^i)
    base_sum = 1            # S(2^i) = 1 + A + ... + A^(2^i - 1)
    n = count
    while n:
        if n & 1:
            # Compose the 2^i-step block after the accumulated steps:
            # S(a + b) = A^b * S(a) + S(b).
            geometric = (geometric * base + base_sum) % _WORD_MOD
            multiplier = (multiplier * base) % _WORD_MOD
        base_sum = (base_sum * (base + 1)) % _WORD_MOD
        base = (base * base) % _WORD_MOD
        n >>= 1
    return multiplier, geometric


def compute_mix(accumulator: int, count: int) -> int:
    """Deterministic accumulator update for a ``count``-instruction
    COMPUTE block.

    Models each ALU instruction as the affine map ``x -> A*x + C`` (a
    64-bit LCG step) and composes it ``count`` times in O(log count).
    Composition makes the update *segmentation-invariant*: splitting a
    block at any chunk boundary and applying the two halves yields the
    same accumulator as applying the whole block.  This matters because
    replay may legally split a chunk into back-to-back pieces
    (Section 4.2.3) and must still reproduce every stored value.
    """
    multiplier, geometric = _affine_power(count)
    return (accumulator * multiplier + _AFFINE_C * geometric) % _WORD_MOD


# Intra-op progress stages for multi-step ops.
_STAGE_START = 0
_STAGE_BARRIER_WAIT = 1


@dataclass
class ThreadState:
    """Complete architectural state of one simulated hardware thread.

    ``op_index`` plus the intra-op fields identify the exact resume
    point; ``accumulator`` is the (single) architectural register;
    ``retired`` counts dynamic instructions.  ``snapshot``/``restore``
    are what chunk squash uses to roll a thread back to a chunk
    boundary, and what system checkpointing saves.
    """

    thread_id: int
    op_index: int = 0
    accumulator: int = 0
    retired: int = 0
    # Intra-op progress (only one of these is live at a time).
    compute_remaining: int = 0
    stage: int = _STAGE_START
    barrier_target: int = 0
    finished: bool = False
    # Interrupt-handler execution: when ``handler_ops`` is set, the
    # thread executes from it (at ``handler_index``) instead of from its
    # program, resuming the program when the handler runs out.  The
    # ``saved_*`` fields park the interrupted op's intra-op progress
    # (a handler may arrive mid-COMPUTE or mid-BARRIER; its own ops
    # must not clobber that state).
    handler_ops: tuple[Op, ...] | None = None
    handler_index: int = 0
    saved_compute_remaining: int = 0
    saved_stage: int = 0
    saved_barrier_target: int = 0

    def snapshot(self) -> "ThreadState":
        """An independent copy of this state."""
        return ThreadState(
            thread_id=self.thread_id,
            op_index=self.op_index,
            accumulator=self.accumulator,
            retired=self.retired,
            compute_remaining=self.compute_remaining,
            stage=self.stage,
            barrier_target=self.barrier_target,
            finished=self.finished,
            handler_ops=self.handler_ops,
            handler_index=self.handler_index,
            saved_compute_remaining=self.saved_compute_remaining,
            saved_stage=self.saved_stage,
            saved_barrier_target=self.saved_barrier_target,
        )

    def restore(self, saved: "ThreadState") -> None:
        """Overwrite this state with ``saved`` (squash rollback)."""
        self.op_index = saved.op_index
        self.accumulator = saved.accumulator
        self.retired = saved.retired
        self.compute_remaining = saved.compute_remaining
        self.stage = saved.stage
        self.barrier_target = saved.barrier_target
        self.finished = saved.finished
        self.handler_ops = saved.handler_ops
        self.handler_index = saved.handler_index
        self.saved_compute_remaining = saved.saved_compute_remaining
        self.saved_stage = saved.saved_stage
        self.saved_barrier_target = saved.saved_barrier_target

    @property
    def in_handler(self) -> bool:
        """True while the thread is executing an interrupt handler."""
        return self.handler_ops is not None

    def enter_handler(self, ops: tuple[Op, ...]) -> None:
        """Begin executing an interrupt handler, parking the
        interrupted op's intra-op progress."""
        self.handler_ops = ops
        self.handler_index = 0
        self.saved_compute_remaining = self.compute_remaining
        self.saved_stage = self.stage
        self.saved_barrier_target = self.barrier_target
        self.compute_remaining = 0
        self.stage = 0
        self.barrier_target = 0

    def exit_handler(self) -> None:
        """The handler ran out: resume the interrupted op exactly
        where it stopped."""
        self.handler_ops = None
        self.handler_index = 0
        self.compute_remaining = self.saved_compute_remaining
        self.stage = self.saved_stage
        self.barrier_target = self.saved_barrier_target
        self.saved_compute_remaining = 0
        self.saved_stage = 0
        self.saved_barrier_target = 0

    @property
    def exhausted(self) -> bool:
        """True when no instruction can ever execute from this state:
        the program is finished *and* no handler is in progress."""
        return self.finished and self.handler_ops is None

    def architectural_key(self) -> tuple:
        """Hashable digest of the architectural state (determinism
        checks compare these between record and replay)."""
        return (
            self.thread_id,
            self.op_index,
            self.accumulator,
            self.retired,
            self.compute_remaining,
            self.stage,
            self.barrier_target,
            self.finished,
            self.handler_ops,
            self.handler_index,
            self.saved_compute_remaining,
            self.saved_stage,
            self.saved_barrier_target,
        )


@dataclass(frozen=True)
class Program:
    """A whole-machine workload: one op tuple per thread plus environment.

    ``initial_memory`` maps word addresses to initial values (unmapped
    words read as zero).  ``interrupts`` and ``dma_transfers`` are the
    external-event streams (see :mod:`repro.machine.events`); they are
    part of the workload, not of the recording, because DeLorean logs
    them during the initial execution and re-injects them from its logs
    during replay.  ``io_seed`` parameterizes the modeled I/O device's
    load values.

    Deeply immutable, like the program text of Section 4.2 that the
    initial execution and every replay run unchanged: the constructor
    takes lists and dicts, validates once and stores tuples and a
    read-only mapping, so one program may be shared by any number of
    machines.  Copying returns the program itself;
    :func:`dataclasses.replace` derives a new one.
    """

    threads: tuple[tuple[Op, ...], ...]
    name: str = "unnamed"
    initial_memory: Mapping[int, int] = field(default_factory=dict)
    interrupts: tuple = ()
    dma_transfers: tuple = ()
    io_seed: int = 0

    # Unhashable, as when it was mutable: nothing keys on a program.
    __hash__ = None

    def __post_init__(self) -> None:
        # As the DLRN program decoder checks them (a bool is an int).
        if not (isinstance(self.name, str) and isinstance(self.io_seed, int)):
            raise ConfigurationError(f"ill-typed program name or io_seed: "
                                     f"{self.name!r}, {self.io_seed!r}")
        threads = tuple(map(tuple, self.threads))
        if not threads:
            raise ConfigurationError("a program needs at least one thread")
        for index, ops in enumerate(threads):
            for op in ops:
                if not isinstance(op, Op):
                    raise ConfigurationError(
                        f"thread {index} contains a non-Op entry: {op!r}")
        set_field = object.__setattr__
        set_field(self, "threads", threads)
        set_field(self, "initial_memory",
                  MappingProxyType(dict(self.initial_memory)))
        set_field(self, "interrupts", tuple(self.interrupts))
        set_field(self, "dma_transfers", tuple(self.dma_transfers))

    def __copy__(self) -> "Program":
        return self

    def __deepcopy__(self, memo) -> "Program":
        return self

    def __reduce__(self):
        # A read-only mapping does not pickle; its dict does.
        return (Program, (self.threads, self.name,
                          dict(self.initial_memory), self.interrupts,
                          self.dma_transfers, self.io_seed))

    @property
    def num_threads(self) -> int:
        """Number of hardware threads the program occupies."""
        return len(self.threads)

    def static_lengths(self) -> list[int]:
        """Static op count of each thread (not dynamic instructions)."""
        return [len(ops) for ops in self.threads]

    def total_static_ops(self) -> int:
        """Total static ops across all threads."""
        return sum(self.static_lengths())
