"""External (non-deterministic) event sources: interrupts, DMA, I/O.

These are the inputs a full-system recorder must log (Section 3.3): the
Interrupt log captures when each interrupt is delivered relative to the
processor's chunk sequence, the DMA log captures the data DMA writes to
memory (the DMA engine behaves like another processor and gets commit
permission from the arbiter), and the I/O log captures the values
returned by uncached I/O loads.

During the initial execution these events fire from the workload's
event streams and the modeled I/O device below; during replay they are
re-injected purely from the logs -- the replayer never consults the
device or the original event streams, which is what the input-log tests
verify.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from types import MappingProxyType

from repro.errors import ConfigurationError
from repro.machine.program import WORD_MASK, Op, OpKind

_MASK64 = (1 << 64) - 1

#: Word-address base of the modeled interrupt controller's status area.
#: Handlers read and write words here, giving them a real (shared)
#: memory footprint.
INTERRUPT_CONTROLLER_BASE = 0x7F000000


def build_handler_ops(
    vector: int,
    payload: int,
    handler_ops: int,
) -> tuple[Op, ...]:
    """Deterministic interrupt-handler body for a (vector, payload) pair.

    The handler reads the controller status word for its vector, runs a
    compute block sized to the requested handler length, and writes an
    acknowledgement derived from the payload.  Because the body is a
    pure function of the logged (vector, payload, length) triple, replay
    rebuilds the identical handler from the Interrupt log alone.
    """
    status_word = INTERRUPT_CONTROLLER_BASE + (vector % 256) * 16
    compute = max(1, handler_ops - 3)
    return (
        Op(OpKind.LOAD, address=status_word),
        Op(OpKind.COMPUTE, count=compute),
        Op(OpKind.STORE, address=status_word + 1,
           value=(payload ^ vector) & WORD_MASK),
        Op(OpKind.STORE, address=status_word + 2, value=None),
    )


#: The types of :class:`InterruptEvent`'s fields, in order, as the DLRN
#: program decoder checks them (a ``bool`` passes as an ``int``).
INTERRUPT_FIELD_TYPES = ((int, float), int, int, int, int, bool, int)


@dataclass(frozen=True)
class InterruptEvent:
    """An asynchronous interrupt delivered to one processor.

    ``handler_ops`` is the number of handler instructions the interrupt
    injects (the handler is modeled as a compute-plus-memory block built
    by the processor).  ``high_priority`` selects the paper's policy of
    squashing the current chunk rather than waiting for it to complete
    (Section 4.2.1).
    """

    time: float
    processor: int
    vector: int
    payload: int = 0
    handler_ops: int = 64
    high_priority: bool = False
    # Replay only: the logged chunkID the handler must initiate at.  A
    # squash can push a pending handler back onto the queue; during
    # replay it may only be re-injected when the processor is about to
    # build exactly this chunk (0 = unconstrained, recording phase).
    replay_chunk_id: int = 0

    def __post_init__(self) -> None:
        values = [getattr(self, spec.name) for spec in fields(self)]
        if not all(map(isinstance, values, INTERRUPT_FIELD_TYPES)):
            raise ConfigurationError(f"ill-typed interrupt field: {self!r}")
        if not 0 <= self.time < math.inf:
            raise ConfigurationError(
                f"interrupt time must be finite and >= 0, got "
                f"{self.time!r}")
        if self.handler_ops < 1:
            raise ConfigurationError("handler must have >= 1 instruction")


@dataclass(frozen=True)
class DmaTransfer:
    """A DMA write burst arriving at a given time.

    The writes map word addresses to values; the constructor copies
    them into a read-only mapping.  During recording the DMA engine
    requests commit permission from the arbiter before applying them
    (Section 3.3).
    """

    time: float
    writes: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.time < math.inf:
            raise ConfigurationError(
                f"DMA time must be finite and >= 0, got {self.time!r}")
        if not self.writes:
            raise ConfigurationError("a DMA transfer must write something")
        writes = dict(self.writes)
        if not all(isinstance(address, int) and isinstance(value, int)
                   for address, value in writes.items()):
            raise ConfigurationError(
                f"DMA writes must map int addresses to int values: {writes}")
        object.__setattr__(self, "writes", MappingProxyType(writes))

    def __reduce__(self):
        # A read-only mapping does not pickle; its dict does.
        return (DmaTransfer, (self.time, dict(self.writes)))


class IODevice:
    """Deterministic pseudo-device backing uncached I/O loads.

    Each I/O load returns a value derived from (seed, port, per-port
    sequence number).  The *device* is deterministic so simulator runs
    are reproducible, but the replayer must still take values from the
    I/O log -- tests enforce this by replaying with a device primed with
    a different seed and checking the replay still matches.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._sequence: dict[int, int] = {}

    def load(self, port: int) -> int:
        """Next value produced by ``port``."""
        sequence = self._sequence.get(port, 0)
        self._sequence[port] = sequence + 1
        mixed = (self.seed * 0x9E3779B97F4A7C15
                 + port * 0xC2B2AE3D27D4EB4F
                 + sequence * 0x165667B19E3779F9) & _MASK64
        mixed ^= mixed >> 31
        return mixed & WORD_MASK

    def store(self, port: int, value: int) -> None:
        """I/O stores are sinks; the device just absorbs them."""

    def reset(self) -> None:
        """Rewind all port sequences (fresh run)."""
        self._sequence.clear()
