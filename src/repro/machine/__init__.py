"""The simulated chip-multiprocessor DeLorean runs on.

This subpackage provides the machine substrate: the concurrent-program
model the processors interpret (:mod:`~repro.machine.program`), the
deterministic discrete-event engine (:mod:`~repro.machine.engine`), flat
value memory with a DMA engine (:mod:`~repro.machine.memory`), the
timing model (:mod:`~repro.machine.timing`), external events
(:mod:`~repro.machine.events`), and the top-level CMP
(:mod:`~repro.machine.system`), whose
:meth:`~repro.machine.system.ChunkMachine.checkpoint` captures the
committed state as an :class:`~repro.core.interval.IntervalCheckpoint`.
"""

from repro.machine.program import (
    Op,
    OpKind,
    Program,
    ThreadState,
    compute_mix,
)
from repro.machine.timing import MachineConfig, TimingModel

# NOTE: repro.machine.system is intentionally not imported here -- it
# sits at the top of the dependency graph (it imports repro.core and
# repro.analysis, which import repro.chunks, which import this
# package's leaf modules).  Import it as repro.machine.system directly.

__all__ = [
    "Op",
    "OpKind",
    "Program",
    "ThreadState",
    "compute_mix",
    "MachineConfig",
    "TimingModel",
]
