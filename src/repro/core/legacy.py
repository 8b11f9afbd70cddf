"""The pickled trailer of legacy DLRN v1/v2 recordings.

Before DLRN v3, every recording ended in a trailer section holding a
pickled dict: the program, the machine and mode configs, the run
stats, strata, fingerprints, final memory and thread keys, and the
interval checkpoints.  :mod:`repro.core.serialization` still reads v1
and v2 files written locally, and imports this module only when it
meets one.

A pickle can call any importable function, so the trailer goes
through a restricted unpickler: ``find_class`` resolves only the
classes a trailer holds (:data:`TRAILER_GLOBALS`) and refuses every
other global with :class:`~repro.errors.LogFormatError`, before
anything is imported or called.
"""

from __future__ import annotations

import io
import pickle

from repro.analysis.stats import RunStats
from repro.core.modes import ModeConfig
from repro.errors import LogFormatError, ReproError
from repro.machine.events import DmaTransfer
from repro.machine.program import Op, Program
from repro.machine.timing import MachineConfig

#: Every global a v1/v2 trailer pickles.
TRAILER_GLOBALS = frozenset({
    ("repro.analysis.stats", "RunStats"),
    ("repro.chunks.processor", "ProcessorStats"),
    ("repro.chunks.signature", "SignatureConfig"),
    ("repro.core.interval", "IntervalCheckpoint"),
    ("repro.core.interval", "IntervalCheckpointStore"),
    ("repro.core.logs", "CSEntry"),
    ("repro.core.logs", "ChunkSizeLog"),
    ("repro.core.logs", "MemoryOrderingLog"),
    ("repro.core.logs", "PILog"),
    ("repro.core.modes", "ExecutionMode"),
    ("repro.core.modes", "ModeConfig"),
    ("repro.machine.events", "DmaTransfer"),
    ("repro.machine.events", "InterruptEvent"),
    ("repro.machine.program", "Op"),
    ("repro.machine.program", "OpKind"),
    ("repro.machine.program", "Program"),
    ("repro.machine.program", "ThreadState"),
    ("repro.machine.timing", "MachineConfig"),
    ("repro.machine.timing", "TimingModel"),
})


class _PickledOp:
    """What a pickled op of the former dataclass ``Op`` loads into.

    Pickle creates the object empty, then hands it the dataclass's
    field dict.  ``__setstate__`` validates the fields as ``Op()`` does
    and turns the object into an :class:`Op` in place, so every
    reference pickle kept to it sees the op.
    """

    __slots__ = Op.__slots__

    def __setstate__(self, state: dict) -> None:
        op = Op(state["kind"], state.get("address", 0),
                state.get("value"), state.get("count", 1))
        for name in Op.__slots__:
            setattr(self, name, getattr(op, name))
        self.__class__ = Op


class _Rebuilt:
    """What a pickled :class:`Program` or :class:`DmaTransfer` loads
    into.

    Pickle creates the object empty and hands it the field dict,
    skipping the constructor that makes the fields immutable.
    ``__setstate__`` runs that constructor on the fields instead and
    becomes its result in place.
    """

    target: type

    def __setstate__(self, state: dict) -> None:
        built = self.target(**state)
        self.__dict__.update(built.__dict__)
        self.__class__ = self.target


class _PickledProgram(_Rebuilt):
    target = Program


class _PickledDmaTransfer(_Rebuilt):
    target = DmaTransfer


#: Trailer globals that load into a stand-in rather than the class.
_STAND_INS = {
    ("repro.machine.program", "Op"): _PickledOp,
    ("repro.machine.program", "Program"): _PickledProgram,
    ("repro.machine.events", "DmaTransfer"): _PickledDmaTransfer,
}


class _TrailerUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        if (module, name) not in TRAILER_GLOBALS:
            raise LogFormatError(
                f"trailer section refers to {module}.{name}, which no "
                f"recording holds")
        stand_in = _STAND_INS.get((module, name))
        if stand_in is not None:
            return stand_in
        return super().find_class(module, name)


def unpickle_trailer(payload: bytes) -> dict:
    """The Recording fields a v1/v2 trailer holds, decoded without
    running anything outside :data:`TRAILER_GLOBALS`."""
    # Pickle protocol >= 2 streams start with the PROTO opcode; the
    # cheap check keeps obviously-garbage bytes away from the
    # unpickler entirely.
    if not payload or payload[:1] != b"\x80":
        raise LogFormatError(
            "trailer section does not look like a pickle stream")
    try:
        trailer = _TrailerUnpickler(io.BytesIO(payload)).load()
    except ReproError:
        raise
    except Exception as error:
        raise LogFormatError(
            f"trailer section failed to unpickle: "
            f"{type(error).__name__}: {error}") from error
    if not isinstance(trailer, dict):
        raise LogFormatError("trailer section is not a mapping")
    for key, cls in (("program", Program),
                     ("machine_config", MachineConfig),
                     ("mode_config", ModeConfig)):
        if not isinstance(trailer.get(key), cls):
            raise LogFormatError(
                f"trailer section is missing {key!r}")
    stats = trailer.get("stats")
    return {
        "program": trailer["program"],
        "machine_config": trailer["machine_config"],
        "mode_config": trailer["mode_config"],
        "strata": trailer.get("strata", []),
        "stratified": trailer.get("stratified", False),
        "fingerprints": trailer.get("fingerprints", []),
        "per_proc_fingerprints": trailer.get("per_proc_fingerprints", {}),
        "final_memory": trailer.get("final_memory", {}),
        "final_thread_keys": trailer.get("final_thread_keys", {}),
        "stats": RunStats() if stats is None else stats,
        "memory_ordering": trailer.get("memory_ordering"),
        "interval_checkpoints": trailer.get("interval_checkpoints"),
    }
