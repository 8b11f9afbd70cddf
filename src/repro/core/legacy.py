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

Earlier releases stored a degraded recording (:mod:`repro.guard.degrade`)
in a pickled ``DLRNSEG1`` envelope too.  It is read the same way,
resolving only :data:`ENVELOPE_GLOBALS` and refusing every other
global with :class:`~repro.errors.SalvageError`.
"""

from __future__ import annotations

import io
import pickle

from repro.analysis.stats import RunStats
from repro.core.interval import IntervalCheckpoint
from repro.core.modes import ExecutionMode, ModeConfig
from repro.errors import LogFormatError, ReproError, SalvageError
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


class _RestrictedUnpickler(pickle.Unpickler):
    """Resolves only the ``allowed`` globals, through ``stand_ins``
    where one is given; any other global raises ``error`` before it is
    imported."""

    def __init__(self, payload: bytes, allowed: frozenset, error: type,
                 what: str, stand_ins: dict) -> None:
        super().__init__(io.BytesIO(payload))
        self.allowed = allowed
        self.error = error
        self.what = what
        self.stand_ins = stand_ins

    def find_class(self, module, name):
        if (module, name) not in self.allowed:
            raise self.error(
                f"{self.what} refers to {module}.{name}, outside the "
                f"classes it may hold")
        stand_in = self.stand_ins.get((module, name))
        if stand_in is not None:
            return stand_in
        return super().find_class(module, name)


def _restricted_load(payload: bytes, allowed: frozenset, error: type,
                     what: str, stand_ins: dict):
    """Unpickle ``payload`` resolving only ``allowed``; every failure
    is an ``error``."""
    # Pickle protocol >= 2 streams start with the PROTO opcode; the
    # cheap check keeps obviously-garbage bytes away from the
    # unpickler entirely.
    if not payload or payload[:1] != b"\x80":
        raise error(f"{what} does not look like a pickle stream")
    try:
        return _RestrictedUnpickler(payload, allowed, error, what,
                                    stand_ins).load()
    except ReproError:
        raise
    except Exception as failure:
        raise error(f"{what} failed to unpickle: "
                    f"{type(failure).__name__}: {failure}") from failure


def unpickle_trailer(payload: bytes) -> dict:
    """The Recording fields a v1/v2 trailer holds, decoded without
    running anything outside :data:`TRAILER_GLOBALS`."""
    trailer = _restricted_load(payload, TRAILER_GLOBALS, LogFormatError,
                               "trailer section", _STAND_INS)
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
        "final_memory": trailer.get("final_memory", {}),
        "final_thread_keys": trailer.get("final_thread_keys", {}),
        "stats": RunStats() if stats is None else stats,
        "memory_ordering": trailer.get("memory_ordering"),
        "interval_checkpoints": trailer.get("interval_checkpoints"),
    }


#: Every global a DLRNSEG1 envelope pickles: each later segment's
#: boundary checkpoint and its thread states, plus the handler ops of
#: a thread whose boundary falls inside an interrupt handler.
ENVELOPE_GLOBALS = frozenset({
    ("repro.core.interval", "IntervalCheckpoint"),
    ("repro.machine.program", "Op"),
    ("repro.machine.program", "OpKind"),
    ("repro.machine.program", "ThreadState"),
})

_MODE_VALUES = frozenset(mode.value for mode in ExecutionMode)


def unpickle_envelope(payload: bytes) -> dict:
    """A DLRNSEG1 envelope (the bytes after its magic), decoded without
    running anything outside :data:`ENVELOPE_GLOBALS` and checked for
    the shape earlier releases' ``save_segmented`` wrote."""
    envelope = _restricted_load(payload, ENVELOPE_GLOBALS, SalvageError,
                                "segmented recording envelope", {})
    segments = (envelope.get("segments")
                if isinstance(envelope, dict) else None)
    if not isinstance(segments, list) or not isinstance(
            envelope.get("program_name", ""), str):
        raise SalvageError("segmented recording envelope is malformed")
    for entry in segments:
        if not (isinstance(entry, dict)
                and isinstance(entry.get("blob"), bytes)
                and isinstance(entry.get("mode"), str)
                and entry["mode"] in _MODE_VALUES
                and isinstance(entry.get("reason"), str)
                and isinstance(entry.get("start_checkpoint"),
                               (IntervalCheckpoint, type(None)))):
            raise SalvageError(
                "segmented recording envelope holds a malformed segment")
    return envelope
