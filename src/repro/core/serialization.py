"""Persisting recordings: a binary container for DeLorean's logs.

A :class:`~repro.core.recorder.Recording` in memory holds decoded log
objects plus verification instrumentation.  On disk, the hardware logs
are what matter, and they are stored in their native bit-packed wire
formats (Table 5) inside a small tagged container.
:func:`save_recording` writes **DLRN v3**::

    magic "DLRN" | version u8=3 | header len u32 | header CRC32 u32
    | header JSON
    frame*   : sync "\\xA5SEC" | tag u8 | proc u16 | bit length u32
               | byte length u32 | CRC32 u32 | payload
    end      : sync | tag 255 | zeros | CRC32 of the zero header

Every frame carries a CRC32 over its header fields and payload, so
corruption is *detected at load time* as a typed
:class:`~repro.errors.IntegrityError` instead of surfacing later as a
baffling mid-replay divergence.  The sync marker makes frames
self-delimiting: a salvage reader (:func:`load_recording_tolerant`)
can skip a damaged frame, resync-scan to the next marker, and keep
every section that still checks out.

The frames hold the hardware logs (PI, one CS, Interrupt and I/O log
per processor, DMA), then three sections of simulation state -- not
hardware state, but without them a loaded recording could be replayed
and *not* verified:

* **program** (zlib level 1): thread lengths, then the ops as columns
  (kinds as u8, addresses, counts, a 0/1 map of which ops carry a
  value, the values), the initial memory as address and value
  columns, and a JSON head with the name, ``io_seed`` and the
  interrupt and DMA streams;
* **config** (canonical JSON): machine and mode configs, run stats,
  strata and the stratified sizes of the memory-ordering log;
* **verify** (zlib level 1): the global commit fingerprints as columns,
  final memory sorted by address, final thread keys and the interval
  checkpoints.  Per-processor fingerprints are derived on load: the
  machine appends every fingerprint to both lists.

Only a degraded segment's recording has a fourth, **start** (zlib
level 1): its start checkpoint, less the memory image, which is the
program's initial memory.  A container ends at its END frame, so
:func:`load_recording` refuses bytes after it; :func:`load_recordings`
reads containers written back to back (a degraded recording).

Integer columns are little-endian fixed-width (1, 2, 4 or 8 bytes,
signed or not, the narrowest that fits) or, for values wider than 64
bits, hex text; every count is checked against the bytes that remain
before anything is allocated for it, and every inflate is bounded by
its declared size.  Bytes are canonical: saving a loaded recording
reproduces the blob.

A program is read-only text that the initial execution and every
replay run unchanged, so each program object is encoded once: its
program section is kept with it, and a process-wide table maps those
exact bytes weakly to the live program.  Loading a byte-identical
program section in the same process returns that program instead of
decoding a copy; any other payload decodes, with every check.

Two legacy containers stay readable, for files written by earlier
releases.  **DLRN v1** has unframed, unchecked sections; **DLRN v2**
has v3's frames.  Both end in a pickled trailer holding everything
v3's state sections hold, read by :mod:`repro.core.legacy` through an
unpickler that resolves only the classes such a trailer contains.
Bytes from outside the process still belong in :func:`load_recording`
with ``legacy=False``, which accepts v3 only.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import threading
import weakref
import zlib
from dataclasses import dataclass

from repro.analysis.stats import RunStats
from repro.chunks.signature import SignatureConfig
from repro.core.interval import IntervalCheckpoint, IntervalCheckpointStore
from repro.core.logs import (
    ChunkSizeLog,
    DMALog,
    InterruptLog,
    IOLog,
    MemoryOrderingLog,
    PILog,
)
from repro.core.modes import ExecutionMode, ModeConfig
from repro.core.recorder import Recording
from repro.errors import (
    ChecksumError,
    IntegrityError,
    LogFormatError,
    ReproError,
    SalvageError,
)
from repro.machine.events import (
    INTERRUPT_FIELD_TYPES,
    DmaTransfer,
    InterruptEvent,
)
from repro.machine.program import (
    OpKind,
    Program,
    ThreadState,
    trusted_op,
)
from repro.machine.timing import MachineConfig, TimingModel

_MAGIC = b"DLRN"
_SYNC = b"\xa5SEC"
#: Container versions this module can read.
SUPPORTED_VERSIONS = (1, 2, 3)
#: The container version :func:`save_recording` writes.
VERSION = 3

_SECTION_PI = 1
_SECTION_CS = 2
_SECTION_INTERRUPT = 3
_SECTION_IO = 4
_SECTION_DMA = 5
#: v1/v2 only: the pickled program and verification state.
_SECTION_TRAILER = 6
#: Journal flush marker (see :mod:`repro.guard.journal`): a tiny JSON
#: frame a write-ahead journal appends after each atomic flush of a
#: complete section set.  Both loaders skip it, so a journal file is a
#: valid (multi-epoch) container; the journal's own loader uses it to
#: find the last fully-flushed prefix.
_SECTION_FLUSH = 7
_SECTION_PROGRAM = 8
_SECTION_CONFIG = 9
_SECTION_VERIFY = 10
#: Optional: a degraded segment's start checkpoint.
_SECTION_START = 11
_SECTION_END = 255

_SECTION_NAMES = {
    _SECTION_PI: "pi",
    _SECTION_CS: "cs",
    _SECTION_INTERRUPT: "interrupt",
    _SECTION_IO: "io",
    _SECTION_DMA: "dma",
    _SECTION_TRAILER: "trailer",
    _SECTION_FLUSH: "flush",
    _SECTION_PROGRAM: "program",
    _SECTION_CONFIG: "config",
    _SECTION_VERIFY: "verify",
    _SECTION_START: "start",
    _SECTION_END: "end",
}

_FRAME_HEADER = struct.Struct(">BHII")      # tag, proc, bits, size
_FRAME_CRC = struct.Struct(">I")
_U32 = struct.Struct("<I")


def section_name(tag: int) -> str:
    """Human-readable name of a section tag."""
    return _SECTION_NAMES.get(tag, f"tag{tag}")


# ----------------------------------------------------------------------
# Section payload primitives: integer columns, raw bytes, JSON
# ----------------------------------------------------------------------

#: struct codes of the fixed-width integer columns, by column code;
#: column code ``_HEX_COLUMN`` holds space-separated hex text instead.
_INT_FORMATS = "BHIQbhiq"
_HEX_COLUMN = len(_INT_FORMATS)


def _int_format(values) -> str | None:
    """The narrowest struct code holding every value, or None when
    some value needs more than 64 bits."""
    if not values:
        return "B"
    low, high = min(values), max(values)
    for code in ("BHIQ" if low >= 0 else "bhiq"):
        bits = 8 * struct.calcsize(code)
        if code.isupper():
            if high < 1 << bits:
                return code
        elif -(1 << (bits - 1)) <= low and high < 1 << (bits - 1):
            return code
    return None


def _canonical_json(value) -> bytes:
    return json.dumps(value, sort_keys=True,
                      separators=(",", ":")).encode()


class _Writer:
    """Accumulates one section payload."""

    def __init__(self) -> None:
        self.parts: list[bytes] = []

    def raw(self, data: bytes) -> None:
        self.parts += (_U32.pack(len(data)), data)

    def ints(self, values) -> None:
        code = _int_format(values)
        if code is None:
            self.parts.append(bytes([_HEX_COLUMN])
                              + _U32.pack(len(values)))
            self.raw(" ".join(format(v, "x") for v in values).encode())
            return
        self.parts += (
            bytes([_INT_FORMATS.index(code)]) + _U32.pack(len(values)),
            struct.pack(f"<{len(values)}{code}", *values))

    def json(self, value) -> None:
        self.raw(_canonical_json(value))

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    """Cursor over one section payload.  Every declared length is
    checked against the bytes that remain before it is used."""

    def __init__(self, data: bytes, section: str) -> None:
        self.data = data
        self.pos = 0
        self.section = section

    def fail(self, problem: str):
        raise LogFormatError(f"{self.section} section: {problem}")

    def _take(self, size: int) -> int:
        if size > len(self.data) - self.pos:
            self.fail(f"declares {size} bytes where "
                      f"{len(self.data) - self.pos} remain")
        start = self.pos
        self.pos += size
        return start

    def _u32(self) -> int:
        return _U32.unpack_from(self.data, self._take(4))[0]

    def raw(self, expected: int | None = None) -> bytes:
        size = self._u32()
        if expected is not None and size != expected:
            self.fail(f"a column holds {size} entries, expected "
                      f"{expected}")
        start = self._take(size)
        return self.data[start:start + size]

    def ints(self, expected: int | None = None):
        code = self.data[self._take(1)]
        count = self._u32()
        if expected is not None and count != expected:
            self.fail(f"a column holds {count} entries, expected "
                      f"{expected}")
        if code < _HEX_COLUMN:
            fmt = _INT_FORMATS[code]
            start = self._take(count * struct.calcsize(fmt))
            return struct.unpack_from(f"<{count}{fmt}", self.data, start)
        if code == _HEX_COLUMN:
            tokens = self.raw().split()
            if len(tokens) != count:
                self.fail("hex column length disagrees with its count")
            return [int(token, 16) for token in tokens]
        self.fail(f"unknown integer column code {code}")

    def flags(self, expected: int) -> bytes:
        """A 0/1 byte map of ``expected`` entries."""
        flags = self.raw(expected)
        if flags.count(0) + flags.count(1) != len(flags):
            self.fail("a flag map holds values other than 0 and 1")
        return flags

    def json(self):
        return json.loads(self.raw())

    def finish(self) -> None:
        if self.pos != len(self.data):
            self.fail(f"{len(self.data) - self.pos} trailing bytes")


def _compress(raw: bytes) -> bytes:
    return _U32.pack(len(raw)) + zlib.compress(raw, 1)


def _inflate(payload: bytes, section: str) -> bytes:
    """Invert :func:`_compress`, never producing more than the declared
    size."""
    if len(payload) < 4:
        raise LogFormatError(f"{section} section: no size prefix")
    (size,) = _U32.unpack_from(payload)
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(payload[4:], max(size, 1))
    except zlib.error as error:
        raise LogFormatError(
            f"{section} section failed to inflate: {error}") from error
    if (len(raw) != size or not inflater.eof or inflater.unused_data
            or inflater.unconsumed_tail):
        raise LogFormatError(
            f"{section} section does not inflate to its declared "
            f"{size} bytes")
    return raw


# ----------------------------------------------------------------------
# Op, thread-state and memory columns
# ----------------------------------------------------------------------

#: Op kinds by their u8 code: declaration order, so new kinds go last.
_OP_KINDS = tuple(OpKind)
#: Keyed by enum value: hashing a str is far cheaper than an Enum.
_OP_CODES = {kind._value_: code for code, kind in enumerate(_OP_KINDS)}

#: Thread-state keys (``ThreadState.architectural_key``) list the
#: dataclass fields in declaration order; each field is one column.
_THREAD_FIELDS = [f.name for f in dataclasses.fields(ThreadState)]
_FINISHED = _THREAD_FIELDS.index("finished")
_HANDLER_OPS = _THREAD_FIELDS.index("handler_ops")


def _put_ops(out: _Writer, ops) -> None:
    out.raw(bytes([_OP_CODES[op.kind._value_] for op in ops]))
    out.ints([op.address for op in ops])
    out.ints([op.count for op in ops])
    values = [op.value for op in ops]
    out.raw(bytes([value is not None for value in values]))
    out.ints([value for value in values if value is not None])


def _get_ops(inp: _Reader) -> list:
    """Decode :func:`_put_ops`, validating whole columns at once."""
    kinds = inp.raw()
    count = len(kinds)
    addresses = inp.ints(count)
    counts = inp.ints(count)
    present = inp.flags(count)
    values = inp.ints(present.count(1))
    if count:
        if max(kinds) >= len(_OP_KINDS):
            inp.fail("op kind code out of range")
        if min(addresses) < 0:
            inp.fail("negative op address")
        if min(counts) < 1:
            inp.fail("non-positive op count")
    next_value = iter(values).__next__
    column = [next_value() if flag else None for flag in present]
    return list(map(trusted_op, map(_OP_KINDS.__getitem__, kinds),
                    addresses, column, counts))


def _split(inp: _Reader, items: list, lengths) -> list:
    """``items`` cut into consecutive runs of ``lengths``."""
    if sum(lengths) != len(items) or (lengths and min(lengths) < 0):
        inp.fail("run lengths disagree with the item count")
    runs, start = [], 0
    for length in lengths:
        runs.append(items[start:start + length])
        start += length
    return runs


def _put_memory(out: _Writer, memory: dict) -> None:
    addresses = sorted(memory)
    out.ints(addresses)
    out.ints([memory[address] for address in addresses])


def _get_memory(inp: _Reader) -> dict:
    addresses = inp.ints()
    return dict(zip(addresses, inp.ints(len(addresses))))


class _HandlerTable:
    """Distinct interrupt-handler op tuples that thread keys refer to
    by index (-1 for a thread outside any handler)."""

    def __init__(self, tuples=()) -> None:
        self.tuples = list(tuples)
        self.index = {ops: position
                      for position, ops in enumerate(self.tuples)}

    def ref(self, ops) -> int:
        if ops is None:
            return -1
        if ops not in self.index:
            self.index[ops] = len(self.tuples)
            self.tuples.append(ops)
        return self.index[ops]

    def put(self, out: _Writer) -> None:
        out.ints([len(ops) for ops in self.tuples])
        _put_ops(out, [op for ops in self.tuples for op in ops])

    @classmethod
    def get(cls, inp: _Reader) -> "_HandlerTable":
        lengths = inp.ints()
        return cls(map(tuple, _split(inp, _get_ops(inp), lengths)))


def _put_thread_keys(out: _Writer, keys: list, handlers: _HandlerTable
                     ) -> None:
    columns = (list(zip(*keys)) if keys
               else [()] * len(_THREAD_FIELDS))
    for field_index, column in enumerate(columns):
        if field_index == _HANDLER_OPS:
            column = [handlers.ref(ops) for ops in column]
        out.ints(column)


def _get_thread_keys(inp: _Reader, count: int,
                     handlers: _HandlerTable) -> list:
    columns = [list(inp.ints(count)) for _ in _THREAD_FIELDS]
    refs = columns[_HANDLER_OPS]
    if refs and not -1 <= min(refs) <= max(refs) < len(handlers.tuples):
        inp.fail("thread key names an unknown handler")
    columns[_HANDLER_OPS] = [None if ref < 0 else handlers.tuples[ref]
                             for ref in refs]
    columns[_FINISHED] = [bool(flag) for flag in columns[_FINISHED]]
    return list(zip(*columns))


# ----------------------------------------------------------------------
# The three state sections
# ----------------------------------------------------------------------


def _encode_program(program: Program) -> bytes:
    out = _Writer()
    out.json({
        "name": program.name,
        "io_seed": program.io_seed,
        "interrupts": [
            [event.time, event.processor, event.vector, event.payload,
             event.handler_ops, event.high_priority,
             event.replay_chunk_id]
            for event in program.interrupts],
        "dma": [[transfer.time, list(map(list, transfer.writes.items()))]
                for transfer in program.dma_transfers],
    })
    out.ints(program.static_lengths())
    _put_ops(out, [op for ops in program.threads for op in ops])
    _put_memory(out, program.initial_memory)
    return _compress(out.getvalue())


#: Instance attribute holding a program's encoded section.  Program is
#: a frozen dataclass, so fields alone decide its equality, repr,
#: pickling and ``dataclasses.replace``; the section dies with it.
_SECTION_ATTR = "_dlrn_program_section"
#: Program sections this process encoded -> the live program each came
#: from.  Keys are the exact bytes, so a hit is byte-identical by
#: construction; values are weak, so the table keeps nothing alive.
#: Decoded programs never enter it: a valid payload need not be the
#: canonical encoding of what it decodes to.
_LIVE_PROGRAMS: "weakref.WeakValueDictionary[bytes, Program]" = (
    weakref.WeakValueDictionary())
#: Guards every table read and write: serve runs jobs on threads.
_LIVE_LOCK = threading.Lock()


def _program_section(program: Program) -> bytes:
    """``program``'s section payload, encoded on first use and then
    kept with the program, which is registered as its live source.
    Two threads may both encode one program; both get the same
    bytes."""
    section = vars(program).get(_SECTION_ATTR)
    if section is None:
        section = _encode_program(program)
        object.__setattr__(program, _SECTION_ATTR, section)
    with _LIVE_LOCK:
        _LIVE_PROGRAMS.setdefault(section, program)
    return section


def _decode_program(payload: bytes, header: dict) -> dict:
    with _LIVE_LOCK:
        live = _LIVE_PROGRAMS.get(bytes(payload))
    if live is not None:
        return {"program": live}
    inp = _Reader(_inflate(payload, "program"), "program")
    head = inp.json()
    lengths = inp.ints()
    ops = _get_ops(inp)
    initial_memory = _get_memory(inp)
    inp.finish()
    threads = _split(inp, ops, lengths)
    interrupts = []
    for fields in head["interrupts"]:
        if (len(fields) != len(INTERRUPT_FIELD_TYPES)
                or not all(map(isinstance, fields, INTERRUPT_FIELD_TYPES))):
            inp.fail("malformed interrupt event")
        interrupts.append(InterruptEvent(*fields))
    dma = []
    for time, writes in head["dma"]:
        writes = {address: value for address, value in writes}
        if not all(isinstance(address, int) and isinstance(value, int)
                   for address, value in writes.items()):
            inp.fail("malformed DMA transfer")
        dma.append(DmaTransfer(time, writes))
    if not isinstance(head["name"], str) or not isinstance(
            head["io_seed"], int):
        inp.fail("malformed program head")
    return {"program": Program(
        threads=threads, name=head["name"],
        initial_memory=initial_memory, interrupts=interrupts,
        dma_transfers=dma, io_seed=head["io_seed"])}


def _encode_config(recording: Recording) -> bytes:
    ordering = recording.memory_ordering
    mode = recording.mode_config
    return _canonical_json({
        "machine_config": dataclasses.asdict(recording.machine_config),
        "mode_config": {**dataclasses.asdict(mode),
                        "mode": mode.mode.value},
        "stats": recording.stats.as_dict(),
        "strata": [list(stratum) for stratum in recording.strata],
        "stratified": recording.stratified,
        "memory_ordering": None if ordering is None else {
            "stratified_pi_bits": ordering.stratified_pi_bits,
            "stratified_pi_compressed_bits":
                ordering.stratified_pi_compressed_bits,
            "stratified_by_cap": [
                [cap, raw, compressed] for cap, (raw, compressed)
                in ordering.stratified_by_cap.items()],
        },
    })


def _decode_config(payload: bytes, header: dict) -> dict:
    data = json.loads(payload)
    machine = dict(data["machine_config"])
    machine["signature"] = SignatureConfig(**machine["signature"])
    machine["timing"] = TimingModel(**machine["timing"])
    machine_config = MachineConfig(**machine)
    mode = dict(data["mode_config"])
    mode_config = ModeConfig(**{**mode,
                                "mode": ExecutionMode(mode["mode"])})
    if (machine_config.num_processors != header["num_processors"]
            or mode_config.mode.value != header["mode"]):
        raise LogFormatError(
            "config section disagrees with the recording header")
    stats = RunStats.from_dict(data["stats"])
    # Canonical JSON sorts processor keys as strings; restore id order.
    stats.per_processor = dict(sorted(stats.per_processor.items()))
    ordering = data["memory_ordering"]
    if ordering is not None:
        ordering["stratified_by_cap"] = {
            cap: (raw, compressed)
            for cap, raw, compressed in ordering["stratified_by_cap"]}
    return {
        "machine_config": machine_config,
        "mode_config": mode_config,
        "stats": stats,
        "strata": [tuple(stratum) for stratum in data["strata"]],
        "stratified": bool(data["stratified"]),
        # Rebuilt around the decoded PI and CS logs by _assemble.
        "memory_ordering": ordering,
    }


def _put_fingerprints(out: _Writer, fingerprints: list,
                      handlers: _HandlerTable) -> None:
    """Columns of the two fingerprint shapes the machine emits: a
    chunk's ``(proc, seq, piece, is_handler, instructions, writes,
    end_key)`` and a DMA burst's ``("dma", seq, writes)``; the owner
    column holds -1 for DMA."""
    chunks = [fp for fp in fingerprints if fp[0] != "dma"]
    out.ints([-1 if fp[0] == "dma" else fp[0] for fp in fingerprints])
    out.ints([fp[1] for fp in fingerprints])
    for position in (2, 3, 4):
        out.ints([fp[position] for fp in chunks])
    ends = [fp[6] for fp in chunks]
    out.raw(bytes([end is not None for end in ends]))
    _put_thread_keys(out, [end for end in ends if end is not None],
                     handlers)
    writes = [fp[2] if fp[0] == "dma" else fp[5] for fp in fingerprints]
    out.ints([len(pairs) for pairs in writes])
    out.ints([address for pairs in writes for address, _ in pairs])
    out.ints([value for pairs in writes for _, value in pairs])


def _get_fingerprints(inp: _Reader, handlers: _HandlerTable,
                      num_processors: int) -> list:
    owners = inp.ints()
    if owners and not -1 <= min(owners) <= max(owners) < num_processors:
        inp.fail("fingerprint owner out of range")
    seqs = inp.ints(len(owners))
    chunk_count = len(owners) - owners.count(-1)
    pieces, handler_flags, instructions = (
        inp.ints(chunk_count) for _ in range(3))
    present = inp.flags(chunk_count)
    end_keys = iter(_get_thread_keys(inp, present.count(1), handlers))
    sizes = inp.ints(len(owners))
    if sizes and min(sizes) < 0:
        inp.fail("negative write count")
    addresses = inp.ints(sum(sizes))
    values = inp.ints(len(addresses))
    fingerprints = []
    start = chunk = 0
    for owner, seq, size in zip(owners, seqs, sizes):
        writes = tuple(zip(addresses[start:start + size],
                           values[start:start + size]))
        start += size
        if owner < 0:
            fingerprints.append(("dma", seq, writes))
            continue
        fingerprints.append((
            owner, seq, pieces[chunk], bool(handler_flags[chunk]),
            instructions[chunk], writes,
            next(end_keys) if present[chunk] else None))
        chunk += 1
    return fingerprints


def _put_checkpoints(out: _Writer, store, handlers: _HandlerTable
                     ) -> None:
    if store is None:
        out.json(None)
        return
    out.json({"interval": store.interval, "checkpoints": [
        {"commit_index": checkpoint.commit_index,
         "label": checkpoint.label,
         "dma_consumed": checkpoint.dma_consumed,
         "committed_counts": list(map(
             list, checkpoint.committed_counts.items())),
         "io_consumed": list(map(list, checkpoint.io_consumed.items()))}
        for checkpoint in store]})
    for checkpoint in store:
        _put_memory(out, checkpoint.memory_image)
        procs = list(checkpoint.thread_states)
        out.ints(procs)
        _put_thread_keys(out, [
            checkpoint.thread_states[proc].architectural_key()
            for proc in procs], handlers)


def _get_checkpoints(inp: _Reader, handlers: _HandlerTable):
    head = inp.json()
    if head is None:
        return None
    store = IntervalCheckpointStore(interval=head["interval"])
    for fields in head["checkpoints"]:
        memory_image = _get_memory(inp)
        procs = inp.ints()
        keys = _get_thread_keys(inp, len(procs), handlers)
        store.add(IntervalCheckpoint(
            commit_index=fields["commit_index"],
            memory_image=memory_image,
            thread_states={proc: ThreadState(*key)
                           for proc, key in zip(procs, keys)},
            committed_counts=dict(fields["committed_counts"]),
            io_consumed=dict(fields["io_consumed"]),
            dma_consumed=fields["dma_consumed"],
            label=fields["label"]))
    return store


def _encode_verify(recording: Recording) -> bytes:
    handlers = _HandlerTable()
    body = _Writer()
    _put_fingerprints(body, recording.fingerprints, handlers)
    _put_memory(body, recording.final_memory)
    keys = recording.final_thread_keys
    body.ints(list(keys))
    _put_thread_keys(body, list(keys.values()), handlers)
    _put_checkpoints(body, recording.interval_checkpoints, handlers)
    out = _Writer()
    handlers.put(out)
    return _compress(out.getvalue() + body.getvalue())


def _decode_verify(payload: bytes, header: dict) -> dict:
    inp = _Reader(_inflate(payload, "verify"), "verify")
    num_processors = header["num_processors"]
    handlers = _HandlerTable.get(inp)
    fingerprints = _get_fingerprints(inp, handlers, num_processors)
    final_memory = _get_memory(inp)
    procs = inp.ints()
    keys = _get_thread_keys(inp, len(procs), handlers)
    checkpoints = _get_checkpoints(inp, handlers)
    inp.finish()
    return {
        "fingerprints": fingerprints,
        "final_memory": final_memory,
        "final_thread_keys": dict(zip(procs, keys)),
        "interval_checkpoints": checkpoints,
    }


def _encode_start(recording: Recording) -> bytes:
    """The start checkpoint as a one-entry checkpoint store whose
    memory image is empty: it is the program's initial memory."""
    checkpoint = recording.start_checkpoint
    if checkpoint.memory_image != recording.program.initial_memory:
        raise LogFormatError("a start checkpoint's memory image must "
                             "be its program's initial memory")
    handlers = _HandlerTable()
    body = _Writer()
    _put_checkpoints(body, IntervalCheckpointStore(checkpoints=[
        dataclasses.replace(checkpoint, memory_image={})]), handlers)
    out = _Writer()
    handlers.put(out)
    return _compress(out.getvalue() + body.getvalue())


def _decode_start(payload: bytes, header: dict) -> dict:
    inp = _Reader(_inflate(payload, "start"), "start")
    handlers = _HandlerTable.get(inp)
    (checkpoint,) = _get_checkpoints(inp, handlers).checkpoints
    inp.finish()
    return {"start_checkpoint": checkpoint}


#: State section tag -> decoder of its payload into Recording fields.
#: Every v3 recording holds each of them but the start section.
_STATE_DECODERS = {
    _SECTION_PROGRAM: _decode_program,
    _SECTION_CONFIG: _decode_config,
    _SECTION_VERIFY: _decode_verify,
    _SECTION_START: _decode_start,
}


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------


def _preamble(mode: ModeConfig, machine: MachineConfig) -> bytes:
    """Magic, version and CRC-checked header of a v3 container: the
    mode and machine scalars the bit-packed log sections need."""
    header = json.dumps({
        "mode": mode.mode.value,
        "standard_chunk_size": mode.standard_chunk_size,
        "cs_distance_bits": mode.cs_distance_bits,
        "cs_size_bits": mode.cs_size_bits,
        "variable_truncation_rate": mode.variable_truncation_rate,
        "stratify": mode.stratify,
        "chunks_per_stratum": mode.chunks_per_stratum,
        "num_processors": machine.num_processors,
        "pi_entry_bits": machine.pi_entry_bits,
    }, sort_keys=True).encode()
    return (_MAGIC
            + struct.pack(">BII", VERSION, len(header),
                          zlib.crc32(header) & 0xFFFFFFFF)
            + header)


def _sections(recording: Recording, program: bool = True):
    """Yield ``(tag, proc, payload, bit_length)`` in container order;
    with ``program=False``, all but the program and start sections,
    which never change during a run (a journal writes them once)."""
    payload, bits = recording.pi_log.encode()
    yield _SECTION_PI, 0, payload, bits
    for tag, logs in ((_SECTION_CS, recording.cs_logs),
                      (_SECTION_INTERRUPT, recording.interrupt_logs),
                      (_SECTION_IO, recording.io_logs)):
        for proc, log in sorted(logs.items()):
            payload, bits = log.encode()
            yield tag, proc, payload, bits
    payload, bits = recording.dma_log.encode()
    yield _SECTION_DMA, 0, payload, bits
    if program:
        yield _SECTION_PROGRAM, 0, _program_section(recording.program), 0
        if recording.start_checkpoint is not None:
            yield _SECTION_START, 0, _encode_start(recording), 0
    yield _SECTION_CONFIG, 0, _encode_config(recording), 0
    yield _SECTION_VERIFY, 0, _encode_verify(recording), 0


def _frame_bytes(tag: int, proc: int, bits: int, payload: bytes) -> bytes:
    header = _FRAME_HEADER.pack(tag, proc, bits, len(payload))
    crc = zlib.crc32(header + payload) & 0xFFFFFFFF
    return _SYNC + header + _FRAME_CRC.pack(crc) + payload


def save_recording(recording: Recording) -> bytes:
    """Serialize a recording to a self-contained DLRN v3 blob."""
    parts = [_preamble(recording.mode_config, recording.machine_config)]
    parts += [_frame_bytes(tag, proc, bits, payload)
              for tag, proc, payload, bits in _sections(recording)]
    parts.append(_frame_bytes(_SECTION_END, 0, 0, b""))
    return b"".join(parts)


# ----------------------------------------------------------------------
# Frame scanning (v2 and v3)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SectionFrame:
    """One framed section as found on the wire."""

    start: int          # offset of the sync marker
    end: int            # offset one past the payload
    tag: int
    proc: int
    bit_length: int
    payload: bytes
    crc_ok: bool

    @property
    def name(self) -> str:
        """Human-readable section name."""
        return section_name(self.tag)


@dataclass(frozen=True)
class SectionDamage:
    """One integrity problem found while reading a recording."""

    offset: int
    reason: str
    tag: int | None = None
    proc: int | None = None

    def describe(self) -> str:
        """One-line human-readable description."""
        where = (f"{section_name(self.tag)} section"
                 if self.tag is not None else "container")
        if self.proc is not None and self.tag in (
                _SECTION_CS, _SECTION_INTERRUPT, _SECTION_IO):
            where += f" (proc {self.proc})"
        return f"{where} at offset {self.offset}: {self.reason}"


def _parse_frame_at(blob: bytes, pos: int) -> SectionFrame | None:
    """Parse the frame whose sync marker starts at ``pos``.

    Returns None when no structurally plausible frame starts there
    (wrong sync, header runs off the blob, or the declared payload does
    not end at another sync marker / end of blob).
    """
    if blob[pos:pos + 4] != _SYNC:
        return None
    header_end = pos + 4 + _FRAME_HEADER.size
    crc_end = header_end + _FRAME_CRC.size
    if crc_end > len(blob):
        return None
    tag, proc, bits, size = _FRAME_HEADER.unpack(
        blob[pos + 4:header_end])
    end = crc_end + size
    if end > len(blob):
        return None
    (stored_crc,) = _FRAME_CRC.unpack(blob[header_end:crc_end])
    payload = blob[crc_end:end]
    actual = zlib.crc32(blob[pos + 4:header_end] + payload) & 0xFFFFFFFF
    crc_ok = actual == stored_crc
    if not crc_ok and end != len(blob) and blob[end:end + 4] != _SYNC:
        # Neither the checksum nor the framing is trustworthy: the
        # size field itself is probably damaged.  Reject, so the
        # caller resync-scans instead of leaping a bogus distance.
        return None
    return SectionFrame(start=pos, end=end, tag=tag, proc=proc,
                        bit_length=bits, payload=payload, crc_ok=crc_ok)


def scan_frames(blob: bytes, data_start: int) -> tuple[
        list[SectionFrame], list[SectionDamage], int]:
    """Walk the frame stream from ``data_start`` to the first CRC-valid
    END frame, resyncing past damage.

    Returns every structurally recovered frame (``crc_ok`` says whether
    its contents are trustworthy), a damage report for each region
    that had to be skipped, and the offset one past the END frame (the
    blob's length without one).  Used by both the strict and the
    tolerant loaders -- strictness is a policy decision of the caller.
    """
    frames: list[SectionFrame] = []
    damage: list[SectionDamage] = []
    pos = data_start
    while pos < len(blob):
        frame = _parse_frame_at(blob, pos)
        if frame is None:
            # Resync: scan forward for the next validating frame.
            scan = blob.find(_SYNC, pos + 1)
            while scan != -1 and _parse_frame_at(blob, scan) is None:
                scan = blob.find(_SYNC, scan + 1)
            damage.append(SectionDamage(
                offset=pos,
                reason="unparseable bytes (resync scan)" if scan != -1
                else "unparseable bytes to end of blob"))
            if scan == -1:
                break
            pos = scan
            continue
        if not frame.crc_ok:
            damage.append(SectionDamage(
                offset=frame.start, reason="CRC32 mismatch",
                tag=frame.tag, proc=frame.proc))
        if frame.tag == _SECTION_END:
            if frame.crc_ok:
                return frames, damage, frame.end
        else:
            frames.append(frame)
        pos = frame.end
    damage.append(SectionDamage(
        offset=len(blob), reason="missing end-of-container frame"))
    return frames, damage, len(blob)


def container_frames(blob: bytes) -> tuple[list[SectionFrame],
                                           list[SectionDamage]]:
    """Scan a framed (v2 or v3) blob's section frames without
    assembling a Recording.

    The fault injector uses this to locate whole sections for drop and
    duplication faults.  v1 blobs have no self-delimiting frames, so
    they raise :class:`~repro.errors.LogFormatError`.
    """
    version, _header, data_start = _read_preamble(blob)
    if version == 1:
        raise LogFormatError(
            "section framing requires a v2 or v3 container")
    return scan_frames(blob, data_start)[:2]


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


def _read_preamble(blob: bytes) -> tuple[int, dict, int]:
    """Magic/version/header; returns (version, header dict, offset of
    the first section)."""
    if len(blob) < 5 or blob[:4] != _MAGIC:
        raise LogFormatError("not a DeLorean recording (bad magic)")
    version = blob[4]
    if version not in SUPPORTED_VERSIONS:
        raise LogFormatError(f"unsupported recording version {version}")
    if version == 1:
        if len(blob) < 9:
            raise LogFormatError("truncated recording (no header)")
        (header_len,) = struct.unpack_from(">I", blob, 5)
        data_start = 9 + header_len
        header_bytes = blob[9:data_start]
    else:
        if len(blob) < 13:
            raise LogFormatError("truncated recording (no header)")
        header_len, header_crc = struct.unpack_from(">II", blob, 5)
        data_start = 13 + header_len
        header_bytes = blob[13:data_start]
        if zlib.crc32(header_bytes) & 0xFFFFFFFF != header_crc:
            raise ChecksumError(
                "recording header failed its CRC32 check")
    if len(header_bytes) != header_len:
        raise LogFormatError("truncated recording (header cut short)")
    try:
        header = json.loads(header_bytes)
    except ValueError as error:
        raise LogFormatError(
            f"recording header is not valid JSON: {error}") from error
    for key in ("mode", "standard_chunk_size", "num_processors",
                "pi_entry_bits"):
        if key not in header:
            raise LogFormatError(
                f"recording header is missing {key!r}")
    processors = header["num_processors"]
    try:
        if not isinstance(processors, int):
            raise TypeError(type(processors).__name__)
        MachineConfig(num_processors=processors)
    except (ReproError, TypeError) as error:
        raise LogFormatError(
            f"recording header has an invalid processor count: "
            f"{error}") from error
    return version, header, data_start


def _mode_config_from_header(header: dict) -> ModeConfig:
    mode = ExecutionMode(header["mode"])
    return ModeConfig(
        mode=mode,
        standard_chunk_size=header["standard_chunk_size"],
        cs_distance_bits=header["cs_distance_bits"],
        cs_size_bits=header["cs_size_bits"],
        variable_truncation_rate=header["variable_truncation_rate"],
        stratify=header["stratify"],
        chunks_per_stratum=header["chunks_per_stratum"],
    )


def _frames_v1(blob: bytes, data_start: int) -> list[SectionFrame]:
    """Sequential (unframed, un-checksummed) v1 section walk."""
    frames: list[SectionFrame] = []
    pos = data_start
    while True:
        header_end = pos + _FRAME_HEADER.size
        if header_end > len(blob):
            raise LogFormatError("truncated recording (missing end tag)")
        tag, proc, bits, size = _FRAME_HEADER.unpack(
            blob[pos:header_end])
        if tag == _SECTION_END:
            break
        end = header_end + size
        if end > len(blob):
            raise LogFormatError("truncated recording section")
        frames.append(SectionFrame(
            start=pos, end=end, tag=tag, proc=proc, bit_length=bits,
            payload=blob[header_end:end], crc_ok=True))
        pos = end
    return frames


def _decode_state(tag: int, payload: bytes, header: dict) -> dict:
    """Decode one v3 state section; any failure is a LogFormatError."""
    try:
        return _STATE_DECODERS[tag](payload, header)
    except IntegrityError:
        raise
    except Exception as error:
        raise LogFormatError(
            f"{section_name(tag)} section is malformed: "
            f"{type(error).__name__}: {error}") from error


def _assemble(version: int, header: dict, frames: list[SectionFrame],
              damage: list[SectionDamage],
              tolerant: bool) -> Recording:
    """Build a Recording from decoded frames.

    In tolerant mode a log frame that fails to decode (or is missing
    entirely) is replaced by an empty log and reported in ``damage``;
    in strict mode decode failures raise.  The state -- a v3 program,
    config and verify section, or a v1/v2 trailer -- cannot be
    replaced: without it the loader raises
    :class:`~repro.errors.SalvageError`.  A start section that fails
    to decode raises in both modes.
    """
    mode_config = _mode_config_from_header(header)
    num_processors = header["num_processors"]
    pi_log = PILog(header["pi_entry_bits"])
    cs_logs: dict[int, ChunkSizeLog] = {}
    interrupt_logs: dict[int, InterruptLog] = {}
    io_logs: dict[int, IOLog] = {}
    dma_log = DMALog()
    state_tags = ((_SECTION_TRAILER,) if version < 3
                  else tuple(_STATE_DECODERS))
    state: dict[int, dict] = {}
    seen: set[tuple[int, int]] = set()

    for frame in frames:
        if not frame.crc_ok:
            continue  # already reported by the scanner
        if frame.tag == _SECTION_FLUSH:
            continue  # journal metadata, not recording content
        if (frame.tag, frame.proc) in seen:
            if not tolerant:
                raise LogFormatError(
                    f"duplicate {section_name(frame.tag)} section "
                    f"for proc {frame.proc}")
            damage.append(SectionDamage(
                offset=frame.start, reason="duplicate section ignored",
                tag=frame.tag, proc=frame.proc))
            continue
        try:
            if frame.tag == _SECTION_PI:
                pi_log = PILog.decode(frame.payload, frame.bit_length,
                                      header["pi_entry_bits"])
            elif frame.tag == _SECTION_CS:
                cs_logs[frame.proc] = ChunkSizeLog.decode(
                    frame.payload, frame.bit_length, mode_config)
            elif frame.tag == _SECTION_INTERRUPT:
                interrupt_logs[frame.proc] = InterruptLog.decode(
                    frame.payload, frame.bit_length)
            elif frame.tag == _SECTION_IO:
                io_logs[frame.proc] = IOLog.decode(frame.payload,
                                                   frame.bit_length)
            elif frame.tag == _SECTION_DMA:
                dma_log = DMALog.decode(frame.payload,
                                        frame.bit_length)
            elif frame.tag in state_tags and version < 3:
                # Imported on first use: only v1/v2 blobs need pickle.
                from repro.core.legacy import unpickle_trailer

                state[frame.tag] = unpickle_trailer(frame.payload)
            elif frame.tag in state_tags:
                state[frame.tag] = _decode_state(frame.tag,
                                                 frame.payload, header)
            else:
                raise LogFormatError(
                    f"unknown section tag {frame.tag}")
        except ReproError:
            if not tolerant or frame.tag == _SECTION_START:
                raise
            damage.append(SectionDamage(
                offset=frame.start, reason="section failed to decode",
                tag=frame.tag, proc=frame.proc))
            continue
        seen.add((frame.tag, frame.proc))

    for tag in state_tags:
        if tag not in state and tag != _SECTION_START:
            raise SalvageError(
                f"the {section_name(tag)} section is damaged or "
                f"missing; without it nothing can be replayed")
    # The writer emits every section unconditionally, so absence is
    # itself evidence of damage.
    expected = [(_SECTION_PI, 0), (_SECTION_DMA, 0)]
    for proc in range(num_processors):
        expected += [(_SECTION_CS, proc),
                     (_SECTION_INTERRUPT, proc),
                     (_SECTION_IO, proc)]
    missing = [pair for pair in expected if pair not in seen]
    if missing and not tolerant:
        tag, proc = missing[0]
        raise LogFormatError(
            f"recording is missing its {section_name(tag)} section "
            f"for proc {proc}")
    if tolerant:
        for tag, proc in missing:
            damage.append(SectionDamage(
                offset=-1, reason="section missing (damaged or "
                "dropped); replaced with an empty log",
                tag=tag, proc=proc))
        for proc in range(num_processors):
            cs_logs.setdefault(proc, ChunkSizeLog(mode_config))
            interrupt_logs.setdefault(proc, InterruptLog())
            io_logs.setdefault(proc, IOLog())

    fields: dict = {}
    for decoded in state.values():
        fields.update(decoded)
    start = fields.get("start_checkpoint")
    if start is not None:  # its memory image is the program's
        fields["start_checkpoint"] = dataclasses.replace(
            start, memory_image=dict(fields["program"].initial_memory))
    ordering = fields["memory_ordering"]
    if version >= 3 and ordering is not None:
        fields["memory_ordering"] = MemoryOrderingLog(
            pi_log=pi_log, cs_logs=cs_logs,
            mode=fields["mode_config"].mode, **ordering)
    return Recording(pi_log=pi_log, cs_logs=cs_logs,
                     interrupt_logs=interrupt_logs, io_logs=io_logs,
                     dma_log=dma_log, **fields)


def _load(blob: bytes, tolerant: bool,
          legacy: bool) -> tuple[Recording, list[SectionDamage]]:
    version, header, data_start = _read_preamble(blob)
    if version < 3 and not legacy:
        raise LogFormatError(
            f"refusing a v{version} recording here: its trailer is a "
            f"pickle, so only local files may use the legacy reader")
    damage: list[SectionDamage] = []
    if version == 1:
        frames = _frames_v1(blob, data_start)
    else:
        frames, damage, end = scan_frames(blob, data_start)
        if end < len(blob):
            reason = f"{len(blob) - end} bytes after the END frame"
            if blob.startswith(_MAGIC, end):
                reason += ("; another recording follows: load a "
                           "degraded recording with load_segmented")
            damage.append(SectionDamage(offset=end, reason=reason))
        if damage and not tolerant:
            first = damage[0]
            if first.reason == "CRC32 mismatch":
                raise ChecksumError(
                    f"recording integrity check failed: "
                    f"{first.describe()}",
                    section_tag=first.tag, proc=first.proc)
            raise LogFormatError(
                f"recording framing damaged: {first.describe()}")
    recording = _assemble(version, header, frames, damage, tolerant)
    return recording, damage


def _typed_load(blob: bytes, tolerant: bool, legacy: bool):
    try:
        return _load(blob, tolerant, legacy)
    except IntegrityError:
        raise
    except Exception as error:
        # Anything else leaking out of the decoder is a malformed blob
        # wearing an implementation-detail disguise.
        raise LogFormatError(
            f"malformed recording: {type(error).__name__}: "
            f"{error}") from error


def load_recording(blob: bytes, *, legacy: bool = True) -> Recording:
    """Invert :func:`save_recording` (any supported container version).

    The hardware logs are decoded from their wire formats, so a round
    trip genuinely exercises the Table 5 encodings.  A damaged blob
    raises a typed :class:`~repro.errors.IntegrityError` subclass
    (:class:`~repro.errors.LogFormatError` for structural damage,
    :class:`~repro.errors.ChecksumError` for CRC failures) -- never a
    raw ``struct.error`` / ``zlib.error`` / ``EOFError``.

    ``legacy=False`` refuses v1/v2 containers, whose trailers are
    pickles: pass it for bytes that arrived from another process or
    host.  Bytes after the END frame are refused too (a degraded
    recording's segments load with :func:`load_recordings`).
    """
    recording, _ = _typed_load(blob, tolerant=False, legacy=legacy)
    return recording


def load_recordings(blob: bytes) -> list[Recording]:
    """Every recording in ``blob``: one or more containers written back
    to back, each loaded by :func:`load_recording` (so, like it, this
    reads local files).  A degraded recording's segments are stored
    this way (:func:`repro.guard.degrade.save_segmented`), and a plain
    recording is a list of one."""
    recordings = []
    while True:
        version, _header, data_start = _read_preamble(blob)
        end = (scan_frames(blob, data_start)[2] if version > 1
               else len(blob))
        recordings.append(load_recording(blob[:end]))
        blob = blob[end:]
        if not blob:
            return recordings


def load_recording_tolerant(blob: bytes) -> tuple[Recording,
                                                  list[SectionDamage]]:
    """Best-effort load of a (possibly damaged) recording.

    Where :func:`load_recording` fails fast, this reader keeps going:
    damaged frames are skipped via resync scanning, undecodable log
    sections are replaced by empty logs, and every problem is reported
    as a :class:`SectionDamage`.  An intact blob returns
    ``(recording, [])``.  Only a damaged header or state section (the
    v3 program, config or verify section; a v1/v2 trailer) -- the parts
    nothing can be rebuilt without -- still raise
    (:class:`~repro.errors.SalvageError` /
    :class:`~repro.errors.IntegrityError`).

    The result is the input to salvage replay
    (:func:`repro.faults.salvage_replay`), which replays as far as the
    surviving logs allow and reports coverage.
    """
    return _typed_load(blob, tolerant=True, legacy=True)
