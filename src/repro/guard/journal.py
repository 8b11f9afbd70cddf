"""A write-ahead recording journal with atomic flush points.

An unsupervised record session holds its entire recording in memory
until the run completes; a crash (OOM kill, node preemption, plain
SIGKILL) loses everything.  The journal inverts that: at quiescent
chunk boundaries the supervisor appends the *current section set* --
the same CRC-framed frames the container format uses (see
:mod:`repro.core.serialization`) -- followed by a tiny ``flush``
marker frame, then flushes and fsyncs.  The program never changes, so
only epoch 0 carries its section, and a degraded segment's start
checkpoint section with it; every later epoch carries the rest.
The file is therefore a valid container, of the version
:func:`~repro.core.serialization.save_recording` writes, at every
flush point:

    preamble | epoch 0 sections + PROGRAM (+ START) | FLUSH
    | epoch 1 sections | FLUSH | ... | END

A SIGKILL mid-epoch tears only the tail; :func:`load_journal` scans
the frames, discards everything past the last intact flush marker,
keeps the *newest* intact copy of each section (later epochs supersede
earlier ones), and assembles a loadable Recording of the flushed
prefix -- which then salvage-replays bit-for-bit
(:func:`repro.faults.salvage_replay` credits exactly the prefix's
commits).  The regular loaders also read a journal directly: flush
frames are skipped and the tolerant loader's first-wins rule recovers
epoch 0.

Flush points are *atomic at process-death granularity*: the epoch's
frames are buffered and written before its flush marker, so a killed
process can never leave a marker without its data (torn frames from a
concurrent power failure are caught by the per-frame CRCs and the
marker is then disregarded).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.core.recorder import Recording
from repro.core.serialization import (
    _SECTION_END,
    _SECTION_FLUSH,
    _assemble,
    _frame_bytes,
    _preamble,
    _read_preamble,
    _sections,
    scan_frames,
    SectionDamage,
)
from repro.errors import ConfigurationError, IntegrityError, SalvageError
from repro.machine.system import partial_recording


class RecordingJournal:
    """Append-only on-disk journal for one supervised record session."""

    def __init__(self, path: str, machine,
                 flush_every: int = 25,
                 sync: bool = True) -> None:
        if flush_every < 1:
            raise ConfigurationError("flush_every must be >= 1")
        self.path = path
        self.machine = machine
        self.flush_every = flush_every
        self.sync = sync
        self.flush_count = 0
        self.flushed_commits = 0
        self.bytes_written = 0
        self.closed = False
        self._file = open(path, "wb")
        self._write(_preamble(machine.mode_config, machine.config))
        self._commit_to_disk()

    def _write(self, data: bytes) -> None:
        self._file.write(data)
        self.bytes_written += len(data)

    def _commit_to_disk(self) -> None:
        self._file.flush()
        if self.sync:
            os.fsync(self._file.fileno())

    def maybe_flush(self) -> bool:
        """Flush if at least ``flush_every`` commits landed since the
        last flush.  Call only at quiescent boundaries."""
        commits = self.machine.commit_count
        if commits - self.flushed_commits < self.flush_every:
            return False
        self.flush()
        return True

    def flush(self) -> None:
        """Append one epoch: the current section set (the program and
        any start checkpoint in epoch 0 only) plus a flush marker, then
        flush+fsync.  The file is a loadable container of the
        committed prefix the moment this returns."""
        if self.closed:
            raise ConfigurationError("journal is closed")
        snapshot = partial_recording(self.machine)
        for tag, proc, payload, bits in _sections(
                snapshot, program=self.flush_count == 0):
            self._write(_frame_bytes(tag, proc, bits, payload))
        marker = json.dumps({
            "flush": self.flush_count,
            "gcc": len(snapshot.fingerprints),
            "cycle": self.machine.engine.now,
        }, sort_keys=True).encode()
        self._write(_frame_bytes(_SECTION_FLUSH, 0, 0, marker))
        self._commit_to_disk()
        self.flush_count += 1
        self.flushed_commits = len(snapshot.fingerprints)

    def close(self, final_flush: bool = True) -> None:
        """Write a final epoch (by default) and the END frame."""
        if self.closed:
            return
        if (final_flush
                and self.machine.commit_count > self.flushed_commits):
            self.flush()
        self._write(_frame_bytes(_SECTION_END, 0, 0, b""))
        self._commit_to_disk()
        self._file.close()
        self.closed = True


@dataclass
class JournalInfo:
    """What :func:`load_journal` found in a journal file."""

    flushes: int
    flushed_commits: int
    flushed_cycle: float
    total_bytes: int
    tail_bytes_discarded: int
    complete: bool  # the journal was closed with an END frame
    damage: list[SectionDamage] = field(default_factory=list)


def load_journal(blob: bytes) -> tuple[Recording, JournalInfo]:
    """Recover the last fully-flushed prefix from a journal blob.

    Tolerates an arbitrarily torn tail (the SIGKILL case): everything
    past the last intact flush marker is discarded, and for each
    section the newest intact copy at or before that marker wins.
    Raises :class:`~repro.errors.SalvageError` when not even one flush
    completed -- there is no prefix to recover -- or when a CRC-valid
    header or flush marker has the wrong shape.
    """
    try:
        return _load_journal(blob)
    except IntegrityError:
        raise
    except Exception as error:
        raise SalvageError(
            f"malformed journal: {type(error).__name__}: "
            f"{error}") from error


def _load_journal(blob: bytes) -> tuple[Recording, JournalInfo]:
    version, header, data_start = _read_preamble(blob)
    if version == 1:
        raise SalvageError("recording journals are framed (v2 or later) "
                           "containers, not v1")
    frames, scan_damage, _end = scan_frames(blob, data_start)
    complete = not any(
        d.reason == "missing end-of-container frame"
        for d in scan_damage)

    last_marker = None
    marker_count = 0
    for frame in frames:
        if frame.tag == _SECTION_FLUSH and frame.crc_ok:
            marker_count += 1
            last_marker = frame
    if last_marker is None:
        raise SalvageError(
            "journal has no completed flush point; no prefix to "
            "recover")
    try:
        marker = json.loads(last_marker.payload)
    except ValueError:
        marker = {}

    damage = [d for d in scan_damage
              if d.offset <= last_marker.start and d.offset >= 0]
    # Newest intact copy of each section at or before the marker wins:
    # later epochs describe strictly longer prefixes.
    newest: dict[tuple[int, int], object] = {}
    for frame in frames:
        if frame.start >= last_marker.start or not frame.crc_ok:
            continue
        if frame.tag == _SECTION_FLUSH:
            continue
        newest[(frame.tag, frame.proc)] = frame
    ordered = sorted(newest.values(), key=lambda f: f.start)
    recording = _assemble(version, header, ordered, damage,
                          tolerant=True)

    info = JournalInfo(
        flushes=marker_count,
        flushed_commits=int(marker.get(
            "gcc", len(recording.fingerprints))),
        flushed_cycle=float(marker.get("cycle", 0.0)),
        total_bytes=len(blob),
        tail_bytes_discarded=max(0, len(blob) - last_marker.end),
        complete=complete,
        damage=damage,
    )
    return recording, info


def load_journal_file(path: str) -> tuple[Recording, JournalInfo]:
    """:func:`load_journal` over a file path."""
    with open(path, "rb") as handle:
        return load_journal(handle.read())


__all__ = [
    "JournalInfo",
    "RecordingJournal",
    "load_journal",
    "load_journal_file",
]
