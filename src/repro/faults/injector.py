"""Applying fault specs to blobs, recordings, and runner jobs.

Injection is deliberately *pure*: :func:`inject_blob` maps
``(blob, spec) -> blob`` with no hidden state, and
:func:`inject_recording` deep-copies before mutating, so the same spec
applied to the same artifact is byte-for-byte reproducible -- the
property the chaos tests pin down.

Runner-layer faults work differently: a worker crash is not a byte
edit but a behavior, so they are expressed as :class:`FaultyJobFn`, a
picklable wrapper around a real job function that deterministically
(per spec hash) misbehaves.  Crash-once semantics use marker files in
a shared ``state_dir``, because a retried job lands in a fresh worker
process with no memory of the first attempt.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass

from repro.core.logs import CSEntry
from repro.core.recorder import Recording
from repro.core.serialization import container_frames
from repro.errors import ConfigurationError
from repro.faults.plan import FaultSpec


def _scaled(position: float, length: int) -> int:
    """Map a fractional position onto ``range(length)``."""
    if length <= 0:
        return 0
    return min(length - 1, int(position * length))


class FaultInjector:
    """Applies :class:`~repro.faults.plan.FaultSpec` perturbations."""

    def inject_blob(self, blob: bytes, spec: FaultSpec) -> bytes:
        """Return a damaged copy of a serialized recording."""
        if spec.layer != "blob":
            raise ConfigurationError(
                f"inject_blob got a {spec.layer!r}-layer fault")
        if spec.kind == "bit_flip":
            offset = _scaled(spec.position, len(blob))
            mutated = bytearray(blob)
            mutated[offset] ^= 1 << (spec.index % 8)
            return bytes(mutated)
        if spec.kind == "truncate":
            cut = max(1, _scaled(spec.position, len(blob)))
            return blob[:cut]
        # Section-granular faults need the frame map (v2 and later).
        frames, _damage = container_frames(blob)
        if not frames:
            return blob
        frame = frames[_scaled(spec.position, len(frames))]
        if spec.kind == "drop_section":
            return blob[:frame.start] + blob[frame.end:]
        if spec.kind == "dup_section":
            section = blob[frame.start:frame.end]
            return blob[:frame.end] + section + blob[frame.end:]
        raise ConfigurationError(f"unknown blob fault {spec.kind!r}")

    def inject_recording(self, recording: Recording,
                         spec: FaultSpec) -> Recording:
        """Return a damaged deep copy of an in-memory recording.

        Mutations go straight at the ``entries`` lists, bypassing the
        append-time validation the logs normally enforce -- that is the
        point: the result models a recording whose invariants were
        broken in flight, and replay must *detect* it.
        """
        if spec.layer != "log":
            raise ConfigurationError(
                f"inject_recording got a {spec.layer!r}-layer fault")
        damaged = copy.deepcopy(recording)
        if spec.kind in ("drop_pi", "dup_pi"):
            entries = damaged.pi_log.entries
            if entries:
                index = _scaled(spec.position, len(entries))
                if spec.kind == "drop_pi":
                    del entries[index]
                else:
                    entries.insert(index, entries[index])
            return damaged
        if spec.kind == "corrupt_cs":
            procs = sorted(damaged.cs_logs)
            log = damaged.cs_logs[procs[spec.proc % len(procs)]]
            if log.entries:
                index = _scaled(spec.position, len(log.entries))
                entry = log.entries[index]
                log.entries[index] = CSEntry(
                    distance=entry.distance,
                    size=max(1, entry.size + spec.delta))
            return damaged
        if spec.kind == "shift_interrupt":
            procs = sorted(damaged.interrupt_logs)
            log = damaged.interrupt_logs[procs[spec.proc % len(procs)]]
            if log.entries:
                index = _scaled(spec.position, len(log.entries))
                entry = log.entries[index]
                log.entries[index] = dataclasses.replace(
                    entry, chunk_id=max(1, entry.chunk_id + spec.delta))
            return damaged
        if spec.kind == "drop_dma":
            log = damaged.dma_log
            if log.entries:
                index = _scaled(spec.position, len(log.entries))
                del log.entries[index]
                if log.commit_slots:
                    del log.commit_slots[
                        min(index, len(log.commit_slots) - 1)]
            return damaged
        if spec.kind == "shift_dma_slot":
            log = damaged.dma_log
            if log.commit_slots:
                index = _scaled(spec.position, len(log.commit_slots))
                log.commit_slots[index] = max(
                    0, log.commit_slots[index] + spec.delta)
            return damaged
        raise ConfigurationError(f"unknown log fault {spec.kind!r}")


@dataclass(frozen=True)
class FaultyJobFn:
    """A picklable job function that deterministically misbehaves.

    Wraps a real ``job_fn`` for the runner pool and, based on a hash of
    ``(seed, spec.content_hash())``, injects one of: a worker *crash*
    (``os._exit`` in a pooled worker, so the pool sees a vanished
    process; a plain ``RuntimeError`` inline), a *hang* longer than the
    job timeout, or a *slow-down* shorter than it.  ``state_dir``
    marker files make the misbehavior strike only on the first attempt
    of each spec -- the retried attempt succeeds, which is exactly the
    scenario the runner's retry/backoff hardening exists for.
    """

    job_fn: object
    seed: int
    state_dir: str
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    slow_rate: float = 0.0
    hang_seconds: float = 30.0
    slow_seconds: float = 0.05

    def _draw(self, spec) -> float:
        digest = hashlib.sha256(
            f"{self.seed}:{spec.content_hash()}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2 ** 64

    def _first_attempt(self, spec) -> bool:
        marker = os.path.join(
            self.state_dir, f"attempted-{spec.content_hash()[:32]}")
        if os.path.exists(marker):
            return False
        os.makedirs(self.state_dir, exist_ok=True)
        with open(marker, "w") as handle:
            handle.write("1")
        return True

    def __call__(self, spec, cache=None):
        draw = self._draw(spec)
        if draw < self.crash_rate and self._first_attempt(spec):
            if multiprocessing.parent_process() is not None:
                os._exit(17)  # vanish like a SIGKILLed worker
            raise RuntimeError("injected worker crash (inline mode)")
        draw = (draw - self.crash_rate) % 1.0
        if draw < self.hang_rate and self._first_attempt(spec):
            time.sleep(self.hang_seconds)
        elif draw < self.hang_rate + self.slow_rate:
            time.sleep(self.slow_seconds)
        if cache is None:
            return self.job_fn(spec)
        return self.job_fn(spec, cache=cache)
