"""Shared fixtures and program builders for the test suite.

Tests favour tiny, purpose-built programs over the big synthetic
workloads so failures localize; the integration/property tests use the
workload generators at very small scales.
"""

from __future__ import annotations

import pytest

from repro.chunks.chunk import write_pairs
from repro.chunks.signature import SignatureConfig
from repro.machine.program import Op, OpKind, Program
from repro.machine.timing import MachineConfig
from repro.workloads.program_builder import (
    ProgramBuilder,
    lock_address,
    shared_address,
)


def small_config(**overrides) -> MachineConfig:
    """A fast 4-processor machine configuration for unit tests."""
    defaults = dict(
        num_processors=4,
        standard_chunk_size=64,
        l2_lines=4096,
        seed=7,
    )
    defaults.update(overrides)
    return MachineConfig(**defaults)


@pytest.fixture
def machine_config() -> MachineConfig:
    """Default small machine configuration."""
    return small_config()


@pytest.fixture
def signature_config() -> SignatureConfig:
    """Default signature configuration."""
    return SignatureConfig()


def record_reads(chunk, *lines: int) -> None:
    """Mark ``lines`` read by a hand-built chunk, in its line set and
    its read signature, as a build by the chunk interpreter leaves
    them."""
    new = set(lines) - chunk.read_lines
    chunk.read_lines |= new
    chunk.read_signature.insert_all(new)


def counter_program(
    threads: int = 2,
    increments: int = 20,
    locked: bool = True,
    compute: int = 3,
) -> Program:
    """Threads increment a shared counter, optionally under a lock.

    The increment is deliberately non-atomic (load, compute, store), so
    the final counter value reveals whether mutual exclusion held.
    """
    counter = shared_address(0)
    lock = lock_address(0)
    builder = ProgramBuilder(threads, name="counter")
    for thread in range(threads):
        writer = builder.writer(thread)
        for _ in range(increments):
            if locked:
                writer.lock(lock)
            writer.load(counter)
            writer.compute(compute)
            writer.rmw(counter, 1)
            if locked:
                writer.unlock(lock)
            writer.compute(compute)
    return builder.build()


def racy_increment_program(threads: int = 2,
                           increments: int = 10) -> Program:
    """A genuine data race: read-modify-write without atomicity via separate
    load/store ops (lost updates possible under any interleaving where
    two threads interleave between load and store)."""
    counter = shared_address(64)
    builder = ProgramBuilder(threads, name="racy")
    for thread in range(threads):
        writer = builder.writer(thread)
        for index in range(increments):
            writer.load(counter)
            writer.compute(2)
            # Store accumulator-derived value: acc was mixed, so the
            # stored value depends on what was read -- a true race.
            writer.store(counter, value=None)
            writer.compute(2)
    return builder.build()


def two_phase_program() -> Program:
    """Producer/consumer through a barrier: thread 0 writes, barrier,
    thread 1 reads and copies."""
    builder = ProgramBuilder(2, name="two-phase")
    data = shared_address(128)
    out = shared_address(256)
    with builder.thread(0) as t:
        for index in range(8):
            t.store(data + index, value=100 + index)
        t.barrier(0x110000, 2)
        t.compute(10)
    with builder.thread(1) as t:
        t.compute(5)
        t.barrier(0x110000, 2)
        for index in range(8):
            t.load(data + index)
            t.store(out + index)
    return builder.build()


def straight_line_program(threads: int = 2, length: int = 30) -> Program:
    """No sharing at all: compute + private traffic only."""
    builder = ProgramBuilder(threads, name="straight")
    for thread in range(threads):
        writer = builder.writer(thread)
        for index in range(length):
            writer.compute(5)
            writer.store(0x400000 + thread * 0x1000 + index, value=index)
            writer.load(0x400000 + thread * 0x1000 + index)
    return builder.build()


def apply_fingerprint_writes(initial: dict[int, int],
                             fingerprints: list[tuple]) -> dict[int, int]:
    """Re-apply commit-ordered fingerprint writes (serializability
    oracle: must reproduce the machine's final memory)."""
    memory = dict(initial)
    for fingerprint in fingerprints:
        memory.update(write_pairs(fingerprint))
    return {a: v for a, v in memory.items() if v != 0}
