"""The commit fingerprint's write set: two int columns, not pairs.

A fingerprint's ``writes`` is ``(addresses, values)``, two int tuples
ascending by address (``repro.chunks.chunk.write_columns``).  These
tests pin that shape everywhere a fingerprint comes from -- the
machine (chunks, merged split pieces, record and replay DMA), the DLRN
VERIFY codec and the legacy v1/v2/DLRNSEG1 readers -- check that the
codec writes the bytes the earlier pair form wrote, and guard what the
shape buys: a verified record-replay round trip that sets off few
young garbage collections.
"""

from __future__ import annotations

import gc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.chunks.chunk import write_columns, write_pairs
from repro.core import serialization
from repro.core.delorean import DeLoreanSystem
from repro.core.modes import ExecutionMode, preferred_config
from repro.core.replayer import ReplayPerturbation
from repro.core.serialization import load_recording, save_recording
from repro.guard import load_segmented, replay_stitched
from repro.machine.program import ThreadState
from repro.machine.system import (
    ChunkMachine,
    MachineObserver,
    build_replay_machine,
    finish_recording,
    replay_execution,
    verify_replay,
)
from repro.machine.timing import MachineConfig
from repro.workloads import commercial_program, splash2_program

DATA = Path(__file__).parent / "data"


def assert_columns(writes, buffer: dict) -> None:
    """``writes`` is ``buffer`` as two int tuples, strictly ascending
    by address."""
    assert type(writes) is tuple and len(writes) == 2
    addresses, values = writes
    assert type(addresses) is tuple and type(values) is tuple
    assert all(type(value) is int for value in addresses + values)
    assert all(a < b for a, b in zip(addresses, addresses[1:]))
    assert len(addresses) == len(values) == len(buffer)
    assert dict(zip(addresses, values)) == buffer


def assert_recording_columns(fingerprints) -> None:
    for fingerprint in fingerprints:
        writes = fingerprint[2] if fingerprint[0] == "dma" \
            else fingerprint[5]
        assert_columns(writes, dict(write_pairs(fingerprint)))


# -- (a) what the machine emits ----------------------------------------


class _CheckWrites(MachineObserver):
    """Checks every emitted fingerprint's write set against the write
    buffer it came from, counting each kind of commit."""

    def __init__(self, merged_buffers: dict) -> None:
        self.merged_buffers = merged_buffers
        self.kinds = {"chunk": 0, "merged": 0, "dma": 0}

    def on_commit(self, chunk, fingerprint, count) -> None:
        kind = "merged" if chunk.piece_index else "chunk"
        self.kinds[kind] += 1
        assert_columns(fingerprint[5],
                       self.merged_buffers[chunk.processor])

    def on_dma(self, writes, fingerprint, count) -> None:
        self.kinds["dma"] += 1
        assert_columns(fingerprint[2], writes)


@pytest.fixture
def merged_buffers(monkeypatch):
    """Each processor's write buffer of the logical chunk committing
    now, merged over its pieces as the machine merges them."""
    buffers: dict[int, dict] = {}
    capture = ChunkMachine._capture_fingerprint

    def spy(machine, chunk, needs_continuation):
        if chunk.piece_index == 0:
            buffers[chunk.processor] = {}
        buffers[chunk.processor].update(chunk.write_buffer)
        capture(machine, chunk, needs_continuation)

    monkeypatch.setattr(ChunkMachine, "_capture_fingerprint", spy)
    return buffers


def test_every_emitted_write_set_is_its_buffer_as_columns(
        merged_buffers):
    """sjbb2k has DMA bursts; a replay whose caches overflow where the
    record's did not splits chunks into pieces that commit as one."""
    overflow_rate = 0.5
    program = commercial_program("sjbb2k", scale=0.1, seed=3)
    mode_config = preferred_config(ExecutionMode.ORDER_ONLY)
    machine = ChunkMachine(
        program,
        replace(MachineConfig(),
                standard_chunk_size=mode_config.standard_chunk_size),
        mode_config, stochastic_overflow_rate=overflow_rate)
    recorded = _CheckWrites(merged_buffers)
    machine.observers.append(recorded)
    recording = finish_recording(machine, machine.run())
    assert_recording_columns(recording.fingerprints)

    replay = build_replay_machine(
        recording, perturbation=ReplayPerturbation(seed=5),
        stochastic_overflow_rate=overflow_rate)
    replayed = _CheckWrites(merged_buffers)
    replay.observers.append(replayed)
    verdict, _ = verify_replay(replay, replay.run())
    assert verdict.matches, verdict.summary()
    assert recorded.kinds["chunk"] and recorded.kinds["dma"]
    assert replayed.kinds["merged"] and replayed.kinds["dma"]


# -- (b) the VERIFY codec ----------------------------------------------


def _pair_form_payload(fingerprints: list) -> bytes:
    """What ``_put_fingerprints`` wrote when each write set was a
    tuple of ``(address, value)`` pairs."""
    out = serialization._Writer()
    chunks = [fp for fp in fingerprints if fp[0] != "dma"]
    out.ints([-1 if fp[0] == "dma" else fp[0] for fp in fingerprints])
    out.ints([fp[1] for fp in fingerprints])
    for position in (2, 3, 4):
        out.ints([fp[position] for fp in chunks])
    ends = [fp[6] for fp in chunks]
    out.raw(bytes([end is not None for end in ends]))
    serialization._put_thread_keys(
        out, [end for end in ends if end is not None],
        serialization._HandlerTable())
    writes = [write_pairs(fp) for fp in fingerprints]
    out.ints([len(pairs) for pairs in writes])
    out.ints([address for pairs in writes for address, _ in pairs])
    out.ints([value for pairs in writes for _, value in pairs])
    return out.getvalue()


PROCESSORS = 4
_addresses = st.integers(0, 1 << 40)
_chunk_writes = st.dictionaries(_addresses, st.integers(0, (1 << 64) - 1),
                                max_size=6).map(write_columns)
# DMA values are never masked: wider than 64 bits, or negative, they
# take the hex column or a signed one.
_dma_writes = st.dictionaries(
    _addresses, st.integers(-(1 << 70), 1 << 70),
    max_size=6).map(write_columns)
_end_keys = st.one_of(st.none(), st.builds(
    lambda proc, op_index, accumulator, finished: ThreadState(
        thread_id=proc, op_index=op_index, accumulator=accumulator,
        retired=op_index, finished=finished).architectural_key(),
    st.integers(0, PROCESSORS - 1), st.integers(0, 1 << 20),
    st.integers(0, (1 << 64) - 1), st.booleans()))
_chunk_fingerprints = st.tuples(
    st.integers(0, PROCESSORS - 1), st.integers(0, 1 << 20),
    st.integers(0, 3), st.booleans(), st.integers(1, 1 << 16),
    _chunk_writes, _end_keys)
_dma_fingerprints = st.tuples(st.just("dma"), st.integers(1, 1 << 20),
                              _dma_writes)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_chunk_fingerprints, _dma_fingerprints),
                max_size=12))
@example([("dma", 1, write_columns({8: 1 << 65, 16: -3})),
          ("dma", 2, write_columns({})),
          (0, 1, 0, False, 5, write_columns({}), None)])
def test_codec_round_trips_columns_in_the_pair_form_bytes(fingerprints):
    """Decoded write sets are tuples whatever their column code: a
    hex column (values wider than 64 bits) decoded to a list once, and
    ``(1,) != [1]`` would fail verification."""
    out = serialization._Writer()
    handlers = serialization._HandlerTable()
    serialization._put_fingerprints(out, fingerprints, handlers)
    payload = out.getvalue()
    assert payload == _pair_form_payload(fingerprints)
    inp = serialization._Reader(payload, "verify")
    decoded = serialization._get_fingerprints(inp, handlers, PROCESSORS)
    inp.finish()
    assert decoded == fingerprints
    assert_recording_columns(decoded)


# -- (c) legacy files ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(
    path.name for path in DATA.glob("*.dlrn")))
def test_legacy_recordings_load_in_column_form(name):
    recording = load_recording((DATA / name).read_bytes())
    assert recording.fingerprints
    assert_recording_columns(recording.fingerprints)
    assert replay_execution(recording).determinism.matches


def test_legacy_segmented_recording_loads_in_column_form():
    segmented = load_segmented(
        (DATA / "racey-degraded-dlrnseg1.dlrnseg").read_bytes())
    for segment in segmented.segments:
        assert_recording_columns(segment.fingerprints)
    assert replay_stitched(segmented).matches


# -- (d) what the shape buys ---------------------------------------------


def test_a_verified_round_trip_sets_off_few_young_collections():
    """An ``(address, value)`` tuple per write made a verified fft 0.5
    record, save, load and replay set off about 20 young collections;
    two columns per write set make it 4.  The collector's thresholds
    are left as they are."""
    program = splash2_program("fft", scale=0.5, seed=1)
    system = DeLoreanSystem(mode=ExecutionMode.ORDER_ONLY)
    young = []

    def count(phase, info):
        if phase == "start" and info["generation"] == 0:
            young.append(info)

    gc.collect()
    gc.callbacks.append(count)
    try:
        recording = system.record(program)
        result = system.replay(load_recording(save_recording(recording)))
    finally:
        gc.callbacks.remove(count)
    assert result.determinism.matches
    assert len(young) <= 10, len(young)
