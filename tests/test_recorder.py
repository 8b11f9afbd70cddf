"""Unit tests for the Recorder's log-producing hooks."""

import pytest

from conftest import record_reads, small_config

from repro.chunks.chunk import Chunk, TruncationReason
from repro.chunks.signature import Signature
from repro.core.modes import ExecutionMode, preferred_config
from repro.core.recorder import Recorder
from repro.machine.events import InterruptEvent
from repro.machine.program import ThreadState


def make_recorder(mode=ExecutionMode.ORDER_ONLY, procs=4, stratify=False,
                  chunks_per_stratum=1):
    config = small_config(num_processors=procs)
    mode_config = preferred_config(mode)
    if stratify:
        mode_config = mode_config.with_stratification(chunks_per_stratum)
    return Recorder(config, mode_config), config


def make_chunk(proc, seq, instructions=100,
               truncation=TruncationReason.SIZE_LIMIT,
               piece=0, handler_event=None):
    chunk = Chunk(processor=proc, logical_seq=seq,
                  start_state=ThreadState(thread_id=proc),
                  signature_config=small_config().signature,
                  piece_index=piece,
                  is_handler=handler_event is not None)
    chunk.instructions = instructions
    chunk.truncation = truncation
    chunk.handler_event = handler_event
    record_reads(chunk, seq * 100 + proc)
    chunk.record_write(seq * 100 + proc + 1)
    return chunk


class TestPIHook:
    def test_grant_appends_pi_entry(self):
        recorder, _ = make_recorder()
        recorder.on_grant(make_chunk(2, 1))
        recorder.on_grant(make_chunk(0, 1))
        assert recorder.pi_log.entries == [2, 0]

    def test_picolog_appends_nothing(self):
        recorder, _ = make_recorder(ExecutionMode.PICOLOG)
        recorder.on_grant(make_chunk(2, 1))
        assert len(recorder.pi_log) == 0
        assert recorder.stratifier is None

    def test_continuation_pieces_share_entry(self):
        recorder, _ = make_recorder()
        recorder.on_grant(make_chunk(1, 1, piece=0))
        recorder.on_grant(make_chunk(1, 1, piece=1))
        assert recorder.pi_log.entries == [1]

    def test_stratifiers_track_all_caps(self):
        recorder, _ = make_recorder()
        assert set(recorder.stratifiers) == {1, 3, 7}
        for index in range(6):
            recorder.on_grant(make_chunk(index % 4, index // 4 + 1))
        recorder.finish()
        assert recorder.stratifiers[1].total_chunks == 6
        assert recorder.stratifiers[7].total_chunks == 6

    def test_configured_cap_is_authoritative(self):
        recorder, _ = make_recorder(stratify=True, chunks_per_stratum=3)
        assert recorder.stratifier.chunks_per_stratum == 3


class TestCSHook:
    def test_orderonly_logs_only_nondeterministic(self):
        recorder, _ = make_recorder()
        recorder.on_commit(make_chunk(0, 1))
        recorder.on_commit(make_chunk(
            0, 2, truncation=TruncationReason.CACHE_OVERFLOW,
            instructions=37))
        recorder.on_commit(make_chunk(
            0, 3, truncation=TruncationReason.IO_BOUNDARY))
        log = recorder.cs_logs[0]
        assert len(log) == 1
        assert log.truncations_by_seq() == {2: 37}

    def test_ordersize_logs_everything(self):
        recorder, _ = make_recorder(ExecutionMode.ORDER_AND_SIZE)
        recorder.on_commit(make_chunk(1, 1, instructions=2000))
        recorder.on_commit(make_chunk(1, 2, instructions=88))
        assert recorder.cs_logs[1].sizes_in_order() == [2000, 88]


class TestInterruptHook:
    def _event(self):
        return InterruptEvent(time=0, processor=1, vector=9,
                              payload=5, handler_ops=32)

    def test_handler_commit_logged(self):
        recorder, _ = make_recorder()
        chunk = make_chunk(1, 4, handler_event=self._event())
        chunk.grant_slot = 7
        recorder.on_commit(chunk)
        entries = recorder.interrupt_logs[1].entries
        assert len(entries) == 1
        assert entries[0].chunk_id == 4
        assert entries[0].vector == 9
        assert entries[0].commit_slot == 0  # slots only in PicoLog

    def test_picolog_records_commit_slot(self):
        recorder, _ = make_recorder(ExecutionMode.PICOLOG)
        chunk = make_chunk(1, 4, handler_event=self._event())
        chunk.grant_slot = 7
        recorder.on_commit(chunk)
        assert recorder.interrupt_logs[1].entries[0].commit_slot == 7

    def test_io_values_copied(self):
        recorder, _ = make_recorder()
        chunk = make_chunk(2, 1)
        chunk.io_values = [111, 222]
        recorder.on_commit(chunk)
        assert recorder.io_logs[2].values == [111, 222]


class TestDMAHooks:
    def _signature(self, lines):
        sig = Signature(small_config().signature)
        for line in lines:
            sig.insert(line)
        return sig

    def test_dma_grant_appends_pi_and_strata(self):
        recorder, config = make_recorder()
        recorder.on_dma_grant(self._signature([9]))
        assert recorder.pi_log.entries == [config.dma_proc_id]

    def test_dma_commit_logs_data(self):
        recorder, _ = make_recorder()
        recorder.on_dma_commit({5: 50}, grant_slot=3)
        assert len(recorder.dma_log) == 1
        assert recorder.dma_log.commit_slots == []  # PI mode: no slots

    def test_picolog_dma_records_slot(self):
        recorder, _ = make_recorder(ExecutionMode.PICOLOG)
        recorder.on_dma_commit({5: 50}, grant_slot=3)
        assert recorder.dma_log.commit_slots == [3]


class TestMemoryOrderingAssembly:
    def test_log_carries_stratified_sizes(self):
        recorder, _ = make_recorder()
        for index in range(8):
            recorder.on_grant(make_chunk(index % 4, index // 4 + 1))
            recorder.on_commit(make_chunk(index % 4, index // 4 + 1))
        recorder.finish()
        ordering = recorder.memory_ordering_log()
        assert ordering.pi_size_bits(False) == 8 * 4
        assert set(ordering.stratified_by_cap) == {1, 3, 7}
        assert ordering.stratified_pi_bits == \
            ordering.stratified_by_cap[1][0]
