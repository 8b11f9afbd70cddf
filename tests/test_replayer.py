"""Unit tests for the replay cursor machinery (core.replayer).

The system suites (test_system_replay, test_interval) exercise the
replayer end-to-end; these tests pin down the ReplaySource /
verify_determinism contracts in isolation, on hand-built recordings,
so a cursor regression fails here with a one-line cause instead of as
an opaque whole-machine divergence.
"""

from __future__ import annotations

import pytest

from repro.core.interval import IntervalCheckpoint
from repro.core.logs import (
    ChunkSizeLog,
    DMALog,
    InterruptEntry,
    InterruptLog,
    IOLog,
    PILog,
)
from repro.core.modes import ExecutionMode, preferred_config
from repro.core.recorder import Recording
from repro.core.replayer import (
    DeterminismReport,
    ReplayPerturbation,
    ReplaySource,
    aligned_replay,
    first_divergence,
    make_perturbation_rng,
    verify_determinism,
)
from repro.chunks.chunk import TruncationReason, write_columns
from repro.errors import ReplayDivergenceError

from conftest import small_config


def make_recording(mode: ExecutionMode = ExecutionMode.ORDER_ONLY,
                   procs: int = 2, **fields) -> Recording:
    """A minimal hand-built recording (logs empty unless overridden)."""
    mode_config = preferred_config(mode)
    defaults = dict(
        mode_config=mode_config,
        machine_config=small_config(num_processors=procs),
        program=None,
        pi_log=PILog(),
        cs_logs={p: ChunkSizeLog(mode_config) for p in range(procs)},
        interrupt_logs={p: InterruptLog() for p in range(procs)},
        io_logs={p: IOLog() for p in range(procs)},
        dma_log=DMALog(),
    )
    defaults.update(fields)
    return Recording(**defaults)


def make_checkpoint(commit_index: int = 0, **fields):
    defaults = dict(
        commit_index=commit_index,
        memory_image={},
        thread_states={},
        committed_counts={},
        io_consumed={},
        dma_consumed=0,
    )
    defaults.update(fields)
    return IntervalCheckpoint(**defaults)


class TestChunkTarget:
    def test_order_and_size_replays_each_size(self):
        recording = make_recording(ExecutionMode.ORDER_AND_SIZE)
        log = recording.cs_logs[0]
        for size in (64, 17, 40):
            log.note_commit(size=size, truncated=False)
        source = ReplaySource(recording)
        assert source.chunk_target(0, 1) == \
            (64, TruncationReason.CS_FORCED)
        assert source.chunk_target(0, 2) == \
            (17, TruncationReason.CS_FORCED)
        assert source.chunk_target(0, 3) == \
            (40, TruncationReason.CS_FORCED)

    def test_order_and_size_past_end_is_standard(self):
        recording = make_recording(ExecutionMode.ORDER_AND_SIZE)
        recording.cs_logs[0].note_commit(size=10, truncated=False)
        source = ReplaySource(recording)
        size, reason = source.chunk_target(0, 2)
        assert size == recording.mode_config.standard_chunk_size
        assert reason is TruncationReason.SIZE_LIMIT

    def test_order_only_forces_logged_truncations_only(self):
        recording = make_recording(ExecutionMode.ORDER_ONLY)
        log = recording.cs_logs[1]
        # Chunks 1-2 full size, chunk 3 truncated at 23.
        log.note_commit(size=64, truncated=False)
        log.note_commit(size=64, truncated=False)
        log.note_commit(size=23, truncated=True)
        source = ReplaySource(recording)
        standard = recording.mode_config.standard_chunk_size
        assert source.chunk_target(1, 1) == \
            (standard, TruncationReason.SIZE_LIMIT)
        assert source.chunk_target(1, 3) == \
            (23, TruncationReason.CS_FORCED)
        assert source.chunk_target(1, 4) == \
            (standard, TruncationReason.SIZE_LIMIT)

    def test_unknown_processor_gets_standard_size(self):
        source = ReplaySource(make_recording())
        recording = make_recording()
        source = ReplaySource(recording)
        size, reason = source.chunk_target(7, 1)
        assert size == recording.mode_config.standard_chunk_size
        assert reason is TruncationReason.SIZE_LIMIT


def _interrupt(chunk_id: int, slot: int = 0) -> InterruptEntry:
    return InterruptEntry(chunk_id=chunk_id, vector=3, payload=99,
                          handler_ops=4, high_priority=False,
                          commit_slot=slot)


class TestInterruptCursor:
    def test_injects_exactly_at_logged_chunk(self):
        recording = make_recording()
        recording.interrupt_logs[0].append(_interrupt(chunk_id=5))
        source = ReplaySource(recording)
        assert source.maybe_interrupt(0, 4) is None
        event = source.maybe_interrupt(0, 5)
        assert event is not None
        assert event.vector == 3
        assert event.replay_chunk_id == 5
        # Consumed: asking again finds nothing.
        assert source.maybe_interrupt(0, 5) is None

    def test_passing_a_handler_chunk_is_a_divergence(self):
        recording = make_recording()
        recording.interrupt_logs[0].append(_interrupt(chunk_id=2))
        source = ReplaySource(recording)
        with pytest.raises(ReplayDivergenceError):
            source.maybe_interrupt(0, 3)

    def test_has_pending_interrupts(self):
        recording = make_recording()
        recording.interrupt_logs[1].append(_interrupt(chunk_id=1))
        source = ReplaySource(recording)
        assert source.has_pending_interrupts(1)
        assert not source.has_pending_interrupts(0)
        source.maybe_interrupt(1, 1)
        assert not source.has_pending_interrupts(1)


class TestPicoLogGate:
    def test_gate_is_stateless_until_commit(self):
        recording = make_recording(ExecutionMode.PICOLOG)
        recording.interrupt_logs[0].append(
            _interrupt(chunk_id=3, slot=17))
        source = ReplaySource(recording)
        # The gate holds while committed_count == 2, however often the
        # arbiter asks -- injection must not release it.
        source.maybe_interrupt(0, 3)
        for _ in range(3):
            assert source.gate_for(0, committed_count=2) == 17
        assert source.gate_for(0, committed_count=3) is None

    def test_no_gate_for_non_handler_chunks(self):
        recording = make_recording(ExecutionMode.PICOLOG)
        recording.interrupt_logs[0].append(
            _interrupt(chunk_id=5, slot=9))
        source = ReplaySource(recording)
        assert source.gate_for(0, committed_count=0) is None
        assert source.gate_for(0, committed_count=4) == 9

    def test_pi_modes_never_gate(self):
        recording = make_recording(ExecutionMode.ORDER_ONLY)
        recording.interrupt_logs[0].append(
            _interrupt(chunk_id=1, slot=4))
        source = ReplaySource(recording)
        assert source.gate_for(0, committed_count=0) is None


class TestIOAndDMACursors:
    def test_io_values_replay_in_order(self):
        recording = make_recording()
        for value in (11, 22, 33):
            recording.io_logs[0].append(value)
        source = ReplaySource(recording)
        assert [source.io_load(0, port=0) for _ in range(3)] == \
            [11, 22, 33]

    def test_io_underflow_is_a_divergence(self):
        source = ReplaySource(make_recording())
        with pytest.raises(ReplayDivergenceError):
            source.io_load(0, port=0)

    def test_dma_bursts_consume_in_order(self):
        recording = make_recording()
        recording.dma_log.append({0x10: 1})
        recording.dma_log.append({0x20: 2})
        source = ReplaySource(recording)
        assert source.next_dma_writes() == {0x10: 1}
        assert source.next_dma_writes() == {0x20: 2}
        with pytest.raises(ReplayDivergenceError):
            source.next_dma_writes()

    def test_dma_slot_gating(self):
        recording = make_recording(ExecutionMode.PICOLOG)
        recording.dma_log.append({0x10: 1}, commit_slot=4)
        recording.dma_log.append({0x20: 2}, commit_slot=9)
        source = ReplaySource(recording)
        assert not source.dma_due_at_slot(3)
        assert source.dma_due_at_slot(4)
        source.consume_dma_slot()
        assert not source.dma_due_at_slot(5)
        assert source.dma_due_at_slot(9)


class TestStartCheckpointFastForward:
    def test_cursors_skip_the_consumed_prefix(self):
        recording = make_recording()
        for value in (1, 2, 3, 4):
            recording.io_logs[0].append(value)
        recording.dma_log.append({0x10: 1})
        recording.dma_log.append({0x20: 2})
        recording.interrupt_logs[1].append(_interrupt(chunk_id=2))
        recording.interrupt_logs[1].append(_interrupt(chunk_id=8))
        checkpoint = make_checkpoint(
            commit_index=10,
            committed_counts={0: 6, 1: 5},
            io_consumed={0: 3},
            dma_consumed=1,
        )
        source = ReplaySource(recording, start_checkpoint=checkpoint)
        assert source.io_load(0, port=0) == 4
        assert source.next_dma_writes() == {0x20: 2}
        # The chunk-2 handler committed inside the prefix; only the
        # chunk-8 entry remains pending.
        assert source.has_pending_interrupts(1)
        assert source.maybe_interrupt(1, 8) is not None
        assert not source.has_pending_interrupts(1)

    def test_verify_fully_consumed_after_fast_forward(self):
        recording = make_recording()
        recording.io_logs[0].append(5)
        checkpoint = make_checkpoint(commit_index=3,
                                     io_consumed={0: 1},
                                     dma_consumed=0)
        source = ReplaySource(recording, start_checkpoint=checkpoint)
        assert source.verify_fully_consumed() == []


class TestVerifyFullyConsumed:
    def test_reports_every_leftover_kind(self):
        recording = make_recording()
        recording.io_logs[0].append(5)
        recording.interrupt_logs[1].append(_interrupt(chunk_id=1))
        recording.dma_log.append({0x10: 1})
        problems = ReplaySource(recording).verify_fully_consumed()
        text = " / ".join(problems)
        assert "I/O values" in text
        assert "interrupt" in text
        assert "DMA" in text

    def test_clean_when_everything_consumed(self):
        recording = make_recording()
        recording.io_logs[0].append(5)
        source = ReplaySource(recording)
        source.io_load(0, port=0)
        assert source.verify_fully_consumed() == []


def _chunk_fp(proc: int, seq: int, writes=None, instructions: int = 10,
              handler: bool = False):
    return (proc, seq, 0, handler, instructions,
            write_columns(writes or {}),
            ("key", proc, seq))


class TestVerifyDeterminism:
    def test_exact_match(self):
        fps = [_chunk_fp(0, 1), _chunk_fp(1, 1), _chunk_fp(0, 2)]
        recording = make_recording(
            fingerprints=list(fps),
            final_memory={0x10: 7},
            final_thread_keys={0: ("t",)},
        )
        report = verify_determinism(
            recording, list(fps), {0x10: 7}, {0: ("t",)}, ordered=True)
        assert report.matches
        assert report.compared_chunks == 3

    def test_ordered_mismatch_names_the_commit(self):
        fps = [_chunk_fp(0, 1), _chunk_fp(1, 1)]
        swapped = [fps[1], fps[0]]
        recording = make_recording(
            fingerprints=list(fps), final_memory={}, final_thread_keys={})
        report = verify_determinism(
            recording, swapped, {}, {}, ordered=True)
        assert not report.matches
        assert any("commit #0" in m for m in report.mismatches)

    def test_count_mismatch_detected(self):
        fps = [_chunk_fp(0, 1), _chunk_fp(0, 2)]
        recording = make_recording(
            fingerprints=list(fps), final_memory={}, final_thread_keys={})
        report = verify_determinism(
            recording, fps[:1], {}, {}, ordered=True)
        assert not report.matches
        assert any("count differs" in m for m in report.mismatches)

    def test_unordered_compares_per_processor_streams(self):
        a1, a2 = _chunk_fp(0, 1), _chunk_fp(0, 2)
        b1 = _chunk_fp(1, 1)
        recording = make_recording(
            fingerprints=[a1, b1, a2],
            final_memory={}, final_thread_keys={})
        # Global order differs (legal within a stratum), per-proc same.
        report = verify_determinism(
            recording, [b1, a1, a2], {}, {}, ordered=False)
        assert report.matches
        # A reordered *per-proc* stream is a real divergence.
        report = verify_determinism(
            recording, [a2, b1, a1], {}, {}, ordered=False)
        assert not report.matches

    def test_unordered_mismatch_text_per_stream(self):
        """Stratified verdicts on hand-built global orders: a legal
        cross-processor reorder, a swapped pair on one processor and a
        dropped DMA burst; streams are reported in processor order,
        DMA (filed under ``dma_proc_id``) last."""
        dma1, dma2 = ("dma", 1, ((0x10, 1),)), ("dma", 2, ((0x20, 2),))
        a1, a2 = _chunk_fp(0, 1), _chunk_fp(0, 2)
        b1, b2 = _chunk_fp(1, 1), _chunk_fp(1, 2)
        recording = make_recording(
            fingerprints=[a1, b1, dma1, a2, dma2, b2],
            final_memory={}, final_thread_keys={})
        dma = recording.machine_config.dma_proc_id

        def verdict(replayed):
            report = verify_determinism(recording, replayed, {}, {},
                                        ordered=False)
            return report.matches, report.compared_chunks, \
                report.mismatches

        assert verdict([b1, a1, dma1, b2, a2, dma2]) == (True, 6, [])
        assert verdict([a2, b1, dma1, a1, dma2, b2]) == (False, 6, [
            "processor 0: chunk stream differs (2 recorded vs 2 "
            "replayed chunks)"])
        assert verdict([a1, b1, a2, dma2, b2]) == (False, 5, [
            f"processor {dma}: chunk stream differs (2 recorded vs 1 "
            f"replayed chunks)"])
        assert verdict([a1, a2, dma2, dma1]) == (False, 4, [
            "processor 1: chunk stream differs (2 recorded vs 0 "
            "replayed chunks)",
            f"processor {dma}: chunk stream differs (2 recorded vs 2 "
            f"replayed chunks)"])

    def test_final_memory_mismatch(self):
        fp = _chunk_fp(0, 1)
        recording = make_recording(
            fingerprints=[fp], final_memory={0x10: 7}, final_thread_keys={})
        report = verify_determinism(
            recording, [fp], {0x10: 8}, {}, ordered=True)
        assert not report.matches
        assert any("final memory" in m for m in report.mismatches)

    def test_stop_after_ignores_overrun_and_final_state(self):
        fps = [_chunk_fp(0, i) for i in range(1, 6)]
        recording = make_recording(
            fingerprints=list(fps),
            final_memory={0x10: 7}, final_thread_keys={})
        # Replay produced one extra in-flight commit and no final
        # memory: both are legal for a bounded window.
        report = verify_determinism(
            recording, fps[:4], {}, {}, ordered=True, stop_after=3)
        assert report.matches

    def test_start_checkpoint_slices_the_prefix(self):
        dma_fp = ("dma", 1, write_columns({0x10: 1}))
        fps = [_chunk_fp(0, 1), dma_fp, _chunk_fp(0, 2),
               _chunk_fp(1, 1)]
        recording = make_recording(
            fingerprints=list(fps), final_memory={},
            final_thread_keys={}, machine_config=small_config())
        checkpoint = make_checkpoint(
            commit_index=2, committed_counts={0: 1, 1: 0},
            dma_consumed=1)
        # Replaying from the checkpoint produces only the suffix; its
        # per-processor streams are the sliced global list's.
        for ordered in (True, False):
            report = verify_determinism(
                recording, [fps[2], fps[3]], {}, {}, ordered=ordered,
                start_checkpoint=checkpoint, stop_after=2)
            assert report.matches

    def test_summary_strings(self):
        clean = DeterminismReport(matches=True, compared_chunks=12)
        assert "12" in clean.summary()
        dirty = DeterminismReport(
            matches=False, compared_chunks=3,
            mismatches=["a", "b", "c", "d"])
        assert "DIVERGED (4" in dirty.summary()


class TestFirstDivergence:
    """The one first-divergence rule, under both disciplines: ordered
    (no machine config) and per processor (the machine config files
    DMA bursts under ``dma_proc_id``)."""

    DMA1 = ("dma", 1, write_columns({0x10: 1}))
    DMA2 = ("dma", 2, write_columns({0x20: 2}))
    A1, A2, A3 = _chunk_fp(0, 1), _chunk_fp(0, 2), _chunk_fp(0, 3)
    B1, B2 = _chunk_fp(1, 1), _chunk_fp(1, 2)
    RECORDED = [A1, B1, DMA1, A2, DMA2, B2]

    def both(self, replayed, recorded=None, procs=2):
        """(ordered, per-processor) first divergence of ``replayed``."""
        recorded = self.RECORDED if recorded is None else recorded
        config = small_config(num_processors=procs)
        return (first_divergence(recorded, replayed),
                first_divergence(recorded, replayed, config))

    def test_identical_lists(self):
        assert self.both(list(self.RECORDED)) == (None, None)
        assert self.both([], recorded=[]) == (None, None)

    def test_legal_cross_processor_reorder(self):
        replayed = [self.B1, self.A1, self.DMA1, self.B2, self.A2,
                    self.DMA2]
        assert self.both(replayed) == (0, None)

    def test_swapped_pair_on_one_processor(self):
        # Processor 1 commits its chunks in the wrong order; processor
        # 0's commit #0 was reproduced, recorded commit #1 was not.
        replayed = [self.B2, self.A1, self.DMA1, self.A2, self.DMA2,
                    self.B1]
        assert self.both(replayed) == (0, 1)

    def test_dropped_dma_burst(self):
        assert self.both([self.A1, self.B1, self.A2, self.DMA2,
                          self.B2]) == (2, 2)
        # Reordered elsewhere: only the DMA stream is wrong.
        assert self.both([self.B1, self.A1, self.A2, self.DMA2,
                          self.B2]) == (0, 2)

    def test_partial_prefix(self):
        # A missing commit is a difference: the first recorded commit
        # the partial replay never made.
        assert self.both([self.A1, self.B1, self.DMA1]) == (3, 3)
        assert self.both([self.B1, self.A1]) == (0, 2)
        assert self.both([]) == (0, 0)

    def test_extra_commit(self):
        assert self.both(self.RECORDED + [self.A3]) == (6, 6)
        assert self.both([self.B1, self.A1, self.DMA1, self.B2,
                          self.A2, self.DMA2, self.A3]) == (0, 6)

    def test_idle_processor(self):
        recorded = [self.A1, self.B1, self.A2]
        assert self.both([self.B1, self.A1, self.A2], recorded,
                         procs=3) == (0, None)
        # A processor idle in the recording commits during replay:
        # every recorded commit reproduced, one extra.
        c1 = _chunk_fp(2, 1)
        assert self.both([self.A1, c1, self.B1, self.A2], recorded,
                         procs=3) == (1, 3)

    def test_aligned_replay_lines_streams_up(self):
        config = small_config(num_processors=2)
        assert aligned_replay(self.RECORDED, [self.B1, self.A1]) == \
            [self.B1, self.A1]
        assert aligned_replay(
            self.RECORDED, [self.B1, self.A1, self.A3], config) == [
                self.A1, self.B1, None, self.A3, None, None]
        assert aligned_replay(
            self.RECORDED[:2], [self.B1, self.A1, self.A3], config) == [
                self.A1, self.B1, self.A3]

    def test_report_locates_under_both_disciplines(self):
        """``first_mismatch`` is the rule's index, per processor too,
        and None when the commits match (even if the final memory
        does not)."""
        recording = make_recording(
            fingerprints=list(self.RECORDED), final_memory={0x10: 1},
            final_thread_keys={})
        config = recording.machine_config
        for replayed in ([self.B2, self.A1, self.DMA1, self.A2,
                          self.DMA2, self.B1],
                         [self.B1, self.A1, self.A2, self.DMA2, self.B2],
                         self.RECORDED + [self.A3],
                         [self.A1, self.B1]):
            for ordered in (True, False):
                report = verify_determinism(
                    recording, replayed, {0x10: 1}, {}, ordered=ordered)
                assert not report.matches
                assert report.first_mismatch == first_divergence(
                    self.RECORDED, replayed,
                    None if ordered else config)
        reordered = [self.B1, self.A1, self.DMA1, self.B2, self.A2,
                     self.DMA2]
        report = verify_determinism(recording, reordered, {0x10: 2}, {},
                                    ordered=False)
        assert not report.matches
        assert report.first_mismatch is None


class TestPerturbation:
    def test_none_disables_all_noise(self):
        quiet = ReplayPerturbation.none()
        assert quiet.commit_stall_probability == 0.0
        assert quiet.cache_flip_rate == 0.0
        assert quiet.chunk_validation_cycles == 0.0

    def test_rng_is_reproducible_per_seed(self):
        first = make_perturbation_rng(ReplayPerturbation(seed=42))
        second = make_perturbation_rng(ReplayPerturbation(seed=42))
        other = make_perturbation_rng(ReplayPerturbation(seed=43))
        draws = [first.random() for _ in range(8)]
        assert draws == [second.random() for _ in range(8)]
        assert draws != [other.random() for _ in range(8)]
