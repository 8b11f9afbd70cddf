"""Tests for interval replay (Appendix B: replay of I(n, m))."""

from dataclasses import replace

import pytest

from conftest import counter_program, small_config

from repro.core.delorean import DeLoreanSystem
from repro.core.interval import IntervalCheckpoint, IntervalCheckpointStore
from repro.core.modes import ExecutionMode
from repro.core.replayer import ReplayPerturbation
from repro.errors import ConfigurationError
from repro.machine.events import DmaTransfer, InterruptEvent
from repro.machine.program import ThreadState
from repro.workloads import app_program
from repro.workloads.program_builder import shared_address


def make_system(mode=ExecutionMode.ORDER_ONLY):
    config = small_config()
    return DeLoreanSystem(mode=mode, machine_config=config,
                          chunk_size=config.standard_chunk_size)


def full_system_program():
    return replace(
        counter_program(4, 25),
        interrupts=[
            InterruptEvent(time=400.0, processor=1, vector=3,
                           handler_ops=20),
            InterruptEvent(time=900.0, processor=3, vector=8,
                           handler_ops=24, high_priority=True),
        ],
        dma_transfers=[DmaTransfer(
            time=600.0, writes={shared_address(800): 55})])


class TestCheckpointCapture:
    def test_checkpoints_taken_at_interval(self):
        system = make_system()
        recording = system.record(counter_program(3, 20),
                                  checkpoint_every=8)
        store = recording.interval_checkpoints
        assert len(store) >= 1
        for position, checkpoint in enumerate(store):
            assert checkpoint.commit_index == 8 * (position + 1)

    def test_no_checkpoints_by_default(self):
        system = make_system()
        recording = system.record(counter_program(2, 10))
        assert len(recording.interval_checkpoints) == 0

    def test_checkpoint_counts_are_consistent(self):
        system = make_system()
        recording = system.record(counter_program(3, 20),
                                  checkpoint_every=8)
        for checkpoint in recording.interval_checkpoints:
            non_dma = [f for f in recording.fingerprints[
                :checkpoint.commit_index] if f[0] != "dma"]
            assert checkpoint.processor_grants == len(non_dma)
            by_proc = {}
            for fingerprint in non_dma:
                by_proc[fingerprint[0]] = by_proc.get(
                    fingerprint[0], 0) + 1
            for proc, count in by_proc.items():
                assert checkpoint.committed_counts[proc] == count

    def test_checkpoint_memory_matches_prefix_application(self):
        from conftest import apply_fingerprint_writes
        system = make_system()
        program = counter_program(3, 20)
        recording = system.record(program, checkpoint_every=8)
        for checkpoint in recording.interval_checkpoints:
            rebuilt = apply_fingerprint_writes(
                program.initial_memory,
                recording.fingerprints[:checkpoint.commit_index])
            image = {a: v for a, v in checkpoint.memory_image.items()
                     if v != 0}
            assert rebuilt == image


class TestIntervalReplay:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_every_checkpoint_replays(self, mode):
        system = make_system(mode)
        recording = system.record(counter_program(4, 25),
                                  checkpoint_every=10)
        assert len(recording.interval_checkpoints) >= 2
        for checkpoint in recording.interval_checkpoints:
            result = system.replay_interval(
                recording, checkpoint=checkpoint,
                perturbation=ReplayPerturbation(
                    seed=checkpoint.commit_index))
            assert result.determinism.matches, (
                mode, checkpoint.commit_index,
                result.determinism.summary())

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_interval_replay_with_system_events(self, mode):
        """Interrupts, DMA and I/O that straddle the checkpoint must
        resume from the right log cursors."""
        system = make_system(mode)
        recording = system.record(full_system_program(),
                                  checkpoint_every=12)
        for checkpoint in recording.interval_checkpoints:
            result = system.replay_interval(
                recording, checkpoint=checkpoint,
                perturbation=ReplayPerturbation(seed=5))
            assert result.determinism.matches, (
                mode, checkpoint.commit_index,
                result.determinism.summary())

    @pytest.mark.parametrize("mode", [ExecutionMode.ORDER_ONLY,
                                      ExecutionMode.PICOLOG])
    def test_bounded_interval_commits_exactly_its_length(self, mode):
        """A commit granted before the halt at the m-th commit is
        abandoned with the rest of the speculation, so I(n, m) commits
        m chunks (fft: no DMA, so every commit is a chunk)."""
        system = DeLoreanSystem(mode=mode)
        recording = system.record(app_program("fft", scale=0.3, seed=5),
                                  checkpoint_every=9)
        for at_commit, length in ((9, 5), (18, 7)):
            result = system.replay_interval(
                recording, at_commit=at_commit, length=length)
            assert result.determinism.matches
            assert result.stats.total_committed_chunks == length

    def test_at_commit_selects_checkpoint(self):
        system = make_system()
        recording = system.record(counter_program(4, 25),
                                  checkpoint_every=10)
        result = system.replay_interval(recording, at_commit=15)
        assert result.determinism.matches
        # 15 -> the gcc=10 checkpoint: replays the suffix from there.
        suffix = len(recording.fingerprints) - 10
        assert result.determinism.compared_chunks == suffix

    def test_final_memory_matches_recording(self):
        system = make_system()
        recording = system.record(counter_program(4, 25),
                                  checkpoint_every=10)
        checkpoint = recording.interval_checkpoints.by_index(0)
        result = system.replay_interval(recording,
                                        checkpoint=checkpoint)
        assert result.final_memory == recording.final_memory

    def test_missing_checkpoints_rejected(self):
        system = make_system()
        recording = system.record(counter_program(2, 10))
        with pytest.raises(ConfigurationError):
            system.replay_interval(recording, at_commit=5)

    def test_checkpoint_or_at_commit_required(self):
        system = make_system()
        recording = system.record(counter_program(2, 10),
                                  checkpoint_every=4)
        with pytest.raises(ConfigurationError):
            system.replay_interval(recording)

    def test_stratified_interval_replay_rejected(self):
        from repro.machine.system import replay_execution
        config = small_config()
        system = DeLoreanSystem(
            mode=ExecutionMode.ORDER_ONLY, machine_config=config,
            chunk_size=config.standard_chunk_size, stratify=True)
        recording = system.record(counter_program(3, 15),
                                  checkpoint_every=8)
        checkpoint = recording.interval_checkpoints.by_index(0)
        with pytest.raises(ConfigurationError):
            replay_execution(recording, use_strata=True,
                             start_checkpoint=checkpoint)


class TestCheckpointStore:
    def _checkpoint(self, gcc):
        return IntervalCheckpoint(
            commit_index=gcc, memory_image={}, thread_states={},
            committed_counts={}, io_consumed={}, dma_consumed=0)

    def test_order_enforced(self):
        store = IntervalCheckpointStore()
        store.add(self._checkpoint(10))
        with pytest.raises(ConfigurationError):
            store.add(self._checkpoint(10))

    def test_at_or_before(self):
        store = IntervalCheckpointStore()
        for gcc in (10, 20, 30):
            store.add(self._checkpoint(gcc))
        assert store.at_or_before(25).commit_index == 20
        assert store.at_or_before(30).commit_index == 30
        with pytest.raises(ConfigurationError):
            store.at_or_before(5)

    def test_by_index_bounds(self):
        store = IntervalCheckpointStore()
        store.add(self._checkpoint(10))
        assert store.by_index(0).commit_index == 10
        with pytest.raises(ConfigurationError):
            store.by_index(1)

    def test_negative_commit_index_rejected(self):
        with pytest.raises(ConfigurationError):
            IntervalCheckpoint(
                commit_index=-1, memory_image={}, thread_states={},
                committed_counts={}, io_consumed={}, dma_consumed=0)

    def test_thread_states_are_snapshots(self):
        state = ThreadState(thread_id=0, op_index=5)
        checkpoint = IntervalCheckpoint(
            commit_index=1, memory_image={}, thread_states={0: state},
            committed_counts={0: 1}, io_consumed={}, dma_consumed=0)
        assert checkpoint.thread_states[0].op_index == 5


class TestCheckpointStorageSizing:
    def _checkpoint(self, gcc, image):
        return IntervalCheckpoint(
            commit_index=gcc, memory_image=image, thread_states={},
            committed_counts={}, io_consumed={}, dma_consumed=0)

    def test_single_checkpoint_delta_equals_full(self):
        store = IntervalCheckpointStore()
        store.add(self._checkpoint(5, {0x10: 1, 0x20: 2}))
        assert store.delta_size_bits() == store.full_size_bits()

    def test_identical_images_cost_only_cursors(self):
        image = {address: address * 3 for address in range(64)}
        store = IntervalCheckpointStore()
        store.add(self._checkpoint(5, dict(image)))
        store.add(self._checkpoint(10, dict(image)))
        pair = 64  # 32-bit address + 32-bit value
        full = store.full_size_bits()
        delta = store.delta_size_bits()
        # The second checkpoint's image is free under delta encoding.
        assert full - delta == len(image) * pair

    def test_changed_and_added_lines_billed(self):
        store = IntervalCheckpointStore()
        store.add(self._checkpoint(5, {0x10: 1, 0x20: 2}))
        store.add(self._checkpoint(10, {0x10: 9, 0x20: 2, 0x30: 3}))
        pair = 64
        # Full: 2 + 3 pairs; delta: 2 (base) + 2 (changed 0x10,
        # added 0x30).
        assert store.full_size_bits() - store.delta_size_bits() == \
            1 * pair

    def test_deleted_lines_billed_defensively(self):
        store = IntervalCheckpointStore()
        store.add(self._checkpoint(5, {0x10: 1, 0x20: 2}))
        store.add(self._checkpoint(10, {0x10: 1}))
        pair = 64
        # Delta bills the deletion of 0x20: 1 pair, vs full's 1 pair
        # for the whole second image -- no saving, no crash.
        assert store.delta_size_bits() == store.full_size_bits()

    def test_empty_store(self):
        store = IntervalCheckpointStore()
        assert store.full_size_bits() == 0
        assert store.delta_size_bits() == 0

    def test_real_dense_grid_shrinks_massively(self):
        from conftest import straight_line_program
        system = make_system()
        # Store-heavy program: the memory image is large and accretes
        # monotonically, so consecutive images overlap almost
        # entirely -- the case delta encoding exists for.
        recording = system.record(
            straight_line_program(threads=4, length=120),
            checkpoint_every=3)
        store = recording.interval_checkpoints
        assert len(store) >= 5
        full = store.full_size_bits()
        delta = store.delta_size_bits()
        assert delta < 0.5 * full

    def test_custom_widths(self):
        store = IntervalCheckpointStore()
        store.add(self._checkpoint(5, {0x10: 1}))
        wide = store.full_size_bits(address_bits=64, value_bits=64)
        narrow = store.full_size_bits(address_bits=16, value_bits=16)
        assert wide > narrow > 0

    def test_invalid_widths_rejected(self):
        store = IntervalCheckpointStore()
        store.add(self._checkpoint(5, {0x10: 1}))
        for bad in ((0, 32), (32, 0), (-8, 32)):
            with pytest.raises(ConfigurationError):
                store.full_size_bits(*bad)
            with pytest.raises(ConfigurationError):
                store.delta_size_bits(*bad)


class TestBoundedInterval:
    """I(n, m) with an explicit length: the literal Appendix B
    statement."""

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_window_replays_exactly(self, mode):
        system = make_system(mode)
        recording = system.record(counter_program(4, 25),
                                  checkpoint_every=10)
        checkpoint = recording.interval_checkpoints.by_index(0)
        result = system.replay_interval(
            recording, checkpoint=checkpoint, length=7,
            perturbation=ReplayPerturbation(seed=2))
        assert result.determinism.matches
        assert result.determinism.compared_chunks == 7

    def test_window_with_system_events(self):
        system = make_system()
        recording = system.record(full_system_program(),
                                  checkpoint_every=12)
        checkpoint = recording.interval_checkpoints.by_index(0)
        result = system.replay_interval(recording,
                                        checkpoint=checkpoint, length=6)
        assert result.determinism.matches

    def test_window_from_start(self):
        """length without a checkpoint store still needs a checkpoint;
        the zero-GCC case goes through replay() -- but an explicit
        initial checkpoint works."""
        from repro.core.interval import IntervalCheckpoint
        system = make_system()
        program = counter_program(3, 20)
        recording = system.record(program)
        initial = IntervalCheckpoint(
            commit_index=0,
            memory_image=dict(program.initial_memory),
            thread_states={},
            committed_counts={},
            io_consumed={},
            dma_consumed=0)
        result = system.replay_interval(recording, checkpoint=initial,
                                        length=5)
        assert result.determinism.matches
        assert result.determinism.compared_chunks == 5

    def test_corrupted_window_detected(self):
        system = make_system()
        recording = system.record(counter_program(4, 25),
                                  checkpoint_every=10)
        checkpoint = recording.interval_checkpoints.by_index(0)
        # Corrupt a PI entry inside the window.
        index = checkpoint.commit_index + 2
        entries = recording.pi_log.entries
        swap = index + 1
        while entries[swap] == entries[index]:
            swap += 1
        entries[index], entries[swap] = entries[swap], entries[index]
        result = system.replay_interval(
            recording, checkpoint=checkpoint, length=6)
        assert not result.determinism.matches
