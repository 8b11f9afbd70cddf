"""End-to-end replay tests: determinism under every mode and noise."""

from dataclasses import replace

import pytest

from conftest import counter_program, small_config, two_phase_program

from repro.core.delorean import DeLoreanSystem
from repro.core.modes import ExecutionMode
from repro.core.replayer import ReplayPerturbation
from repro.errors import ReplayDivergenceError
from repro.machine.events import DmaTransfer, InterruptEvent
from repro.workloads.program_builder import ProgramBuilder, shared_address


def make_system(mode=ExecutionMode.ORDER_ONLY, **kwargs):
    config = small_config()
    return DeLoreanSystem(mode=mode, machine_config=config,
                          chunk_size=config.standard_chunk_size, **kwargs)


class TestDeterminism:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_noise_free_replay_matches(self, mode):
        system = make_system(mode)
        recording = system.record(counter_program(4, 15))
        result = system.replay(recording)
        assert result.determinism.matches, result.determinism.summary()

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_perturbed_replay_matches(self, mode):
        system = make_system(mode)
        recording = system.record(counter_program(4, 15))
        for seed in (1, 99):
            result = system.replay(
                recording, perturbation=ReplayPerturbation(seed=seed))
            assert result.determinism.matches, (
                seed, result.determinism.summary())

    def test_single_chunk_window_replay_matches(self):
        system = make_system()
        recording = system.record(counter_program(4, 15))
        result = system.replay(recording, perturbation=ReplayPerturbation(
            seed=5, single_chunk_window=True))
        assert result.determinism.matches

    def test_record_and_verify_helper(self):
        system = make_system()
        recording, result = system.record_and_verify(
            counter_program(2, 10))
        assert result.determinism.matches
        assert recording.total_commits > 0

    def test_require_determinism_raises_on_corruption(self):
        system = make_system()
        recording = system.record(counter_program(2, 10))
        # Corrupt the recording: swap two PI entries of different procs.
        entries = recording.pi_log.entries
        for index in range(len(entries) - 1):
            if entries[index] != entries[index + 1]:
                entries[index], entries[index + 1] = (
                    entries[index + 1], entries[index])
                break
        with pytest.raises(ReplayDivergenceError):
            system.replay(recording, require_determinism=True)


class TestInputReplay:
    def test_io_replays_from_log_not_device(self):
        """Replay must take I/O values from the log: re-seeding the
        device differently must not matter."""
        builder = ProgramBuilder(2, name="io")
        with builder.thread(0) as t:
            t.compute(10).io_load(port=2).store(shared_address(16))
        with builder.thread(1) as t:
            t.compute(20)
        program = builder.build()
        system = make_system()
        recording = system.record(program)
        # A different device seed would change the value if consulted.
        recording.program = replace(
            recording.program, io_seed=recording.program.io_seed + 123)
        result = system.replay(recording)
        assert result.determinism.matches

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_interrupts_replay_at_logged_chunks(self, mode):
        program = replace(counter_program(4, 20), interrupts=[
            InterruptEvent(time=300.0, processor=0, vector=1,
                           handler_ops=16),
            InterruptEvent(time=600.0, processor=2, vector=5,
                           handler_ops=24, high_priority=True),
        ])
        system = make_system(mode)
        recording = system.record(program)
        result = system.replay(
            recording, perturbation=ReplayPerturbation(seed=4))
        assert result.determinism.matches
        assert recording.stats.handler_chunks >= 2

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_dma_replays_from_log(self, mode):
        program = replace(counter_program(4, 20), dma_transfers=[
            DmaTransfer(time=250.0, writes={shared_address(640): 31337})])
        system = make_system(mode)
        recording = system.record(program)
        result = system.replay(
            recording, perturbation=ReplayPerturbation(seed=9))
        assert result.determinism.matches
        assert result.final_memory[shared_address(640)] == 31337

    def test_interrupt_on_finished_processor_replays(self):
        """A handler that re-activated an idle processor must replay
        (including in PicoLog, via its recorded commit slot)."""
        builder = ProgramBuilder(2, name="short")
        with builder.thread(0) as t:
            t.compute(30)
        with builder.thread(1) as t:
            t.compute(3000)
        program = replace(builder.build(), interrupts=[InterruptEvent(
            time=2000.0, processor=0, vector=7, handler_ops=20)])
        for mode in list(ExecutionMode):
            system = make_system(mode)
            recording = system.record(program)
            assert len(recording.interrupt_logs[0].entries) == 1
            result = system.replay(recording)
            assert result.determinism.matches, mode


class TestStratifiedReplay:
    @pytest.mark.parametrize("chunks_per_stratum", [1, 3, 7])
    def test_stratified_replay_matches(self, chunks_per_stratum):
        config = small_config()
        system = DeLoreanSystem(
            mode=ExecutionMode.ORDER_ONLY, machine_config=config,
            chunk_size=config.standard_chunk_size, stratify=True,
            chunks_per_stratum=chunks_per_stratum)
        recording = system.record(counter_program(4, 15))
        assert recording.stratified
        result = system.replay(recording, use_strata=True)
        assert result.determinism.matches

    def test_plain_replay_of_stratified_recording(self):
        """The full PI log is still present and usable."""
        config = small_config()
        system = DeLoreanSystem(
            mode=ExecutionMode.ORDER_ONLY, machine_config=config,
            chunk_size=config.standard_chunk_size, stratify=True)
        recording = system.record(counter_program(3, 12))
        result = system.replay(recording, use_strata=False)
        assert result.determinism.matches


class TestReplayTiming:
    def test_perturbed_replay_is_slower(self):
        system = make_system()
        recording = system.record(counter_program(4, 40))
        clean = system.replay(recording)
        noisy = system.replay(recording,
                              perturbation=ReplayPerturbation(seed=2))
        assert noisy.cycles > clean.cycles

    def test_replay_result_fields(self):
        system = make_system()
        recording = system.record(counter_program(2, 10))
        result = system.replay(recording,
                               perturbation=ReplayPerturbation(seed=1))
        assert result.cycles == result.stats.cycles
        assert result.perturbation.seed == 1
        assert "deterministic" in result.determinism.summary()


class TestSplitChunkReplay:
    """Unexpected replay-time cache overflow splits a logical chunk
    into back-to-back pieces (Section 4.2.3); crank the stochastic
    overflow rate so the path is exercised heavily."""

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_high_overflow_replay_matches(self, mode):
        config = small_config()
        system = DeLoreanSystem(
            mode=mode, machine_config=config,
            chunk_size=config.standard_chunk_size,
            stochastic_overflow_rate=0.25)
        recording = system.record(counter_program(4, 20))
        for seed in (1, 2, 3):
            result = system.replay(
                recording, perturbation=ReplayPerturbation(seed=seed))
            assert result.determinism.matches, (
                mode, seed, result.determinism.summary())

    def test_pieces_share_one_pi_entry(self):
        """Split pieces consume a single ordering entry: the replayed
        commit count equals the recorded one even when splits happen."""
        config = small_config()
        system = DeLoreanSystem(
            mode=ExecutionMode.ORDER_ONLY, machine_config=config,
            chunk_size=config.standard_chunk_size,
            stochastic_overflow_rate=0.3)
        recording = system.record(counter_program(3, 25))
        result = system.replay(
            recording, perturbation=ReplayPerturbation(seed=9))
        assert result.determinism.matches
        assert (result.determinism.compared_chunks
                == len(recording.fingerprints))
