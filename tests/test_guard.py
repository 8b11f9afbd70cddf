"""Tests for repro.guard: watchdogs, budgets, journals, degradation.

The stall-zoo workloads (``starvation``, ``squash-livelock``) genuinely
hang an unsupervised machine -- the first tests prove that -- and the
rest of the suite shows the supervisor converting each failure shape
into a typed, classified, recoverable outcome: StallError
classifications, budget enforcement at chunk boundaries, mode
degradation into stitched segments, and crash-consistent journals whose
flushed prefix survives SIGKILL.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import small_config

import repro
from repro.cli import main
from repro.core.arbiter import RoundRobinPolicy
from repro.core.modes import ExecutionMode, preferred_config
from repro.core.serialization import (
    _SECTION_FLUSH,
    _frame_bytes,
    container_frames,
    save_recording,
)
from repro.errors import (
    DeadlockError,
    LogFormatError,
    SalvageError,
    StallError,
)
from repro.faults.salvage import salvage_replay
from repro.guard import (
    Budgets,
    WatchdogConfig,
    WatchdogTimer,
    load_journal,
    load_segmented,
    replay_stitched,
    safer_mode,
    save_segmented,
    supervise_record,
    supervise_replay,
)
from repro.guard import supervisor as supervisor_module
from repro.guard.degrade import replay_segment
from repro.guard.journal import load_journal_file
from repro.guard.watchdog import Watchdog, progress_key
from repro.machine.events import build_handler_ops
from repro.machine.system import record_execution, replay_execution
from repro.machine.timing import MachineConfig
from repro.runner import Runner, RunSpec
from repro.runner import jobs as jobs_module
from repro.runner.pool import overdue_futures, sweep_deadline
from repro.runner.retry import RetryPolicy
from repro.telemetry import diagnose_replay
from repro.telemetry.tracer import EventTracer
from repro.workloads import app_program, splash2_program
from repro.workloads.stress import (
    racey_program,
    squash_livelock_program,
    starvation_program,
)

DATA = Path(__file__).parent / "data"
#: racey's degraded recording as earlier releases stored it: the
#: pickled DLRNSEG1 envelope (see tests/data/README.md).
LEGACY_SEGMENTED = DATA / "racey-degraded-dlrnseg1.dlrnseg"

#: Detection thresholds scaled down so stalls classify in well under a
#: second instead of after the production-sized event horizons.
TEST_WATCHDOG = WatchdogConfig(
    no_commit_events=8_000,
    no_progress_events=20_000,
    squash_window_events=6_000,
    squash_livelock_threshold=10,
    poll_stride=256,
)

ALL_MODES = [ExecutionMode.ORDER_AND_SIZE, ExecutionMode.ORDER_ONLY,
             ExecutionMode.PICOLOG]


def journal_config(chunk_size: int = 128):
    # Spin-inflated chunks overflow the small CS size fields of the
    # preferred configs, so journal/degrade tests widen the chunk.
    return preferred_config(ExecutionMode.ORDER_ONLY).with_chunk_size(
        chunk_size)


# -- the stall zoo hangs without supervision --------------------------


class TestStallZooHangsUnsupervised:
    @pytest.mark.parametrize("program", [
        starvation_program(), squash_livelock_program()],
        ids=["starvation", "squash-livelock"])
    def test_unsupervised_record_never_finishes(self, program):
        with pytest.raises(DeadlockError):
            record_execution(program, small_config(),
                             preferred_config(ExecutionMode.ORDER_ONLY),
                             max_events=40_000)


# -- watchdog classification ------------------------------------------


class TestWatchdogClassification:
    @pytest.mark.parametrize("mode", ALL_MODES,
                             ids=[m.value for m in ALL_MODES])
    def test_lock_starvation_detected_in_every_mode(self, mode):
        report = supervise_record(
            starvation_program(), mode=mode,
            machine_config=small_config(),
            watchdog_config=TEST_WATCHDOG)
        assert report.outcome == "stalled"
        assert report.classification == "lock-starvation"
        assert not report.ok
        assert report.stall["classification"] == "lock-starvation"

    @pytest.mark.parametrize("mode", ALL_MODES,
                             ids=[m.value for m in ALL_MODES])
    def test_squash_livelock_detected_in_every_mode(self, mode):
        report = supervise_record(
            squash_livelock_program(), mode=mode,
            machine_config=small_config(),
            watchdog_config=TEST_WATCHDOG)
        assert report.outcome == "stalled"
        assert report.classification == "squash-livelock"
        assert report.stall["squashes_in_window"] >= \
            TEST_WATCHDOG.squash_livelock_threshold

    def test_contended_but_progressing_run_is_not_flagged(self):
        # racey squashes constantly yet commits real progress: the
        # squash-livelock detector must not fire on mere contention.
        report = supervise_record(
            racey_program(threads=4, rounds=40, seed=3),
            mode=ExecutionMode.ORDER_ONLY,
            machine_config=small_config(),
            watchdog_config=TEST_WATCHDOG)
        assert report.outcome == "completed"
        assert report.classification is None
        assert report.recording is not None

    def test_supervised_matches_unsupervised_recording(self):
        program = racey_program(threads=4, rounds=30, seed=3)
        config = small_config()
        mode_config = preferred_config(ExecutionMode.ORDER_ONLY)
        plain = record_execution(
            program, replace(
                config,
                standard_chunk_size=mode_config.standard_chunk_size),
            mode_config)
        report = supervise_record(
            program, mode=ExecutionMode.ORDER_ONLY,
            machine_config=config, watchdog_config=TEST_WATCHDOG)
        assert report.outcome == "completed"
        assert report.recording.fingerprints == plain.fingerprints
        assert report.recording.final_memory == plain.final_memory

    def test_stall_metrics_and_report_shape(self):
        tracer = EventTracer()
        report = supervise_record(
            starvation_program(), mode=ExecutionMode.ORDER_ONLY,
            machine_config=small_config(),
            watchdog_config=TEST_WATCHDOG, tracer=tracer)
        metrics = tracer.metrics
        assert metrics.counter("guard_stalls_detected").value == 1
        assert metrics.counter("guard_stall_lock-starvation").value == 1
        assert "classification: lock-starvation" in report.summary()
        as_dict = report.as_dict()
        assert as_dict["outcome"] == "stalled"
        assert "recording" not in as_dict


class _StubProc:
    def __init__(self, proc_id: int) -> None:
        self.proc_id = proc_id
        self.outstanding = []
        self.ops = []
        self.committed_count = 0
        self.spec_state = SimpleNamespace(
            op_index=0, finished=False, compute_remaining=0,
            stage=None, barrier_target=None, in_handler=False)

    def has_uncommitted_work(self) -> bool:
        return True


def _stub_machine(*, is_replay=False, round_robin=False,
                  pending=(), committing=()):
    policy = (RoundRobinPolicy(2, lambda proc: True)
              if round_robin else object())
    return SimpleNamespace(
        engine=SimpleNamespace(events_processed=0, now=0.0,
                               pending=lambda: 3),
        processors=[_StubProc(0), _StubProc(1)],
        arbiter=SimpleNamespace(
            policy=policy,
            pending=[SimpleNamespace(processor=p) for p in pending],
            committing=[SimpleNamespace(processor=p)
                        for p in committing],
            grant_count=0),
        is_replay=is_replay,
    )


class TestWatchdogUnit:
    """The no-commit classifier split, on stub machines."""

    CONFIG = WatchdogConfig(no_commit_events=100,
                            no_progress_events=10_000)

    def _stalled(self, machine) -> StallError:
        watchdog = Watchdog(machine, self.CONFIG)
        machine.engine.events_processed = 200
        with pytest.raises(StallError) as info:
            watchdog.poll()
        return info.value

    def test_no_commit_in_replay_is_replay_stall(self):
        error = self._stalled(_stub_machine(is_replay=True))
        assert error.classification == "replay-stall"

    def test_token_parked_with_requests_is_token_starvation(self):
        error = self._stalled(_stub_machine(round_robin=True,
                                            pending=(0,)))
        assert error.classification == "token-starvation"
        assert "token_pointer" in error.details

    def test_no_commit_otherwise_is_gcc_stagnation(self):
        error = self._stalled(_stub_machine(round_robin=True,
                                            pending=(0,),
                                            committing=(1,)))
        assert error.classification == "gcc-stagnation"

    def test_commit_notes_reset_the_detector(self):
        machine = _stub_machine()
        watchdog = Watchdog(machine, self.CONFIG)
        machine.engine.events_processed = 90
        watchdog.note_commit(1)
        machine.engine.events_processed = 180
        watchdog.poll()  # only 90 events since the commit

    def test_progress_key_ignores_speculative_wiggle(self):
        proc = _StubProc(0)
        key = progress_key(proc)
        proc.spec_state.op_index += 1
        assert progress_key(proc) != key


# -- budgets ----------------------------------------------------------


class TestBudgets:
    def test_deadline_budget_is_typed_and_non_degradable(self):
        # Small chunks so the run crosses enough commit boundaries to
        # reach a budget charge (charges land every few commits).
        report = supervise_record(
            racey_program(threads=4, rounds=120, seed=3),
            mode=ExecutionMode.ORDER_ONLY,
            mode_config=journal_config(),
            machine_config=small_config(),
            watchdog_config=TEST_WATCHDOG,
            budgets=Budgets(deadline_seconds=1e-9))
        assert report.outcome == "budget-exceeded"
        assert report.classification == "budget:deadline"
        assert not report.ok

    def test_log_budget_without_degradation_fails_typed(self):
        report = supervise_record(
            racey_program(threads=4, rounds=400, seed=3),
            mode=ExecutionMode.PICOLOG,
            mode_config=preferred_config(
                ExecutionMode.PICOLOG).with_chunk_size(128),
            machine_config=small_config(),
            watchdog_config=TEST_WATCHDOG,
            stochastic_overflow_rate=0.5,
            budgets=Budgets(max_log_bytes_per_proc=60),
            degrade=False)
        assert report.outcome == "budget-exceeded"
        assert report.classification == "budget:log-bytes"


# -- degradation ------------------------------------------------------


def _evil_envelope_ran():
    _evil_envelope_ran.calls += 1


_evil_envelope_ran.calls = 0


class _EvilSegment:
    def __reduce__(self):
        return (_evil_envelope_ran, ())


def _segment(**overrides) -> dict:
    return {"blob": b"", "mode": "picolog", "reason": "",
            "start_checkpoint": None, **overrides}


def degraded_report(tmp_path=None, verify=False):
    return supervise_record(
        racey_program(threads=4, rounds=400, seed=3),
        mode=ExecutionMode.PICOLOG,
        mode_config=preferred_config(
            ExecutionMode.PICOLOG).with_chunk_size(128),
        machine_config=small_config(),
        watchdog_config=TEST_WATCHDOG,
        stochastic_overflow_rate=0.5,
        budgets=Budgets(max_log_bytes_per_proc=60),
        verify_segments=verify,
        journal_path=(str(tmp_path / "journal.dlrnj")
                      if tmp_path else None))


class TestDegradation:
    def test_safer_mode_ladder(self):
        assert safer_mode(ExecutionMode.PICOLOG) is \
            ExecutionMode.ORDER_ONLY
        assert safer_mode(ExecutionMode.ORDER_ONLY) is \
            ExecutionMode.ORDER_AND_SIZE
        assert safer_mode(ExecutionMode.ORDER_AND_SIZE) is None

    def test_log_budget_degrades_into_stitched_segments(self):
        report = degraded_report()
        assert report.outcome == "degraded-completed"
        assert report.ok
        assert report.modes[:2] == ["picolog", "order_only"]
        assert len(report.segments) >= 2
        assert report.segments[0]["reason"] == "degraded:log-bytes"
        assert report.segments[-1]["reason"] == "completed"
        assert report.segmented is not None
        stitched = replay_stitched(report.segmented)
        assert stitched.matches
        assert stitched.continuity_breaks == []
        assert stitched.total_commits == report.segmented.total_commits

    def test_segmented_container_round_trips(self, tmp_path):
        report = degraded_report()
        path = tmp_path / "run.dlrnseg"
        path.write_bytes(save_segmented(report.segmented))
        loaded = load_segmented(path.read_bytes())
        assert loaded.program_name == report.segmented.program_name
        assert loaded.total_commits == report.segmented.total_commits
        assert loaded.modes == report.segmented.modes
        assert replay_stitched(loaded).matches

    def test_load_segmented_rejects_garbage(self):
        with pytest.raises(LogFormatError, match="bad magic"):
            load_segmented(b"not a segmented recording at all")

    def test_envelope_calling_a_foreign_global_never_runs(self):
        payload = pickle.dumps(
            {"program_name": "evil", "segments": [_EvilSegment()]},
            protocol=4)
        _evil_envelope_ran.calls = 0
        pickle.loads(payload)  # an unrestricted unpickler runs it
        assert _evil_envelope_ran.calls == 1
        _evil_envelope_ran.calls = 0
        with pytest.raises(SalvageError, match="_evil_envelope_ran"):
            load_segmented(b"DLRNSEG1" + payload)
        assert _evil_envelope_ran.calls == 0

    @pytest.mark.parametrize("envelope", [
        b"",
        ["not", "a", "mapping"],
        {"segments": "none"},
        {"program_name": 7, "segments": []},
        {"segments": [_segment(blob="text")]},
        {"segments": [_segment(mode="warp")]},
        {"segments": [_segment(mode=["picolog"])]},
        {"segments": [_segment(start_checkpoint={})]},
    ])
    def test_malformed_envelope_is_a_salvage_error(self, envelope):
        payload = (envelope if isinstance(envelope, bytes)
                   else pickle.dumps(envelope, protocol=4))
        with pytest.raises(SalvageError):
            load_segmented(b"DLRNSEG1" + payload)

    def test_start_section_holds_a_boundary_inside_a_handler(self):
        """A thread cut inside an interrupt handler carries the
        handler's ops in its start checkpoint's thread state."""
        segmented = degraded_report().segmented
        segment = segmented.segments[1]
        states = dict(segment.start_checkpoint.thread_states)
        states[0] = states[0].snapshot()
        states[0].enter_handler(build_handler_ops(4, 9, 20))
        checkpoint = replace(segment.start_checkpoint,
                             thread_states=states)
        segmented.segments[1] = replace(segment,
                                        start_checkpoint=checkpoint)
        loaded = load_segmented(save_segmented(segmented))
        assert loaded.segments[1].start_checkpoint == checkpoint

    def test_verification_divergence_escalates_the_mode(self,
                                                        monkeypatch):
        attempts = []

        def forced_verify(recording, stop_after):
            attempts.append(recording.mode_config.mode)
            if recording.mode_config.mode is ExecutionMode.PICOLOG:
                return False, "forced divergence"
            return True, "ok"

        monkeypatch.setattr(supervisor_module, "replay_segment",
                            forced_verify)
        report = supervise_record(
            racey_program(threads=4, rounds=30, seed=3),
            mode=ExecutionMode.PICOLOG,
            machine_config=small_config(),
            watchdog_config=TEST_WATCHDOG,
            verify_segments=True, verify_attempts=2)
        assert report.outcome == "completed"
        assert report.mode == "order_only"
        assert report.modes == ["picolog", "order_only"]
        # Two same-mode attempts before escalating.
        assert attempts.count(ExecutionMode.PICOLOG) == 2
        assert report.verification == {"matches": True}

    def test_verified_degraded_segments_replay_from_their_checkpoints(
            self):
        """Each segment after a cut verifies from its start checkpoint,
        not from GCC 0 (where its logs cannot be satisfied)."""
        report = degraded_report(verify=True)
        assert report.outcome == "degraded-completed"
        assert report.modes == ["picolog", "order_only"]
        assert report.verification["matches"]

    def test_verified_degraded_session_replays_each_segment_once(
            self, monkeypatch):
        """The final segment is verified when it completes, and the
        stitched report reuses that verdict instead of replaying it
        again; the report reads as a fresh stitched replay's."""
        from repro.guard import degrade

        replayed = []

        def counting(recording, *args, **kwargs):
            replayed.append(recording.mode_config.mode.value)
            return replay_execution(recording, *args, **kwargs)

        monkeypatch.setattr(degrade, "replay_execution", counting)
        report = supervise_record(
            app_program("sjbb2k", scale=0.2, seed=3),
            mode=ExecutionMode.PICOLOG,
            budgets=Budgets(max_log_bytes_per_proc=40),
            verify_segments=True)
        assert report.outcome == "degraded-completed"
        assert sorted(replayed) == [
            "order_and_size", "order_only", "picolog"]
        stitched = replay_stitched(report.segmented)
        assert report.verification == {"matches": True,
                                       "summary": stitched.summary()}
        assert stitched.summary() == ("stitched replay OK: 3 segments, "
                                      "31 commits, 0 continuity breaks")

    def test_stitched_replay_reports_a_segment_that_raises(self):
        """A segment whose replay raises is a failed segment carrying
        the error, exactly as the supervisor's segment check sees it,
        never an exception out of ``replay_stitched``."""
        report = supervise_record(
            app_program("sjbb2k", scale=0.2, seed=3),
            mode=ExecutionMode.PICOLOG,
            budgets=Budgets(max_log_bytes_per_proc=40))
        assert len(report.segments) == 3
        loaded = load_segmented(save_segmented(report.segmented))
        segment = loaded.segments[1]
        segment.io_logs[4].values.clear()
        stitched = replay_stitched(loaded)
        error = ("ReplayDivergenceError: processor 4 performed an I/O "
                 "load with an empty I/O log (port 0)")
        assert not stitched.matches
        assert [seg["matches"] for seg in stitched.segments] == [
            True, False, True]
        assert stitched.segments[1]["determinism"] == error
        assert replay_segment(segment,
                              loaded.replay_bound(1)) == (False, error)

    def test_carried_interrupt_handlers_run_in_the_next_segment(self):
        """Handlers delivered but uncommitted at a cut re-inject as
        record-time events, so each runs exactly once across the
        segments and its processor drains."""
        program = app_program("sjbb2k", scale=0.2, seed=3)
        report = supervise_record(
            program, mode=ExecutionMode.PICOLOG,
            budgets=Budgets(max_log_bytes_per_proc=40))
        assert report.outcome == "degraded-completed"
        assert len(report.segments) == 3
        segments = report.segmented.segments
        handlers = sum(len(log.entries) for seg in segments
                       for log in seg.interrupt_logs.values())
        assert handlers == len(program.interrupts)
        assert replay_stitched(report.segmented).matches

    def test_debugger_opens_a_degraded_segment(self, tmp_path):
        from repro.debugger import ReplayController, load_debug_target

        report = degraded_report()
        path = tmp_path / "run.dlrnseg"
        path.write_bytes(save_segmented(report.segmented))
        recording, stop_after = load_debug_target(str(path), segment=1)
        assert recording.start_checkpoint.commit_index == 0
        controller = ReplayController(recording, stop_after=stop_after)
        stop = controller.cont()
        assert stop.reason == "end"
        assert controller.gcc == len(recording.fingerprints)

    def test_debugger_stops_a_cut_segment_at_its_last_commit(
            self, tmp_path):
        from repro.debugger import ReplayController, load_debug_target

        # What `repro record sjbb2k --mode picolog --scale 0.2 --seed 3
        # --max-log-bytes 40` writes: two cuts, so segments 0 and 1
        # end mid-program and the program goes on past their logs.
        system = repro.DeLoreanSystem(mode=ExecutionMode.PICOLOG)
        report = supervise_record(
            app_program("sjbb2k", scale=0.2, seed=3),
            mode=system.mode, mode_config=system.mode_config,
            budgets=Budgets(max_log_bytes_per_proc=40),
            stochastic_overflow_rate=system.stochastic_overflow_rate)
        assert len(report.segmented.segments) == 3
        path = tmp_path / "run.dlrnseg"
        path.write_bytes(save_segmented(report.segmented))
        for index in (0, 1):
            recording, stop_after = load_debug_target(
                str(path), segment=index)
            assert stop_after == len(recording.fingerprints) > 0
            controller = ReplayController(
                recording, checkpoint_every=4, stop_after=stop_after)
            stop = controller.cont()
            assert (stop.reason, stop.message) == (
                "end", "replay complete")
            assert controller.gcc == stop_after
            # Back in time and forward again, from the debugger's own
            # checkpoints: each rebuilt machine halts at the cut too.
            assert controller.rstep(3).gcc == stop_after - 3
            assert controller.goto(stop_after).gcc == stop_after
            stop = controller.cont()
            assert (stop.reason, stop.gcc) == ("end", stop_after)

    def test_debug_target_rejects_bad_segment_index(self, tmp_path):
        from repro.debugger import load_debug_target
        from repro.errors import ReproError

        report = degraded_report()
        path = tmp_path / "run.dlrnseg"
        path.write_bytes(save_segmented(report.segmented))
        with pytest.raises(ReproError):
            load_debug_target(str(path), segment=99)

    def test_an_empty_cut_segment_has_nothing_to_replay(
            self, tmp_path, monkeypatch):
        from repro.debugger import load_debug_target, loading
        from repro.errors import ReproError
        from repro.guard import degrade

        # A cut before its first commit, a cut after two, and the last.
        segmented = degrade.SegmentedRecording(segments=[
            SimpleNamespace(fingerprints=fingerprints)
            for fingerprints in ([], ["a", "b"], [])])
        assert [segmented.replay_bound(index)
                for index in range(3)] == [None, 2, 0]
        path = tmp_path / "run.dlrnseg"
        path.write_bytes(b"DLRN")
        monkeypatch.setattr(loading, "load_segmented",
                            lambda blob: segmented)
        with pytest.raises(ReproError, match="nothing to replay"):
            load_debug_target(str(path), segment=0)
        assert load_debug_target(str(path), segment=1)[1] == 2
        assert load_debug_target(str(path), segment=2)[1] == 0


class TestLegacySegmentedFixture:
    def test_it_loads_and_replays(self):
        blob = LEGACY_SEGMENTED.read_bytes()
        assert blob.startswith(b"DLRNSEG1")
        segmented = load_segmented(blob)
        assert len(segmented.segments) == 2
        assert segmented.total_commits == 127
        assert segmented.program_name == "racey"
        first, second = segmented.segments
        assert first.start_checkpoint is None
        assert second.start_checkpoint.commit_index == 0
        assert replay_stitched(segmented).matches

    def test_the_debugger_opens_its_second_segment(self):
        from repro.debugger import ReplayController, load_debug_target

        recording, stop_after = load_debug_target(
            str(LEGACY_SEGMENTED), segment=1)
        assert stop_after == 0
        stop = ReplayController(recording).cont()
        assert (stop.reason, stop.message) == ("end", "replay complete")
        assert stop.gcc == len(recording.fingerprints)

    def test_resaving_gives_the_back_to_back_bytes(self):
        legacy = load_segmented(LEGACY_SEGMENTED.read_bytes())
        current = save_segmented(degraded_report().segmented)
        assert save_segmented(legacy) == current
        assert current == b"".join(
            save_recording(segment) for segment in legacy.segments)


# -- journals ---------------------------------------------------------


class TestJournal:
    def recorded_journal(self, tmp_path):
        path = tmp_path / "journal.dlrnj"
        report = supervise_record(
            racey_program(threads=4, rounds=120, seed=3),
            mode=ExecutionMode.ORDER_ONLY,
            mode_config=journal_config(),
            machine_config=small_config(),
            watchdog_config=TEST_WATCHDOG,
            journal_path=str(path), flush_every=1)
        assert report.outcome == "completed"
        return path, report

    def test_complete_journal_recovers_the_full_recording(
            self, tmp_path):
        path, report = self.recorded_journal(tmp_path)
        recording, info = load_journal_file(str(path))
        assert info.complete
        assert info.flushes >= 2
        assert info.flushed_commits == report.global_commits
        assert (recording.fingerprints
                == report.recording.fingerprints)
        assert salvage_replay(recording).coverage == 1.0

    def test_random_truncation_leaves_salvageable_prefix(
            self, tmp_path):
        path, report = self.recorded_journal(tmp_path)
        blob = path.read_bytes()
        rng = random.Random(7)
        cuts = sorted(rng.randrange(64, len(blob))
                      for _ in range(8)) + [len(blob) - 1]
        recovered = 0
        for cut in cuts:
            try:
                recording, info = load_journal(blob[:cut])
            except SalvageError:
                continue  # cut before the first flush completed
            recovered += 1
            assert info.flushed_commits == len(recording.fingerprints)
            assert info.flushed_commits <= report.global_commits
            assert not info.complete
            report_salvage = salvage_replay(recording)
            assert report_salvage.coverage == 1.0
            assert (report_salvage.verified_commits
                    == info.flushed_commits)
        assert recovered >= 1

    def test_journal_writes_the_program_once(self, tmp_path):
        path = tmp_path / "journal.dlrnj"
        report = supervise_record(
            splash2_program("fft", scale=1.0),
            mode=ExecutionMode.ORDER_ONLY,
            journal_path=str(path), flush_every=25)
        assert report.outcome == "completed"
        blob = path.read_bytes()
        frames, _ = container_frames(blob)
        programs = [f for f in frames if f.name == "program"]
        markers = [f for f in frames if f.name == "flush"]
        assert len(markers) >= 4
        assert len(programs) == 1
        assert programs[0].end < markers[0].start
        # 212,712 bytes for a 97,058-byte recording; 424,652 when every
        # epoch rewrote the program.
        assert len(blob) <= 230_000
        for marker in markers:
            recording, info = load_journal(blob[:marker.end])
            assert info.flushed_commits == len(recording.fingerprints)
            salvage = salvage_replay(recording)
            assert salvage.coverage == 1.0
            assert salvage.verified_commits == info.flushed_commits

    def test_truncation_before_first_flush_has_no_prefix(
            self, tmp_path):
        import struct

        path, _ = self.recorded_journal(tmp_path)
        blob = path.read_bytes()
        # Cut a few bytes into the first epoch: the preamble survives
        # but no flush marker ever completed.
        (header_len,) = struct.unpack_from(">I", blob, 5)
        with pytest.raises(SalvageError,
                           match="no completed flush point"):
            load_journal(blob[:13 + header_len + 10])

    @pytest.mark.parametrize("marker", [
        b"[1]", b'"str"', b'{"gcc": "x"}', b'{"cycle": [1]}'],
        ids=["list", "string", "gcc-text", "cycle-list"])
    def test_malformed_flush_marker_is_a_typed_error(self, tmp_path,
                                                     marker):
        path, _ = self.recorded_journal(tmp_path)
        blob = path.read_bytes()
        first = next(f for f in container_frames(blob)[0]
                     if f.name == "flush")
        # A CRC-valid marker of the wrong shape becomes the last one.
        forged = blob[:first.end] + _frame_bytes(
            _SECTION_FLUSH, 0, 0, marker)
        with pytest.raises(SalvageError, match="malformed journal"):
            load_journal(forged)

    def test_header_missing_a_mode_field_is_a_typed_error(
            self, tmp_path):
        import json
        import struct
        import zlib

        path, _ = self.recorded_journal(tmp_path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from(">I", blob, 5)
        header = json.loads(blob[13:13 + header_len])
        del header["cs_distance_bits"]
        data = json.dumps(header).encode()
        forged = (blob[:5] + struct.pack(">II", len(data),
                                         zlib.crc32(data))
                  + data + blob[13 + header_len:])
        with pytest.raises(SalvageError, match="malformed journal"):
            load_journal(forged)

    def test_sigkill_leaves_loadable_salvageable_prefix(
            self, tmp_path):
        path = tmp_path / "journal.dlrnj"
        script = (
            "import sys\n"
            "from repro.core.modes import ExecutionMode, "
            "preferred_config\n"
            "from repro.guard import supervise_record\n"
            "from repro.workloads.stress import racey_program\n"
            "cfg = preferred_config(ExecutionMode.ORDER_ONLY)"
            ".with_chunk_size(128)\n"
            "supervise_record(racey_program(threads=4, rounds=20000, "
            "seed=3), mode=ExecutionMode.ORDER_ONLY, mode_config=cfg, "
            "journal_path=sys.argv[1], flush_every=1)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(repro.__file__).resolve().parents[1])
        process = subprocess.Popen(
            [sys.executable, "-c", script, str(path)], env=env)
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    pytest.fail("recording finished before the kill; "
                                "grow the workload")
                try:
                    _, info = load_journal(path.read_bytes())
                    if info.flushes >= 2:
                        break
                except (OSError, SalvageError, Exception):
                    pass
                time.sleep(0.02)
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        recording, info = load_journal_file(str(path))
        assert not info.complete  # SIGKILL, not a clean close
        assert info.flushed_commits == len(recording.fingerprints)
        assert info.flushed_commits >= 1
        report = salvage_replay(recording)
        assert report.coverage == 1.0
        assert report.verified_commits == info.flushed_commits


# -- supervised replay ------------------------------------------------


class TestSupervisedReplay:
    def test_clean_replay_completes_and_verifies(self):
        report = supervise_record(
            racey_program(threads=4, rounds=30, seed=3),
            mode=ExecutionMode.ORDER_ONLY,
            machine_config=small_config(),
            watchdog_config=TEST_WATCHDOG)
        replay = supervise_replay(report.recording,
                                  watchdog_config=TEST_WATCHDOG)
        assert replay.outcome == "completed"
        assert replay.phase == "replay"
        assert replay.verification["matches"]

    def test_verification_summary_includes_the_log_audit(self):
        """Supervised replay's verdict is the replay verdict: an I/O
        value left unconsumed fails its summary as it fails
        ``replay_execution``'s."""
        recording = record_execution(
            app_program("fft", scale=0.1, seed=1), MachineConfig(),
            preferred_config(ExecutionMode.ORDER_ONLY))
        recording.io_logs[0].values.append(7)
        problem = "processor 0: 1 I/O values not consumed"
        expected = replay_execution(recording).determinism.summary()
        assert expected == f"DIVERGED (1 mismatches): {problem}"
        replay = supervise_replay(recording)
        assert replay.outcome == "verification-failed"
        assert replay.verification == {
            "matches": False, "summary": expected,
            "unconsumed": [problem]}


# -- the runner's layered deadline enforcement ------------------------


def _busy_job(spec, cache=None):
    # Compute-bound: the in-worker async-raise watchdog can land.
    deadline = time.monotonic() + 8.0
    while time.monotonic() < deadline:
        pass
    return {"schema": 1}


def _stubborn_job(spec, cache=None):
    # Defeats the in-worker SIGALRM *and* sleeps in C, so only the
    # pool's deadline sweep can collect it.
    if hasattr(signal, "SIGALRM"):
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
    time.sleep(2.5)
    return {"schema": 1}


class TestRunnerDeadlines:
    def test_sweep_deadline_adds_margin(self):
        assert sweep_deadline(10.0) == 15.0
        assert sweep_deadline(0.1) == pytest.approx(1.1)

    def test_overdue_futures_helper(self):
        class Future:
            def __init__(self, finished=False):
                self.finished = finished

            def done(self):
                return self.finished

        future, stale, done = Future(), Future(), Future(True)
        pending = {future: "entry"}
        deadlines = {future: 10.0, stale: 1.0}
        assert overdue_futures(pending, deadlines, 11.0) == [future]
        assert overdue_futures(pending, deadlines, 9.0) == []
        assert overdue_futures({done: "entry"}, {done: 1.0}, 2.0) == []

    def test_worker_thread_timeout_uses_watchdog_timer(self):
        spec = RunSpec.record("fft", ExecutionMode.ORDER_ONLY,
                              scale=0.05, seed=3)
        result = {}

        def run():
            result["envelope"] = jobs_module.invoke(
                _busy_job, spec, 0.4, None, None)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=20)
        assert not thread.is_alive()
        envelope = result["envelope"]
        assert envelope["ok"] is False
        assert envelope["error_type"] == "JobTimeout"
        assert envelope["wall_time"] < 6.0

    def test_pool_sweep_collects_c_wedged_jobs(self):
        specs = [RunSpec.record("fft", ExecutionMode.ORDER_ONLY,
                                scale=0.05, seed=seed)
                 for seed in (31, 32)]
        with Runner(jobs=2, cache=False, timeout=0.2,
                    retry=RetryPolicy(max_attempts=1),
                    job_fn=_stubborn_job) as runner:
            outcomes = runner.run(specs)
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert not outcome.ok
            assert outcome.failure.last.error_type == "JobTimeout"
            assert "pool sweep" in outcome.failure.last.message
        assert runner.metrics.swept == 2


def _short_job(spec, cache=None):
    time.sleep(0.3)
    return {"schema": 1}


class TestQueuedAttemptBudget:
    def test_queued_attempts_keep_their_budget(self):
        # Fourteen healthy 0.3 s jobs on two workers: each attempt's
        # sweep deadline (1.5 s) starts when it gets a worker, so none
        # spends it waiting behind the others.
        specs = [RunSpec.record("fft", ExecutionMode.ORDER_ONLY,
                                scale=0.05, seed=seed)
                 for seed in range(40, 54)]
        with Runner(jobs=2, cache=False, timeout=0.5,
                    retry=RetryPolicy(max_attempts=1),
                    job_fn=_short_job) as runner:
            outcomes = runner.run(specs)
        assert [outcome.ok for outcome in outcomes] == [True] * 14
        assert runner.metrics.swept == 0


class TestWatchdogTimer:
    class Boom(Exception):
        pass

    def test_interrupts_compute_bound_code(self):
        deadline = time.monotonic() + 8.0
        with pytest.raises(self.Boom):
            with WatchdogTimer(0.2, self.Boom) as timer:
                while time.monotonic() < deadline:
                    pass
        assert timer.fired

    def test_cancel_disarms(self):
        timer = WatchdogTimer(0.05, self.Boom).start()
        timer.cancel()
        time.sleep(0.15)
        assert not timer.fired


# -- CLI --------------------------------------------------------------


class TestSupervisedCli:
    def test_stalling_workload_exits_classified(self, capsys):
        code = main(["record", "squash-livelock", "--supervised"])
        out = capsys.readouterr().out
        assert code == 2
        assert "outcome: stalled" in out
        assert "classification: squash-livelock" in out

    def test_healthy_supervised_record_writes_artifacts(
            self, tmp_path, capsys):
        journal = tmp_path / "run.dlrnj"
        artifact = tmp_path / "run.dlrn"
        code = main(["record", "racey", "--scale", "0.1", "--seed",
                     "3", "--supervised", "--flush-every", "1",
                     "--journal", str(journal), "-o", str(artifact)])
        out = capsys.readouterr().out
        assert code == 0
        assert "outcome: completed" in out
        assert artifact.stat().st_size > 0
        recording, info = load_journal_file(str(journal))
        assert info.complete
        assert salvage_replay(recording).coverage == 1.0

    def test_degraded_record_writes_segments_that_stand_alone(
            self, tmp_path, capsys):
        """Every later segment carries its start checkpoint: its
        journal salvages in full (the pickled-envelope release
        salvaged 3/10 and 0/10 commits of the two later journals), it
        replays with no checkpoint argument and the debugger opens
        it.  The file is the segments' containers back to back, so
        the single-recording reader refuses it with a typed error."""
        out, journal = tmp_path / "S", tmp_path / "J"
        code = main(["record", "sjbb2k", "--mode", "picolog",
                     "--scale", "0.2", "--seed", "3",
                     "--max-log-bytes", "40", "--journal", str(journal),
                     "--flush-every", "4", "-o", str(out)])
        assert code == 0
        blob = out.read_bytes()
        segmented = load_segmented(blob)
        assert [len(seg.fingerprints) for seg in segmented.segments] \
            == [11, 10, 10]
        # The pickled envelope of the same session took 94,626 bytes.
        assert len(blob) < 80_000
        assert blob == b"".join(map(save_recording, segmented.segments))
        for index, segment in enumerate(segmented.segments):
            assert (segment.start_checkpoint is None) == (index == 0)
            result = replay_execution(
                segment, stop_after=segmented.replay_bound(index))
            assert result.determinism.matches
            path = Path(f"{journal}.seg{index}" if index else journal)
            recording, info = load_journal_file(str(path))
            assert recording.start_checkpoint == segment.start_checkpoint
            # Written once, in epoch 0, with the program.
            names = [f.name for f in container_frames(
                path.read_bytes())[0]]
            assert names.count("start") == (1 if index else 0)
            assert names.count("program") == 1
            if index:
                assert names.index("start") < names.index("flush")
            salvage = salvage_replay(recording, info.damage)
            assert salvage.coverage == 1.0
            assert salvage.verified_commits == len(segment.fingerprints)
        # The last segment runs to its program's end: forensics and
        # supervised replay take it as it is.
        last = segmented.segments[-1]
        assert not diagnose_replay(last).diverged
        assert supervise_replay(last).outcome == "completed"
        capsys.readouterr()
        assert main(["replay", str(out)]) == 2
        error = capsys.readouterr().err
        assert "bytes after the END frame" in error
        assert "load_segmented" in error
        script = tmp_path / "session.txt"
        script.write_text("info\nrun\nquit\n")
        for index in range(3):
            assert main(["debug", str(out), "--segment", str(index),
                         "--script", str(script)]) == 0
            assert "replay complete" in capsys.readouterr().out

    def test_stress_workloads_reachable_from_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["record", "starvation", "--supervised"])
        assert args.supervised
        with pytest.raises(SystemExit):
            build_parser().parse_args(["record", "nonexistent-app"])
