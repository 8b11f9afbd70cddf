"""Tests for repro.debugger: time-travel replay debugging."""

import io
import json
from pathlib import Path

import pytest

from conftest import counter_program, racy_increment_program

from repro.core.delorean import DeLoreanSystem
from repro.core.modes import ExecutionMode
from repro.debugger import (
    CheckpointIndex,
    DebuggerShell,
    ReplayController,
    load_debug_target,
)
from repro.errors import ConfigurationError, ReproError
from repro.telemetry.tracer import EventTracer
from repro.workloads import commercial_program


def record(mode=ExecutionMode.ORDER_ONLY, program=None,
           checkpoint_every=0):
    # Small chunks so a modest program yields a few dozen commits.
    system = DeLoreanSystem(mode=mode, chunk_size=40)
    return system.record(program or counter_program(2, 40),
                         checkpoint_every=checkpoint_every)


def record_sweb(mode=ExecutionMode.ORDER_ONLY, scale=0.5, seed=1,
                checkpoint_every=0):
    """A DMA- and interrupt-carrying recording."""
    system = DeLoreanSystem(mode=mode)
    return system.record(
        commercial_program("sweb2005", scale=scale, seed=seed),
        checkpoint_every=checkpoint_every)


class TestStepping:
    def test_step_advances_exactly_one_commit(self):
        controller = ReplayController(record())
        for expected in range(1, 6):
            stop = controller.step()
            assert stop.reason == "step"
            assert controller.gcc == expected
            assert stop.commit.gcc == expected

    def test_step_many(self):
        controller = ReplayController(record())
        controller.step(7)
        assert controller.gcc == 7

    def test_commit_views_match_recording_fingerprints(self):
        recording = record()
        controller = ReplayController(recording)
        for index in range(4):
            stop = controller.step()
            assert (stop.commit.fingerprint
                    == recording.fingerprints[index])

    def test_cont_runs_to_end(self):
        recording = record()
        controller = ReplayController(recording)
        stop = controller.cont()
        assert stop.reason == "end"
        assert controller.finished
        assert controller.gcc == len(recording.fingerprints)
        assert stop.message == "replay complete"

    def test_committed_memory_is_prefix_exact(self):
        """Paused at GCC = n, memory holds exactly the first n
        commits' writes over the initial image."""
        recording = record()
        controller = ReplayController(recording)
        expected = dict(recording.program.initial_memory)
        for index in range(6):
            controller.step()
            expected.update(dict(recording.fingerprints[index][5]))
            view = {a: v for a, v in expected.items() if v}
            got = {a: v for a, v
                   in controller.memory_view().items() if v}
            assert got == view

    def test_step_past_end_returns_last_stop(self):
        controller = ReplayController(record())
        end = controller.cont()
        assert controller.step() is end


class TestReverseAndGoto:
    def test_rstep_lands_exactly_one_commit_back(self):
        recording = record(checkpoint_every=5)
        controller = ReplayController(recording, checkpoint_every=5)
        controller.step(9)
        fingerprint_at_8 = None
        probe = ReplayController(recording, checkpoint_every=5)
        probe.step(8)
        fingerprint_at_8 = probe.state_fingerprint()
        stop = controller.rstep()
        assert stop.gcc == 8
        assert controller.gcc == 8
        assert controller.state_fingerprint() == fingerprint_at_8

    def test_goto_backward_across_checkpoint_boundary(self):
        recording = record(checkpoint_every=6)
        controller = ReplayController(recording, checkpoint_every=6)
        controller.cont()
        total = controller.gcc
        target = 7  # between the checkpoints at 6 and 12
        probe = ReplayController(recording)
        probe.step(target)
        stop = controller.goto(target)
        assert stop.gcc == target
        assert controller.gcc == target
        assert controller.state_fingerprint() \
            == probe.state_fingerprint()
        assert 0 < controller.last_reexecuted <= 6
        assert controller.last_reexecuted < total

    def test_goto_reexecution_is_checkpoint_bounded(self):
        """O(N / interval): after one forward pass, every backward
        jump re-executes fewer commits than the checkpoint interval."""
        interval = 4
        recording = record(checkpoint_every=0)
        controller = ReplayController(recording,
                                      checkpoint_every=interval)
        controller.cont()
        total = controller.gcc
        assert total > 2 * interval
        for target in range(total - 1, interval, -3):
            controller.goto(target)
            assert controller.last_reexecuted < interval, (
                f"goto {target} re-executed "
                f"{controller.last_reexecuted} commits")

    def test_goto_forward_does_not_rebuild(self):
        controller = ReplayController(record())
        controller.step(2)
        stop = controller.goto(5)
        assert stop.gcc == 5
        assert controller.last_reexecuted == 0

    def test_goto_zero_restores_initial_state(self):
        recording = record()
        controller = ReplayController(recording)
        controller.step(5)
        controller.goto(0)
        assert controller.gcc == 0
        initial = {a: v for a, v
                   in recording.program.initial_memory.items() if v}
        got = {a: v for a, v
               in controller.memory_view().items() if v}
        assert got == initial

    def test_goto_out_of_range_rejected(self):
        recording = record()
        controller = ReplayController(recording)
        with pytest.raises(ConfigurationError):
            controller.goto(len(recording.fingerprints) + 1)
        with pytest.raises(ConfigurationError):
            controller.goto(-1)

    def test_state_matches_straight_line_replay_everywhere(self):
        """The acceptance check: debugger state at any GCC equals a
        fresh straight-line replay paused at the same GCC."""
        recording = record(checkpoint_every=5)
        controller = ReplayController(recording, checkpoint_every=5)
        controller.cont()
        total = controller.gcc
        for target in (total // 2, 3, total - 1):
            controller.goto(target)
            probe = ReplayController(recording)
            probe.step(target)
            assert controller.state_fingerprint() \
                == probe.state_fingerprint()
            assert controller.log_cursors() == probe.log_cursors()


class TestBreakpoints:
    def test_write_watchpoint_stops_on_writing_commit(self):
        recording = record()
        # Pick an address some commit actually writes.
        address = None
        for fingerprint in recording.fingerprints:
            if fingerprint[0] != "dma" and fingerprint[5]:
                address = fingerprint[5][0][0]
                break
        assert address is not None
        controller = ReplayController(recording)
        controller.breakpoints.add("write", address=address)
        stop = controller.cont()
        assert stop.reason == "breakpoint"
        assert address in stop.commit.writes
        # The first writing commit, not a later one.
        for fingerprint in recording.fingerprints[:stop.gcc - 1]:
            writes = dict(fingerprint[5]) if fingerprint[0] != "dma" \
                else dict(fingerprint[2])
            assert address not in writes

    def test_commit_breakpoint_filters_by_processor(self):
        recording = record()
        target_proc = recording.fingerprints[3][0]
        controller = ReplayController(recording)
        controller.breakpoints.add("commit", proc=target_proc)
        stop = controller.cont()
        assert stop.reason == "breakpoint"
        assert stop.commit.proc == target_proc

    def test_when_predicate_composes(self):
        recording = record()
        controller = ReplayController(recording)
        controller.breakpoints.add(
            "commit", when=lambda view: view.gcc >= 4)
        stop = controller.cont()
        assert stop.reason == "breakpoint"
        assert stop.gcc == 4

    def test_dma_breakpoint(self):
        recording = record_sweb()
        assert len(recording.dma_log.entries) > 0
        controller = ReplayController(recording)
        controller.breakpoints.add("dma")
        stop = controller.cont()
        assert stop.reason == "breakpoint"
        assert stop.commit.is_dma
        assert stop.commit.writes

    def test_interrupt_breakpoint(self):
        recording = record_sweb()
        assert any(log.entries
                   for log in recording.interrupt_logs.values())
        controller = ReplayController(recording)
        controller.breakpoints.add("interrupt")
        stop = controller.cont()
        assert stop.reason == "breakpoint"
        assert stop.commit.interrupts

    def test_read_watchpoint_uses_line_granularity(self):
        recording = record()
        controller = ReplayController(recording)
        probe = ReplayController(recording)
        probe.step()
        lines = probe.current.read_lines
        assert lines
        line = sorted(lines)[0]
        words_per_line = probe.machine.config.line_words
        controller.breakpoints.add(
            "read", address=line * words_per_line)
        stop = controller.cont()
        assert stop.reason == "breakpoint"
        assert line in stop.commit.read_lines

    def test_delete_and_clear(self):
        controller = ReplayController(record())
        bp = controller.breakpoints.add("commit")
        assert controller.breakpoints.remove(bp.number)
        assert not controller.breakpoints.remove(bp.number)
        controller.breakpoints.add("commit")
        controller.breakpoints.clear()
        stop = controller.cont()
        assert stop.reason == "end"

    def test_disabled_breakpoint_does_not_fire(self):
        controller = ReplayController(record())
        bp = controller.breakpoints.add("commit")
        bp.enabled = False
        stop = controller.cont()
        assert stop.reason == "end"

    def test_hit_counting(self):
        controller = ReplayController(record())
        bp = controller.breakpoints.add("commit")
        controller.cont()
        controller.cont()
        assert bp.hits == 2


class TestDivergence:
    def test_tampered_fingerprint_stops_with_divergence(self):
        recording = record()
        recording.fingerprints[4] = ("tampered",)
        controller = ReplayController(recording)
        stop = controller.cont()
        assert stop.reason == "divergence"
        assert stop.gcc == 5
        assert "tampered" in stop.message

    def test_forward_motion_blocked_after_divergence(self):
        recording = record()
        recording.fingerprints[4] = ("tampered",)
        controller = ReplayController(recording)
        controller.cont()
        with pytest.raises(ConfigurationError):
            controller.cont()

    def test_reverse_from_divergence_rebuilds_clean(self):
        recording = record()
        good = list(recording.fingerprints)
        recording.fingerprints[4] = ("tampered",)
        controller = ReplayController(recording, checkpoint_every=3)
        controller.cont()
        stop = controller.rstep()
        assert stop.gcc == 4
        # State at gcc 4 is still the converged prefix.
        expected = dict(recording.program.initial_memory)
        for fingerprint in good[:4]:
            expected.update(dict(fingerprint[5]))
        got = {a: v for a, v in controller.memory_view().items() if v}
        assert got == {a: v for a, v in expected.items() if v}

    def test_no_verify_skips_fingerprint_check(self):
        recording = record()
        recording.fingerprints[4] = ("tampered",)
        controller = ReplayController(recording, verify=False)
        stop = controller.cont()
        assert stop.reason == "end"


class TestCheckpointIndex:
    def test_at_or_before(self):
        index = CheckpointIndex(interval=10)
        assert index.at_or_before(99) is None
        recording = record(checkpoint_every=5)
        adopted = index.seed_from_recording(recording)
        assert adopted == len(index)
        assert adopted > 0
        checkpoint = index.at_or_before(7)
        assert checkpoint is not None
        assert checkpoint.commit_index == 5

    def test_dedupe(self):
        index = CheckpointIndex()
        recording = record(checkpoint_every=5)
        index.seed_from_recording(recording)
        before = len(index)
        assert index.seed_from_recording(recording) == 0
        assert len(index) == before

    def test_debug_checkpoints_taken_while_running(self):
        controller = ReplayController(record(), checkpoint_every=4)
        controller.cont()
        positions = controller.checkpoints.positions()
        assert positions
        assert all(gcc % 4 == 0 for gcc in positions)


class TestTelemetry:
    def test_debugger_track_events(self):
        tracer = EventTracer()
        controller = ReplayController(record(), checkpoint_every=8,
                                      tracer=tracer)
        controller.breakpoints.add("commit")
        controller.cont()
        controller.rstep()
        names = [e.name for e in tracer.events
                 if e.track == "debugger"]
        assert any(n.startswith("stop breakpoint") for n in names)
        assert any(n.startswith("goto") for n in names)
        reexec = [e.args.get("reexecuted") for e in tracer.events
                  if e.track == "debugger"
                  and e.name.startswith("goto")]
        assert all(r is not None for r in reexec)


class TestShell:
    def run_script(self, recording, script, session_log=None,
                   checkpoint_every=8):
        controller = ReplayController(recording,
                                      checkpoint_every=checkpoint_every)
        out = io.StringIO()
        shell = DebuggerShell(controller, session_log=session_log,
                              stdin=io.StringIO(script), stdout=out)
        shell.cmdloop()
        return controller, out.getvalue()

    def test_scripted_session(self, tmp_path):
        recording = record()
        log = tmp_path / "session.jsonl"
        controller, output = self.run_script(
            recording,
            "break commit\nrun\nstep\nrstep\nwhere\nprint 0x10\n"
            "threads\nlogs\nquit\n",
            session_log=str(log))
        assert "[gcc 1] breakpoint #1" in output
        assert "[gcc 2] step" in output
        assert "[gcc 1] goto" in output
        assert "gcc 1 of" in output
        assert "0x10 = " in output
        entries = [json.loads(line)
                   for line in log.read_text().splitlines()]
        kinds = {entry["event"] for entry in entries}
        assert {"command", "stop", "print", "threads",
                "logs", "quit"} <= kinds
        stops = [e for e in entries if e["event"] == "stop"]
        assert stops[0]["reason"] == "breakpoint"
        assert stops[0]["gcc"] == 1

    def test_watch_hits_contended_address(self):
        recording = record(program=racy_increment_program(2, 20))
        address = None
        for fingerprint in recording.fingerprints:
            if fingerprint[0] != "dma" and fingerprint[5]:
                address = fingerprint[5][0][0]
                break
        controller, output = self.run_script(
            recording, f"watch 0x{address:x}\nrun\nprint 0x{address:x}"
                       f"\nquit\n")
        assert f"watchpoint #1 write 0x{address:x}" in output
        assert "breakpoint #1" in output
        value = controller.read_word(address)
        assert f"0x{address:x} = {value}" in output

    def test_unknown_command_reported(self):
        _, output = self.run_script(record(), "frobnicate\nquit\n")
        assert "unknown command" in output

    def test_errors_do_not_kill_session(self):
        _, output = self.run_script(
            record(), "goto 999999\nstep\nquit\n")
        assert "error:" in output
        assert "[gcc 1] step" in output

    def test_trace_on_writes_perfetto(self, tmp_path):
        path = tmp_path / "dbg.json"
        _, output = self.run_script(
            record(), f"trace on {path}\nstep\nrstep\nquit\n")
        assert path.exists()
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


class TestLoading:
    def serializable_recording(self):
        # The .dlrn container packs CS entries at the standard chunk
        # size's bit width, so serialize a default-config recording.
        return DeLoreanSystem().record(counter_program(2, 12))

    def test_dlrn_file(self, tmp_path):
        from repro.core.serialization import save_recording
        recording = self.serializable_recording()
        path = tmp_path / "app.dlrn"
        path.write_bytes(save_recording(recording))
        loaded, _ = load_debug_target(str(path))
        assert loaded.fingerprints == recording.fingerprints

    def test_runner_record_artifact(self, tmp_path):
        import base64
        from repro.core.serialization import save_recording
        recording = self.serializable_recording()
        artifact = {
            "payload_codec": "dlrn",
            "payload": base64.b64encode(
                save_recording(recording)).decode("ascii"),
        }
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(artifact))
        loaded, _ = load_debug_target(str(path))
        assert loaded.fingerprints == recording.fingerprints

    def test_legacy_dlrn_file(self):
        """A local v2 file opens as a list of one recording, as it did
        before a file could hold several."""
        path = Path(__file__).parent / "data" / "counter-v2.dlrn"
        loaded, stop_after = load_debug_target(str(path))
        assert stop_after == 0
        stop = ReplayController(loaded).cont()
        assert stop.gcc == len(loaded.fingerprints) > 0

    def test_non_record_artifact_rejected(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps({"payload_codec": "pickle",
                                    "payload": ""}))
        with pytest.raises(ReproError):
            load_debug_target(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        with pytest.raises(ReproError):
            load_debug_target(str(path))


class TestAllModes:
    @pytest.mark.parametrize("mode", [ExecutionMode.ORDER_AND_SIZE,
                                      ExecutionMode.ORDER_ONLY,
                                      ExecutionMode.PICOLOG])
    def test_time_travel_under_every_mode(self, mode):
        recording = record_sweb(mode=mode, scale=0.4,
                                checkpoint_every=10)
        controller = ReplayController(recording, checkpoint_every=10)
        controller.step(15)
        probe = ReplayController(recording)
        probe.step(15)
        fingerprint = probe.state_fingerprint()
        controller.cont()
        assert controller.finished
        controller.goto(15)
        assert controller.state_fingerprint() == fingerprint
        assert controller.last_reexecuted <= 10
