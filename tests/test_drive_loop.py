"""One drive loop: every client of ``ChunkMachine.run`` sees one run.

Record, replay, the guard supervisor and the time-travel debugger all
drive the machine through ``ChunkMachine.run``; supervision and
debugging are observers on it.  Observing a run must not change it:
for fft, radix and sjbb2k in every mode, a supervised record (traced
or not) is the unsupervised record, and a debugger run to the end --
with pauses on the way -- is the straight-line replay.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import small_config

from repro.core.modes import ExecutionMode, preferred_config
from repro.debugger import ReplayController
from repro.errors import DeadlockError
from repro.guard import WatchdogConfig, supervise_record
from repro.machine.system import (
    ChunkMachine,
    MachineObserver,
    finish_recording,
    replay_execution,
)
from repro.machine.timing import MachineConfig
from repro.telemetry.tracer import EventTracer
from repro.workloads import commercial_program, splash2_program
from repro.workloads.stress import starvation_program

SCALE = 0.3
SEED = 3
APPS = ["fft", "radix", "sjbb2k"]
MODES = [ExecutionMode.ORDER_ONLY, ExecutionMode.PICOLOG,
         ExecutionMode.ORDER_AND_SIZE]
MODE_IDS = [mode.value for mode in MODES]


def _program(app: str):
    if app == "sjbb2k":
        return commercial_program(app, scale=SCALE, seed=SEED)
    return splash2_program(app, scale=SCALE, seed=SEED)


def _record_machine(program, mode_config, machine_config, tracer=None):
    """The record machine the supervisor builds, with no observers."""
    return ChunkMachine(
        program,
        replace(machine_config,
                standard_chunk_size=mode_config.standard_chunk_size),
        mode_config, tracer=tracer)


def _unsupervised(program, mode_config, machine_config, tracer=None):
    machine = _record_machine(program, mode_config, machine_config,
                              tracer)
    return machine, machine.run()


class _Fingerprints(MachineObserver):
    def __init__(self) -> None:
        self.seen: list[tuple] = []

    def on_commit(self, chunk, fingerprint, count) -> None:
        self.seen.append(fingerprint)

    def on_dma(self, writes, fingerprint, count) -> None:
        self.seen.append(fingerprint)


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("app", APPS)
def test_supervised_record_is_the_unsupervised_record(app, mode):
    program = _program(app)
    mode_config = preferred_config(mode)
    runs = []
    for traced in (False, True):
        machine, result = _unsupervised(
            program, mode_config, MachineConfig(),
            tracer=EventTracer() if traced else None)
        recording = finish_recording(machine, result)
        runs.append((recording.fingerprints, recording.stats.as_dict(),
                     machine.engine.events_processed))
        report = supervise_record(
            program, mode=mode, mode_config=mode_config,
            tracer=EventTracer() if traced else None)
        assert report.outcome == "completed"
        runs.append((report.recording.fingerprints,
                     report.recording.stats.as_dict(), report.events))
    assert all(run == runs[0] for run in runs[1:])


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("app", APPS)
def test_debugger_run_is_the_replay(app, mode):
    program = _program(app)
    mode_config = preferred_config(mode)
    recording = finish_recording(*_unsupervised(
        program, mode_config, MachineConfig()))
    replayed = replay_execution(recording, use_strata=False)
    assert replayed.determinism.matches

    controller = ReplayController(recording)
    seen = _Fingerprints()
    controller.machine.observers.append(seen)
    # Pause twice on the way: a resumed run must be the same run.
    assert controller.step(2).reason == "step"
    assert controller.step(3).gcc == 5
    stop = controller.cont()
    assert stop.reason == "end"
    assert stop.message == "replay complete"
    assert seen.seen == recording.fingerprints
    assert controller.memory_view() == replayed.final_memory


def test_supervised_event_budget_matches_unsupervised():
    """The guard hits the event budget on the same dispatch as an
    unsupervised run, not at its next watchdog poll."""
    program = starvation_program()
    mode_config = preferred_config(ExecutionMode.ORDER_ONLY)
    machine = _record_machine(program, mode_config, small_config())
    with pytest.raises(DeadlockError):
        machine.run(max_events=40_000)
    report = supervise_record(
        program, mode=ExecutionMode.ORDER_ONLY,
        machine_config=small_config(), max_events=40_000,
        watchdog_config=WatchdogConfig(
            no_commit_events=10**9, no_progress_events=10**9,
            squash_livelock_threshold=10**9, poll_stride=512))
    assert report.outcome == "deadlock"
    assert report.events == machine.engine.events_processed == 40_001
