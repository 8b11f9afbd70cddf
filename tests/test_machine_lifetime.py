"""Finished machines are freed by reference counting.

A machine owns its arbiter and the arbiter's ordering policy.  If any
callback the machine hands them held the machine strongly, every
finished machine -- its cache sets, its memory and, in replay, its
decoded program -- would wait for a full garbage collection.  With the
collector disabled, each run below must leave nothing for
``gc.collect()`` to free.
"""

import gc

import pytest

from repro.baselines.consistency import ConsistencyModel, InterleavedExecutor
from repro.core import serialization
from repro.core.delorean import DeLoreanSystem
from repro.core.modes import ExecutionMode
from repro.core.serialization import load_recording, save_recording
from repro.machine.timing import MachineConfig
from repro.workloads import commercial_program, splash2_program


def cyclic_garbage_after(run) -> int:
    """Objects only the cycle collector can free once ``run`` returns."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def round_trip(system: DeLoreanSystem, program, **replay) -> None:
    """Record, save, load and verified replay."""
    recording = system.record(program)
    loaded = load_recording(save_recording(recording))
    result = system.replay(loaded, **replay)
    assert result.determinism.matches


@pytest.mark.parametrize("mode", list(ExecutionMode))
@pytest.mark.parametrize("build", [
    lambda: splash2_program("fft", scale=0.1),
    lambda: commercial_program("sjbb2k", scale=0.05),
], ids=["fft", "sjbb2k"])
def test_record_save_load_replay_leaves_no_cycles(mode, build):
    program = build()
    assert cyclic_garbage_after(
        lambda: round_trip(DeLoreanSystem(mode=mode), program)) == 0


def test_round_trip_leaves_no_live_program_behind():
    """The live-program table holds programs weakly: once a round
    trip's last reference goes, its program has left the table, and
    nothing is left for the collector."""
    gc.collect()
    before = len(serialization._LIVE_PROGRAMS)

    def run():
        program = splash2_program("fft", scale=0.1)
        system = DeLoreanSystem(mode=ExecutionMode.ORDER_ONLY)
        loaded = load_recording(save_recording(system.record(program)))
        assert loaded.program is program
        assert len(serialization._LIVE_PROGRAMS) == before + 1
        assert system.replay(loaded).determinism.matches

    assert cyclic_garbage_after(run) == 0
    assert len(serialization._LIVE_PROGRAMS) == before


def test_stratified_replay_leaves_no_cycles():
    program = splash2_program("fft", scale=0.1)
    system = DeLoreanSystem(mode=ExecutionMode.ORDER_ONLY, stratify=True)
    assert cyclic_garbage_after(
        lambda: round_trip(system, program, use_strata=True)) == 0


@pytest.mark.parametrize("model", [ConsistencyModel.RC,
                                   ConsistencyModel.SC])
def test_interleaved_executor_leaves_no_cycles(model):
    program = splash2_program("lu", scale=0.1)
    assert cyclic_garbage_after(
        lambda: InterleavedExecutor(program, MachineConfig(),
                                    model).run()) == 0
