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
