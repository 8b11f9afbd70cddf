"""Golden simulated statistics: the behavioural invariant of the model.

Host-side optimizations of the simulator must not change any simulated
figure.  These values pin, bit for bit, what the chunk machine and the
interleaved baseline executor compute for small fixed inputs:

* fft, radix and sjbb2k in OrderOnly, PicoLog and Order&Size, on the
  Table 5 machine and on a ``tight`` one (8-set L1, one squash before
  size reduction) whose chunks keep overflowing their cache sets and
  occasionally shrink after a collision;
* lu under the RC and SC interleaved executor.

A mismatch means a simulated behaviour changed.  Regenerate the tables
only for a deliberate model change, and say so in the change log.
"""

from __future__ import annotations

import pytest

from repro import DeLoreanSystem, ExecutionMode
from repro.baselines.consistency import ConsistencyModel, InterleavedExecutor
from repro.machine.timing import MachineConfig
from repro.workloads import commercial_program, splash2_program

SCALE = 0.2
SEED = 3

GEOMETRIES = {
    "table5": MachineConfig(),
    "tight": MachineConfig(l1_sets=8, l1_ways=4, squash_retry_limit=1),
}

#: (geometry, app, mode) -> (record cycles, committed instructions,
#: squashes, overflow truncations, collision truncations, compressed
#: ordering-log bits, replay cycles, replay determinism verdict).
RECORD_REPLAY = {
    ("table5", "fft", "order_only"):
        (10649.5, 36836, 0, 0, 0, 96, 10669.5, True),
    ("table5", "fft", "picolog"):
        (11974.5, 36836, 0, 0, 0, 0, 13721.666666666653, True),
    ("table5", "fft", "order_and_size"):
        (10649.5, 36836, 0, 0, 0, 208, 10669.5, True),
    ("table5", "radix", "order_only"):
        (7183.0, 24453, 2, 0, 0, 64, 7203.0, True),
    ("table5", "radix", "picolog"):
        (9385.0, 24453, 2, 0, 0, 0, 11278.333333333327, True),
    ("table5", "radix", "order_and_size"):
        (7183.0, 24453, 2, 0, 0, 168, 7203.0, True),
    ("table5", "sjbb2k", "order_only"):
        (11377.0, 31096, 2, 0, 0, 128, 11515.0, True),
    ("table5", "sjbb2k", "picolog"):
        (14908.5, 31096, 2, 0, 0, 0, 16691.833333333325, True),
    ("table5", "sjbb2k", "order_and_size"):
        (11377.0, 31096, 2, 0, 0, 368, 11374.0, True),
    ("tight", "fft", "order_only"):
        (10657.3, 36836, 0, 53, 0, 1924, 10677.3, True),
    ("tight", "fft", "picolog"):
        (12926.699999999999, 36836, 0, 51, 0, 1616, 16555.333333333318,
         True),
    ("tight", "fft", "order_and_size"):
        (10657.3, 36836, 0, 53, 0, 1024, 10677.3, True),
    ("tight", "radix", "order_only"):
        (7402.3, 24453, 1, 65, 0, 2244, 7432.3, True),
    ("tight", "radix", "picolog"):
        (12591.5, 24453, 1, 65, 0, 1952, 19567.666666666664, True),
    ("tight", "radix", "order_and_size"):
        (7626.3, 24453, 1, 64, 0, 1200, 7676.3, True),
    ("tight", "sjbb2k", "order_only"):
        (11250.400000000001, 31096, 2, 46, 0, 1712, 11290.400000000001,
         True),
    ("tight", "sjbb2k", "picolog"):
        (15358.400000000001, 31096, 2, 46, 0, 1452, 17760.36666666666,
         True),
    ("tight", "sjbb2k", "order_and_size"):
        (11294.400000000001, 31096, 2, 45, 1, 1016, 12764.1, True),
}

#: lu under the interleaved executor: model -> (cycles, instructions).
CONSISTENCY = {
    "rc": (11167.5, 38897),
    "sc": (14014.5, 38897),
}


def _program(app: str):
    if app == "sjbb2k":
        return commercial_program(app, scale=SCALE, seed=SEED)
    return splash2_program(app, scale=SCALE, seed=SEED)


@pytest.mark.parametrize("geometry,app,mode", sorted(RECORD_REPLAY))
def test_record_replay_statistics(geometry, app, mode):
    system = DeLoreanSystem(mode=ExecutionMode(mode),
                            machine_config=GEOMETRIES[geometry])
    recording = system.record(_program(app))
    result = system.replay(recording)
    stats = recording.stats
    observed = (
        stats.cycles,
        stats.total_committed_instructions,
        stats.total_squashes,
        stats.overflow_truncations,
        stats.collision_truncations,
        recording.memory_ordering.total_size_bits(True),
        result.cycles,
        result.determinism.matches,
    )
    assert observed == RECORD_REPLAY[geometry, app, mode]


@pytest.mark.parametrize("model", sorted(CONSISTENCY))
def test_consistency_statistics(model):
    result = InterleavedExecutor(_program("lu"),
                                 model=ConsistencyModel(model)).run()
    assert (result.cycles, result.total_instructions) == CONSISTENCY[model]
