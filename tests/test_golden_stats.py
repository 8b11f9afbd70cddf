"""Golden simulated statistics: the behavioural invariant of the model.

Host-side optimizations of the simulator must not change any simulated
figure.  These values pin, bit for bit, what the chunk machine and the
interleaved baseline executor compute for small fixed inputs:

* fft, radix and sjbb2k in OrderOnly, PicoLog, Order&Size and
  SizeOnly, on the Table 5 machine and on a ``tight`` one (8-set L1,
  one squash before size reduction) whose chunks keep overflowing
  their cache sets and occasionally shrink after a collision;
* the recordings' network traffic per byte category, and so their
  invalidation and refill counts, and the same for a racey program
  whose commits invalidate hundreds of lines in other caches;
* lu, sjbb2k and a small program that spins at locks and barriers
  under the RC, SC and PC interleaved executor, with digests of their
  final memory and access trace.

A mismatch means a simulated behaviour changed.  Regenerate the tables
only for a deliberate model change, and say so in the change log.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro import DeLoreanSystem, ExecutionMode
from repro.baselines.consistency import ConsistencyModel, InterleavedExecutor
from repro.machine.events import DmaTransfer, InterruptEvent
from repro.machine.timing import MachineConfig
from repro.workloads import ProgramBuilder, commercial_program, splash2_program
from repro.workloads.program_builder import (
    barrier_address,
    lock_address,
    shared_address,
)
from repro.workloads.stress import racey_program

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
    ("table5", "fft", "size_only"):
        (12884.5, 36836, 0, 0, 0, 153, 15238.333333333316, True),
    ("table5", "radix", "order_only"):
        (7183.0, 24453, 2, 0, 0, 64, 7203.0, True),
    ("table5", "radix", "picolog"):
        (9385.0, 24453, 2, 0, 0, 0, 11278.333333333327, True),
    ("table5", "radix", "order_and_size"):
        (7183.0, 24453, 2, 0, 0, 168, 7203.0, True),
    ("table5", "radix", "size_only"):
        (9385.0, 24453, 2, 0, 0, 122, 11278.333333333327, True),
    ("table5", "sjbb2k", "order_only"):
        (11377.0, 31096, 2, 0, 0, 128, 11515.0, True),
    ("table5", "sjbb2k", "picolog"):
        (14908.5, 31096, 2, 0, 0, 0, 16691.833333333325, True),
    ("table5", "sjbb2k", "order_and_size"):
        (11377.0, 31096, 2, 0, 0, 368, 11374.0, True),
    ("table5", "sjbb2k", "size_only"):
        (15298.5, 31096, 2, 0, 0, 211, 17341.83333333333, True),
    ("tight", "fft", "order_only"):
        (10657.3, 36836, 0, 53, 0, 1924, 10677.3, True),
    ("tight", "fft", "picolog"):
        (12926.699999999999, 36836, 0, 51, 0, 1616, 16555.333333333318,
         True),
    ("tight", "fft", "order_and_size"):
        (10657.3, 36836, 0, 53, 0, 1024, 10677.3, True),
    ("tight", "fft", "size_only"):
        (14876.699999999999, 36836, 0, 48, 0, 684, 19805.333333333336,
         True),
    ("tight", "radix", "order_only"):
        (7402.3, 24453, 1, 65, 0, 2244, 7432.3, True),
    ("tight", "radix", "picolog"):
        (12591.5, 24453, 1, 65, 0, 1952, 19567.666666666664, True),
    ("tight", "radix", "order_and_size"):
        (7626.3, 24453, 1, 64, 0, 1200, 7676.3, True),
    ("tight", "radix", "size_only"):
        (12591.5, 24453, 1, 62, 0, 825, 19567.666666666664, True),
    ("tight", "sjbb2k", "order_only"):
        (11250.400000000001, 31096, 2, 46, 0, 1712, 11290.400000000001,
         True),
    ("tight", "sjbb2k", "picolog"):
        (15358.400000000001, 31096, 2, 46, 0, 1452, 17760.36666666666,
         True),
    ("tight", "sjbb2k", "order_and_size"):
        (11294.400000000001, 31096, 2, 45, 1, 1016, 12764.1, True),
    ("tight", "sjbb2k", "size_only"):
        (16316.900000000001, 31096, 2, 43, 0, 693, 19399.233333333337,
         True),
}

#: (geometry, app, mode) -> the recording's network traffic in bytes:
#: signature, control, invalidation, data and squash refetch.  These
#: hold each run's invalidation and refill counts too; they are 0 or 1
#: invalidation here, so SHARED_TRAFFIC pins a program that shares.
TRAFFIC = {
    ("table5", "fft", "order_and_size"): (18432, 384, 0, 133056, 0),
    ("table5", "fft", "order_only"): (18432, 384, 0, 133056, 0),
    ("table5", "fft", "picolog"): (30720, 640, 0, 135424, 0),
    ("table5", "fft", "size_only"): (33024, 688, 0, 135360, 0),
    ("table5", "radix", "order_and_size"): (12288, 256, 0, 145152, 16448),
    ("table5", "radix", "order_only"): (12288, 256, 0, 145152, 16448),
    ("table5", "radix", "picolog"): (25088, 520, 0, 148160, 11648),
    ("table5", "radix", "size_only"): (25088, 520, 0, 148352, 11648),
    ("table5", "sjbb2k", "order_and_size"): (25856, 536, 8, 130112, 16320),
    ("table5", "sjbb2k", "order_only"): (25088, 520, 8, 129984, 16320),
    ("table5", "sjbb2k", "picolog"): (34560, 720, 8, 131648, 9024),
    ("table5", "sjbb2k", "size_only"): (36096, 752, 8, 131712, 9024),
    ("tight", "fft", "order_and_size"): (49152, 1024, 0, 142016, 0),
    ("tight", "fft", "order_only"): (46848, 976, 0, 141824, 0),
    ("tight", "fft", "picolog"): (46848, 976, 0, 141824, 0),
    ("tight", "fft", "size_only"): (49152, 1024, 0, 141760, 0),
    ("tight", "radix", "order_and_size"): (57600, 1200, 0, 157440, 2560),
    ("tight", "radix", "order_only"): (56064, 1168, 0, 157248, 2560),
    ("tight", "radix", "picolog"): (56064, 1168, 0, 157248, 2560),
    ("tight", "radix", "size_only"): (57600, 1200, 0, 157376, 2560),
    ("tight", "sjbb2k", "order_and_size"): (52224, 1088, 0, 140992, 5888),
    ("tight", "sjbb2k", "order_only"): (49920, 1040, 0, 140992, 5888),
    ("tight", "sjbb2k", "picolog"): (50432, 1048, 0, 140992, 5888),
    ("tight", "sjbb2k", "size_only"): (53504, 1112, 0, 140928, 5888),
}

#: (geometry, mode) -> the same traffic for racey with 8 threads, 60
#: rounds, seed 3: every round writes lines the other threads hold, so
#: commits invalidate 280 to 1061 lines in other caches.
SHARED_TRAFFIC = {
    ("table5", "order_only"): (19968, 344, 2240, 22528, 28672),
    ("table5", "picolog"): (58880, 984, 5720, 54272, 112832),
    ("tight", "order_only"): (290048, 4880, 8488, 85568, 422912),
    ("tight", "picolog"): (58880, 984, 5720, 54272, 112832),
}

#: (app, model) -> the interleaved executor's cycles, total
#: instructions, spin instructions, per-processor instructions and the
#: SHA-256 of its final memory and of its access trace (every
#: ``AccessRecord`` field).  sjbb2k brings interrupts, DMA and I/O;
#: sync (below) every op kind, lock and barrier spins, and a handler
#: that runs while its thread waits at a barrier.
CONSISTENCY = {
    ("lu", "pc"): (
        12747.0, 38897, 0, (4910, 4886, 4876, 4950, 4797, 4875, 4778, 4825),
        "b23fd04d2d6db2fad44f846c603c8433cde1f1503b8668cb25e66ff7077986db",
        "badf0826f5d9f0ca362f651d3b62457e7f74176440a0520f8dca6417b2169b5f"),
    ("lu", "rc"): (
        11167.5, 38897, 0, (4910, 4886, 4876, 4950, 4797, 4875, 4778, 4825),
        "b23fd04d2d6db2fad44f846c603c8433cde1f1503b8668cb25e66ff7077986db",
        "373263ddab84be5bf7a6e0a9dfa189082806fbcc4a3fa67dfe9f441420983a2b"),
    ("lu", "sc"): (
        14014.5, 38897, 0, (4910, 4886, 4876, 4950, 4797, 4875, 4778, 4825),
        "b23fd04d2d6db2fad44f846c603c8433cde1f1503b8668cb25e66ff7077986db",
        "ceb9fad70295dd4d740b02e846026add135703ecc0b9059ce953449910cbe077"),
    ("sjbb2k", "pc"): (
        13168.0, 31096, 0, (3935, 3992, 3782, 3950, 3854, 3893, 3862, 3828),
        "9e709c7a87257d54f00a1f499b77dacf0e3ac45040cb67901eb7164073ced7bc",
        "c9d9407a40ce1f3a792a1e0766ccfe7688b792417594ec550c5bc7691f8e2b98"),
    ("sjbb2k", "rc"): (
        11515.0, 31096, 0, (3935, 3992, 3782, 3950, 3854, 3893, 3862, 3828),
        "4a43297c464ad95777e263b09a61f7a5a4c26a481769ef8aad3f3355251b3234",
        "8175bae612e3ac7c3add91989f88fe306df3744f1ba67392d3e44c0bacc838d8"),
    ("sjbb2k", "sc"): (
        14407.0, 31096, 0, (3935, 3992, 3782, 3950, 3854, 3893, 3862, 3828),
        "1dd26cc0e805d64f6ad5f5b4c168457f538ada8fa426907139dea17d809d0fae",
        "3d0c7a8749da8e0d47878d507a0d1129d0891d9789aaa0f3481f50a9e71e804d"),
    ("sync", "pc"): (
        1157.985, 1932, 1436, (322, 174, 718, 718),
        "b6d09c3c96a17c7582b45095a53c87fb1e47bcd5b48a1248ce201187ddc4eaac",
        "9a6d896ddb930af8abdafeec3546b6188c99b2320313677111aba042f3a2044a"),
    ("sync", "rc"): (
        1110.9, 1768, 1272, (302, 174, 646, 646),
        "b6d09c3c96a17c7582b45095a53c87fb1e47bcd5b48a1248ce201187ddc4eaac",
        "4380be5bf1f842223a4bb602681dd4840e014e56ca9e31e4b216808f7fc53f79"),
    ("sync", "sc"): (
        1191.81, 2052, 1556, (334, 172, 768, 778),
        "4e67586beec06578678af1ce7804c03408f50784d3623f31cdabc9709a4f661b",
        "074c3cf3d3a88f11eef3c4b4cc00673504a6287652e8959a90bba2ab971ec680"),
}


def _sync_program():
    """Every op kind, spinning: four threads reach a barrier at
    different times, contend for one lock, and thread 0 takes an
    interrupt while it waits at the first barrier."""
    builder = ProgramBuilder(4, name="sync")
    counter = shared_address(0)
    for thread in range(4):
        (builder.writer(thread)
         .compute(10 + 40 * thread)
         .barrier(barrier_address(0), 4)
         .lock(lock_address(0))
         .rmw(counter, thread + 1)
         .compute(30)
         .store(shared_address(8 + thread))
         .unlock(lock_address(0))
         .load(counter)
         .io_load(thread)
         .io_store(thread)
         .special()
         .trap(5)
         .barrier(barrier_address(1), 4))
    builder.add_interrupt(InterruptEvent(
        time=20.0, processor=0, vector=3, payload=9, handler_ops=8))
    builder.add_dma(DmaTransfer(time=30.0, writes={counter: 100}))
    return builder.build()


def _program(app: str):
    if app == "sync":
        return _sync_program()
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
    assert _traffic(recording) == TRAFFIC[geometry, app, mode]


@pytest.mark.parametrize("geometry,mode", sorted(SHARED_TRAFFIC))
def test_shared_line_traffic(geometry, mode):
    system = DeLoreanSystem(mode=ExecutionMode(mode),
                            machine_config=GEOMETRIES[geometry])
    recording = system.record(racey_program(threads=8, rounds=60, seed=3))
    assert _traffic(recording) == SHARED_TRAFFIC[geometry, mode]


def _traffic(recording) -> tuple:
    traffic = recording.stats.traffic
    return tuple(traffic[category] for category in (
        "signature_bytes", "control_bytes", "invalidation_bytes",
        "data_bytes", "squash_refetch_bytes"))


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _interleaved(app: str, model: str, collect_trace: bool) -> tuple:
    result = InterleavedExecutor(_program(app),
                                 model=ConsistencyModel(model),
                                 collect_trace=collect_trace).run()
    per_proc = result.per_proc_instructions
    return (
        result.cycles,
        result.total_instructions,
        result.spin_instructions,
        tuple(per_proc[proc] for proc in sorted(per_proc)),
        _digest(sorted(result.final_memory.items())),
        _digest([dataclasses.astuple(record) for record in result.trace]),
    )


@pytest.mark.parametrize("app,model", sorted(CONSISTENCY))
def test_consistency_statistics(app, model):
    observed = _interleaved(app, model, collect_trace=True)
    assert observed == CONSISTENCY[app, model]
    # Without a trace, every other figure is the same.
    assert _interleaved(app, model, collect_trace=False) == (
        observed[:-1] + (_digest([]),))
