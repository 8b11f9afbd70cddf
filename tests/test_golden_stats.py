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
* a digest of what each of those recordings logged (its bit-packed
  PI, CS, interrupt, I/O and DMA logs, strata and commit
  fingerprints), and the PicoLog token-passing summary of each record
  and replay;
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
from repro.chunks.chunk import write_pairs
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

#: (geometry, app, mode) -> SHA-256 of what the recording logged:
#: its bit-packed PI, CS, interrupt, I/O and DMA logs, its strata
#: and its commit fingerprints (see ``_logged``).
RECORDING_DIGESTS = {
    ("table5", "fft", "order_and_size"):
        "87e5dd73922a1ed7af3629c4bfac3d8228602e1af3bce42f428c544298340f83",
    ("table5", "fft", "order_only"):
        "46a8727b2786d689d402d2fc6a7a8d70ed7aa02694c95fff0fb44c958ce3635e",
    ("table5", "fft", "picolog"):
        "b1a4da039953b59ce5b9f7df474c42abf5a4474d144e3680e22b619613b21f39",
    ("table5", "fft", "size_only"):
        "4d274670a41eea9fc33644feaed9638747b0450c0697ce314ef7dee29fc5d635",
    ("table5", "radix", "order_and_size"):
        "f9737084ee9ac5e12f42ae97b6451097eb518fee8de520eec50bbe92f77615f4",
    ("table5", "radix", "order_only"):
        "5475ba4114d2dc6ed224ebec3373715b90210c5c4401cd444c1bc11250b49309",
    ("table5", "radix", "picolog"):
        "f897b8345929915cd2717fc7d4b1d03c9700aac61f464c6742c625a224a7af85",
    ("table5", "radix", "size_only"):
        "1753de10cc8b669d03a56f52800e0dd89641c360fa22282010528e9632b9421c",
    ("table5", "sjbb2k", "order_and_size"):
        "7b18b56697f005f3bcc1037b675111c40b7eccfd343f8a6ca8aa7dabeaf451dd",
    ("table5", "sjbb2k", "order_only"):
        "0bdf32e0f64f1f11d74f07953a94de02ce77501f00e57ac4dccddb2113f4db65",
    ("table5", "sjbb2k", "picolog"):
        "f94ccb7f2d63e9b214124ff33e4ed51cfb44d452040faf5c2c06fae61d879050",
    ("table5", "sjbb2k", "size_only"):
        "1656bbfa866dbf60da34a8b5cf789d35d5ae6cc3d33a9142ab49947653be996f",
    ("tight", "fft", "order_and_size"):
        "b36705ad1b3c634f04732d26b1224401687a0227bef95114b40a3829ce4b674c",
    ("tight", "fft", "order_only"):
        "d7508c103cb7414289f727ef07195a0322a3f0f33fec6f0b11435e0dd154462f",
    ("tight", "fft", "picolog"):
        "e1be3490231a470483677e703aadf40f4b0ac643fa960e2dbd7a45c7d7369b7e",
    ("tight", "fft", "size_only"):
        "4c077a4a8a05dfe250a8c0bdb751ce2bd5817e3540cec4e59b87b9d6abbbad1b",
    ("tight", "radix", "order_and_size"):
        "8ef9f2a4010d8aeb6d3bd1dc7863b71abfdea21bf0a535f7986bf8b2f5e982e9",
    ("tight", "radix", "order_only"):
        "a2d9e94e4445a2e8e89ae9da749a4626b87b613896f4acee1ff02d99a0c44176",
    ("tight", "radix", "picolog"):
        "bfa6e3db935b9a2526cc6dbaba172cac697bdb6525b2cb76ed74c569d8613dbf",
    ("tight", "radix", "size_only"):
        "b830f7fbeff732f763a9bf37a7d961fd90b7130bf51cb802701684d222f23844",
    ("tight", "sjbb2k", "order_and_size"):
        "1762dc57c25cb8808b8e3fe9981a29971d9bd24699b7b05f1929195cfb1008fa",
    ("tight", "sjbb2k", "order_only"):
        "ebafb892c71036b44944c07e9afa5befad7e565e4ad538f1d3bcd0acd1f6a062",
    ("tight", "sjbb2k", "picolog"):
        "1ba22cd98875f7884f35001c60cfa9c5f6e3ef66f13df0c814cdb3ba9a0145bb",
    ("tight", "sjbb2k", "size_only"):
        "f2409e2074ab0a962d50bdfda076ddd5b4ca9f243bcc597111dd03e6e93843d7",
}

#: PicoLog (geometry, app) -> the token summary of the recording and
#: of its replay, in ``TOKEN_FIELDS`` order.  They are means of float
#: samples taken with ``sum()``, whose rounding differs between Python
#: versions (3.12 compensates), so they are compared to a relative
#: 1e-12, not bit for bit.
TOKEN_FIELDS = ("ready_procs_avg", "actual_commit_avg",
                "proc_ready_pct", "wait_token_cycles",
                "wait_complete_cycles", "token_roundtrip_cycles")
TOKEN_SUMMARIES = {
    ("table5", "fft"): (
        (4.525, 1.75, 70.0, 985.1964285714286, 473.7083333333333, 1957.375),
        (5.075, 1.825, 82.5, 1206.5757575757557, 478.09523809523773,
         2131.6666666666647),
    ),
    ("table5", "radix"): (
        (5.4375, 1.84375, 75.0, 1068.4791666666667, 524.375, 1490.0),
        (5.65625, 1.90625, 90.625, 1325.0057471264372, 917.777777777777,
         1752.2222222222215),
    ),
    ("table5", "sjbb2k"): (
        (3.8, 1.6888888888888889, 66.66666666666666, 1224.1923076923076,
         611.8076923076923, 2158.7),
        (4.333333333333333, 1.794871794871795, 84.61538461538461,
         1221.4494949494936, 872.0277777777786, 2350.0333333333315),
    ),
    ("tight", "fft"): (
        (4.967213114754099, 1.7868852459016393, 81.9672131147541,
         882.4720000000001, 321.06363636363625, 1363.8142857142855),
        (6.114754098360656, 1.901639344262295, 95.08196721311475,
         1477.9649425287344, 365.6666666666668, 1769.119047619046),
    ),
    ("tight", "radix"): (
        (6.931506849315069, 1.904109589041096, 94.52054794520548,
         1161.5753623188402, 337.875, 1084.5),
        (7.219178082191781, 1.917808219178082, 97.26027397260275,
         2301.42863849765, 442.16666666666663, 1733.3333333333321),
    ),
    ("tight", "sjbb2k"): (
        (5.292307692307692, 1.9076923076923078, 84.7457627118644,
         1457.9560000000004, 694.8222222222224, 1741.5571428571432),
        (6.016949152542373, 1.7966101694915255, 89.83050847457628,
         1762.3855345911932, 425.92222222222273, 1943.0285714285696),
    ),
}

#: (geometry, mode) -> the same digest of the racey recordings of
#: SHARED_TRAFFIC, whose commits invalidate hundreds of lines.
SHARED_DIGESTS = {
    ("table5", "order_only"):
        "734725c1191123d5310af9a1d03d2ef6fd9148176a1bb05f7b8f6da352c3f38e",
    ("table5", "picolog"):
        "2bbd636a19a17bc06734759feb86afdd0d439d10608615aba56ef2051da91a68",
    ("tight", "order_only"):
        "22e5859ec0c474e8f0b791c44f1a44a90a6a4c10c424de402e51f5f265654e89",
    ("tight", "picolog"):
        "2bbd636a19a17bc06734759feb86afdd0d439d10608615aba56ef2051da91a68",
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
    assert _logged(recording) == RECORDING_DIGESTS[geometry, app, mode]
    if mode == "picolog":
        recorded, replayed = TOKEN_SUMMARIES[geometry, app]
        assert _tokens(recording.stats) == pytest.approx(recorded,
                                                         rel=1e-12)
        assert _tokens(result.stats) == pytest.approx(replayed, rel=1e-12)


@pytest.mark.parametrize("geometry,mode", sorted(SHARED_TRAFFIC))
def test_shared_line_traffic(geometry, mode):
    system = DeLoreanSystem(mode=ExecutionMode(mode),
                            machine_config=GEOMETRIES[geometry])
    recording = system.record(racey_program(threads=8, rounds=60, seed=3))
    assert _traffic(recording) == SHARED_TRAFFIC[geometry, mode]
    assert _logged(recording) == SHARED_DIGESTS[geometry, mode]


def _traffic(recording) -> tuple:
    traffic = recording.stats.traffic
    return tuple(traffic[category] for category in (
        "signature_bytes", "control_bytes", "invalidation_bytes",
        "data_bytes", "squash_refetch_bytes"))


def _logged(recording) -> str:
    """Digest of what the simulator logged, and only that: the saved
    blob also holds run statistics (float means) and zlib output, whose
    bytes depend on the interpreter and the zlib build.  Each
    fingerprint's write set is hashed as ``(address, value)`` pairs,
    the form the pinned digests were taken in."""
    logs = [recording.pi_log]
    for per_proc in (recording.cs_logs, recording.interrupt_logs,
                     recording.io_logs):
        logs += [per_proc[proc] for proc in sorted(per_proc)]
    logs.append(recording.dma_log)
    return _digest(([log.encode() for log in logs], recording.strata,
                    [_with_write_pairs(fingerprint)
                     for fingerprint in recording.fingerprints]))


def _with_write_pairs(fingerprint: tuple) -> tuple:
    position = 2 if fingerprint[0] == "dma" else 5
    return (fingerprint[:position] + (write_pairs(fingerprint),)
            + fingerprint[position + 1:])


def _tokens(stats) -> tuple:
    return tuple(stats.token_summary[name] for name in TOKEN_FIELDS)


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
