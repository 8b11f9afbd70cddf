"""Pins of the synthetic program generator's output.

A recording names its program by spec, and replay must rerun the very
program the recording ran.  So a spec must keep giving the same
program: the same ops in the same order, the same initial memory and
the same interrupt and DMA streams, whatever the Python version.  These
tests pin a SHA-256 of each program's canonical PROGRAM section, taken
before compression, because deflate output depends on the zlib build.
The pins cover the 13 application presets over six shapes and a
hand-built spec that reaches every branch of the generator.

A mismatch means the generator changed what it builds.  Regenerate the
tables only for a deliberate change of the workloads, and say so in the
change log: every recording made before it names a different program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import weakref

import pytest

from repro.core import serialization
from repro.core.serialization import _decode_program, _encode_program, _inflate
from repro.errors import ConfigurationError
from repro.machine.program import OpKind
from repro.workloads import (
    COMMERCIAL_APPS,
    SPLASH2_APPS,
    SyntheticSpec,
    app_program,
    build_program,
)

#: (scale, seed, threads): every scale, seed and thread count the pins
#: cover appears at least once.
SHAPES = [(0.05, 1, 2), (0.1, 2, 4), (0.2, 3, 8), (0.3, 7, 2),
          (0.6, 11, 4), (1.0, 1, 8)]

#: (app, scale, seed, threads) -> SHA-256 of the inflated PROGRAM section.
APP_DIGESTS = {
    ("barnes", 0.05, 1, 2):
        "99134344f2095babbe9e275e7033b0aa2f5ebc70a3391e66b30bc15a858f3c26",
    ("barnes", 0.1, 2, 4):
        "590be6febc765efd9a9248d6066ad132c0c385be8e3885523491180ce301c1e5",
    ("barnes", 0.2, 3, 8):
        "f05ac64d21edd9e8e58f756da333de796ecb2d1cb743a40034de04d36679d2d8",
    ("barnes", 0.3, 7, 2):
        "4eaadc17d2385534ea4df4783eab233e0d128607b450be53bc1d17d50b485db2",
    ("barnes", 0.6, 11, 4):
        "ac0c39bf589e542bcb2d282e6d25535c70fa89cf9c47d784a9fcd704a4e1987e",
    ("barnes", 1.0, 1, 8):
        "ac4458975a848b48a427622f87614db5b9f5bb7d3e6c9c3c8dadc29d5eef4060",
    ("cholesky", 0.05, 1, 2):
        "f651805d26ead6b6b9122da09aa390025379088756f3758a8a61688ff546d5d6",
    ("cholesky", 0.1, 2, 4):
        "c2f5278d25805f7467bfadc468de4c61a770fad0041731aff663de2bcab6b1da",
    ("cholesky", 0.2, 3, 8):
        "b334299ad307fee85529a95d74e850895bbb92e470ecafcf316ae1ca7d88cf3f",
    ("cholesky", 0.3, 7, 2):
        "2fb9226e68ec9746bb5fcd8482cfa8c6ae9dbaebac5d751dc83b059fb8acb341",
    ("cholesky", 0.6, 11, 4):
        "fe874739e89ab83b6e1e61203babfad10196cb2b138964db29be6934f7302c1d",
    ("cholesky", 1.0, 1, 8):
        "f58e79ab0f45e75675d8f7e80dea2ae65336079198b25c5574eedf9a33c98887",
    ("fft", 0.05, 1, 2):
        "de376bbb662614c35a74d4ef94cb74766dd2b7c5dc6907e7f640ca2f7b3e4d14",
    ("fft", 0.1, 2, 4):
        "558ecab01fa4841b072330d4339697f583e2b2daf6262cad8723368967da3214",
    ("fft", 0.2, 3, 8):
        "b949dbf8a146e33a2fdab833e48edc21324d6856118eef2de9f8b3496a756109",
    ("fft", 0.3, 7, 2):
        "780be1662ae0f1d4dc499a294b3108d154349f5ca2c309b8ce7aee1edab4f81c",
    ("fft", 0.6, 11, 4):
        "c3117c10297bac310b20b53553397ea5d6d24ba4b6e2e97c0faa323a8ddfccf7",
    ("fft", 1.0, 1, 8):
        "343e373a87cb8cf199d13370c3330b5b15c5d6edf58071ff78e205682f0ce109",
    ("fmm", 0.05, 1, 2):
        "0dc6b7fce43320b395b3ec53b564f1d12c03d42a4f1559ce0550a4377b296532",
    ("fmm", 0.1, 2, 4):
        "efb52201bcb3e093f6dc12b76eddf288db5c23f98a447870668e7546d7dcbd3a",
    ("fmm", 0.2, 3, 8):
        "bc894c738bf90b81cbb37480bb0ac9aa302309798316acaa2c8948e0bba21754",
    ("fmm", 0.3, 7, 2):
        "9246750ac97109bfd857784a0adde941b0b8223ade6bccd140f2c2ce192e71a8",
    ("fmm", 0.6, 11, 4):
        "61d6fca18502fb5ec0a5652515171f287e20655717fd5fe1fa5e4d88562a3cb7",
    ("fmm", 1.0, 1, 8):
        "fd3960d18da9cd1b0b2260710b424279f92495935cc41c37a303974461f48ea4",
    ("lu", 0.05, 1, 2):
        "ef49983a93d88680e904ceee4f4559cae59a54020501582a58e8d8fc5dd0707f",
    ("lu", 0.1, 2, 4):
        "bdefa993a663e13de1b7866c87448113a3cc1a99a477f6eb3ba3e60afd4ef445",
    ("lu", 0.2, 3, 8):
        "229ba7ce2fb9b87e9704c48a9c5470dfdb727cc7b51978c15f9ef08d625d2bd4",
    ("lu", 0.3, 7, 2):
        "1f2607ced12211fb62e9956d78e2391e1ce6667a9648f4e2ca8fd3df39799bef",
    ("lu", 0.6, 11, 4):
        "7cf4788d32086352b74eae9aa9977a6c7348f878b38bd6cbd88b54cea1a069d3",
    ("lu", 1.0, 1, 8):
        "da2968705e85e0a079dce24eed97bf9e552ca0aafbb21740444842901a883ecc",
    ("ocean", 0.05, 1, 2):
        "22693cdf0b511c6fd959a1e79eafb4c9030f7a2f253a7483b7318314a4569a5b",
    ("ocean", 0.1, 2, 4):
        "c692b7717d0bdeb202e32cb5aa4347fb89d1344b7eb5efe6cc89cc6aa093ea41",
    ("ocean", 0.2, 3, 8):
        "81b4eb1c69b76317e93e1d11bc61d3a8b0c8f2f904c703794a32d4d3fe6687da",
    ("ocean", 0.3, 7, 2):
        "3533b39ea996310fe466357011001b347cfae9e2106d3b1916517ece48c1a2d6",
    ("ocean", 0.6, 11, 4):
        "0624680646f253e6d0bc42a22d0bbc6ff519dc0d1ed84e398a21f0bab6a77338",
    ("ocean", 1.0, 1, 8):
        "f7a088e20fd69107f2fa0d9482ee559995bda63f9102da4cb4007f04f18f3c07",
    ("radiosity", 0.05, 1, 2):
        "be0f514f5192c8b4ab9e39f5c0cfc72c984ed0bb1cf55e75f53e65680f9b3865",
    ("radiosity", 0.1, 2, 4):
        "96b53b3dfb81bb1253d141a67b019579aab8899dafbc6299839766c9d6fcd621",
    ("radiosity", 0.2, 3, 8):
        "30d6e54468f810948ae99e318499a5eacfff8e0f09072341f20a399602968762",
    ("radiosity", 0.3, 7, 2):
        "43ccd8ebc18ec2d54331588f97b4485c03fadb107366548f8d0d0750e8a00977",
    ("radiosity", 0.6, 11, 4):
        "d489bdb6d3d2e133388a8f856b9687de319f4ea6369658118803794bfb15b9d7",
    ("radiosity", 1.0, 1, 8):
        "752f5eb5bdb1dc897357c64d47d9566075d4a89143b6691cb6f389ca5c6b00bc",
    ("radix", 0.05, 1, 2):
        "0141c83c93de6d708c78edb6ef8e3c74a8a14c8c8aae49e999ab31a6708b2511",
    ("radix", 0.1, 2, 4):
        "06a183781cb2e68ab1938ce331fb2ebb62727206dabed48940c422ec05461abd",
    ("radix", 0.2, 3, 8):
        "bb62b6ff2d689dd89e22ece4dd876c07ffba3afdef3aa111c3dbe52565ec6c6e",
    ("radix", 0.3, 7, 2):
        "2382a8fd5faa0473c555e0decb91061e0f03354feee029cce637eba9f7850b79",
    ("radix", 0.6, 11, 4):
        "a0335e61aaf173fb6a71d7d1a55e69b2d9f6f9635bc84f1eeb2dd1ed9015b65f",
    ("radix", 1.0, 1, 8):
        "db95c13a28991ddc95cda444bc6dcd7d66f9a358d98c9115731dd3cfefe66bd1",
    ("raytrace", 0.05, 1, 2):
        "045caa93adfedbeb1e01f764ab2717ee82addf8479b728fb1bc052effb19799b",
    ("raytrace", 0.1, 2, 4):
        "c427dc3933a6602725423325b66b06e3824b0a29fd83d19605ef35c15cc14fed",
    ("raytrace", 0.2, 3, 8):
        "858e3ec7bb14a29a88d525dcf47b429acc1c8cd5b8c3caac16881fe8f121e779",
    ("raytrace", 0.3, 7, 2):
        "8a126dd7ea2565d982aff99573b17bf8ab861d4bb9959c952de080475efcd678",
    ("raytrace", 0.6, 11, 4):
        "0f98ac217811a4810a90fcff5ab7e0c2d38f3b057e4405279d32b5c538677333",
    ("raytrace", 1.0, 1, 8):
        "8a71f1f95fd40491bbe9402895973b750f2c5f849caea6e5c168982c408e4191",
    ("water-ns", 0.05, 1, 2):
        "5b9e77129af9d9f7cdb296b5656bb8e1ac8ab94c6332d1f46cf03f02f1b9f42c",
    ("water-ns", 0.1, 2, 4):
        "5f0f06bf9c1c35cc745986bf6ea789ef71a730255a26fa963e2ae958eb68b753",
    ("water-ns", 0.2, 3, 8):
        "2d60be5cd21f5822e3bfa221f7ef9ba1ce7aa1820f0316cc4acb4a6c37a6fd14",
    ("water-ns", 0.3, 7, 2):
        "b6b6f443748cc9e6bf59d4ef29853460701980e940eb9a2855b0b158a1a9a8d5",
    ("water-ns", 0.6, 11, 4):
        "fe48aefea0066848db2fe8398ce845b9ae84a2e5a27b0da73513576296727f7a",
    ("water-ns", 1.0, 1, 8):
        "13e2a689995607c404636a5310b5e41c278739aa01e67ea81b9e632067bba332",
    ("water-sp", 0.05, 1, 2):
        "de7c5978264f79d364c36a534b5c850b0dc4d01f851f4fbfe59a2d92672cf3ca",
    ("water-sp", 0.1, 2, 4):
        "0ea71d95f6e59a09d701e9d8ab12d5afa4baeb048a64669b63e4822a359c340a",
    ("water-sp", 0.2, 3, 8):
        "9248b92be08245e4730b4582e280948e20bd309bb601ee56f04c7e754d75c41a",
    ("water-sp", 0.3, 7, 2):
        "bda1c6585e710bdb87760e9c9680e533627657cd5c44a6a6eed28e19e1c88046",
    ("water-sp", 0.6, 11, 4):
        "38db48cfbb2cd91d8779aafd9a6a40f90d2160a84e530f143bf00d2d23cc9ea0",
    ("water-sp", 1.0, 1, 8):
        "ed79b13df5f0e023cf4191c13e08013d89f6e0870c54ebfa4ab54d2c286fe730",
    ("sjbb2k", 0.05, 1, 2):
        "610090b1986401c8ac4dccc8cf3d8367510cbde9757597c01e5763ab00bab8d1",
    ("sjbb2k", 0.1, 2, 4):
        "f8718ae3b9f9e5f2d69447cac9944db2992556cf891ff7177f9b655be4530c00",
    ("sjbb2k", 0.2, 3, 8):
        "820cf912f8d3f6d6c67d499c7cdc345bb67289d1b7aeebb4d7e95bae7a029821",
    ("sjbb2k", 0.3, 7, 2):
        "01d111f2e9893665785557000200bdee9316df4d7b2798e2d7a28a100d8c82c8",
    ("sjbb2k", 0.6, 11, 4):
        "1acca056c82376d0711bcbf38f573a2190eb14a43db6f979ab2d9af03725df30",
    ("sjbb2k", 1.0, 1, 8):
        "892c3cb1fc649718f0a134dbc3f64fffa8a3ad47fe08ac2ad0ab1f406c148f9a",
    ("sweb2005", 0.05, 1, 2):
        "81b2999e84a7ae3ae473d642580f16d0f070313414b3d5f85bc9dc29ad57eca7",
    ("sweb2005", 0.1, 2, 4):
        "40a580eece8b800ada38753bae75a757b8db50c0d6b04bdf84c317a280cc8b2f",
    ("sweb2005", 0.2, 3, 8):
        "15ea1acd9de149b25fd33bb9a5c0b94a2a9127bb227068e6afcf1b96104229e4",
    ("sweb2005", 0.3, 7, 2):
        "572d6fe4c54c4f1d197c7691928ea9f46cd47eedd229ebeded916936e9103b06",
    ("sweb2005", 0.6, 11, 4):
        "073e9c9f6aaf2f380b65eed301a812c608f997686c61070faa5f6068386ec379",
    ("sweb2005", 1.0, 1, 8):
        "c96ab738f7f7dca969bef2e3ee4315722c2dbb12ab54dd8f9d98539a9a8e4cbb",
}

#: A small spec on which every branch of the generator fires: compute
#: lengths clamped to 1, hot and remote shared lines (with and without a
#: published ring slot to read), line reuse, hot and other locks,
#: I/O loads, special instructions, traps, barriers, interrupts and
#: DMA.  Barriers need balanced work, so the imbalance branch has its
#: own variant, and the single-thread branches another.
EVERY_BRANCH = SyntheticSpec(
    name="every-branch", num_threads=4, work_items=240,
    compute_per_item=2, private_accesses_per_item=3,
    shared_accesses_per_item=2, sharing_fraction=0.8,
    write_fraction=0.5, shared_lines=256, private_lines=16,
    hot_lines=8, hot_fraction=0.2, remote_read_fraction=0.3,
    remote_write_fraction=0.2, shared_reuse=0.4, publish_lines=8,
    publish_every=1, consume_lag=4, lock_count=4, lock_probability=0.2,
    critical_accesses=3, hot_lock_fraction=0.5, barrier_every=40,
    io_rate=0.05, special_rate=0.05, trap_rate=0.05,
    interrupts_per_thousand_items=20.0, interrupt_handler_ops=16,
    dma_bursts=3, dma_words_per_burst=4, seed=5)

VARIANTS = {
    "balanced": EVERY_BRANCH,
    "imbalanced": dataclasses.replace(EVERY_BRANCH, imbalance=0.5),
    "one-thread": dataclasses.replace(EVERY_BRANCH, num_threads=1),
}

VARIANT_DIGESTS = {
    "balanced":
        "df13048c381405eb8cab1393e0a6d7238c3a251d7e8603b3d9d9c95cef7abdec",
    "imbalanced":
        "825cf9298b6e868d63a6fd067ab3b8ed020bf6f579cad9488143cc50a7be3e29",
    "one-thread":
        "f84f7752b9da2ff2cf1d604da09d76fa56758c4e98a322a60023a1db2d03dbcf",
}


def _digest(program) -> str:
    raw = _inflate(_encode_program(program), "program")
    return hashlib.sha256(raw).hexdigest()


@pytest.mark.parametrize("key", sorted(APP_DIGESTS))
def test_app_programs_match_their_pins(key):
    assert _digest(app_program(*key)) == APP_DIGESTS[key]


def test_the_app_pins_cover_every_app_and_shape():
    apps = sorted(SPLASH2_APPS) + sorted(COMMERCIAL_APPS)
    assert len(apps) == 13
    assert set(APP_DIGESTS) == {(app, *shape)
                                for app in apps for shape in SHAPES}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_every_branch_variants_match_their_pins(variant):
    assert _digest(build_program(VARIANTS[variant])) == \
        VARIANT_DIGESTS[variant]


def test_the_hand_built_spec_reaches_every_branch():
    balanced = build_program(VARIANTS["balanced"])
    ops = [op for thread in balanced.threads for op in thread]
    assert {op.kind for op in ops} == set(OpKind) - {OpKind.IO_STORE}
    assert any(op.kind is OpKind.COMPUTE and op.count == 1 for op in ops)
    assert balanced.interrupts and balanced.dma_transfers
    lock_addresses = {op.address for op in ops if op.kind is OpKind.LOCK}
    assert len(lock_addresses) == EVERY_BRANCH.lock_count
    imbalanced = build_program(VARIANTS["imbalanced"])
    lengths = imbalanced.static_lengths()
    assert lengths == sorted(lengths) and lengths[-1] > lengths[0]
    assert not any(op.kind is OpKind.BARRIER
                   for thread in imbalanced.threads for op in thread)
    assert build_program(VARIANTS["one-thread"]).num_threads == 1


def test_a_negative_address_is_refused():
    # Negative line words put most private lines below address 0.
    spec = SyntheticSpec(name="negative", num_threads=2, work_items=20,
                         line_words=-(1 << 20))
    with pytest.raises(ConfigurationError, match="negative address"):
        build_program(spec)


@pytest.mark.parametrize("source", ["every-branch", "sweb2005"])
def test_a_generated_program_equals_its_copies(source, monkeypatch):
    """Decoded from its PROGRAM section (not the live program the
    section came from), pickled and unpickled, or copied field by
    field, a generated program is equal to itself."""
    if source == "every-branch":
        program = build_program(EVERY_BRANCH)
    else:
        program = app_program("sweb2005", 0.1, 3, 4)
    monkeypatch.setattr(serialization, "_LIVE_PROGRAMS",
                        weakref.WeakValueDictionary())
    decoded = _decode_program(_encode_program(program), {})["program"]
    assert decoded is not program
    copies = [decoded, pickle.loads(pickle.dumps(program)),
              dataclasses.replace(program)]
    for copy in copies:
        assert copy == program
        assert copy.threads == program.threads
        assert copy.interrupts == program.interrupts
        assert copy.dma_transfers == program.dma_transfers
