"""Tests for recording comparison (diff) tooling."""

from dataclasses import replace

import pytest

from conftest import small_config

from repro.analysis.compare import (
    diff_recordings,
    interleaving_prefix_length,
)
from repro.chunks.chunk import write_pairs
from repro.core.delorean import DeLoreanSystem
from repro.errors import ConfigurationError
from repro.machine.timing import MachineConfig
from repro.workloads import commercial_program
from repro.workloads.stress import racey_program


def record(chunk_size, seed=3, threads=4, rounds=40):
    config = small_config()
    system = DeLoreanSystem(machine_config=config,
                            chunk_size=chunk_size)
    return system.record(racey_program(threads=threads, rounds=rounds,
                                       seed=seed))


class TestDiff:
    def test_identical_recordings(self):
        a, b = record(64), record(64)
        diff = diff_recordings(a, b)
        assert diff.identical
        assert "identical" in diff.summary()

    def test_different_interleavings_detected(self):
        a, b = record(64), record(80)
        diff = diff_recordings(a, b)
        assert not diff.identical
        assert diff.first_divergence is not None
        assert diff.divergence_kind in ("interleaving", "chunk-size",
                                        "chunk-contents", "length")
        assert "diverge" in diff.summary()

    def test_memory_differences_reported(self):
        a, b = record(64), record(80)
        diff = diff_recordings(a, b)
        # racey's signature array depends on the interleaving.
        assert diff.memory_differences

    def test_prefix_length(self):
        a, b = record(64), record(64)
        assert interleaving_prefix_length(a, b) == len(a.fingerprints)
        c = record(80)
        assert interleaving_prefix_length(a, c) < len(a.fingerprints)

    def test_mismatched_machines_rejected(self):
        a = record(64)
        system = DeLoreanSystem(
            machine_config=MachineConfig(num_processors=6),
            chunk_size=64)
        b = system.record(racey_program(threads=4, rounds=40, seed=3))
        with pytest.raises(ConfigurationError):
            diff_recordings(a, b)

    def test_length_divergence(self):
        a = record(64, rounds=40)
        b = record(64, rounds=44)
        diff = diff_recordings(a, b)
        assert not diff.identical


class TestFirstDifferingWrite:
    """Where two commits have the same committer and size, the diff
    names the first write, in address order, that differs."""

    def test_dma_bursts_name_their_first_differing_write(self):
        system = DeLoreanSystem()
        left, right = (
            system.record(commercial_program("sjbb2k", scale=0.1,
                                             seed=seed))
            for seed in (3, 4))
        diff = diff_recordings(left, right)
        assert (diff.first_divergence, diff.divergence_kind) == (
            0, "chunk-contents")
        ours = dict(write_pairs(left.fingerprints[0]))
        theirs = dict(write_pairs(right.fingerprints[0]))
        address = min(a for a in ours.keys() | theirs.keys()
                      if ours.get(a) != theirs.get(a))
        assert diff.detail.startswith(
            f"DMA burst #1: first differing write 0x{address:x}")
        assert "different writes or end state" not in diff.summary()

    def test_chunk_contents_name_their_first_differing_write(self):
        left = record(64)
        index, fingerprint = next(
            (index, fingerprint)
            for index, fingerprint in enumerate(left.fingerprints)
            if fingerprint[0] != "dma" and write_pairs(fingerprint))
        (address, value), *_ = write_pairs(fingerprint)
        addresses, values = fingerprint[5]
        edited = (fingerprint[:5]
                  + ((addresses, (value + 1,) + values[1:]),)
                  + fingerprint[6:])
        fingerprints = list(left.fingerprints)
        fingerprints[index] = edited
        diff = diff_recordings(left, replace(left,
                                             fingerprints=fingerprints))
        assert (diff.first_divergence, diff.divergence_kind) == (
            index, "chunk-contents")
        proc, seq, _, _, instructions, _, _ = fingerprint
        assert diff.detail == (
            f"cpu{proc} chunk seq={seq} ({instructions} instructions): "
            f"first differing write 0x{address:x}: left {value}, "
            f"right {value + 1}")


class TestCliDiff:
    def test_diff_command(self, tmp_path, capsys):
        from repro.cli import main
        left = tmp_path / "a.dlrn"
        right = tmp_path / "b.dlrn"
        assert main(["record", "water-sp", "--scale", "0.1",
                     "--seed", "5", "-o", str(left)]) == 0
        assert main(["record", "water-sp", "--scale", "0.1",
                     "--seed", "5", "-o", str(right)]) == 0
        capsys.readouterr()
        assert main(["diff", str(left), str(right)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_command_divergent(self, tmp_path, capsys):
        from repro.cli import main
        left = tmp_path / "a.dlrn"
        right = tmp_path / "b.dlrn"
        main(["record", "water-sp", "--scale", "0.1", "--seed", "5",
              "-o", str(left)])
        main(["record", "water-sp", "--scale", "0.1", "--seed", "6",
              "-o", str(right)])
        capsys.readouterr()
        assert main(["diff", str(left), str(right)]) == 1
