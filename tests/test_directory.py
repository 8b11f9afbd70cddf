"""Tests for commit propagation, the L1s' sharer table and traffic
metering."""

import random

import pytest
from conftest import counter_program, record_reads

from repro.chunks.cache import CacheConfig, l1_group
from repro.chunks.chunk import Chunk
from repro.chunks.directory import CommitDirectory, TrafficMeter
from repro.chunks.signature import SignatureConfig
from repro.core.modes import ExecutionMode, preferred_config
from repro.machine.program import ThreadState
from repro.machine.system import (
    ChunkMachine,
    MachineObserver,
    build_replay_machine,
    finish_recording,
    verify_replay,
)
from repro.machine.timing import MachineConfig
from repro.workloads import commercial_program, splash2_program


def chunk_with(proc, writes=(), reads=()):
    chunk = Chunk(processor=proc, logical_seq=1,
                  start_state=ThreadState(thread_id=proc),
                  signature_config=SignatureConfig())
    for line in writes:
        chunk.record_write(line)
    record_reads(chunk, *reads)
    return chunk


def caches(count=2):
    """One machine's L1s: they share a sharer table."""
    return dict(enumerate(l1_group(count, CacheConfig(sets=4, ways=2))))


class TestTrafficMeter:
    def test_total_sums_categories(self):
        meter = TrafficMeter(signature_bytes=10, control_bytes=20,
                             invalidation_bytes=30, data_bytes=40,
                             squash_refetch_bytes=50)
        assert meter.total_bytes == 150
        assert meter.as_dict()["total_bytes"] == 150

    def test_as_dict_keys(self):
        keys = set(TrafficMeter().as_dict())
        assert "signature_bytes" in keys
        assert "squash_refetch_bytes" in keys


class TestCommitDirectory:
    def test_request_charges_both_signatures(self):
        directory = CommitDirectory(signature_bytes_each=256)
        directory.on_commit_request()
        assert directory.traffic.signature_bytes == 512
        assert directory.traffic.control_bytes == 8

    def test_grant_is_a_header(self):
        directory = CommitDirectory()
        directory.on_grant()
        assert directory.traffic.control_bytes == 8

    def test_propagation_invalidates_sharers(self):
        directory = CommitDirectory()
        cache_map = caches(3)
        # Caches 1 and 2 hold line 5; the committer is processor 0.
        cache_map[1].access(5)
        cache_map[2].access(5)
        committing = chunk_with(0, writes=[5])
        invalidations = directory.propagate_commit(committing, cache_map)
        assert invalidations == 2
        assert cache_map[1].coherence_invalidations == 1
        assert cache_map[2].coherence_invalidations == 1

    def test_propagation_counts_only_resident_lines(self):
        directory = CommitDirectory()
        cache_map = caches(3)
        cache_map[1].access(5)
        cache_map[1].access(6)
        cache_map[2].access(6)
        committing = chunk_with(0, writes=[5, 6, 7])
        assert directory.propagate_commit(committing, cache_map) == 3
        assert directory.traffic.invalidation_bytes == 3 * 8

    def test_propagation_skips_committer_cache(self):
        directory = CommitDirectory()
        cache_map = caches(2)
        cache_map[0].access(5)
        committing = chunk_with(0, writes=[5])
        directory.propagate_commit(committing, cache_map)
        assert cache_map[0].coherence_invalidations == 0

    def test_propagation_moves_line_data(self):
        directory = CommitDirectory(line_bytes=64)
        committing = chunk_with(0, writes=[1, 2, 3])
        directory.propagate_commit(committing, caches())
        assert directory.traffic.data_bytes == 3 * 64

    @pytest.mark.parametrize("seed", range(4))
    def test_propagation_invalidates_what_probing_every_cache_would(
            self, seed):
        """Against a copy of the group whose commits probe every other
        cache with ``invalidate``: the same counts and the same sets,
        DMA commits (processor 4, no L1) included."""
        rng = random.Random(f"propagate:{seed}")
        group, probed = caches(4), caches(4)
        directory = CommitDirectory()
        for _ in range(400):
            proc = rng.randrange(4)
            line = rng.randrange(24)
            group[proc].access(line)
            probed[proc].access(line)
            if rng.random() < 0.2:
                writer = rng.randrange(5)
                committing = chunk_with(
                    writer, writes=rng.sample(range(24), 5))
                expected = sum(
                    cache.invalidate(written)
                    for other, cache in probed.items() if other != writer
                    for written in committing.write_lines)
                assert directory.propagate_commit(
                    committing, group) == expected
            assert ([list(cache_set) for cache in group.values()
                     for cache_set in cache.sets]
                    == [list(cache_set) for cache in probed.values()
                        for cache_set in cache.sets])
            assert ([cache.stats() for cache in group.values()]
                    == [cache.stats() for cache in probed.values()])
        assert directory.traffic.invalidation_bytes > 0

    def test_squash_refetch_accounting(self):
        directory = CommitDirectory(line_bytes=32)
        victim = chunk_with(1, writes=[1], reads=[2, 3])
        directory.on_squash(victim)
        assert directory.traffic.squash_refetch_bytes == 3 * 32

    def test_data_refill(self):
        directory = CommitDirectory(line_bytes=32)
        directory.on_data_refill(10)
        assert directory.traffic.data_bytes == 320


def sharer_table_of(caches):
    """The sharer table the L1s' sets imply: line -> holders' bits."""
    expected = {}
    for cache in caches:
        for cache_set in cache.sets:
            for line in cache_set:
                expected[line] = expected.get(line, 0) | cache.sharer_bit
    return expected


class _SharerCheck(MachineObserver):
    """Checks the machine's sharer table against its L1s' sets every
    ``every`` commits and DMA bursts."""

    def __init__(self, machine, every=1):
        self.caches = [proc.cache for proc in machine.processors]
        self.every = every
        self.events = 0
        self.checked = 0

    def check(self):
        table = self.caches[0].sharers
        assert all(cache.sharers is table for cache in self.caches)
        assert table == sharer_table_of(self.caches)
        self.checked += 1

    def tick(self):
        self.events += 1
        if self.events % self.every == 0:
            self.check()

    def on_commit(self, chunk, fingerprint, count):
        self.tick()

    def on_dma(self, writes, fingerprint, count):
        self.tick()


class TestSharerTable:
    """Commit propagation trusts the sharer table to name every L1 that
    holds a written line, so it must match the L1s' sets exactly."""

    @pytest.mark.parametrize("l1_sets", [128, 16])
    @pytest.mark.parametrize("app", ["fft", "radix", "sjbb2k", "sweb2005",
                                     "counter"])
    @pytest.mark.parametrize("mode", list(ExecutionMode),
                             ids=lambda mode: mode.value)
    def test_table_matches_the_sets_through_record_and_replay(
            self, app, mode, l1_sets):
        """At Table 5's geometry and at a 16-set L1 that evicts
        constantly."""
        if app == "counter":
            # Four threads take turns on one lock and one counter, so
            # commits invalidate lines other L1s hold.
            program = counter_program(threads=4, increments=40)
        elif app in ("fft", "radix"):
            program = splash2_program(app, scale=0.5, seed=3)
        else:
            program = commercial_program(app, scale=0.5, seed=3)
        mode_config = preferred_config(mode)
        machine = ChunkMachine(
            program,
            MachineConfig(
                l1_sets=l1_sets,
                standard_chunk_size=mode_config.standard_chunk_size),
            mode_config, stochastic_overflow_rate=0.0015)
        record_check = _SharerCheck(machine)
        machine.observers.append(record_check)
        recording = finish_recording(machine, machine.run())
        record_check.check()
        replay = build_replay_machine(recording)
        replay_check = _SharerCheck(replay)
        replay.observers.append(replay_check)
        report, _ = verify_replay(replay, replay.run())
        replay_check.check()
        assert report.matches
        assert record_check.checked > 1 and replay_check.checked > 1
        if app == "counter":
            assert all(
                sum(proc.cache.coherence_invalidations
                    for proc in run.processors) > 0
                for run in (machine, replay))
