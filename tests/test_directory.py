"""Tests for commit propagation and traffic metering."""

from conftest import record_reads

from repro.chunks.cache import CacheConfig, SpeculativeCache
from repro.chunks.chunk import Chunk
from repro.chunks.directory import CommitDirectory, TrafficMeter
from repro.chunks.signature import SignatureConfig
from repro.machine.program import ThreadState


def chunk_with(proc, writes=(), reads=()):
    chunk = Chunk(processor=proc, logical_seq=1,
                  start_state=ThreadState(thread_id=proc),
                  signature_config=SignatureConfig())
    for line in writes:
        chunk.record_write(line)
    record_reads(chunk, *reads)
    return chunk


def caches(count=2):
    return {proc: SpeculativeCache(CacheConfig(sets=4, ways=2))
            for proc in range(count)}


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

    def test_squash_refetch_accounting(self):
        directory = CommitDirectory(line_bytes=32)
        victim = chunk_with(1, writes=[1], reads=[2, 3])
        directory.on_squash(victim)
        assert directory.traffic.squash_refetch_bytes == 3 * 32

    def test_data_refill(self):
        directory = CommitDirectory(line_bytes=32)
        directory.on_data_refill(10)
        assert directory.traffic.data_bytes == 320
