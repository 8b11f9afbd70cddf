"""Tests for the L1/L2 cache models and overflow detection."""

import random
from collections import OrderedDict

import pytest

from repro.chunks.cache import (
    CacheConfig,
    SharedL2Filter,
    SpeculativeCache,
    WriteFootprint,
    l1_group,
)
from repro.chunks.chunk import Chunk
from repro.chunks.signature import SignatureConfig
from repro.errors import ConfigurationError
from repro.machine.program import ThreadState


class TestCacheConfig:
    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(sets=100)

    def test_single_way_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(ways=1)

    def test_set_mapping(self):
        config = CacheConfig(sets=8, ways=2)
        assert config.set_of(0) == 0
        assert config.set_of(8) == 0
        assert config.set_of(9) == 1

    def test_speculative_ways_use_full_associativity(self):
        assert CacheConfig(sets=8, ways=4).speculative_ways == 4


class TestL1Classification:
    def test_first_access_misses(self):
        cache = SpeculativeCache(CacheConfig(sets=4, ways=2))
        assert cache.access(0) == "memory"

    def test_second_access_hits(self):
        cache = SpeculativeCache(CacheConfig(sets=4, ways=2))
        cache.access(0)
        assert cache.access(0) == "l1"

    def test_lru_eviction(self):
        cache = SpeculativeCache(CacheConfig(sets=4, ways=2))
        cache.access(0)      # set 0
        cache.access(4)      # set 0
        cache.access(8)      # set 0 -> evicts line 0
        assert cache.access(0) != "l1"

    def test_lru_refresh_on_touch(self):
        cache = SpeculativeCache(CacheConfig(sets=4, ways=2))
        cache.access(0)
        cache.access(4)
        cache.access(0)      # refresh 0; 4 is now LRU
        cache.access(8)      # evicts 4
        assert cache.access(0) == "l1"

    def test_l2_filter_serves_evicted_lines(self):
        shared = SharedL2Filter(capacity_lines=64)
        cache = SpeculativeCache(CacheConfig(sets=4, ways=2), shared)
        cache.access(0)
        cache.access(4)
        cache.access(8)      # evicts 0 from L1; 0 still in L2
        assert cache.access(0) == "l2"

    def test_invalidate(self):
        cache = SpeculativeCache(CacheConfig(sets=4, ways=2))
        cache.access(3)
        assert cache.invalidate(3) is True
        assert cache.coherence_invalidations == 1
        assert cache.access(3) != "l1"

    def test_invalidate_absent_line_is_noop(self):
        cache = SpeculativeCache(CacheConfig(sets=4, ways=2))
        assert cache.invalidate(77) is False
        assert cache.coherence_invalidations == 0

    def test_stats_keys(self):
        cache = SpeculativeCache(CacheConfig(sets=4, ways=2))
        cache.access(1)
        cache.access(1)
        stats = cache.stats()
        assert stats["l1_hits"] == 1
        assert stats["memory_accesses"] == 1


class _PlainL1:
    """The L1's LRU and counters, a miss served inside ``access``: the
    reference for :class:`SpeculativeCache`, whose ``access`` is a hit
    check plus :meth:`~SpeculativeCache.fill`."""

    def __init__(self, config, shared_l2):
        self.sets = [OrderedDict() for _ in range(config.sets)]
        self.shared_l2 = shared_l2
        self.ways = config.ways
        self.counts = dict.fromkeys(
            ("l1_hits", "l2_hits", "memory_accesses",
             "coherence_invalidations"), 0)

    def access(self, line):
        cache_set = self.sets[line % len(self.sets)]
        if line in cache_set:
            cache_set.move_to_end(line)
            self.counts["l1_hits"] += 1
            return "l1"
        level = "l2" if self.shared_l2.access(line) else "memory"
        cache_set[line] = None
        if len(cache_set) > self.ways:
            cache_set.popitem(last=False)
        self.counts["l2_hits" if level == "l2"
                    else "memory_accesses"] += 1
        return level

    def invalidate(self, line):
        cache_set = self.sets[line % len(self.sets)]
        if line in cache_set:
            del cache_set[line]
            self.counts["coherence_invalidations"] += 1
            return True
        return False


class TestFill:
    """The chunk interpreter checks for an L1 hit inline and calls
    ``fill`` on a miss: mixed with ``access`` and ``invalidate``, the
    L1 must behave as the plain one."""

    @pytest.mark.parametrize("seed", range(4))
    def test_fill_access_and_invalidate_match_a_plain_l1(self, seed):
        config = CacheConfig(sets=8, ways=2)
        cache = SpeculativeCache(config, SharedL2Filter(16))
        plain = _PlainL1(config, SharedL2Filter(16))
        rng = random.Random(seed)
        for _ in range(3000):
            line = rng.randrange(64)
            action = rng.random()
            if action < 0.2:
                assert cache.invalidate(line) == plain.invalidate(line)
            elif (action < 0.5
                  and line not in cache.sets[line & cache.set_mask]):
                assert cache.fill(line) == plain.access(line)
            else:
                assert cache.access(line) == plain.access(line)
            assert cache.stats() == plain.counts
        assert ([list(lines) for lines in cache.sets]
                == [list(lines) for lines in plain.sets])


class TestSharerTable:
    """One machine's L1s share a table from each line to the bitmask of
    the L1s holding it; every fill, eviction and invalidation keeps it
    equal to what their sets hold."""

    @staticmethod
    def implied(group):
        table = {}
        for cache in group:
            for cache_set in cache.sets:
                for line in cache_set:
                    table[line] = table.get(line, 0) | cache.sharer_bit
        return table

    def test_group_shares_one_table_with_one_bit_each(self):
        group = l1_group(3, CacheConfig(sets=2, ways=2))
        assert [cache.sharer_bit for cache in group] == [1, 2, 4]
        assert all(cache.sharers is group[0].sharers for cache in group)
        assert SpeculativeCache().sharer_bit == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_table_matches_the_sets_after_every_step(self, seed):
        group = l1_group(4, CacheConfig(sets=2, ways=2),
                         SharedL2Filter(8))
        rng = random.Random(f"sharers:{seed}")
        for _ in range(2000):
            cache = rng.choice(group)
            line = rng.randrange(12)
            action = rng.random()
            if action < 0.3:
                cache.invalidate(line)
            elif (action < 0.5
                  and line not in cache.sets[line & cache.set_mask]):
                cache.fill(line)
            else:
                cache.access(line)
            assert cache.sharers == self.implied(group)


class TestSharedL2:
    def test_capacity_bound(self):
        shared = SharedL2Filter(capacity_lines=2)
        shared.access(1)
        shared.access(2)
        shared.access(3)   # evicts 1
        assert not shared.access(1)

    def test_lru_refresh(self):
        shared = SharedL2Filter(capacity_lines=2)
        shared.access(1)
        shared.access(2)
        shared.access(1)
        shared.access(3)   # evicts 2, not 1
        assert shared.access(1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            SharedL2Filter(capacity_lines=0)


def footprint_of(config, lines):
    footprint = WriteFootprint(config)
    for line in lines:
        footprint.add(line)
    return footprint


class TestOverflowDetection:
    def test_no_overflow_below_capacity(self):
        config = CacheConfig(sets=4, ways=4)
        cache = SpeculativeCache(config)
        written = footprint_of(config, {0, 4, 8})  # 3 lines in set 0
        assert not cache.write_would_overflow(written, 12)

    def test_overflow_at_set_capacity(self):
        config = CacheConfig(sets=4, ways=4)
        cache = SpeculativeCache(config)
        written = footprint_of(config, {0, 4, 8, 12})  # set 0 full
        assert cache.write_would_overflow(written, 16)

    def test_rewriting_existing_line_never_overflows(self):
        config = CacheConfig(sets=4, ways=4)
        cache = SpeculativeCache(config)
        written = footprint_of(config, {0, 4, 8, 12})
        assert not cache.write_would_overflow(written, 4)

    def test_other_sets_unaffected(self):
        config = CacheConfig(sets=4, ways=4)
        cache = SpeculativeCache(config)
        written = footprint_of(config, {0, 4, 8, 12})  # all in set 0
        assert not cache.write_would_overflow(written, 1)  # set 1

    def test_overflow_is_deterministic_in_footprint(self):
        config = CacheConfig(sets=8, ways=4)
        cache = SpeculativeCache(config)
        written = footprint_of(config, {0, 8, 16})
        assert (cache.write_would_overflow(written, 24)
                == cache.write_would_overflow(written, 24))

    def test_footprint_counts_distinct_lines_per_set(self):
        config = CacheConfig(sets=4, ways=2)
        footprint = WriteFootprint(config)
        assert footprint.add(5)
        assert not footprint.add(5)  # a rewrite is not a new line
        assert footprint.add(9)
        assert footprint.lines == {5, 9}
        assert footprint.per_set == [0, 2, 0, 0]


def scan_would_overflow(config, written_lines, new_line):
    """The overflow check as a scan of the whole write set: the
    reference the per-set bookkeeping must agree with."""
    if new_line in written_lines:
        return False
    target_set = config.set_of(new_line)
    resident = sum(
        1 for line in written_lines
        if config.set_of(line) == target_set)
    return resident >= config.speculative_ways


class TestOverflowBookkeepingMatchesScan:
    """Seeded write streams through :meth:`Chunk.record_write`: the O(1)
    check must give the scan's verdict at every step."""

    @pytest.mark.parametrize("sets", [1, 4, 128])
    @pytest.mark.parametrize("ways", [2, 4, 8])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_verdict_at_every_step(self, sets, ways, seed):
        config = CacheConfig(sets=sets, ways=ways)
        cache = SpeculativeCache(config)
        rng = random.Random(f"overflow:{sets}:{ways}:{seed}")
        # Lines from a pool a few times the cache's capacity, so sets
        # fill up and overflow, plus far-away addresses.
        pool = sets * ways * 3

        def new_chunk():
            return Chunk(processor=0, logical_seq=1,
                         start_state=ThreadState(thread_id=0),
                         signature_config=SignatureConfig(),
                         write_footprint=WriteFootprint(config))

        chunk, written = new_chunk(), set()
        overflows = 0
        for step in range(1500):
            roll = rng.random()
            if written and roll < 0.3:
                line = rng.choice(sorted(written))  # rewrite, resident
            elif roll < 0.9:
                line = rng.randrange(pool)  # fresh or already written
            else:
                line = rng.randrange(1 << 40)
            expected = scan_would_overflow(config, written, line)
            assert cache.write_would_overflow(
                chunk.write_footprint, line) is expected, step
            if expected:
                overflows += 1
                if rng.random() < 0.5:
                    # Truncate: the next chunk starts with no footprint.
                    chunk, written = new_chunk(), set()
            elif rng.random() < 0.2:
                pass  # a LOCK that finds the lock held writes nothing
            else:
                chunk.record_write(line)
                written.add(line)
            assert chunk.write_lines == written
        tally = [0] * sets
        for line in written:
            tally[config.set_of(line)] += 1
        assert chunk.write_footprint.per_set == tally
        assert overflows > 0
