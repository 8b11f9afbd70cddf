"""Tests for the Bloom-filter address signatures.

The load-bearing property is *no false negatives*: if two signatures
report disjoint, the underlying address sets truly are disjoint -- a
missed conflict would silently break chunk atomicity.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.chunks import signature
from repro.chunks.signature import Signature, SignatureConfig
from repro.errors import ConfigurationError


class TestSignatureBasics:
    def test_empty_signature(self):
        sig = Signature()
        assert sig.is_empty()
        assert sig.population == 0
        assert sig.inserted_lines == 0

    def test_insert_and_membership(self):
        sig = Signature()
        sig.insert(0x1234)
        assert sig.may_contain(0x1234)
        assert not sig.is_empty()
        assert sig.inserted_lines == 1

    def test_clear(self):
        sig = Signature()
        sig.insert(1)
        sig.insert(2)
        sig.clear()
        assert sig.is_empty()
        assert sig.population == 0

    def test_copy_is_independent(self):
        sig = Signature()
        sig.insert(10)
        dup = sig.copy()
        dup.insert(20)
        assert dup.may_contain(20)
        assert sig.population < dup.population

    def test_union_update(self):
        a, b = Signature(), Signature()
        a.insert(1)
        b.insert(2)
        a.union_update(b)
        assert a.may_contain(1)
        assert a.may_contain(2)

    def test_self_intersection(self):
        sig = Signature()
        sig.insert(99)
        assert sig.intersects(sig)

    def test_empty_never_intersects(self):
        a, b = Signature(), Signature()
        b.insert(5)
        assert not a.intersects(b)
        assert not b.intersects(a)

    def test_repr_mentions_population(self):
        sig = Signature()
        sig.insert(1)
        assert "population" in repr(sig)


class TestSignatureConfig:
    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            SignatureConfig(size_bits=1000)

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigurationError):
            SignatureConfig(size_bits=0)

    def test_too_many_hashes_rejected(self):
        with pytest.raises(ConfigurationError):
            SignatureConfig(num_hashes=9)

    def test_multi_hash_membership(self):
        config = SignatureConfig(size_bits=4096, num_hashes=3)
        sig = Signature(config)
        sig.insert(7)
        assert sig.may_contain(7)


@given(st.sets(st.integers(min_value=0, max_value=1 << 40), max_size=60),
       st.sets(st.integers(min_value=0, max_value=1 << 40), max_size=60))
def test_no_false_negative_intersection(lines_a, lines_b):
    """If the address sets overlap, the signatures must intersect."""
    a, b = Signature(), Signature()
    for line in lines_a:
        a.insert(line)
    for line in lines_b:
        b.insert(line)
    if lines_a & lines_b:
        assert a.intersects(b)
        assert b.intersects(a)


@given(st.sets(st.integers(min_value=0, max_value=1 << 40), max_size=60))
def test_no_false_negative_membership(lines):
    """Every inserted line tests as possibly-present."""
    sig = Signature()
    for line in lines:
        sig.insert(line)
    for line in lines:
        assert sig.may_contain(line)


def test_false_positives_exist_when_space_is_tiny():
    """Aliasing is real: a tiny hash space must collide eventually."""
    config = SignatureConfig(size_bits=16, num_hashes=1)
    a = Signature(config)
    for line in range(40):
        a.insert(line)
    b = Signature(config)
    b.insert(123456789)
    assert a.intersects(b)  # pigeonhole: 40 keys in 16 slots


def test_default_space_keeps_aliasing_rare():
    """With the default hash space, two modest disjoint sets should
    rarely alias (this specific pair must not)."""
    a, b = Signature(), Signature()
    for line in range(0, 50):
        a.insert(line)
    for line in range(1000, 1050):
        b.insert(line)
    assert not a.intersects(b)


@pytest.mark.parametrize("num_hashes", [1, 2, 3, 4])
def test_insert_all_equals_one_insert_per_line(num_hashes):
    """The bulk insert that builds a chunk's signatures leaves the same
    keys and count as one insert per line (a small hash space makes
    keys collide; a repeated line counts twice in both)."""
    config = SignatureConfig(size_bits=1 << 10, num_hashes=num_hashes)
    rng = random.Random(num_hashes)
    lines = [rng.randrange(1 << 40) for _ in range(300)] + [7, 7]
    one_by_one, bulk = Signature(config), Signature(config)
    for line in lines:
        one_by_one.insert(line)
    bulk.insert_all(lines)
    assert bulk.keys == one_by_one.keys
    assert bulk.inserted_lines == one_by_one.inserted_lines == len(lines)


class TestKeyMemo:
    """``insert_all`` reads keys from one bounded memo per (hash index,
    hash-space size); the keys must be those ``insert`` hashes."""

    @pytest.fixture
    def small_bound(self, monkeypatch):
        monkeypatch.setattr(signature, "_KEY_MEMOS", {})
        monkeypatch.setattr(signature, "_KEY_MEMO_LINES", 64)
        return 64

    @pytest.mark.parametrize("size_bits", [1 << 6, 1 << 10, 1 << 21])
    @pytest.mark.parametrize("num_hashes", [1, 2, 3, 4])
    def test_memoized_keys_equal_insert_keys(self, small_bound, size_bits,
                                             num_hashes):
        config = SignatureConfig(size_bits=size_bits, num_hashes=num_hashes)
        rng = random.Random(f"memo:{size_bits}:{num_hashes}")
        pool = [rng.randrange(1 << 30) for _ in range(90)]
        for _ in range(60):
            # Sets drawn from a pool above the bound: calls hit the
            # memo, miss it, and empty it.
            lines = set(rng.sample(pool, rng.randrange(1, 40)))
            one_by_one, bulk = Signature(config), Signature(config)
            for line in lines:
                one_by_one.insert(line)
            bulk.insert_all(lines)
            assert bulk.keys == one_by_one.keys
            assert bulk.inserted_lines == len(lines)
            assert set(signature._KEY_MEMOS) == {
                (index, size_bits) for index in range(num_hashes)}
            for memo in signature._KEY_MEMOS.values():
                assert 0 < len(memo) <= small_bound

    def test_a_call_above_the_bound_stores_nothing(self, small_bound):
        config = SignatureConfig(size_bits=1 << 12)
        lines = set(range(1000, 1000 + small_bound + 1))
        bulk, one_by_one = Signature(config), Signature(config)
        bulk.insert_all(lines)
        for line in lines:
            one_by_one.insert(line)
        assert bulk.keys == one_by_one.keys
        assert all(not memo for memo in signature._KEY_MEMOS.values())

    def test_threads_sharing_the_memo_get_insert_keys(self, small_bound):
        config = SignatureConfig(size_bits=1 << 12, num_hashes=2)
        failures = []

        def worker(seed):
            rng = random.Random(f"memo-thread:{seed}")
            for _ in range(300):
                lines = {rng.randrange(200) for _ in range(20)}
                bulk, one_by_one = Signature(config), Signature(config)
                bulk.insert_all(lines)
                for line in lines:
                    one_by_one.insert(line)
                if bulk.keys != one_by_one.keys:
                    failures.append(seed)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert all(len(memo) <= small_bound
                   for memo in signature._KEY_MEMOS.values())
