"""Hardware-style address signatures.

BulkSC encodes the addresses read and written by a chunk into fixed-
size Read (R) and Write (W) signatures (Appendix A; 2 Kbit in Table 5).
Signatures are lossy: intersection may report *false positives* -- two
chunks flagged as conflicting although their exact address sets are
disjoint -- causing spurious squashes exactly as in the real hardware.
False *negatives* are impossible, a property the test suite checks.

Implementation note (documented deviation, see DESIGN.md): a literal
2 Kbit flat Bloom filter over *uniformly random* line addresses -- which
is what synthetic workloads produce -- saturates and reports a conflict
for nearly every chunk pair, while Bulk's real signatures exploit the
structured locality of real address streams to keep false positives
rare.  To reproduce the published *behaviour* (rare alias squashes)
rather than the literal bit count, we model the signature as a sparse
set of hashed keys drawn from a configurable hash space
(``size_bits``, default 2^21): inserting a line stores ``num_hashes``
deterministic keys, and two signatures "intersect" when they share any
key.  This is exactly a Bloom filter stored sparsely; aliasing is
deterministic (replay-stable for identical address sets) and its rate
is ``|W|x|R| x num_hashes^2 / size_bits`` per chunk pair -- calibrated
to the low squash overhead BulkSC reports.  The hardware cost modeled
for traffic purposes remains the 2 Kbit wire format of Table 5
(:mod:`repro.chunks.directory`).
"""

from __future__ import annotations

import threading
from collections.abc import Collection
from dataclasses import dataclass

from repro.errors import ConfigurationError

# 64-bit Knuth multiplicative constants, one per supported hash.
_MULTIPLIERS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
)
_MASK64 = (1 << 64) - 1


def _hash(line_address: int, index: int) -> int:
    """The ``index``-th hash of a line address (before masking to the
    signature's hash space)."""
    mixed = ((line_address + index + 1) * _MULTIPLIERS[index]) & _MASK64
    return mixed ^ (mixed >> 29)


#: Lines each key memo holds at most.  A key is a pure function of the
#: line, the hash index and the hash-space size, and a record-replay
#: benchmark pass inserts ~116k lines of which ~5k are distinct, so
#: :meth:`Signature.insert_all` reads keys from one memo per (hash
#: index, hash-space size) instead of hashing each line again.  The
#: bound holds that pass's lines with room to spare and keeps a memo
#: under about 1 MB.
_KEY_MEMO_LINES = 1 << 13
_KEY_MEMOS: dict[tuple[int, int], dict[int, int]] = {}
# Serve runs jobs on threads: memo reads need no lock (a stale or
# cleared memo only sends a call to the miss path, and every stored
# key is right), but a miss's bound check and its stores hold this.
_KEY_MEMO_LOCK = threading.Lock()


@dataclass(frozen=True)
class SignatureConfig:
    """Geometry of a signature: hash-space size and hash count.

    ``size_bits`` is the Bloom hash space (the modeled filter width);
    smaller values raise the alias/false-positive rate.  The default
    2^21 calibrates alias-squash rates to the low overhead published
    for BulkSC; pass 2048 to study a literal flat 2 Kbit filter.
    """

    size_bits: int = 1 << 21
    num_hashes: int = 1

    def __post_init__(self) -> None:
        if self.size_bits <= 0 or self.size_bits & (self.size_bits - 1):
            raise ConfigurationError(
                f"signature size must be a positive power of two, got "
                f"{self.size_bits}")
        if not 1 <= self.num_hashes <= len(_MULTIPLIERS):
            raise ConfigurationError(
                f"num_hashes must be in [1, {len(_MULTIPLIERS)}], got "
                f"{self.num_hashes}")


class Signature:
    """A Bloom filter over cache-line addresses, stored sparsely."""

    __slots__ = ("config", "keys", "_count")

    def __init__(self, config: SignatureConfig | None = None) -> None:
        self.config = config or SignatureConfig()
        #: The hashed keys.  Conflict tests on the commit path read it
        #: directly (``isdisjoint``); only this class's methods change it.
        self.keys: set[int] = set()
        self._count = 0  # lines inserted, for occupancy diagnostics

    def insert(self, line_address: int) -> None:
        """Add a cache-line address to the signature."""
        mask = self.config.size_bits - 1
        keys = self.keys
        for index in range(self.config.num_hashes):
            keys.add(_hash(line_address, index) & mask)
        self._count += 1

    def insert_all(self, lines: Collection[int]) -> None:
        """Add every cache-line address in ``lines``: the same keys and
        count as one :meth:`insert` per element, in one call.

        Each hash's keys come from its memo (see ``_KEY_MEMO_LINES``)
        when it holds every line; otherwise every line is hashed and
        stored, after emptying the memo if the lines would take it
        past its bound (a call with more lines than the bound stores
        none).
        """
        size = self.config.size_bits
        mask = size - 1
        keys = self.keys
        for index in range(self.config.num_hashes):
            memo = _KEY_MEMOS.get((index, size))
            if memo is None:
                memo = _KEY_MEMOS.setdefault((index, size), {})
            try:
                keys.update(map(memo.__getitem__, lines))
                continue
            except KeyError:
                pass
            offset = index + 1
            multiplier = _MULTIPLIERS[index]
            with _KEY_MEMO_LOCK:
                if len(memo) + len(lines) > _KEY_MEMO_LINES:
                    memo.clear()
                    if len(lines) > _KEY_MEMO_LINES:
                        memo = {}
                for line in lines:
                    mixed = ((line + offset) * multiplier) & _MASK64
                    key = memo[line] = (mixed ^ (mixed >> 29)) & mask
                    keys.add(key)
        self._count += len(lines)

    def may_contain(self, line_address: int) -> bool:
        """Membership test; may report false positives, never false
        negatives."""
        mask = self.config.size_bits - 1
        for index in range(self.config.num_hashes):
            if (_hash(line_address, index) & mask) not in self.keys:
                return False
        return True

    def intersects(self, other: "Signature") -> bool:
        """The arbiter's conflict test: do the filters share a set bit?

        ``False`` proves the underlying address sets are disjoint;
        ``True`` means *possible* overlap.  The commit path (squash
        tests, arbitration overlap, stratification) makes the same test
        inline, as ``isdisjoint`` on :attr:`keys`, which walks the
        smaller set.
        """
        return not self.keys.isdisjoint(other.keys)

    def union_update(self, other: "Signature") -> None:
        """OR another signature into this one (Stratifier SR update)."""
        self.keys |= other.keys
        self._count += other._count

    def clear(self) -> None:
        """Reset to the empty signature."""
        self.keys.clear()
        self._count = 0

    def is_empty(self) -> bool:
        """True when no address has been inserted."""
        return not self.keys

    def copy(self) -> "Signature":
        """An independent copy with identical contents."""
        duplicate = Signature(self.config)
        duplicate.keys = set(self.keys)
        duplicate._count = self._count
        return duplicate

    @property
    def population(self) -> int:
        """Number of set bits (occupancy diagnostic)."""
        return len(self.keys)

    @property
    def inserted_lines(self) -> int:
        """Number of insert operations performed."""
        return self._count

    def __repr__(self) -> str:
        return (f"Signature(space={self.config.size_bits}, "
                f"population={self.population})")
