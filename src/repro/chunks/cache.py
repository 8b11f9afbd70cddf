"""Set-associative L1 model with speculative-overflow detection.

Two jobs live here.  First, a timing classifier: every memory access is
looked up in a private LRU L1 and a shared L2 line filter, yielding the
level ("l1" / "l2" / "memory") whose latency the timing model charges.
Second -- the part DeLorean actually depends on -- detection of
*attempted overflow of speculatively updated lines*: a chunk that writes
more distinct lines mapping to one cache set than the cache has ways
must be truncated and committed early (Section 4.2.3).  This is the
dominant source of non-deterministic chunk truncation and therefore of
CS-log entries.

Modeling note (documented in DESIGN.md): we check a chunk's *own*
write-line footprint against the set's full associativity rather than
modeling cross-chunk interference inside the set.  This keeps the
overflow point a deterministic function of the chunk's address stream;
the genuinely non-deterministic component of the real hardware
(wrong-path speculative loads, multi-chunk interference) is modeled by
a separate stochastic early-truncation source in the machine, seeded
differently for record and replay so the CS-log machinery is exercised
both ways.

Like the hardware, which notices the overflow at the cache set itself,
the footprint keeps a running count of speculative lines per set
(:class:`WriteFootprint`), so the check is one lookup per store rather
than a scan of everything the chunk has written.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of the private L1 (Table 5: 32KB / 4-way / 32B lines)."""

    sets: int = 128
    ways: int = 4

    def __post_init__(self) -> None:
        if self.sets <= 0 or self.sets & (self.sets - 1):
            raise ConfigurationError(
                f"cache sets must be a positive power of two, got "
                f"{self.sets}")
        if self.ways < 2:
            raise ConfigurationError(
                "a speculative cache needs at least 2 ways")

    def set_of(self, line: int) -> int:
        """Set index a line maps to."""
        return line & (self.sets - 1)

    @property
    def speculative_ways(self) -> int:
        """Distinct lines one chunk may speculatively write into a set
        before an overflow attempt is declared.

        The full associativity is usable: committed lines can always be
        written back to make room, so only a chunk whose *own* write
        footprint exceeds the set capacity must stop (the rare event of
        Section 4.2.3).
        """
        return self.ways


class WriteFootprint:
    """The distinct lines one chunk has speculatively written, with a
    running count of them per cache set.

    :meth:`add` and the chunk interpreter's inline copy of it are the
    only places ``lines`` grows, and each counts the new line in its
    set in the same step, so ``per_set[s]`` always equals the number of
    ``lines`` mapping to set ``s``.
    """

    __slots__ = ("lines", "per_set", "_set_mask")

    def __init__(self, config: CacheConfig | None = None) -> None:
        config = config or CacheConfig()
        self.lines: set[int] = set()
        self.per_set = [0] * config.sets
        self._set_mask = config.sets - 1

    def add(self, line: int) -> bool:
        """Add a written line; True when the footprint did not hold it."""
        if line in self.lines:
            return False
        self.lines.add(line)
        self.per_set[line & self._set_mask] += 1
        return True


class SharedL2Filter:
    """A bounded LRU set of lines standing in for the shared 8MB L2.

    Only used for timing classification (L2 hit vs. memory); it holds no
    data.  Shared by all processors of one machine.
    """

    def __init__(self, capacity_lines: int = 65536) -> None:
        if capacity_lines < 1:
            raise ConfigurationError("L2 capacity must be positive")
        self.capacity = capacity_lines
        self._lines: OrderedDict[int, None] = OrderedDict()

    def access(self, line: int) -> bool:
        """Touch ``line``; returns True on hit."""
        hit = line in self._lines
        if hit:
            self._lines.move_to_end(line)
        else:
            self._lines[line] = None
            if len(self._lines) > self.capacity:
                self._lines.popitem(last=False)
        return hit

    def __len__(self) -> int:
        return len(self._lines)


class SpeculativeCache:
    """Private L1: LRU timing state plus speculative write tracking."""

    def __init__(
        self,
        config: CacheConfig | None = None,
        shared_l2: SharedL2Filter | None = None,
    ) -> None:
        self.config = config or CacheConfig()
        self.shared_l2 = shared_l2
        # Each set's lines, least recently used first.
        self.sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.config.sets)]
        # Geometry read on every access, derived once (the same mapping
        # as CacheConfig.set_of).
        self.set_mask = self.config.sets - 1
        self._ways = self.config.ways
        self._speculative_ways = self.config.speculative_ways
        self.hits = 0
        self.l2_hits = 0
        self.memory_accesses = 0
        self.coherence_invalidations = 0

    def access(self, line: int) -> str:
        """Classify an access and update LRU state.

        Returns the serving level: ``"l1"``, ``"l2"`` or ``"memory"``.
        The chunk interpreter inlines the L1 hit check and calls
        :meth:`fill` on a miss.
        """
        cache_set = self.sets[line & self.set_mask]
        if line in cache_set:
            cache_set.move_to_end(line)
            self.hits += 1
            return "l1"
        return self.fill(line)

    def fill(self, line: int) -> str:
        """Serve an L1 miss on ``line``, which must not be resident:
        consult (and fill) the shared L2 filter, then fill the L1,
        evicting its set's least recently used line when full.

        Returns the serving level: ``"l2"`` or ``"memory"``.
        """
        level = "memory"
        if self.shared_l2 is not None and self.shared_l2.access(line):
            level = "l2"
        cache_set = self.sets[line & self.set_mask]
        cache_set[line] = None
        if len(cache_set) > self._ways:
            cache_set.popitem(last=False)
        if level == "l2":
            self.l2_hits += 1
        else:
            self.memory_accesses += 1
        return level

    def invalidate(self, line: int) -> bool:
        """Coherence invalidation caused by a remote chunk commit.

        Returns True when the line was resident and has been removed.
        ``CommitDirectory.propagate_commit`` inlines the same step for
        every written line of a commit.
        """
        cache_set = self.sets[line & self.set_mask]
        if line in cache_set:
            del cache_set[line]
            self.coherence_invalidations += 1
            return True
        return False

    def write_would_overflow(
        self,
        footprint: WriteFootprint,
        new_line: int,
    ) -> bool:
        """Would adding ``new_line`` to a chunk's speculative write
        footprint (built for this cache's geometry) overflow its set?

        True when the chunk already holds ``speculative_ways`` distinct
        written lines in the target set and ``new_line`` is not one of
        them -- the condition under which execution must stop and the
        chunk be truncated (Section 4.2.3).  The chunk interpreter
        inlines the same test.
        """
        if new_line in footprint.lines:
            return False
        return (footprint.per_set[new_line & self.set_mask]
                >= self._speculative_ways)

    def stats(self) -> dict[str, int]:
        """Counter snapshot for the analysis layer."""
        return {
            "l1_hits": self.hits,
            "l2_hits": self.l2_hits,
            "memory_accesses": self.memory_accesses,
            "coherence_invalidations": self.coherence_invalidations,
        }
