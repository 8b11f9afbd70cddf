"""Commit propagation, coherence invalidation, and traffic accounting.

When the arbiter lets a chunk commit, its write signature is forwarded
to the directory, which makes the commit visible to all processors
(Figure 4, messages 5/8): lines written by the chunk are invalidated in
the other processors' caches that share them, which the L1s' sharer
table (:func:`repro.chunks.cache.l1_group`) names.  The directory also meters network
traffic in bytes so the Section 6.3 traffic comparisons (OrderOnly vs.
RC, PicoLog vs. OrderOnly) can be regenerated.

Message-size model (bytes): a commit request carries the chunk's R+W
signatures plus a header; grants and acks are headers; commit
propagation carries the W signature to the directory plus one header
per invalidated sharer; data refills move whole cache lines.  The
absolute byte counts are coarse, but the *ratios* the paper reports
depend only on relative squash/signature frequencies, which the model
captures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chunks.cache import SpeculativeCache
from repro.chunks.chunk import Chunk


@dataclass
class TrafficMeter:
    """Byte counters by message category."""

    signature_bytes: int = 0
    control_bytes: int = 0
    invalidation_bytes: int = 0
    data_bytes: int = 0
    squash_refetch_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        """All categories combined."""
        return (self.signature_bytes + self.control_bytes
                + self.invalidation_bytes + self.data_bytes
                + self.squash_refetch_bytes)

    def as_dict(self) -> dict[str, int]:
        """Counters keyed by category plus the total."""
        return {
            "signature_bytes": self.signature_bytes,
            "control_bytes": self.control_bytes,
            "invalidation_bytes": self.invalidation_bytes,
            "data_bytes": self.data_bytes,
            "squash_refetch_bytes": self.squash_refetch_bytes,
            "total_bytes": self.total_bytes,
        }


_HEADER_BYTES = 8


@dataclass
class CommitDirectory:
    """The directory + network of the simulated CMP."""

    line_bytes: int = 32
    signature_bytes_each: int = 256  # 2 Kbit signature
    traffic: TrafficMeter = field(default_factory=TrafficMeter)

    def on_commit_request(self) -> None:
        """Processor -> arbiter: R+W signatures plus header."""
        self.traffic.signature_bytes += 2 * self.signature_bytes_each
        self.traffic.control_bytes += _HEADER_BYTES

    def on_grant(self) -> None:
        """Arbiter -> processor: grant header."""
        self.traffic.control_bytes += _HEADER_BYTES

    def propagate_commit(
        self,
        chunk: Chunk,
        caches: dict[int, SpeculativeCache],
    ) -> int:
        """Make a commit visible: W signature to the directory, then
        invalidate the written lines in every other cache that holds
        them.

        ``caches`` maps each processor id to its L1, one machine's
        group built by :func:`~repro.chunks.cache.l1_group`, so
        processor ``p``'s L1 owns bit ``1 << p`` of the shared sharer
        table.  Each written line is looked up once there; only the
        L1s whose bits it holds, other than the writer's, lose it, by
        an inline copy of :meth:`SpeculativeCache.invalidate`, so a
        wrapper on ``invalidate`` sees no call from here.  (A DMA
        chunk's processor owns no L1: every holder loses the line.)
        Returns the number of invalidations performed.
        """
        self.traffic.signature_bytes += self.signature_bytes_each
        sharers = next(iter(caches.values())).sharers
        others = ~(1 << chunk.processor)
        invalidations = 0
        for line in chunk.write_lines:
            if line not in sharers:
                continue
            holders = sharers[line]
            held = holders & others
            if not held:
                continue
            if holders == held:
                del sharers[line]
            else:
                sharers[line] = holders ^ held
            proc_id = 0
            while held:
                if held & 1:
                    cache = caches[proc_id]
                    del cache.sets[line & cache.set_mask][line]
                    cache.coherence_invalidations += 1
                    invalidations += 1
                held >>= 1
                proc_id += 1
        self.traffic.invalidation_bytes += invalidations * _HEADER_BYTES
        # Committed dirty lines eventually move to the shared cache.
        self.traffic.data_bytes += len(chunk.write_lines) * self.line_bytes
        return invalidations

    def on_squash(self, chunk: Chunk) -> None:
        """A squashed chunk refetches its footprint on re-execution."""
        lines = len(chunk.read_lines) + len(chunk.write_lines)
        self.traffic.squash_refetch_bytes += lines * self.line_bytes

    def on_data_refill(self, lines: int) -> None:
        """Demand misses moving whole lines."""
        self.traffic.data_bytes += lines * self.line_bytes
