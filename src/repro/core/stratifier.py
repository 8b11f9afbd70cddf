"""PI-log stratification (Section 4.3).

Rather than dumping one procID per committed chunk, the Stratifier
groups consecutive conflict-free chunk commits into *chunk strata*: each
stratum is a vector of per-processor counters saying how many chunks
each processor committed since the previous stratum.  Chunks inside a
stratum have no cross-processor conflicts, so replay may commit them in
any order (same-processor chunks serialize by construction) -- which is
why the exact sequence need not be stored.

A new stratum is created when the chunk to log next (i) conflicts with
chunks committed by *other* processors since the last stratum, or
(ii) would overflow its processor's counter.  The hardware design keeps
one Signature Register (SR) per processor holding the OR of that
processor's chunk signatures since the last stratum; we keep separate
read- and write-side SRs so the conflict test is the usual
``W ∩ (R ∪ W)`` dependence test.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chunks.signature import Signature, SignatureConfig
from repro.compression.bitstream import BitReader, BitWriter
from repro.compression.lz77 import compressed_size_bits
from repro.errors import ConfigurationError, LogFormatError


@dataclass(frozen=True)
class Stratum:
    """One stratified PI-log entry: chunks committed per processor."""

    counts: tuple[int, ...]

    @property
    def total_chunks(self) -> int:
        """Chunks summarized by this stratum."""
        return sum(self.counts)


class Stratifier:
    """The Stratifier Module of Figure 5(b).

    Observes the committed chunk stream ``(procID, R-sig, W-sig)`` and
    produces the stratified PI log.  ``chunks_per_stratum`` is the
    counter saturation value (1, 3 or 7 in Figure 9).
    """

    def __init__(
        self,
        num_slots: int,
        chunks_per_stratum: int,
        signature_config: SignatureConfig | None = None,
    ) -> None:
        if num_slots < 1:
            raise ConfigurationError("need at least one processor slot")
        if chunks_per_stratum < 1:
            raise ConfigurationError("chunks_per_stratum must be >= 1")
        self.num_slots = num_slots
        self.chunks_per_stratum = chunks_per_stratum
        self._signature_config = signature_config or SignatureConfig()
        self._counts = [0] * num_slots
        self._read_srs = [Signature(self._signature_config)
                          for _ in range(num_slots)]
        self._write_srs = [Signature(self._signature_config)
                           for _ in range(num_slots)]
        self.strata: list[Stratum] = []

    @property
    def counter_bits(self) -> int:
        """Bits per counter in a stratum vector (saturation + 1 values).

        1 chunk/stratum needs 1 bit, 3 need 2 bits, 7 need 3 bits --
        the configurations of Figure 9.
        """
        return self.chunks_per_stratum.bit_length()

    @property
    def stratum_bits(self) -> int:
        """Bits per stratum: one counter per processor slot."""
        return self.num_slots * self.counter_bits

    def _conflicts_with_others(
        self,
        proc: int,
        read_sig: Signature,
        write_sig: Signature,
    ) -> bool:
        """Dependence test against every other processor's SRs: the
        ``Signature.intersects`` tests, made on the bound key sets."""
        written = write_sig.keys
        read = read_sig.keys
        read_srs = self._read_srs
        write_srs = self._write_srs
        for other in range(self.num_slots):
            if other == proc:
                continue
            other_written = write_srs[other].keys
            if not (written.isdisjoint(read_srs[other].keys)
                    and written.isdisjoint(other_written)
                    and read.isdisjoint(other_written)):
                return True
        return False

    def _emit_stratum(self) -> None:
        self.strata.append(Stratum(tuple(self._counts)))
        for slot in range(self.num_slots):
            self._counts[slot] = 0
            self._read_srs[slot].clear()
            self._write_srs[slot].clear()

    def observe(
        self,
        proc: int,
        read_sig: Signature,
        write_sig: Signature,
    ) -> None:
        """Process one committed chunk in commit order."""
        if not 0 <= proc < self.num_slots:
            raise ConfigurationError(
                f"procID {proc} outside [0, {self.num_slots})")
        saturated = self._counts[proc] >= self.chunks_per_stratum
        conflicting = self._conflicts_with_others(proc, read_sig, write_sig)
        if saturated or conflicting:
            self._emit_stratum()
        self._read_srs[proc].union_update(read_sig)
        self._write_srs[proc].union_update(write_sig)
        self._counts[proc] += 1

    def finish(self) -> None:
        """Flush the partially-built final stratum."""
        if any(self._counts):
            self._emit_stratum()

    @property
    def total_chunks(self) -> int:
        """Chunks observed so far (flushed strata plus pending)."""
        return (sum(s.total_chunks for s in self.strata)
                + sum(self._counts))

    # -- serialization -------------------------------------------------

    def encode(self) -> tuple[bytes, int]:
        """Pack the stratified PI log: one counter vector per stratum."""
        writer = BitWriter()
        bits = self.counter_bits
        for stratum in self.strata:
            for count in stratum.counts:
                writer.write(count, bits)
        return writer.to_bytes(), writer.bit_length

    def decode_strata(self, payload: bytes, bit_length: int) -> \
            list[Stratum]:
        """Invert :meth:`encode` (needs this stratifier's geometry)."""
        reader = BitReader(payload, bit_length)
        strata = []
        while reader.bits_remaining >= self.stratum_bits:
            counts = tuple(reader.read(self.counter_bits)
                           for _ in range(self.num_slots))
            strata.append(Stratum(counts))
        return strata

    @property
    def size_bits(self) -> int:
        """Uncompressed stratified PI log size in bits."""
        return len(self.strata) * self.stratum_bits

    def compressed_size_bits(self) -> int:
        """Stratified PI log size after LZ77 compression."""
        payload, bits = self.encode()
        return compressed_size_bits(payload, raw_bits=bits)

    def validate_against_commits(self, commit_procs: list[int]) -> None:
        """Check the strata exactly cover a commit sequence (test aid).

        Raises :class:`LogFormatError` when counts do not reconstruct
        the per-processor commit totals, stratum by stratum.
        """
        cursor = 0
        for index, stratum in enumerate(self.strata):
            window = commit_procs[cursor:cursor + stratum.total_chunks]
            for proc in range(self.num_slots):
                observed = sum(1 for p in window if p == proc)
                if observed != stratum.counts[proc]:
                    raise LogFormatError(
                        f"stratum {index} claims {stratum.counts[proc]} "
                        f"chunks for processor {proc}, commit sequence "
                        f"has {observed}")
            cursor += stratum.total_chunks
        if cursor != len(commit_procs):
            raise LogFormatError(
                f"strata cover {cursor} commits, sequence has "
                f"{len(commit_procs)}")
