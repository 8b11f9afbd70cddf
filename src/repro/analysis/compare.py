"""Comparing two recordings: where did executions diverge?

A standard debugging move with a replayer at hand: record the failing
run and a passing run of the same program, then look for the first
point where their interleavings or their architectural effects differ.
These helpers do that comparison on the verification fingerprints two
recordings carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # avoid a circular import (recorder uses analysis)
    from repro.core.recorder import Recording


@dataclass
class RecordingDiff:
    """Structured outcome of comparing two recordings."""

    identical: bool
    first_divergence: int | None = None
    divergence_kind: str = ""
    detail: str = ""
    memory_differences: list[tuple[int, int, int]] = field(
        default_factory=list)
    commit_counts: tuple[int, int] = (0, 0)

    def summary(self) -> str:
        """One-paragraph human-readable verdict."""
        if self.identical:
            return (f"identical executions: {self.commit_counts[0]} "
                    f"commits, same interleaving, same final memory")
        lines = [f"executions diverge at commit "
                 f"#{self.first_divergence}" if self.first_divergence
                 is not None else "executions diverge"]
        lines.append(f"  kind: {self.divergence_kind}")
        if self.detail:
            lines.append(f"  {self.detail}")
        if self.memory_differences:
            shown = ", ".join(
                f"@{address:#x}: {left} vs {right}"
                for address, left, right in
                self.memory_differences[:4])
            lines.append(f"  final-memory differences "
                         f"({len(self.memory_differences)}): {shown}")
        return "\n".join(lines)


#: How a diff names its two recordings where their writes differ (see
#: :func:`repro.telemetry.forensics.first_write_difference`).
_SIDES = (("left", "written by left"), ("right", "written by right"))


def _describe(fingerprint) -> str:
    if fingerprint[0] == "dma":
        return f"DMA burst #{fingerprint[1]}"
    proc, seq, _piece, is_handler, instructions, _w, _e = fingerprint
    kind = "handler" if is_handler else "chunk"
    return f"cpu{proc} {kind} seq={seq} ({instructions} instructions)"


def diff_recordings(left: "Recording", right: "Recording") -> RecordingDiff:
    """Compare two recordings of (nominally) the same program.

    The comparison walks the global commit sequences
    (:func:`~repro.core.replayer.first_divergence`, ordered) and reports
    the first position where the committing processor, the chunk
    contents, or (failing those) the final memory differ.  Where a
    chunk's or a DMA burst's contents differ, it names the first write
    that differs.
    """
    # Imported here: repro.core imports this package.
    from repro.core.replayer import first_divergence
    from repro.telemetry.forensics import first_write_difference

    if left.machine_config.num_processors != \
            right.machine_config.num_processors:
        raise ConfigurationError(
            "recordings come from differently-sized machines")
    counts = (len(left.fingerprints), len(right.fingerprints))
    memory = _memory_diff(left, right)
    index = first_divergence(left.fingerprints, right.fingerprints)
    if index is None:
        if not memory:
            return RecordingDiff(identical=True, commit_counts=counts)
        kind = "memory"
        detail = "same commit sequence but different final memory"
    elif index == min(counts):
        kind = "length"
        detail = (f"common prefix of {index} commits; lengths "
                  f"{counts[0]} vs {counts[1]}")
    else:
        a, b = left.fingerprints[index], right.fingerprints[index]
        if a[0] != b[0] or (a[0] != "dma" and a[1] != b[1]):
            kind = "interleaving"
            detail = (f"left committed {_describe(a)}; right "
                      f"committed {_describe(b)}")
        elif a[0] != "dma" and a[4] != b[4]:
            kind = "chunk-size"
            detail = (f"{_describe(a)} vs {_describe(b)}: same "
                      f"committer, different instruction counts")
        else:
            kind = "chunk-contents"
            detail = (f"{_describe(a)}: first differing write "
                      f"{first_write_difference(a, b, _SIDES)}")
    return RecordingDiff(
        identical=False,
        first_divergence=index,
        divergence_kind=kind,
        detail=detail,
        memory_differences=memory,
        commit_counts=counts,
    )


def _memory_diff(left: "Recording",
                 right: "Recording") -> list[tuple[int, int, int]]:
    differences = []
    addresses = set(left.final_memory) | set(right.final_memory)
    for address in sorted(addresses):
        a = left.final_memory.get(address, 0)
        b = right.final_memory.get(address, 0)
        if a != b:
            differences.append((address, a, b))
    return differences


def interleaving_prefix_length(left: "Recording",
                               right: "Recording") -> int:
    """Length of the common committing-processor prefix (ignoring
    chunk contents) -- a coarse similarity measure between runs."""
    from repro.core.replayer import first_divergence

    left_order = [fingerprint[0] for fingerprint in left.fingerprints]
    right_order = [fingerprint[0] for fingerprint in right.fingerprints]
    index = first_divergence(left_order, right_order)
    return len(left_order) if index is None else index
