"""Mine a recording for cross-writer contention.

The paper's introduction motivates deterministic replay with the
debugging loop: reproduce the failing interleaving, then find the
racing accesses.  The replayer solves the first half; this module is a
tool for the second.  It walks the recording's commit fingerprints
(which carry each chunk's write set) and reports every memory line
written by more than one agent -- two processors, or a processor and
the DMA engine -- together with the *closest* pair of cross-writer
commits, measured in commit-order distance.

Distance matters: a write pair one commit apart is the kind of tight
race whose outcome flips with timing (the diff example's divergences);
a pair thousands of commits apart is ordinary producer/consumer
sharing.  Sorting contended lines by their minimum cross-writer
distance puts the suspicious ones on top.

Only *write* sets are in the fingerprints, so the report covers
write-write contention.  Read-write races surface indirectly: the
racing read lives in a chunk that either squashed during recording
(visible in ``RunStats``) or consumed the contended line -- replay the
neighbourhood with :meth:`~repro.core.delorean.DeLoreanSystem.\
replay_interval` and watch the reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.report import format_table
from repro.chunks.chunk import write_pairs

if TYPE_CHECKING:  # break the recorder <-> analysis import cycle
    from repro.core.recorder import Recording

#: Writer label used for DMA bursts in :class:`ContendedLine`.
DMA_WRITER = "dma"


@dataclass(frozen=True)
class WriteEvent:
    """One write to a contended line, in global commit order."""

    commit_index: int
    writer: int | str  # processor id, or :data:`DMA_WRITER`
    value: int


@dataclass
class ContendedLine:
    """A memory line written by more than one agent."""

    address: int
    events: list[WriteEvent]
    min_distance: int
    closest_pair: tuple[WriteEvent, WriteEvent]

    @property
    def writers(self) -> tuple:
        """The distinct writers, in first-write order."""
        seen: list = []
        for event in self.events:
            if event.writer not in seen:
                seen.append(event.writer)
        return tuple(seen)

    @property
    def is_tight(self) -> bool:
        """Adjacent-commit cross-writer pair: timing-sensitive."""
        return self.min_distance == 1


@dataclass
class RaceReport:
    """Outcome of :func:`find_contended_lines`."""

    lines: list[ContendedLine] = field(default_factory=list)
    total_commits: int = 0
    total_lines_written: int = 0

    @property
    def tight(self) -> list[ContendedLine]:
        """The contended lines whose closest cross-writer pair is
        adjacent in commit order."""
        return [line for line in self.lines if line.is_tight]

    def summary(self, top: int = 10) -> str:
        """Human-readable table of the most suspicious lines."""
        if not self.lines:
            return (f"no cross-writer contention: "
                    f"{self.total_lines_written} lines written, each "
                    f"by a single agent")
        top = max(0, top)
        rows = []
        for line in self.lines[:top]:
            first, second = line.closest_pair
            writers = "/".join(
                w if isinstance(w, str) else f"cpu{w}"
                for w in line.writers)
            rows.append([
                f"{line.address:#x}",
                writers,
                len(line.events),
                line.min_distance,
                f"#{first.commit_index} vs #{second.commit_index}",
            ])
        table = format_table(
            ["address", "writers", "writes", "min distance",
             "closest pair"],
            rows,
            title=f"Cross-writer contention "
                  f"({len(self.lines)} lines, "
                  f"{len(self.tight)} with adjacent-commit pairs)")
        remaining = len(self.lines) - top
        if remaining > 0:
            table += f"\n... {remaining} more contended lines"
        return table


def _write_events(recording: Recording) -> dict[int, list[WriteEvent]]:
    """address -> its writes, in global commit order."""
    events: dict[int, list[WriteEvent]] = {}
    for index, fingerprint in enumerate(recording.fingerprints):
        writer = (DMA_WRITER if fingerprint[0] == "dma"
                  else fingerprint[0])
        for address, value in write_pairs(fingerprint):
            events.setdefault(address, []).append(
                WriteEvent(commit_index=index, writer=writer,
                           value=value))
    return events


def _closest_cross_pair(events: list[WriteEvent]) -> \
        tuple[int, tuple[WriteEvent, WriteEvent]] | None:
    """The minimum commit distance between writes by *different*
    writers, or None when a single agent owns the line.

    Events arrive in commit order, so for each event only the nearest
    earlier event of every other writer matters; tracking the last
    event per writer makes the scan linear.
    """
    best: tuple[int, tuple[WriteEvent, WriteEvent]] | None = None
    last_by_writer: dict = {}
    for event in events:
        for writer, earlier in last_by_writer.items():
            if writer == event.writer:
                continue
            distance = event.commit_index - earlier.commit_index
            if best is None or distance < best[0]:
                best = (distance, (earlier, event))
        last_by_writer[event.writer] = event
    return best


def find_contended_lines(recording: Recording,
                         include_dma: bool = True) -> RaceReport:
    """Every line written by more than one agent, tightest races first.

    ``include_dma=False`` restricts the report to processor-processor
    contention (DMA writes land at recorded addresses by construction,
    so they are often noise when hunting an application-level race).
    """
    events_by_address = _write_events(recording)
    lines = []
    for address, events in events_by_address.items():
        if not include_dma:
            events = [e for e in events if e.writer != DMA_WRITER]
        pair = _closest_cross_pair(events)
        if pair is None:
            continue
        distance, closest = pair
        lines.append(ContendedLine(
            address=address, events=events,
            min_distance=distance, closest_pair=closest))
    lines.sort(key=lambda line: (line.min_distance, line.address))
    return RaceReport(
        lines=lines,
        total_commits=len(recording.fingerprints),
        total_lines_written=len(events_by_address),
    )


@dataclass(frozen=True)
class ExplorationTarget:
    """A contended line recast as a schedule-exploration branch point.

    ``prefix`` is a grant-order prescription (processor IDs, the
    :class:`~repro.core.arbiter.SchedulePlan` ``prefix`` wire format)
    that replays the recorded commit order up to the closest
    cross-writer pair and then *reverses* it: the later writer's
    commits are granted before the earlier writer's -- the classic
    DPOR backtrack point, derived here from a recording instead of a
    live execution.  ``window`` is the matching
    :func:`replay_window_for` interval for debugging the neighbourhood.
    """

    address: int
    first_commit: int
    second_commit: int
    writers: tuple[int, int]
    prefix: tuple[int, ...]
    window: tuple[int, int]


def exploration_targets(recording: Recording,
                        limit: int = 16) -> list[ExplorationTarget]:
    """Initial DPOR branch points mined from a recording.

    Takes the tightest cross-writer pairs from
    :func:`find_contended_lines` and, for each, builds the grant-order
    prefix that forces the *second* writer's chunks to commit before
    the *first* writer's racing chunk.  DMA pairs are skipped: DMA
    bursts bypass the ordering policy (they own their commit slot), so
    no prefix can reorder them.

    The explorer (:mod:`repro.explore`) seeds its frontier with these,
    so the very first perturbed schedules attack the recording's
    observed races instead of permuting blindly.
    """
    grant_order = [fp[0] for fp in recording.fingerprints]
    targets: list[ExplorationTarget] = []
    for line in find_contended_lines(recording, include_dma=False).lines:
        if len(targets) >= max(0, limit):
            break
        first, second = line.closest_pair
        if DMA_WRITER in (first.writer, second.writer):
            continue
        i, j = first.commit_index, second.commit_index
        flipped = grant_order[:i] + [
            second.writer for k in range(i, j + 1)
            if grant_order[k] == second.writer]
        targets.append(ExplorationTarget(
            address=line.address,
            first_commit=i,
            second_commit=j,
            writers=(first.writer, second.writer),
            prefix=tuple(flipped),
            window=replay_window_for(line),
        ))
    return targets


def replay_window_for(line: ContendedLine,
                      margin: int = 4) -> tuple[int, int]:
    """The ``(at_commit, length)`` interval-replay window bracketing a
    contended line's closest cross-writer pair.

    Feed the result to :meth:`~repro.core.delorean.DeLoreanSystem.\
    replay_interval`: ``replay_interval(recording, at_commit=start,
    length=length)`` re-executes the neighbourhood of the race.
    """
    first, second = line.closest_pair
    start = max(0, first.commit_index - margin)
    end = second.commit_index + margin
    return start, end - start + 1
