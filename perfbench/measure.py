"""Percentiles, closed-loop operation accounting and host-speed probes.

Pure helpers with no dependency on ``repro``, so the benchmark's own
tests can check them in isolation.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time
from collections import OrderedDict

#: A tail percentile is only reported when at least this many samples
#: lie beyond it.
MIN_BEYOND = 10

#: Seconds one :func:`calibration_slice` took on the host the benchmark
#: was defined on (a 2-vCPU Intel Xeon VM, quiet).  It only fixes the
#: unit of normalized figures: "seconds on that host".
REFERENCE_SLICE_S = 0.0066


class _Line:
    __slots__ = ("line", "state")

    def __init__(self, line: int, state: int) -> None:
        self.line = line
        self.state = state


def calibration_slice() -> float:
    """Wall time of a fixed slice of simulator-like interpreter work.

    LRU sets of slotted objects plus a heap, like the cache model and
    the event engine.  It is the benchmark's own code, so no change to
    the program under test moves it; only the host's speed does.
    """
    started = time.perf_counter()
    sets = [OrderedDict() for _ in range(64)]
    heap: list = []
    total = 0
    for step in range(6000):
        line = (step * 2654435761) % 4093
        lru = sets[line & 63]
        if line in lru:
            lru.move_to_end(line)
            total += 1
        else:
            lru[line] = _Line(line, step & 3)
            if len(lru) > 8:
                lru.popitem(last=False)
        if step & 7 == 0:
            heapq.heappush(heap, (step * 31 % 997, step, line))
        if len(heap) > 64:
            total += heapq.heappop(heap)[2]
    return time.perf_counter() - started


class HostSpeed:
    """How much slower than the reference host this host runs now.

    The benchmark shares its machine with other tenants, whose load
    moves wall times by tens of percent within seconds.  Probes of
    :func:`calibration_slice` between operations measure that drift;
    a wall time divided by the mean factor of the probes around it is
    the time the operation would have taken on the reference host.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []

    def probe(self, slices: int = 3) -> float:
        """Run ``slices`` calibration slices; their median over the
        reference slice time."""
        factor = median([calibration_slice() for _ in range(slices)]) \
            / REFERENCE_SLICE_S
        self.factors.append(factor)
        return factor

    @property
    def factor(self) -> float:
        """Median of every probe so far."""
        return median(self.factors)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(len(ordered) * pct / 100.0))
    return ordered[rank - 1]


def tail_percentile(count: int, min_beyond: int = MIN_BEYOND):
    """The highest whole percentile (50..99) with at least
    ``min_beyond`` of ``count`` samples ranked beyond it, or ``None``
    when there are too few samples for any."""
    for pct in range(99, 49, -1):
        if count - math.ceil(count * pct / 100.0) >= min_beyond:
            return pct
    return None


def tail(values, min_beyond: int = MIN_BEYOND) -> dict:
    """``{"pct", "value", "samples"}`` for the reportable tail, with
    ``pct``/``value`` ``None`` when the sample count is too small."""
    pct = tail_percentile(len(values), min_beyond)
    value = percentile(values, pct) if pct is not None else None
    return {"pct": pct, "value": value, "samples": len(values)}


def median(values) -> float:
    return statistics.median(values)


class OpLog:
    """Attempted, failed and timed operations of one measured run.

    A failed or refused operation is never a timing: it counts against
    ``failed`` and enters the latency distribution as infinitely slow,
    so it can only push percentiles up.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.problems: list[str] = []

    def settle(self, latency: float | None, problems=()) -> bool:
        """Account one attempted operation; True when it passed."""
        self.attempted += 1
        problems = list(problems)
        if latency is None and not problems:
            problems = ["no result"]
        if problems:
            self.failed += 1
            self.latencies.append(math.inf)
            self.problems.extend(problems)
            return False
        self.latencies.append(latency)
        return True

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def compare(label: str, observed: dict, expected: dict | None) -> list:
    """Mismatch messages between two simulated-statistics dicts."""
    if expected is None:
        return []
    return [f"{label}: {key} {observed.get(key)!r} != {value!r}"
            for key, value in sorted(expected.items())
            if observed.get(key) != value]
