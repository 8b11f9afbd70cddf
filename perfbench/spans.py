"""In-memory spans for the traced benchmark run.

:class:`SpanTracer` wraps callables so every call records a span on
its thread: the layer name, start, end, parent and a case or job id.
Self time (duration minus the child spans on the same thread) is
accumulated per layer as calls return, so hot leaf layers (a cache
access per simulated memory reference) cost no memory; only spans of
layers wrapped with ``keep=True`` are stored, up to :data:`KEEP_LIMIT`
per thread, for the Chrome/Perfetto file.

:func:`attribute` turns the per-thread span trees into wall-clock
shares.  An instant when k threads are inside spans is split equally
among them (under the interpreter lock only one runs at a time), so
per-layer self times plus the unattributed remainder equal the traced
wall time exactly; single-threaded runs get plain self times.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

#: Spans kept per thread for the trace file; later ones only count.
KEEP_LIMIT = 100_000


class _ThreadState:
    __slots__ = ("index", "stack", "counts", "toplevel", "spans",
                 "next_id", "case", "dropped")

    def __init__(self, index: int) -> None:
        self.index = index
        self.stack: list = []
        self.counts = defaultdict(float)
        #: (start, end, {layer: self seconds}) per outermost span.
        self.toplevel: list = []
        #: (id, parent id, layer, label, start, end, case).
        self.spans: list = []
        self.next_id = 0
        self.case = None
        self.dropped = 0


class SpanTracer:
    """Span recorder; wrap callables with :meth:`wrap`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    def set_case(self, case) -> None:
        """Tag this thread's following spans with ``case``."""
        self._state().case = case

    def wrap(self, fn, layer: str, *, label: str | None = None,
             keep: bool = True, calls: str | None = None,
             delta=None, on_result=None, case_of=None):
        """A span-recording stand-in for ``fn``.

        ``calls`` names a counter bumped per call; ``delta`` is
        ``(counter, getter)`` adding ``getter(args)`` after minus
        before; ``on_result(counts, result)`` updates counters from
        the return value; ``case_of(args, result)`` names the case a
        kept span belongs to (default: the thread's current case).
        """
        state_of = self._state
        clock = time.perf_counter
        label = label or getattr(fn, "__qualname__", layer)

        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            parent = stack[-1] if stack else None
            span_id = state.next_id
            state.next_id += 1
            before = delta[1](args) if delta is not None else 0
            # frame: start, child seconds, shared self-time tree, id
            frame = [0.0, 0.0, parent[2] if parent else {}, span_id]
            stack.append(frame)
            result = None
            frame[0] = start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tree = frame[2]
                tree[layer] = tree.get(layer, 0.0) + duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                else:
                    state.toplevel.append((start, end, tree))
                counts = state.counts
                if calls is not None:
                    counts[calls] += 1
                if delta is not None:
                    counts[delta[0]] += delta[1](args) - before
                if on_result is not None and result is not None:
                    on_result(counts, result)
                if keep:
                    if len(state.spans) < KEEP_LIMIT:
                        case = (case_of(args, result)
                                if case_of and result is not None
                                else state.case)
                        state.spans.append((
                            span_id,
                            parent[3] if parent is not None else None,
                            layer, label, start, end, case))
                    else:
                        state.dropped += 1

        traced.__wrapped__ = fn
        return traced

    # -- results ---------------------------------------------------------

    def counts(self) -> dict:
        """Counters merged across threads."""
        merged = defaultdict(float)
        for state in list(self._states):
            for name, value in list(state.counts.items()):
                merged[name] += value
        return dict(merged)

    def toplevel(self) -> list:
        return [span for state in list(self._states)
                for span in list(state.toplevel)]

    def kept(self) -> list:
        """Kept spans as ``(thread, id, parent, layer, label, start,
        end, case)``."""
        return [(state.index,) + span for state in list(self._states)
                for span in list(state.spans)]

    @property
    def dropped(self) -> int:
        return sum(state.dropped for state in self._states)

    def write_chrome(self, path, origin: float) -> None:
        """Write kept spans as Chrome/Perfetto trace JSON (times in
        microseconds from ``origin``)."""
        events = [{"ph": "M", "name": "thread_name", "pid": 1,
                   "tid": state.index,
                   "args": {"name": f"bench-thread-{state.index}"}}
                  for state in self._states]
        for thread, span_id, parent, layer, label, start, end, case \
                in self.kept():
            events.append({
                "ph": "X", "name": label, "cat": layer, "pid": 1,
                "tid": thread, "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent,
                         "case": None if case is None else str(case)}})
        document = {"traceEvents": events, "displayTimeUnit": "ms",
                    "otherData": {"dropped_spans": self.dropped}}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def attribute(toplevel, window_start: float, window_end: float):
    """Wall-clock share of each layer over ``[window_start,
    window_end]``.

    ``toplevel`` holds ``(start, end, {layer: self seconds})`` per
    outermost span of any thread.  Returns ``({layer: seconds},
    unattributed seconds)``; the values sum to the window length.
    """
    items = []
    for start, end, tree in toplevel:
        lo, hi = max(start, window_start), min(end, window_end)
        if hi > lo and end > start:
            items.append((lo, hi, end - start, tree))
    boundaries = []
    for index, (lo, hi, _duration, _tree) in enumerate(items):
        boundaries.append((lo, 1, index))
        boundaries.append((hi, 0, index))
    boundaries.sort()
    share = [0.0] * len(items)
    active: set = set()
    covered = 0.0
    previous = window_start
    for moment, opening, index in boundaries:
        if active and moment > previous:
            part = (moment - previous) / len(active)
            for member in active:
                share[member] += part
            covered += moment - previous
        previous = moment
        if opening:
            active.add(index)
        else:
            active.discard(index)
    layers = defaultdict(float)
    for (_lo, _hi, duration, tree), portion in zip(items, share):
        scale = portion / duration
        for layer, seconds in tree.items():
            layers[layer] += seconds * scale
    return dict(layers), (window_end - window_start) - covered
