"""The commit arbiter and its ordering policies.

The arbiter observes chunk-commit requests (each carrying the chunk's
signatures), decides who may commit next, and enforces the concurrency
rules of BulkSC: up to ``max_concurrent_commits`` chunks commit in
parallel as long as their signatures do not overlap (Figure 4).

What differs between DeLorean's modes -- and between recording and
replay -- is only the *ordering policy*:

* :class:`ArrivalOrderPolicy` -- record-mode Order&Size/OrderOnly: grant
  in request-arrival order, skipping over requests that conflict with
  in-flight commits.
* :class:`RoundRobinPolicy` -- PicoLog (record *and* replay): a commit
  token circulates; processor ``i+1`` cannot be granted before ``i``
  (Section 6.3).  The policy also gathers the token statistics of
  Table 6.
* :class:`PIReplayPolicy` -- replay-mode Order&Size/OrderOnly: grant
  exactly in PI-log order.
* :class:`StrataReplayPolicy` -- replay from a *stratified* PI log:
  within a stratum, chunks from different processors may commit in any
  order (Section 4.3), so the policy only enforces per-stratum counts.

The arbiter also honours *continuation reservations*: when a replayed
chunk commits short because of an unexpected cache overflow, its second
piece must commit immediately after, with no foreign commit in between
(Section 4.2.3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.chunks.chunk import Chunk, ChunkState
from repro.errors import ReplayDivergenceError
from repro.telemetry.tracer import NULL_TRACER


@dataclass
class TokenStats:
    """Raw samples for the Table 6 token-passing characterization."""

    ready_count: int = 0
    not_ready_count: int = 0
    wait_token_cycles: list[float] = field(default_factory=list)
    wait_complete_cycles: list[float] = field(default_factory=list)
    roundtrip_cycles: list[float] = field(default_factory=list)
    ready_procs_samples: list[int] = field(default_factory=list)
    parallel_commit_samples: list[int] = field(default_factory=list)

    @property
    def proc_ready_fraction(self) -> float:
        """Fraction of token acquisitions that found the processor
        ready to commit (Table 6 'Proc Ready')."""
        total = self.ready_count + self.not_ready_count
        return self.ready_count / total if total else 0.0

    @staticmethod
    def _mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def summary(self) -> dict[str, float]:
        """Aggregate means in the shape of Table 6's columns."""
        return {
            "ready_procs_avg": self._mean(
                [float(v) for v in self.ready_procs_samples]),
            "actual_commit_avg": self._mean(
                [float(v) for v in self.parallel_commit_samples]),
            "proc_ready_pct": 100.0 * self.proc_ready_fraction,
            "wait_token_cycles": self._mean(self.wait_token_cycles),
            "wait_complete_cycles": self._mean(self.wait_complete_cycles),
            "token_roundtrip_cycles": self._mean(self.roundtrip_cycles),
        }


def arrival_key(chunk: Chunk) -> tuple:
    """Explicit, platform-independent arrival ordering key.

    The pending list is appended in event-dispatch order, which is
    deterministic *within* one interpreter but an implementation detail
    of the event engine.  Ordering by ``(request_time, processor,
    logical_seq, piece_index)`` instead makes the realized grant order a
    pure function of the simulated execution, so explored schedules are
    content-addressable and cache hits are sound across platforms
    (requests that tie on arrival cycle resolve by processor ID, never
    by queue-insertion accident).
    """
    return (chunk.request_time, chunk.processor, chunk.logical_seq,
            chunk.piece_index)


class ArrivalOrderPolicy:
    """Record-mode policy for Order&Size/OrderOnly: strict arrival
    order.

    The oldest pending request is granted as soon as its signatures do
    not overlap any in-flight commit; while it conflicts, *nothing*
    overtakes it.  Allowing younger non-conflicting requests to slip
    past looks harmless but livelocks: two processors spinning on a
    held lock produce an endless supply of write-free (always
    grantable) chunks whose read sets conflict with the holder's
    pending unlock, starving it forever.  Head-of-line blocking bounds
    every wait by the in-flight commits' latency.

    "Oldest" is defined by :func:`arrival_key`, which breaks
    same-cycle arrival ties by processor ID so the grant order is
    explicitly deterministic.
    """

    def select(self, pending: list[Chunk], committing: list[Chunk],
               now: float) -> Chunk | None:
        """The oldest pending request, if it does not overlap any
        in-flight commit."""
        if not pending:
            return None
        head = min(pending, key=arrival_key)
        if any(self._overlaps(head, other) for other in committing):
            return None
        return head

    @staticmethod
    def _overlaps(chunk: Chunk, committing: Chunk) -> bool:
        """Do the chunks' signatures overlap (W/W, W/R or R/W)?  The
        same tests as ``Signature.intersects``, on the key sets."""
        written = chunk.write_signature.keys
        committed = committing.write_signature.keys
        return not (written.isdisjoint(committed)
                    and written.isdisjoint(committing.read_signature.keys)
                    and chunk.read_signature.keys.isdisjoint(committed))

    def on_grant(self, chunk: Chunk, now: float) -> None:
        """Arrival order keeps no state."""

    def finish(self) -> None:
        """Nothing to flush."""


@dataclass(frozen=True)
class SchedulePlan:
    """A deterministic prescription of the record-phase commit order.

    The schedule-space explorer (:mod:`repro.explore`) perturbs the
    arbiter's grant order through one of these.  A plan is pure data --
    JSON-friendly, hashable, content-addressable -- and the schedule it
    induces is a deterministic function of (plan, program, machine
    config), so every explored schedule can be re-recorded and cached.

    ``prefix``
        Processor IDs granted first, in exactly this order (the DPOR
        branch prescriptions).  An entry whose processor can never
        commit again is skipped, so prefixes lifted from one execution
        stay usable after the reordering changes the tail.
    ``seed``
        After the prefix, grant by PCT-style randomized priorities
        derived from this seed (``None`` falls back to arrival order).
    ``change_points``
        Policy-grant indices at which the currently highest-priority
        active processor is demoted below every other (PCT's d priority
        change points, positions chosen by the explorer from the same
        campaign seed).
    """

    seed: int | None = None
    prefix: tuple[int, ...] = ()
    change_points: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "change_points",
                           tuple(sorted(self.change_points)))

    @property
    def is_natural(self) -> bool:
        """True when the plan prescribes nothing (the default order)."""
        return (self.seed is None and not self.prefix
                and not self.change_points)

    def priorities(self, num_processors: int) -> dict[int, int]:
        """Seed-derived priority per processor (higher commits first).

        Deterministic: the same seed always yields the same
        permutation, on every platform.
        """
        order = list(range(num_processors))
        if self.seed is not None:
            random.Random(self.seed).shuffle(order)
        return {proc: num_processors - rank
                for rank, proc in enumerate(order)}

    def as_dict(self) -> dict:
        """JSON form (the explore report / RunSpec encoding)."""
        return {"seed": self.seed, "prefix": list(self.prefix),
                "change_points": list(self.change_points)}

    @classmethod
    def from_dict(cls, data: dict) -> "SchedulePlan":
        """Inverse of :meth:`as_dict`."""
        return cls(seed=data.get("seed"),
                   prefix=tuple(data.get("prefix", ())),
                   change_points=tuple(data.get("change_points", ())))


class SchedulePolicy:
    """Record-mode exploration policy: grant in a prescribed or
    seeded-priority order (:class:`SchedulePlan`).

    While the plan's prefix lasts, the arbiter *waits* for the named
    processor's next chunk even when other processors are ready -- that
    waiting is the whole point: it opens commit-order windows that
    arrival order would never produce (a delayed grant lets another
    processor's racing chunk slip in between).  After the prefix, grants
    follow the seeded priorities, demoting the top active processor at
    each change point; with no seed the policy degenerates to arrival
    order.

    A prescribed target that can never commit again (thread finished,
    nothing pending) is skipped, so infeasible prefix tails -- normal
    after a DPOR reordering perturbs the execution -- degrade gracefully
    instead of deadlocking.  A pathological plan can still starve the
    machine (e.g. priorities that favour a spinner over the lock
    holder); that is an *outcome*, classified by the guard watchdog as
    a stall, not an error in the policy.
    """

    def __init__(self, plan: SchedulePlan, num_processors: int,
                 is_active: Callable[[int], bool]) -> None:
        self.plan = plan
        self.num_processors = num_processors
        self.is_active = is_active
        self.cursor = 0            # position in plan.prefix
        self.grant_index = 0       # policy grants issued so far
        self.skipped_prefix = 0    # infeasible prefix entries dropped
        self._priorities = plan.priorities(num_processors)
        self._changes = list(plan.change_points)

    def _feasible(self, proc: int, pending: list[Chunk]) -> bool:
        """Can ``proc`` ever produce another commit?"""
        if proc < 0 or proc >= self.num_processors:
            return False
        if any(chunk.processor == proc for chunk in pending):
            return True
        return self.is_active(proc)

    def _apply_change_points(self) -> None:
        while self._changes and self.grant_index >= self._changes[0]:
            self._changes.pop(0)
            active = [proc for proc in range(self.num_processors)
                      if self.is_active(proc)]
            if len(active) < 2:
                continue
            top = max(active, key=lambda proc: self._priorities[proc])
            self._priorities[top] = min(self._priorities.values()) - 1

    def _target(self, pending: list[Chunk]) -> int | None:
        """The processor whose chunk must commit next, or None."""
        while self.cursor < len(self.plan.prefix):
            proc = self.plan.prefix[self.cursor]
            if self._feasible(proc, pending):
                return proc
            self.cursor += 1       # dead prescription: skip it
            self.skipped_prefix += 1
        if self.plan.seed is None:
            return None            # arrival-order fallback
        self._apply_change_points()
        candidates = [proc for proc in range(self.num_processors)
                      if self._feasible(proc, pending)]
        if not candidates:
            return None
        return max(candidates, key=lambda proc: self._priorities[proc])

    def select(self, pending: list[Chunk], committing: list[Chunk],
               now: float) -> Chunk | None:
        """The prescribed processor's oldest pending chunk -- waiting
        for it if it has not requested yet -- or arrival order when the
        plan prescribes nothing."""
        target = self._target(pending)
        if target is None:
            if self.cursor < len(self.plan.prefix):
                return None        # waiting on the prescribed processor
            if not pending:
                return None
            head = min(pending, key=arrival_key)
            if any(ArrivalOrderPolicy._overlaps(head, other)
                   for other in committing):
                return None
            return head
        heads = [chunk for chunk in pending if chunk.processor == target]
        if not heads:
            return None            # target is active; wait for it
        head = min(heads, key=arrival_key)
        if any(ArrivalOrderPolicy._overlaps(head, other)
               for other in committing):
            return None            # wait, never overtake
        return head

    def on_grant(self, chunk: Chunk, now: float) -> None:
        """Advance the prefix cursor / grant index."""
        if (self.cursor < len(self.plan.prefix)
                and self.plan.prefix[self.cursor] == chunk.processor):
            self.cursor += 1
        self.grant_index += 1

    def finish(self) -> None:
        """Nothing to verify: unconsumed prefix entries are legal
        (the prescription outlived the execution)."""


class RoundRobinPolicy:
    """PicoLog's predefined commit order: a circulating commit token.

    ``is_active`` reports whether a processor can ever commit again;
    the token skips permanently-idle processors (their inactivity is an
    architectural condition, so the skip pattern is reproducible in
    replay).  ``slot_gate`` (replay only) reports, for a processor whose
    next commit must wait for a recorded commit slot (an interrupt
    handler on an idle processor), the slot it is gated on.
    """

    def __init__(
        self,
        num_processors: int,
        is_active: Callable[[int], bool],
        slot_gate: Callable[[int], int | None] | None = None,
        grant_count: Callable[[], int] | None = None,
        dma_hold: Callable[[], bool] | None = None,
        hop_cycles: float = 0.0,
        wakeup: Callable[[float], None] | None = None,
    ) -> None:
        self.num_processors = num_processors
        self.is_active = is_active
        self.slot_gate = slot_gate or (lambda proc: None)
        self.grant_count = grant_count or (lambda: 0)
        # Replay only: while a recorded DMA burst is due at the current
        # commit slot, no processor grant may be issued -- the recorded
        # order places the DMA *before* the next chunk, and the machine
        # can only apply it against a quiescent commit pipeline.
        # Granting past it would push the burst one slot late.
        self.dma_hold = dma_hold or (lambda: False)
        # Physical token-passing latency: the commit token takes
        # ``hop_cycles`` to travel to the next processor (Table 6's
        # token roundtrips are hundreds to thousands of cycles).
        # ``wakeup`` lets the machine schedule a re-arbitration when a
        # token hop completes.
        self.hop_cycles = hop_cycles
        self._wakeup = wakeup or (lambda time: None)
        self.pointer = 0
        self.pointer_since = 0.0
        self.stats = TokenStats()
        self._last_visit_proc0: float | None = None
        self._token_checked = False

    def _advance(self, now: float) -> None:
        self.pointer = (self.pointer + 1) % self.num_processors
        self.pointer_since = max(now, self.pointer_since) + self.hop_cycles
        self._token_checked = False
        if self.hop_cycles:
            self._wakeup(self.pointer_since)
        if self.pointer == 0:
            if self._last_visit_proc0 is not None:
                self.stats.roundtrip_cycles.append(
                    self.pointer_since - self._last_visit_proc0)
            self._last_visit_proc0 = self.pointer_since

    def _eligible(self, proc: int) -> bool:
        gate = self.slot_gate(proc)
        if gate is not None:
            return gate <= self.grant_count()
        return self.is_active(proc)

    def _skip_idle(self, now: float) -> bool:
        """Move the token past permanently-idle processors.

        Scans from the token holder for the first eligible processor
        and makes one token hop per processor passed.  Returns False --
        without burning token hops -- when no processor can ever commit
        again.  Eligibility does not depend on the token, so finding
        the holder before hopping gives the hops a hop-then-test walk
        would make.
        """
        count = self.num_processors
        for hops in range(count):
            if self._eligible((self.pointer + hops) % count):
                for _ in range(hops):
                    self._advance(now)
                return True
        return False

    def select(self, pending: list[Chunk], committing: list[Chunk],
               now: float) -> Chunk | None:
        """The oldest pending request of the token holder, if any and
        if it does not conflict with an in-flight commit."""
        if self.dma_hold():
            return None  # a recorded DMA burst owns this commit slot
        if not self._skip_idle(now):
            return None
        if now < self.pointer_since:
            return None  # the token is still in flight to the holder
        holder = self.pointer
        for chunk in pending:
            if chunk.processor != holder:
                continue
            if any(ArrivalOrderPolicy._overlaps(chunk, other)
                   for other in committing):
                return None  # the holder must wait; nobody overtakes
            if not self._token_checked:
                self._token_checked = True
                if chunk.complete_time <= self.pointer_since:
                    self.stats.ready_count += 1
                    self.stats.wait_token_cycles.append(
                        max(0.0, now - chunk.complete_time))
                else:
                    self.stats.not_ready_count += 1
                    self.stats.wait_complete_cycles.append(
                        max(0.0, chunk.complete_time - self.pointer_since))
            return chunk
        return None

    def on_grant(self, chunk: Chunk, now: float) -> None:
        """Pass the token to the next processor."""
        if chunk.processor < self.num_processors:
            if not self._token_checked:
                # The request arrived while the token was already here.
                self.stats.not_ready_count += 1
                self.stats.wait_complete_cycles.append(
                    max(0.0, chunk.complete_time - self.pointer_since))
            self._advance(now)

    def finish(self) -> None:
        """Nothing to flush."""


class PIReplayPolicy:
    """Replay-mode policy: grant exactly in PI-log order."""

    def __init__(self, pi_entries: list[int], dma_proc_id: int) -> None:
        self.entries = pi_entries
        self.dma_proc_id = dma_proc_id
        self.cursor = 0

    def peek(self) -> int | None:
        """Next procID to commit, or None at end of log."""
        if self.cursor >= len(self.entries):
            return None
        return self.entries[self.cursor]

    def next_is_dma(self) -> bool:
        """True when the next PI entry is the DMA pseudo-processor."""
        return self.peek() == self.dma_proc_id

    def consume_dma(self) -> None:
        """Advance past a DMA entry (the machine applied the DMA)."""
        if not self.next_is_dma():
            raise ReplayDivergenceError(
                "consume_dma called but the next PI entry is not DMA",
                proc_id=self.dma_proc_id, chunk_index=self.cursor,
                expected=self.peek(), actual=self.dma_proc_id)
        self.cursor += 1

    def select(self, pending: list[Chunk], committing: list[Chunk],
               now: float) -> Chunk | None:
        """The oldest pending request of the processor the PI log names
        next.

        When replay permits parallel commit (no perturbation), the next
        chunk still may not overlap an in-flight commit -- it must wait
        for the conflicting commit to finish, exactly as in recording.
        """
        expected = self.peek()
        if expected is None or expected == self.dma_proc_id:
            return None
        for chunk in pending:
            if chunk.processor != expected:
                continue
            if any(ArrivalOrderPolicy._overlaps(chunk, other)
                   for other in committing):
                return None  # PI order is total: wait, never overtake
            return chunk
        return None

    def on_grant(self, chunk: Chunk, now: float) -> None:
        """Consume the PI entry just enforced."""
        if self.peek() != chunk.processor:
            raise ReplayDivergenceError(
                f"granted processor {chunk.processor} but PI log expects "
                f"{self.peek()} at position {self.cursor}",
                proc_id=chunk.processor, chunk_index=self.cursor,
                expected=self.peek(), actual=chunk.processor)
        self.cursor += 1

    def finish(self) -> None:
        """Verify the whole log was consumed."""
        if self.cursor != len(self.entries):
            raise ReplayDivergenceError(
                f"replay ended with {len(self.entries) - self.cursor} "
                f"unconsumed PI entries",
                proc_id=self.peek(), chunk_index=self.cursor,
                expected=self.peek())


class StrataReplayPolicy:
    """Replay from a stratified PI log (Section 4.3).

    Within a stratum, chunks of different processors have no conflicts
    and may commit in any order; the policy only enforces that each
    processor commits exactly its counted number of chunks before the
    next stratum opens.
    """

    def __init__(self, strata: list[tuple[int, ...]],
                 dma_slot: int) -> None:
        self.strata = strata
        self.dma_slot = dma_slot
        self.index = 0
        self._remaining = list(strata[0]) if strata else []

    def _open_next(self) -> None:
        while self.index < len(self.strata) and not any(self._remaining):
            self.index += 1
            if self.index < len(self.strata):
                self._remaining = list(self.strata[self.index])

    def next_is_dma(self) -> bool:
        """DMA commits occupy a dedicated counter slot in each stratum
        vector; a pending DMA count means DMA must commit within the
        current stratum.  The machine applies it eagerly."""
        self._open_next()
        return (self.index < len(self.strata)
                and self.dma_slot < len(self._remaining)
                and self._remaining[self.dma_slot] > 0)

    def consume_dma(self) -> None:
        """Account an applied DMA against the current stratum."""
        if not self.next_is_dma():
            raise ReplayDivergenceError(
                "no DMA due in the current stratum",
                proc_id=self.dma_slot, chunk_index=self.index)
        self._remaining[self.dma_slot] -= 1

    def select(self, pending: list[Chunk], committing: list[Chunk],
               now: float) -> Chunk | None:
        """Any pending chunk with remaining quota in the current
        stratum."""
        self._open_next()
        if self.index >= len(self.strata):
            return None
        for chunk in pending:
            proc = chunk.processor
            if proc >= len(self._remaining) or self._remaining[proc] <= 0:
                continue
            if any(ArrivalOrderPolicy._overlaps(chunk, other)
                   for other in committing):
                continue  # within a stratum another order is legal
            return chunk
        return None

    def on_grant(self, chunk: Chunk, now: float) -> None:
        """Debit the granted processor's stratum quota."""
        if self._remaining[chunk.processor] <= 0:
            raise ReplayDivergenceError(
                f"processor {chunk.processor} exceeded its quota in "
                f"stratum {self.index}",
                proc_id=chunk.processor, chunk_index=self.index,
                expected=0, actual=1)
        self._remaining[chunk.processor] -= 1

    def finish(self) -> None:
        """Verify every stratum was fully consumed."""
        self._open_next()
        if self.index < len(self.strata):
            raise ReplayDivergenceError(
                f"replay ended inside stratum {self.index} of "
                f"{len(self.strata)}",
                chunk_index=self.index,
                expected=tuple(self.strata[self.index]),
                actual=tuple(self._remaining))


class CommitArbiter:
    """Grants chunk commits under a pluggable ordering policy."""

    def __init__(
        self,
        policy,
        max_concurrent: int,
        on_grant: Callable[[Chunk, float], None],
        dma_proc_id: int | None = None,
        head_filter: Callable[[Chunk], bool] | None = None,
        tracer=None,
    ) -> None:
        self.policy = policy
        self.max_concurrent = max_concurrent
        self._on_grant = on_grant
        self.dma_proc_id = dma_proc_id
        self._head_filter = head_filter or (lambda chunk: True)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._m_grants = self.tracer.metrics.counter("arbiter_grants")
        self.pending: list[Chunk] = []
        self.committing: list[Chunk] = []
        self.grant_count = 0
        self._reserved_processor: int | None = None
        self.halted = False

    def halt(self) -> None:
        """Stop granting permanently (bounded interval replay)."""
        self.halted = True

    def receive_request(self, chunk: Chunk, now: float) -> None:
        """A commit request arrives (message 1/2 of Figure 4)."""
        if chunk.state is ChunkState.SQUASHED:
            return  # stale: the chunk died while the request was in flight
        chunk.state = ChunkState.REQUESTED
        chunk.request_time = now
        self.pending.append(chunk)
        self.try_grant(now)

    def drop_stale(self) -> None:
        """Purge squashed chunks from the pending queue.

        Every site that squashes chunks must call this before the next
        arbitration: :meth:`try_grant` does not purge, and relies on
        the pending queue holding no squashed request."""
        self.pending = [c for c in self.pending
                        if c.state is not ChunkState.SQUASHED]

    def reserve_continuation(self, processor: int) -> None:
        """The next grant must go to ``processor``'s continuation piece
        (split-chunk replay, Section 4.2.3); it bypasses the policy and
        consumes no ordering entry."""
        self._reserved_processor = processor

    def try_grant(self, now: float) -> None:
        """Grant as many pending requests as policy and concurrency
        allow.  The pending queue holds no squashed chunk here: every
        squash site purges it (:meth:`drop_stale`)."""
        if self.halted:
            return
        while len(self.committing) < self.max_concurrent:
            chunk = self._select(now)
            if chunk is None:
                return
            self.pending.remove(chunk)
            chunk.state = ChunkState.COMMITTING
            chunk.grant_time = now
            self.committing.append(chunk)
            self._m_grants.inc()
            if self.tracer.enabled:
                is_dma = chunk.processor == self.dma_proc_id
                self.tracer.instant(
                    "arbiter",
                    ("grant dma" if is_dma
                     else f"grant p{chunk.processor}"),
                    now, category="grant",
                    proc=("dma" if is_dma else chunk.processor),
                    seq=chunk.logical_seq, piece=chunk.piece_index,
                    slot=chunk.grant_slot,
                    in_flight=len(self.committing))
                if isinstance(self.policy, RoundRobinPolicy):
                    self.tracer.instant(
                        "token", f"token@p{self.policy.pointer}",
                        now, category="token",
                        holder=self.policy.pointer)
            if isinstance(self.policy, RoundRobinPolicy):
                self.policy.stats.parallel_commit_samples.append(
                    len(self.committing))
            self._on_grant(chunk, now)

    def _select(self, now: float) -> Chunk | None:
        if self._reserved_processor is not None:
            for chunk in self.pending:
                if (chunk.processor == self._reserved_processor
                        and chunk.piece_index > 0):
                    self._reserved_processor = None
                    chunk.grant_slot = self.grant_count
                    return chunk
            return None  # the continuation has not arrived yet
        # DMA bypass: the DMA engine is not part of any round-robin or
        # arrival queue discipline; it commits as soon as its writes do
        # not conflict with an in-flight commit (Section 3.3).  Its
        # grant does not advance the chunk-commit slot counter.
        if self.dma_proc_id is not None:
            for chunk in self.pending:
                if chunk.processor != self.dma_proc_id:
                    continue
                if any(ArrivalOrderPolicy._overlaps(chunk, other)
                       for other in self.committing):
                    break
                chunk.grant_slot = self.grant_count
                return chunk
        # Only a processor's oldest uncommitted chunk may be granted;
        # commit-request reordering in flight (e.g. replay stall noise)
        # must not reorder same-processor commits.
        heads = [c for c in self.pending if self._head_filter(c)]
        chunk = self.policy.select(heads, self.committing, now)
        if chunk is not None:
            self.policy.on_grant(chunk, now)
            chunk.grant_slot = self.grant_count
            self.grant_count += 1
        return chunk

    def release(self, chunk: Chunk) -> None:
        """Free a finished commit's slot without re-arbitrating.

        The replay machine uses this to apply any DMA bursts that the
        ordering log places *before* the next grant (the DMA must see a
        quiescent commit pipeline), then calls :meth:`try_grant`.
        """
        if chunk in self.committing:
            self.committing.remove(chunk)

    def commit_finished(self, chunk: Chunk, now: float) -> None:
        """A commit fully propagated; free its slot and re-arbitrate."""
        self.release(chunk)
        self.try_grant(now)

    @property
    def has_reservation(self) -> bool:
        """True while a split logical chunk awaits its continuation
        piece; nothing (not even DMA) may be ordered in between."""
        return self._reserved_processor is not None

    def has_work(self) -> bool:
        """True while requests are pending or commits are in flight."""
        return bool(self.pending) or bool(self.committing)
