"""Tests for the commit arbiter and its ordering policies."""

import pytest

from conftest import record_reads

from repro.chunks.chunk import Chunk, ChunkState
from repro.chunks.signature import SignatureConfig
from repro.core.arbiter import (
    ArrivalOrderPolicy,
    CommitArbiter,
    PIReplayPolicy,
    RoundRobinPolicy,
    StrataReplayPolicy,
)
from repro.errors import ReplayDivergenceError
from repro.machine.program import ThreadState


def chunk_for(proc, seq=1, writes=(), reads=(), piece=0,
              complete_time=0.0) -> Chunk:
    chunk = Chunk(
        processor=proc,
        logical_seq=seq,
        start_state=ThreadState(thread_id=proc),
        signature_config=SignatureConfig(),
        piece_index=piece,
    )
    for line in writes:
        chunk.record_write(line)
    record_reads(chunk, *reads)
    chunk.state = ChunkState.COMPLETED
    chunk.complete_time = complete_time
    return chunk


def make_arbiter(policy, max_concurrent=4, grants=None, **kwargs):
    grants = grants if grants is not None else []
    return CommitArbiter(
        policy=policy,
        max_concurrent=max_concurrent,
        on_grant=lambda chunk, now: grants.append(chunk),
        **kwargs,
    ), grants


class TestArrivalOrderPolicy:
    def test_grants_in_arrival_order(self):
        arbiter, grants = make_arbiter(ArrivalOrderPolicy())
        a, b = chunk_for(0, writes=[1]), chunk_for(1, writes=[2])
        arbiter.receive_request(a, 0.0)
        arbiter.receive_request(b, 1.0)
        assert grants == [a, b]

    def test_conflicting_request_waits(self):
        arbiter, grants = make_arbiter(ArrivalOrderPolicy())
        a = chunk_for(0, writes=[5])
        b = chunk_for(1, reads=[5])
        arbiter.receive_request(a, 0.0)
        arbiter.receive_request(b, 0.0)
        assert grants == [a]          # b blocked by committing a
        arbiter.commit_finished(a, 2.0)
        assert grants == [a, b]

    def test_no_overtaking_of_blocked_head(self):
        """Head-of-line blocking: nothing slips past a conflicting
        oldest request (the livelock-prevention property -- see the
        policy docstring)."""
        arbiter, grants = make_arbiter(ArrivalOrderPolicy())
        a = chunk_for(0, writes=[5])
        blocked = chunk_for(1, writes=[5])
        free = chunk_for(2, writes=[9])
        for i, c in enumerate((a, blocked, free)):
            arbiter.receive_request(c, float(i))
        assert grants == [a]
        arbiter.commit_finished(a, 5.0)
        assert grants == [a, blocked, free]

    def test_spinner_cannot_starve_unlock(self):
        """Regression for the hypothesis-found livelock: write-free
        spin chunks must not be granted past a pending conflicting
        unlock."""
        arbiter, grants = make_arbiter(ArrivalOrderPolicy())
        committing_spin = chunk_for(0, reads=[5])
        unlock = chunk_for(2, writes=[5])
        fresh_spin = chunk_for(1, reads=[5])
        arbiter.receive_request(committing_spin, 0.0)
        arbiter.receive_request(unlock, 1.0)
        arbiter.receive_request(fresh_spin, 2.0)
        # The fresh spin chunk would be grantable (empty write set),
        # but it must wait behind the blocked unlock.
        assert grants == [committing_spin]
        arbiter.commit_finished(committing_spin, 3.0)
        assert grants[:2] == [committing_spin, unlock]

    def test_concurrency_cap(self):
        arbiter, grants = make_arbiter(ArrivalOrderPolicy(),
                                       max_concurrent=2)
        chunks = [chunk_for(p, writes=[p + 10]) for p in range(4)]
        for i, c in enumerate(chunks):
            arbiter.receive_request(c, float(i))
        assert len(grants) == 2
        arbiter.commit_finished(chunks[0], 5.0)
        assert len(grants) == 3


class TestRoundRobinPolicy:
    def test_token_order(self):
        policy = RoundRobinPolicy(3, is_active=lambda p: True)
        arbiter, grants = make_arbiter(policy)
        c2 = chunk_for(2, writes=[1])
        c0 = chunk_for(0, writes=[2])
        c1 = chunk_for(1, writes=[3])
        arbiter.receive_request(c2, 0.0)   # not c2's turn
        assert grants == []
        arbiter.receive_request(c0, 1.0)
        assert grants == [c0]              # token at 0, then 1
        arbiter.receive_request(c1, 2.0)
        assert grants == [c0, c1, c2]

    def test_skips_permanently_idle(self):
        active = {0: True, 1: False, 2: True}
        policy = RoundRobinPolicy(3, is_active=lambda p: active[p])
        arbiter, grants = make_arbiter(policy)
        c0 = chunk_for(0, writes=[1])
        c2 = chunk_for(2, writes=[2])
        arbiter.receive_request(c0, 0.0)
        arbiter.receive_request(c2, 0.0)
        assert grants == [c0, c2]

    def test_all_idle_returns_quietly(self):
        policy = RoundRobinPolicy(2, is_active=lambda p: False)
        arbiter, grants = make_arbiter(policy)
        arbiter.try_grant(0.0)
        assert grants == []
        assert policy.pointer == 0  # no hops burned

    def test_holder_conflict_blocks_everyone(self):
        """PicoLog: if the token holder's chunk conflicts with an
        in-flight commit, nobody overtakes (Section 6.3)."""
        policy = RoundRobinPolicy(2, is_active=lambda p: True)
        arbiter, grants = make_arbiter(policy)
        c0 = chunk_for(0, writes=[7])
        c1 = chunk_for(1, writes=[7])   # conflicts with c0
        arbiter.receive_request(c0, 0.0)
        arbiter.receive_request(c1, 0.0)
        assert grants == [c0]
        arbiter.commit_finished(c0, 3.0)
        assert grants == [c0, c1]

    def test_token_hop_latency_delays_grant(self):
        wakeups = []
        policy = RoundRobinPolicy(
            2, is_active=lambda p: True, hop_cycles=50,
            wakeup=wakeups.append)
        arbiter, grants = make_arbiter(policy)
        c0 = chunk_for(0, writes=[1])
        c1 = chunk_for(1, writes=[2])
        arbiter.receive_request(c0, 0.0)
        assert grants == [c0]
        arbiter.receive_request(c1, 1.0)
        assert grants == [c0]       # token still in flight to proc 1
        assert wakeups and wakeups[0] == 50.0
        arbiter.try_grant(50.0)
        assert grants == [c0, c1]

    def test_token_stats_collected(self):
        policy = RoundRobinPolicy(2, is_active=lambda p: True)
        arbiter, _ = make_arbiter(policy)
        arbiter.receive_request(chunk_for(0, writes=[1],
                                          complete_time=0.0), 5.0)
        arbiter.receive_request(chunk_for(1, writes=[2],
                                          complete_time=6.0), 6.0)
        summary = policy.stats.summary()
        assert summary["proc_ready_pct"] >= 0.0
        assert policy.stats.ready_count + policy.stats.not_ready_count == 2


class TestPIReplayPolicy:
    def test_enforces_log_order(self):
        policy = PIReplayPolicy([1, 0], dma_proc_id=8)
        arbiter, grants = make_arbiter(policy, max_concurrent=1)
        c0 = chunk_for(0, writes=[1])
        c1 = chunk_for(1, writes=[2])
        arbiter.receive_request(c0, 0.0)
        assert grants == []            # log says proc 1 first
        arbiter.receive_request(c1, 1.0)
        assert grants == [c1]
        arbiter.commit_finished(c1, 2.0)
        assert grants == [c1, c0]

    def test_dma_entry_blocks_until_consumed(self):
        policy = PIReplayPolicy([8, 0], dma_proc_id=8)
        arbiter, grants = make_arbiter(policy, max_concurrent=1)
        arbiter.receive_request(chunk_for(0, writes=[1]), 0.0)
        assert grants == []
        assert policy.next_is_dma()
        policy.consume_dma()
        arbiter.try_grant(1.0)
        assert len(grants) == 1

    def test_consume_dma_when_not_dma_raises(self):
        policy = PIReplayPolicy([0], dma_proc_id=8)
        with pytest.raises(ReplayDivergenceError):
            policy.consume_dma()

    def test_finish_requires_full_consumption(self):
        policy = PIReplayPolicy([0, 1], dma_proc_id=8)
        with pytest.raises(ReplayDivergenceError):
            policy.finish()

    def test_parallel_replay_commit_respects_conflicts(self):
        policy = PIReplayPolicy([0, 1], dma_proc_id=8)
        arbiter, grants = make_arbiter(policy, max_concurrent=4)
        c0 = chunk_for(0, writes=[5])
        c1 = chunk_for(1, reads=[5])   # conflicts with c0
        arbiter.receive_request(c0, 0.0)
        arbiter.receive_request(c1, 0.0)
        assert grants == [c0]          # c1 must wait despite free slot
        arbiter.commit_finished(c0, 1.0)
        assert grants == [c0, c1]


class TestStrataReplayPolicy:
    def test_within_stratum_any_order(self):
        policy = StrataReplayPolicy([(1, 1, 0)], dma_slot=2)
        arbiter, grants = make_arbiter(policy, max_concurrent=1)
        c1 = chunk_for(1, writes=[1])
        c0 = chunk_for(0, writes=[2])
        arbiter.receive_request(c1, 0.0)   # proc 1 first is fine
        assert grants == [c1]
        arbiter.commit_finished(c1, 1.0)
        arbiter.receive_request(c0, 2.0)
        assert grants == [c1, c0]

    def test_stratum_quota_enforced(self):
        policy = StrataReplayPolicy([(1, 0, 0), (1, 0, 0)], dma_slot=2)
        arbiter, grants = make_arbiter(policy, max_concurrent=1)
        first = chunk_for(0, seq=1, writes=[1])
        second = chunk_for(0, seq=2, writes=[2])
        arbiter.receive_request(first, 0.0)
        arbiter.commit_finished(first, 1.0)
        arbiter.receive_request(second, 2.0)
        assert grants == [first, second]
        policy.finish()   # both strata consumed

    def test_finish_rejects_partial_stratum(self):
        policy = StrataReplayPolicy([(2, 0, 0)], dma_slot=2)
        with pytest.raises(ReplayDivergenceError):
            policy.finish()


class TestContinuationReservation:
    def test_reserved_continuation_bypasses_policy(self):
        policy = PIReplayPolicy([1], dma_proc_id=8)
        arbiter, grants = make_arbiter(policy, max_concurrent=1)
        arbiter.reserve_continuation(0)
        piece = chunk_for(0, seq=3, piece=1, writes=[1])
        other = chunk_for(1, writes=[2])
        arbiter.receive_request(other, 0.0)
        assert grants == []            # reservation holds everyone
        arbiter.receive_request(piece, 1.0)
        assert grants == [piece]
        arbiter.commit_finished(piece, 2.0)
        assert grants == [piece, other]

    def test_reservation_flag(self):
        arbiter, _ = make_arbiter(ArrivalOrderPolicy())
        assert not arbiter.has_reservation
        arbiter.reserve_continuation(2)
        assert arbiter.has_reservation


class TestStaleAndDma:
    def test_squashed_request_dropped(self):
        arbiter, grants = make_arbiter(ArrivalOrderPolicy())
        chunk = chunk_for(0, writes=[1])
        chunk.state = ChunkState.SQUASHED
        arbiter.receive_request(chunk, 0.0)
        assert grants == []
        assert not arbiter.pending

    def test_dma_bypass_grants_out_of_band(self):
        policy = RoundRobinPolicy(2, is_active=lambda p: True)
        arbiter, grants = make_arbiter(policy, dma_proc_id=8)
        dma = chunk_for(8, writes=[100])
        arbiter.receive_request(dma, 0.0)
        assert grants == [dma]
        assert policy.pointer == 0  # token undisturbed

    def test_dma_does_not_advance_slot_counter(self):
        policy = RoundRobinPolicy(2, is_active=lambda p: True)
        arbiter, _ = make_arbiter(policy, dma_proc_id=8)
        dma = chunk_for(8, writes=[100])
        arbiter.receive_request(dma, 0.0)
        assert arbiter.grant_count == 0

    def test_head_filter_blocks_non_heads(self):
        heads = []
        arbiter, grants = make_arbiter(
            ArrivalOrderPolicy(),
            head_filter=lambda chunk: any(chunk is h for h in heads))
        older = chunk_for(0, seq=1, writes=[1])
        newer = chunk_for(0, seq=2, writes=[2])
        heads.append(older)
        arbiter.receive_request(newer, 0.0)   # arrives first but not head
        assert grants == []
        arbiter.receive_request(older, 1.0)
        assert grants == [older]


class TestRoundRobinSlotGating:
    """PicoLog replay: handler chunks on idle processors are gated on
    their recorded commit slot."""

    def _policy(self, gates, active, counter):
        return RoundRobinPolicy(
            2,
            is_active=lambda p: active[p],
            slot_gate=lambda p: gates.get(p),
            grant_count=lambda: counter["value"],
        )

    def test_gated_processor_skipped_until_slot(self):
        gates = {0: 3}
        active = {0: False, 1: True}
        counter = {"value": 0}
        policy = self._policy(gates, active, counter)
        arbiter, grants = make_arbiter(policy)
        gated = chunk_for(0, writes=[1])
        other = chunk_for(1, writes=[2])
        arbiter.receive_request(gated, 0.0)
        arbiter.receive_request(other, 0.0)
        # Slot 3 not reached: proc 0 is skipped, proc 1 commits.
        assert grants == [other]
        counter["value"] = 3
        # A due gate does not jump the queue: the token is parked at
        # the still-active proc 1.  Once proc 1 goes idle the token
        # travels on and the gated handler commits.
        arbiter.try_grant(1.0)
        assert grants == [other]
        active[1] = False
        arbiter.try_grant(2.0)
        assert grants == [other, gated]

    def test_gate_due_prevents_skip(self):
        gates = {0: 0}
        active = {0: False, 1: True}
        counter = {"value": 0}
        policy = self._policy(gates, active, counter)
        arbiter, grants = make_arbiter(policy)
        gated = chunk_for(0, writes=[1])
        arbiter.receive_request(gated, 0.0)
        assert grants == [gated]

    def test_all_gated_future_is_quiescent(self):
        gates = {0: 5, 1: 9}
        active = {0: False, 1: False}
        counter = {"value": 0}
        policy = self._policy(gates, active, counter)
        arbiter, grants = make_arbiter(policy)
        arbiter.receive_request(chunk_for(0, writes=[1]), 0.0)
        assert grants == []
        assert policy.pointer == 0  # no hops burned


class TestHaltedArbiter:
    def test_halt_stops_grants(self):
        arbiter, grants = make_arbiter(ArrivalOrderPolicy())
        arbiter.halt()
        arbiter.receive_request(chunk_for(0, writes=[1]), 0.0)
        assert grants == []
        assert arbiter.pending  # request queued but never granted
