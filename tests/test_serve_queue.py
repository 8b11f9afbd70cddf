"""Durability tests for the serve layer's write-ahead job queue.

The headline guarantee: a SIGKILL at *any byte* of a journal append
loses no acknowledged job and duplicates none.  The exhaustive test
below replays recovery against every possible truncation point of a
real journal and checks the recovered index equals newest-wins over
the longest valid line prefix -- exactly the set of acknowledged
transitions.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.model import (
    STATE_DONE,
    STATE_QUEUED,
    STATE_RUNNING,
    Job,
    JobStateError,
    census,
)
from repro.serve.queue import JOURNAL_NAME, JobQueue, _frame, read_journal

HASH_A = "a" * 64
HASH_B = "b" * 64
HASH_C = "c" * 64


def build_queue(path):
    return JobQueue(path)


def populated_journal(tmp_path):
    """A journal with submits, claims, a finish, and a crash-era
    ``running`` job -- every transition kind the format carries."""
    queue = build_queue(tmp_path / "q")
    queue.submit("alice", "record", {"seed": 1}, HASH_A, 1.0)
    queue.submit("bob", "chaos", {"seed": 2}, HASH_B, 2.0)
    queue.submit("alice", "record", {"seed": 3}, HASH_C, 3.0)
    first = queue.claim(4.0)
    queue.finish(first, now=5.0, artifact_hash=HASH_A)
    queue.claim(6.0)  # left running: the crash scenario
    queue.close()
    return tmp_path / "q" / JOURNAL_NAME


class TestJournalFormat:
    def test_every_line_is_self_checking(self, tmp_path):
        path = populated_journal(tmp_path)
        records, good = read_journal(path)
        assert len(records) == 6  # 3 submits + 2 claims + 1 finish
        assert good == path.stat().st_size
        lsns = [record["lsn"] for record in records]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == len(lsns)

    def test_corrupt_interior_line_stops_the_prefix(self, tmp_path):
        path = populated_journal(tmp_path)
        data = bytearray(path.read_bytes())
        lines = path.read_bytes().splitlines(keepends=True)
        # Flip one payload byte inside the third line.
        offset = len(lines[0]) + len(lines[1]) + 20
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        records, good = read_journal(path)
        assert len(records) == 2
        assert good == len(lines[0]) + len(lines[1])

    def test_missing_journal_is_empty(self, tmp_path):
        records, good = read_journal(tmp_path / "absent.jsonl")
        assert records == [] and good == 0


class TestRecovery:
    def test_newest_wins_round_trip(self, tmp_path):
        populated_journal(tmp_path)
        queue = build_queue(tmp_path / "q")
        assert queue.recovered_jobs == 3
        assert queue.truncated_bytes == 0
        states = {job.seq: job.state for job in queue.jobs()}
        assert states == {0: STATE_DONE, 1: STATE_RUNNING,
                          2: STATE_QUEUED}
        queue.close()

    def test_running_jobs_requeue_once(self, tmp_path):
        populated_journal(tmp_path)
        queue = build_queue(tmp_path / "q")
        requeued = queue.recover_running()
        assert [job.seq for job in requeued] == [1]
        assert requeued[0].state == STATE_QUEUED
        assert requeued[0].requeues == 1
        assert requeued[0].started_at is None
        assert queue.recover_running() == []  # idempotent
        # Still-queued work keeps its place; the requeued job joins
        # the back of the ready set.
        assert queue.claim(9.0).seq == 2
        assert queue.claim(9.5).seq == 1
        queue.close()

    def test_recovery_continues_the_lsn_and_seq(self, tmp_path):
        populated_journal(tmp_path)
        queue = build_queue(tmp_path / "q")
        lsn_before = queue.lsn
        job = queue.submit("carol", "bench", {}, "d" * 64, 10.0)
        assert queue.lsn == lsn_before + 1
        assert job.seq == 3  # no seq reuse across restarts
        queue.close()

    def test_kill_at_any_byte_loses_nothing_acked(self, tmp_path):
        """Exhaustive: recover from every truncation of the journal."""
        path = populated_journal(tmp_path)
        data = path.read_bytes()
        full_records, _ = read_journal(path)
        offsets = [0]
        for line in data.splitlines(keepends=True):
            offsets.append(offsets[-1] + len(line))

        for cut in range(len(data) + 1):
            scratch = tmp_path / "cuts" / f"{cut}"
            scratch.mkdir(parents=True)
            (scratch / JOURNAL_NAME).write_bytes(data[:cut])
            queue = build_queue(scratch)
            # Acknowledged = the complete lines inside the cut.
            complete = max(i for i, off in enumerate(offsets)
                           if off <= cut)
            expect: dict[str, dict] = {}
            for record in full_records[:complete]:
                expect[record["job"]["id"]] = record["job"]
            got = {job.id: job.as_dict() for job in queue.jobs()}
            assert got == expect, f"cut at byte {cut}"
            # The torn tail was measured and truncated away.
            assert queue.truncated_bytes == cut - offsets[complete]
            size = (scratch / JOURNAL_NAME).stat().st_size
            assert size == offsets[complete]
            queue.close()

    @pytest.mark.parametrize("payload", [
        '{"lsn":1,"meta":5}', '{"lsn":1,"job":5}',
        '{"lsn":1,"job":{"id":"x"}}', '{"lsn":"x","meta":{}}'],
        ids=["meta-int", "job-int", "job-fields-missing", "lsn-text"])
    def test_unloadable_record_ends_the_prefix(self, tmp_path, payload):
        """A CRC-valid record recovery cannot load is cut off like a
        torn tail, and the queue still starts."""
        path = populated_journal(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        prefix, rest = b"".join(lines[:3]), b"".join(lines[3:])
        junk = _frame(payload).encode()
        path.write_bytes(prefix + junk + rest)
        records, good = read_journal(path)
        assert len(records) == 3 and good == len(prefix)
        queue = build_queue(tmp_path / "q")
        assert queue.recovered_jobs == 3
        assert queue.truncated_bytes == len(junk) + len(rest)
        assert {job.seq: job.state for job in queue.jobs()} == {
            0: STATE_QUEUED, 1: STATE_QUEUED, 2: STATE_QUEUED}
        assert path.read_bytes() == prefix
        queue.close()

    def test_append_after_torn_tail_recovery(self, tmp_path):
        """A truncated journal stays appendable on a clean boundary."""
        path = populated_journal(tmp_path)
        data = path.read_bytes()
        lines = data.splitlines(keepends=True)
        for extra in (1, len(lines[3]) // 2, len(lines[3]) - 1):
            scratch = tmp_path / f"torn-{extra}"
            scratch.mkdir()
            torn = b"".join(lines[:3]) + lines[3][:extra]
            (scratch / JOURNAL_NAME).write_bytes(torn)
            queue = build_queue(scratch)
            assert queue.truncated_bytes == extra
            queue.submit("dave", "record", {"seed": 9}, HASH_B, 20.0)
            queue.close()
            records, good = read_journal(scratch / JOURNAL_NAME)
            assert good == (scratch / JOURNAL_NAME).stat().st_size
            assert records[-1]["job"]["tenant"] == "dave"


class TestOperations:
    def test_submit_claim_finish_lifecycle(self, tmp_path):
        queue = build_queue(tmp_path / "q")
        job = queue.submit("t", "record", {"seed": 1}, HASH_A, 1.0)
        assert job.state == STATE_QUEUED
        claimed = queue.claim(2.0)
        assert claimed.id == job.id
        assert claimed.state == STATE_RUNNING
        assert claimed.attempts == 1
        done = queue.finish(claimed, now=3.0, artifact_hash=HASH_A)
        assert done.state == STATE_DONE
        assert done.artifact_hash == HASH_A
        assert queue.claim(4.0) is None
        queue.close()

    def test_finish_with_error_fails_the_job(self, tmp_path):
        queue = build_queue(tmp_path / "q")
        queue.submit("t", "record", {}, HASH_A, 1.0)
        job = queue.claim(2.0)
        failed = queue.finish(job, now=3.0, error="Boom: no")
        assert failed.state == "failed"
        assert failed.error == "Boom: no"
        queue.close()

    def test_submit_resolved_takes_the_cache_edge(self, tmp_path):
        queue = build_queue(tmp_path / "q")
        job = queue.submit_resolved("t", "record", {}, HASH_A, 1.0,
                                    artifact_hash=HASH_A)
        assert job.state == STATE_DONE
        assert job.from_cache
        assert queue.claim(2.0) is None  # never entered the ready set
        queue.close()

    def test_observers_see_every_durable_transition(self, tmp_path):
        queue = build_queue(tmp_path / "q")
        seen: list[tuple[int, str]] = []
        queue.subscribe(lambda lsn, job: seen.append((lsn, job.state)))
        queue.submit("t", "record", {}, HASH_A, 1.0)
        job = queue.claim(2.0)
        queue.finish(job, now=3.0, artifact_hash=HASH_A)
        assert seen == [(1, STATE_QUEUED), (2, STATE_RUNNING),
                        (3, STATE_DONE)]
        queue.close()

    def test_counts_census(self, tmp_path):
        queue = build_queue(tmp_path / "q")
        queue.submit("alice", "record", {}, HASH_A, 1.0)
        queue.submit("alice", "record", {}, HASH_B, 2.0)
        queue.submit("bob", "record", {}, HASH_C, 3.0)
        queue.claim(4.0)
        counts = queue.counts()
        assert counts.queued == 2 and counts.running == 1
        assert counts.depth == 3
        assert counts.by_tenant == {"alice": 2, "bob": 1}
        queue.close()


#: Every way a job can move, for the running-census property.
_CENSUS_STEPS = ("submit", "submit-cached", "claim", "claim-leased",
                 "finish-ok", "finish-failed", "expire-leases", "punt",
                 "reopen", "compact")


@settings(max_examples=40, deadline=None)
@given(retain=st.sampled_from([None, 0, 1, 3]),
       steps=st.lists(st.tuples(st.sampled_from(_CENSUS_STEPS),
                                st.integers(0, 1 << 16)),
                      min_size=20, max_size=60))
def test_running_census_equals_a_recount(retain, steps):
    """After any sequence of transitions -- deadline failures at
    claim, lease expiries that requeue or poison, punts, restarts
    that requeue running jobs, compactions that drop terminal jobs,
    and automatic rotation -- ``counts()`` equals :func:`census` over
    the jobs the queue retains."""
    with tempfile.TemporaryDirectory() as root:
        def reopen():
            return JobQueue(root, segment_bytes=4096, compact_after=2,
                            retain_terminal=retain)

        queue = reopen()
        now = 0.0
        try:
            for step, pick in steps:
                now += 1.0
                running = [job for job in queue.jobs()
                           if job.state == STATE_RUNNING]
                leased = [job for job in running if job.leased]
                if step == "submit":
                    # Every fourth job's deadline passes before the
                    # next claim, which then fails it.
                    queue.submit(f"t{pick % 3}", "record", {},
                                 f"{pick:064x}", now,
                                 priority=pick % 2,
                                 deadline_at=now + 0.5
                                 if pick % 4 == 0 else None)
                elif step == "submit-cached":
                    queue.submit_resolved(f"t{pick % 3}", "record", {},
                                          HASH_A, now, HASH_A)
                elif step == "claim":
                    queue.claim(now)
                elif step == "claim-leased":
                    queue.claim(now, worker=f"w{pick % 2}",
                                lease_ttl=1.5)
                elif step in ("finish-ok", "finish-failed") and running:
                    job = running[pick % len(running)]
                    if step == "finish-ok":
                        queue.finish(job, now=now, artifact_hash=HASH_A)
                    else:
                        queue.finish(job, now=now, error="Boom: no")
                elif step == "expire-leases":
                    queue.expire_leases(now, max_expiries=2)
                elif step == "punt" and leased:
                    queue.punt(leased[pick % len(leased)].id, now,
                               max_expiries=2)
                elif step == "reopen":
                    queue.close()
                    queue = reopen()
                    assert queue.counts() == census(queue.jobs())
                    queue.recover_running(now)
                elif step == "compact":
                    queue.compact()
                assert queue.counts() == census(queue.jobs()), step
        finally:
            queue.close()


def test_running_census_survives_concurrent_transitions(tmp_path):
    """Four threads (more than cores) submit, claim and finish at once
    under a tiny switch interval: a census update lost outside the
    queue lock would leave ``counts()`` off a recount."""
    queue = build_queue(tmp_path / "q")

    def traffic(thread: int) -> None:
        for index in range(40):
            queue.submit(f"t{thread}", "record", {},
                         f"{thread * 100 + index:064x}", float(index))
            claimed = queue.claim(float(index))
            if claimed is not None and index % 3:
                queue.finish(claimed, now=float(index),
                             artifact_hash=HASH_A)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=traffic, args=(n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    counts = queue.counts()
    assert counts == census(queue.jobs())
    assert counts.queued + counts.running + counts.done == 160
    queue.close()


class TestStateMachine:
    def test_terminal_states_are_final(self):
        job = Job(id="j", seq=0, tenant="t", kind="record",
                  params={}, spec_hash=HASH_A)
        job.transition(STATE_RUNNING)
        job.transition(STATE_DONE)
        with pytest.raises(JobStateError, match="illegal transition"):
            job.transition(STATE_RUNNING)

    def test_queued_cannot_requeue(self):
        job = Job(id="j", seq=0, tenant="t", kind="record",
                  params={}, spec_hash=HASH_A)
        with pytest.raises(JobStateError):
            job.transition(STATE_QUEUED)

    def test_unknown_state_rejected(self):
        job = Job(id="j", seq=0, tenant="t", kind="record",
                  params={}, spec_hash=HASH_A)
        with pytest.raises(JobStateError, match="unknown job state"):
            job.transition("paused")

    def test_wire_form_round_trips(self):
        job = Job(id="j", seq=4, tenant="t", kind="chaos",
                  params={"seed": 2}, spec_hash=HASH_B,
                  submitted_at=1.5)
        clone = Job.from_dict(json.loads(json.dumps(job.as_dict())))
        assert clone == job

    def test_census_ignores_terminal_for_tenants(self):
        jobs = [Job(id="a", seq=0, tenant="t", kind="record",
                    params={}, spec_hash=HASH_A, state=STATE_DONE),
                Job(id="b", seq=1, tenant="t", kind="record",
                    params={}, spec_hash=HASH_B)]
        counts = census(jobs)
        assert counts.by_tenant == {"t": 1}
        assert counts.done == 1 and counts.depth == 1
