"""Fleet-durability tests: leases, priorities, deadlines, and the
segmented journal.

Two headline guarantees extend the queue's original one:

* a SIGKILL of the *server* at any byte -- now of a rotated,
  multi-segment journal -- loses no acknowledged transition (the
  exhaustive sweep at the bottom);
* a SIGKILL of a *worker* at any point loses no claimed job: its
  journaled lease expires and the requeue sweep takes the job back,
  with repeat offenders declared poison instead of requeued forever.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.lease import (
    DEFAULT_LEASE_TTL,
    Lease,
    WorkerRegistry,
    heartbeat_interval,
    new_lease_id,
)
from repro.serve.model import (
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
)
from repro.serve.queue import (
    JOURNAL_NAME,
    JobQueue,
    read_journal,
    read_journal_dir,
    segment_paths,
)
from repro.serve.sse import EventLog

HASH_A = "a" * 64
HASH_B = "b" * 64
HASH_C = "c" * 64


class TestLeaseModule:
    def test_heartbeat_interval_is_a_fraction_of_ttl(self):
        assert heartbeat_interval(30.0) == pytest.approx(10.0)
        assert heartbeat_interval(0.01) == 0.05  # floored

    def test_lease_ids_are_unique(self):
        assert len({new_lease_id() for _ in range(64)}) == 64

    def test_registry_degrades_on_silence(self):
        registry = WorkerRegistry(window=10.0)
        assert registry.degraded(0.0)  # never heard from anyone
        registry.touch("w1", 100.0)
        assert not registry.degraded(105.0)
        assert registry.degraded(111.0)
        registry.touch("w2", 112.0)
        assert not registry.degraded(113.0)  # auto-recovery

    def test_registry_census_lists_live_workers(self):
        registry = WorkerRegistry(window=10.0)
        registry.touch("w1", 100.0)
        registry.touch("w2", 108.0)
        assert registry.alive(109.0) == ["w1", "w2"]
        assert registry.alive(111.0) == ["w2"]


class TestQueueLeases:
    def test_claim_grants_a_journaled_lease(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit("t", "record", {}, HASH_A, 1.0)
        job = queue.claim(2.0, worker="w1", lease_ttl=5.0)
        assert job.leased
        assert job.worker == "w1"
        assert job.lease_expires_at == pytest.approx(7.0)
        queue.close()
        # The grant is durable: recovery sees the leased claim.
        again = JobQueue(tmp_path / "q")
        recovered = again.get(job.id)
        assert recovered.state == STATE_RUNNING
        assert recovered.lease_id == job.lease_id
        assert recovered.lease_ttl == 5.0
        again.close()

    def test_heartbeat_renews_only_the_real_holder(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit("t", "record", {}, HASH_A, 1.0)
        job = queue.claim(2.0, worker="w1", lease_ttl=5.0)
        renewed = queue.heartbeat(job.id, "w1", job.lease_id, 6.0)
        assert renewed.lease_expires_at == pytest.approx(11.0)
        assert queue.heartbeat(job.id, "w2", job.lease_id, 6.0) is None
        assert queue.heartbeat(job.id, "w1", "forged", 6.0) is None
        queue.close()

    def test_expired_lease_requeues_at_the_back(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit("t", "record", {"n": 1}, HASH_A, 1.0)
        queue.submit("t", "record", {"n": 2}, HASH_B, 1.5)
        first = queue.claim(2.0, worker="w1", lease_ttl=2.0)
        requeued, poisoned = queue.expire_leases(10.0)
        assert [j.id for j in requeued] == [first.id]
        assert poisoned == []
        assert first.state == STATE_QUEUED
        assert not first.leased
        # Requeue order: the untouched job goes first now.
        next_job = queue.claim(11.0, worker="w2", lease_ttl=2.0)
        assert next_job.spec_hash == HASH_B
        queue.close()

    def test_live_lease_is_not_swept(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit("t", "record", {}, HASH_A, 1.0)
        queue.claim(2.0, worker="w1", lease_ttl=30.0)
        requeued, poisoned = queue.expire_leases(10.0)
        assert requeued == [] and poisoned == []
        queue.close()

    def test_poison_after_max_expiries(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit("t", "record", {}, HASH_A, 1.0)
        now = 2.0
        for round_no in range(2):
            job = queue.claim(now, worker=f"w{round_no}",
                              lease_ttl=1.0)
            requeued, poisoned = queue.expire_leases(now + 5.0,
                                                     max_expiries=3)
            assert [j.id for j in requeued] == [job.id]
            now += 10.0
        job = queue.claim(now, worker="w9", lease_ttl=1.0)
        requeued, poisoned = queue.expire_leases(now + 5.0,
                                                 max_expiries=3)
        assert requeued == []
        assert [j.id for j in poisoned] == [job.id]
        assert job.state == STATE_FAILED
        assert job.failure["type"] == "poison"
        assert job.failure["lease_expiries"] == 3
        assert job.failure["last_worker"] == "w9"
        assert "PoisonJob" in job.error
        assert queue.poisoned_jobs == 1
        queue.close()

    def test_punt_counts_toward_poison(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit("t", "record", {}, HASH_A, 1.0)
        job = queue.claim(2.0, worker="w1", lease_ttl=30.0)
        taken = queue.punt(job.id, 3.0, max_expiries=3)
        assert taken.state == STATE_QUEUED
        assert taken.lease_expiries == 1
        queue.close()

    def test_recovery_rearms_leased_running_jobs(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit("t", "record", {}, HASH_A, 1.0)
        job = queue.claim(2.0, worker="w1", lease_ttl=5.0)
        queue.close()

        again = JobQueue(tmp_path / "q")
        requeued = again.recover_running(now=100.0)
        # The leased job is NOT requeued: its worker may have
        # survived the server crash.  It gets one fresh TTL.
        assert requeued == []
        recovered = again.get(job.id)
        assert recovered.state == STATE_RUNNING
        assert recovered.lease_expires_at == pytest.approx(105.0)
        # A surviving worker heartbeats and keeps the claim...
        assert again.heartbeat(job.id, "w1", job.lease_id,
                               104.0) is not None
        # ...a dead one loses it to the sweep.
        requeued, _ = again.expire_leases(200.0)
        assert [j.id for j in requeued] == [job.id]
        again.close()

    def test_census_counts_live_leases(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit("t", "record", {}, HASH_A, 1.0)
        queue.submit("t", "record", {}, HASH_B, 1.0)
        queue.claim(2.0, worker="w1", lease_ttl=9.0)
        queue.claim(2.0, worker="w1", lease_ttl=9.0)
        census = queue.lease_census(10.5)
        assert census["leased"] == 2
        assert census["by_worker"] == {"w1": 2}
        assert census["expiring_soon"] == 2  # < ttl/3 left
        queue.close()


class TestPrioritiesAndDeadlines:
    def test_higher_priority_claims_first(self, tmp_path):
        """Lower number = higher priority; ties break by LSN."""
        queue = JobQueue(tmp_path / "q")
        queue.submit("t", "record", {"n": 1}, HASH_A, 1.0, priority=5)
        queue.submit("t", "record", {"n": 2}, HASH_B, 2.0, priority=-1)
        queue.submit("t", "record", {"n": 3}, HASH_C, 3.0, priority=5)
        order = [queue.claim(4.0).spec_hash for _ in range(3)]
        assert order == [HASH_B, HASH_A, HASH_C]
        queue.close()

    def test_priority_survives_recovery(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit("t", "record", {"n": 1}, HASH_A, 1.0, priority=9)
        queue.submit("t", "record", {"n": 2}, HASH_B, 2.0, priority=0)
        queue.close()
        again = JobQueue(tmp_path / "q")
        again.recover_running()
        assert again.claim(3.0).spec_hash == HASH_B
        again.close()

    def test_past_deadline_jobs_fail_at_claim(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit("t", "record", {"n": 1}, HASH_A, 1.0,
                     deadline_at=5.0)
        queue.submit("t", "record", {"n": 2}, HASH_B, 1.0)
        claimed = queue.claim(10.0)
        # The expired job was failed (typed), the live one handed out.
        assert claimed.spec_hash == HASH_B
        dead = queue.jobs(state=STATE_FAILED)[0]
        assert dead.spec_hash == HASH_A
        assert dead.failure["type"] == "deadline"
        assert dead.failure["late_by"] == pytest.approx(5.0)
        assert dead.error.startswith("DeadlineExpired")
        assert queue.deadline_failed == 1
        queue.close()

    def test_deadline_not_yet_passed_is_claimable(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit("t", "record", {}, HASH_A, 1.0, deadline_at=5.0)
        assert queue.claim(4.0) is not None
        queue.close()


def fill_queue(queue, jobs=40):
    """Drive enough transitions through ``queue`` to force several
    rotations (tiny segment_bytes make each append significant)."""
    submitted = []
    for index in range(jobs):
        spec_hash = f"{index:02d}" * 32
        job = queue.submit("t", "record", {"n": index}, spec_hash,
                           float(index), priority=index % 3)
        submitted.append(job)
    for _ in range(jobs // 2):
        job = queue.claim(100.0, worker="w1", lease_ttl=30.0)
        queue.finish(job, now=101.0, artifact_hash=job.spec_hash)
    return submitted


class TestSegmentation:
    def test_rotation_seals_segments(self, tmp_path):
        queue = JobQueue(tmp_path / "q", segment_bytes=4096,
                         compact_after=10_000)
        fill_queue(queue)
        stats = queue.journal_stats()
        assert stats["rotations"] >= 2
        sealed = segment_paths(tmp_path / "q")
        assert len(sealed) == stats["rotations"]
        # Sealed segments carry only whole, valid lines.
        for path in sealed:
            records, good = read_journal(path)
            assert good == path.stat().st_size
            assert records
        queue.close()

    def test_recovery_spans_segments(self, tmp_path):
        queue = JobQueue(tmp_path / "q", segment_bytes=4096,
                         compact_after=10_000)
        fill_queue(queue)
        expected = {j.id: j.as_dict() for j in queue.jobs()}
        lsn = queue.lsn
        queue.close()
        again = JobQueue(tmp_path / "q", segment_bytes=4096,
                         compact_after=10_000)
        assert {j.id: j.as_dict() for j in again.jobs()} == expected
        assert again.lsn == lsn
        again.close()

    def test_compaction_preserves_state_and_bounds_bytes(
            self, tmp_path):
        queue = JobQueue(tmp_path / "q", segment_bytes=4096,
                         compact_after=10_000)
        fill_queue(queue)
        expected = {j.id: j.as_dict() for j in queue.jobs()}
        before = queue.journal_stats()
        reclaimed = queue.compact()
        assert reclaimed > 0
        stats = queue.journal_stats()
        assert stats["compactions"] == 1
        assert stats["compacted_through"] == queue.lsn
        assert len(segment_paths(tmp_path / "q")) == 1
        assert {j.id: j.as_dict() for j in queue.jobs()} == expected
        assert stats["sealed_bytes"] + stats["active_bytes"] < \
            before["sealed_bytes"] + before["active_bytes"]
        queue.close()
        # And the compacted journal recovers identically.
        again = JobQueue(tmp_path / "q")
        assert {j.id: j.as_dict() for j in again.jobs()} == expected
        assert again.compacted_through == stats["compacted_through"]
        again.close()

    def test_automatic_compaction_at_threshold(self, tmp_path):
        queue = JobQueue(tmp_path / "q", segment_bytes=4096,
                         compact_after=2)
        fill_queue(queue, jobs=60)
        stats = queue.journal_stats()
        assert stats["compactions"] >= 1
        # Compaction keeps the sealed count below the threshold.
        assert len(segment_paths(tmp_path / "q")) <= 2
        queue.close()

    def test_retain_terminal_drops_oldest_finished(self, tmp_path):
        queue = JobQueue(tmp_path / "q", segment_bytes=4096,
                         compact_after=10_000, retain_terminal=3)
        fill_queue(queue, jobs=20)  # 10 finished
        queue.compact()
        terminal = [j for j in queue.jobs() if j.terminal]
        assert len(terminal) == 3
        # Live jobs are never dropped.
        assert len(queue.jobs(state=STATE_QUEUED)) == 10
        queue.close()
        again = JobQueue(tmp_path / "q")
        assert len([j for j in again.jobs() if j.terminal]) == 3
        again.close()

    def test_read_journal_dir_filters_meta_records(self, tmp_path):
        queue = JobQueue(tmp_path / "q", segment_bytes=4096,
                         compact_after=10_000)
        fill_queue(queue, jobs=10)
        queue.compact()
        queue.submit("t", "record", {"post": 1}, HASH_A, 500.0)
        queue.close()
        records, compacted = read_journal_dir(tmp_path / "q")
        assert compacted > 0
        assert all("job" in r for r in records)
        lsns = [r["lsn"] for r in records]
        assert lsns == sorted(lsns)

    def test_kill_at_any_byte_of_a_rotated_journal(self, tmp_path):
        """The exhaustive sweep, multi-segment edition.

        Sealed segments are immutable (only the active file can
        tear), so the crash surface is: every truncation point of the
        active segment, atop the full set of sealed segments.  Every
        prefix must recover to exactly newest-wins over (sealed +
        valid active prefix) -- and a re-open after recovery must
        append cleanly.
        """
        queue = JobQueue(tmp_path / "q", segment_bytes=4096,
                         compact_after=10_000)
        fill_queue(queue, jobs=24)
        queue.close()
        data_dir = tmp_path / "q"
        assert len(segment_paths(data_dir)) >= 1
        active = (data_dir / JOURNAL_NAME).read_bytes()
        sealed_records, _ = read_journal_dir(data_dir)

        sealed_only: dict = {}
        for path in segment_paths(data_dir):
            for record in read_journal(path)[0]:
                if "job" in record:
                    sealed_only[record["job"]["id"]] = record["job"]

        for cut in range(len(active) + 1):
            target = tmp_path / f"cut-{cut}"
            target.mkdir()
            for path in segment_paths(data_dir):
                (target / path.name).write_bytes(path.read_bytes())
            (target / JOURNAL_NAME).write_bytes(active[:cut])

            expected = dict(sealed_only)
            valid, _good = read_journal(target / JOURNAL_NAME)
            for record in valid:
                if "job" in record:
                    expected[record["job"]["id"]] = record["job"]

            recovered = JobQueue(target, segment_bytes=4096,
                                 compact_after=10_000)
            state = {j.id: j.as_dict() for j in recovered.jobs()}
            assert state == expected, f"divergence at byte {cut}"
            # The queue must stay writable after any recovery.
            recovered.submit("t", "record", {"probe": cut},
                             HASH_C, 999.0)
            recovered.close()
            reread = JobQueue(target, segment_bytes=4096,
                              compact_after=10_000)
            assert len(reread.jobs()) == len(expected) + 1
            reread.close()

    def test_kill_during_compaction_window(self, tmp_path):
        """Crash between "compacted segment durable" and "old
        segments deleted": recovery must converge on newest-wins
        (duplicates across segments are harmless)."""
        queue = JobQueue(tmp_path / "q", segment_bytes=4096,
                         compact_after=10_000)
        fill_queue(queue, jobs=16)
        expected = {j.id: j.as_dict() for j in queue.jobs()}
        old_segments = [p.read_bytes()
                        for p in segment_paths(tmp_path / "q")]
        old_names = [p.name for p in segment_paths(tmp_path / "q")]
        queue.compact()
        queue.close()
        # Resurrect the superseded segments alongside the compacted
        # one: the on-disk state of a crash mid-deletion.
        for name, blob in zip(old_names, old_segments):
            (tmp_path / "q" / name).write_bytes(blob)
        recovered = JobQueue(tmp_path / "q")
        assert {j.id: j.as_dict()
                for j in recovered.jobs()} == expected
        recovered.close()


class TestEventLogCompactionResume:
    def test_resume_older_than_horizon_gets_full_snapshot(self):
        async def scenario():
            log = EventLog(asyncio.get_running_loop(),
                           compacted_through=50)
            for lsn in (50, 55, 60):
                log.seed(lsn, _job_stub(lsn))
            # A cursor inside the dissolved range cannot resume:
            # full snapshot instead of a silent gap.
            assert [lsn for lsn, _ in log.replay(10)] == [50, 55, 60]
            # At or past the horizon, normal resume.
            assert [lsn for lsn, _ in log.replay(50)] == [55, 60]
            assert [lsn for lsn, _ in log.replay(55)] == [60]
            # A fresh client (after=0) is unaffected.
            assert [lsn for lsn, _ in log.replay(0)] == [50, 55, 60]

        asyncio.run(scenario())


class TestEventLogJobIndex:
    def test_job_stream_equals_the_filtered_global_stream(self):
        """A per-job stream reads only its job's index; it yields what
        filtering the global stream by job id yields -- from the
        start, from mid-history and from a cursor older than the
        compaction horizon (which falls back to the full snapshot) --
        and then wakes for that job's next live event."""
        horizon = 20

        async def first(stream, count):
            return [await stream.__anext__() for _ in range(count)]

        async def scenario():
            log = EventLog(asyncio.get_running_loop(),
                           compacted_through=horizon)
            jobs = {name: _job_stub(0, name) for name in "abc"}
            # One compacted snapshot per job, then live history.
            for lsn, name in ((4, "b"), (9, "a"), (17, "c")):
                log.seed(lsn, jobs[name])
            for lsn in range(21, 41):
                log.seed(lsn, jobs["abc"[lsn % 3]])
            # Live appends arrive from queue threads; one duplicate of
            # a seeded LSN is dropped.
            for lsn, name in ((40, "a"), (41, "b"), (43, "a")):
                await asyncio.to_thread(log.append, lsn, jobs[name])
            await asyncio.sleep(0)
            assert log.last_id == 43
            for name in jobs:
                job_id = jobs[name].id
                for after in (0, 30, 5):
                    expected = [(lsn, data)
                                for lsn, data in log.replay(after)
                                if data["job"]["id"] == job_id]
                    assert expected
                    assert log.replay(after, job_id) == expected
                    stream = log.stream(after, job_id)
                    assert await first(stream, len(expected)) == \
                        expected
                    with pytest.raises(asyncio.TimeoutError):
                        await asyncio.wait_for(stream.__anext__(), 0.05)
            assert [lsn for lsn, _ in log.replay(5, jobs["a"].id)] == \
                [9, 21, 24, 27, 30, 33, 36, 39, 43]
            # A parked job stream wakes for its own job's next event.
            stream = log.stream(43, jobs["c"].id)
            waiter = asyncio.ensure_future(stream.__anext__())
            await asyncio.to_thread(log.append, 44, jobs["a"])
            await asyncio.to_thread(log.append, 45, jobs["c"])
            lsn, data = await asyncio.wait_for(waiter, 5)
            assert (lsn, data["job"]["id"]) == (45, jobs["c"].id)
            assert log.replay(0, "no-such-job") == []

        asyncio.run(scenario())

    def test_a_job_below_the_horizon_is_sent_once(self):
        """A queued job whose only event was compacted into the
        snapshot: its stream sends that event once and then parks,
        also when a compaction passes the stream's cursor."""
        async def scenario():
            log = EventLog(asyncio.get_running_loop(),
                           compacted_through=20)
            job = _job_stub(9, "a")
            log.seed(9, job)
            stream = log.stream(0, job.id)
            lsn, _ = await asyncio.wait_for(stream.__anext__(), 5)
            assert lsn == 9
            waiter = asyncio.ensure_future(stream.__anext__())
            await asyncio.sleep(0.05)
            assert not waiter.done()
            # The horizon rises while the stream is parked, and another
            # job's transition wakes it.
            log.compacted_through = 30
            await asyncio.to_thread(log.append, 31, _job_stub(31, "b"))
            await asyncio.sleep(0.05)
            assert not waiter.done()
            await asyncio.to_thread(log.append, 32, job)
            lsn, _ = await asyncio.wait_for(waiter, 5)
            assert lsn == 32

        asyncio.run(scenario())


def _job_stub(lsn, name=None):
    from repro.serve.model import Job

    return Job(id=f"j{name or lsn}", seq=lsn, tenant="t",
               kind="record", params={}, spec_hash=HASH_A,
               submitted_at=0.0)
