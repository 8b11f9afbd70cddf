"""Tests for the transport-independent service core.

Jobs here run through an injected ``job_fn`` on the inline backend,
so the tests exercise the queue/cache/admission/telemetry plumbing
without paying for real simulations.  ``TestPooledAttempts`` injects
a one-worker process pool instead, for the dead-worker and
deadline-sweep paths.  The HTTP layer has its own test module; real
end-to-end jobs run there.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ConfigurationError
from repro.guard.limits import Budgets
from repro.runner import ResultCache
from repro.runner.executors import ProcessPoolBackend, RemoteWorkerBackend
from repro.runner.jobs import build_job_spec
from repro.serve.queue import JobQueue
from repro.serve.service import ReproService
from repro.telemetry.metrics import MetricsRegistry


def fake_job(spec, cache=None):
    """Instant deterministic 'simulation': artifact from the spec."""
    return {"schema": 1, "spec_hash": spec.content_hash(),
            "kind": getattr(spec, "kind", "?"), "payload": "ok"}


def failing_job(spec, cache=None):
    raise RuntimeError("synthetic job failure")


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("cache",
                      ResultCache(tmp_path / "cache", salt="serve-t"))
    kwargs.setdefault("executor", "inline")
    kwargs.setdefault("job_fn", fake_job)
    kwargs.setdefault("metrics", MetricsRegistry())
    return ReproService(tmp_path / "data", **kwargs)


class TestSubmitAndRun:
    def test_submit_runs_to_done_with_artifact(self, tmp_path):
        service = make_service(tmp_path)
        job, decision = service.submit("record", {"seed": 1})
        assert decision.admitted and job.state == "queued"
        assert service.run_until_idle() == 1
        final = service.queue.get(job.id)
        assert final.state == "done"
        artifact = service.artifact(final.artifact_hash)
        assert artifact["spec_hash"] == final.artifact_hash
        service.close()

    def test_malformed_spec_raises_before_admission(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(ConfigurationError, match="no parameter"):
            service.submit("record", {"warp": 9})
        with pytest.raises(ConfigurationError, match="unknown job kind"):
            service.submit("dance", {})
        assert service.queue.counts().depth == 0
        service.close()

    def test_failure_reaches_failed_with_error(self, tmp_path):
        service = make_service(tmp_path, job_fn=failing_job)
        job, _ = service.submit("record", {"seed": 1})
        service.run_until_idle()
        final = service.queue.get(job.id)
        assert final.state == "failed"
        assert "RuntimeError" in final.error
        assert service.metrics.as_dict()["serve_failed"] == 1
        service.close()

    def test_identical_resubmission_served_from_cache(self, tmp_path):
        service = make_service(tmp_path)
        params = {"seed": 4, "scale": 0.05}
        first, _ = service.submit("record", params)
        service.run_until_idle()
        again, decision = service.submit("record", params)
        assert decision.admitted
        assert decision.reason == "served from cache"
        assert again.state == "done" and again.from_cache
        assert again.artifact_hash == \
            service.queue.get(first.id).artifact_hash
        metrics = service.metrics.as_dict()
        assert metrics["serve_cache_hits"] == 1
        assert metrics["serve_served"] == 2
        service.close()

    def test_budget_deadline_becomes_job_timeout(self, tmp_path):
        service = make_service(
            tmp_path, budgets=Budgets(deadline_seconds=7.5))
        assert service.admission.job_timeout == 7.5
        assert service.stats()["admission"]["job_timeout"] == 7.5
        service.close()


class TestSchedulingParams:
    """priority/deadline steer the queue without touching the spec."""

    def test_priority_and_deadline_reach_the_job(self, tmp_path):
        service = make_service(tmp_path)
        job, decision = service.submit(
            "record", {"seed": 1, "priority": 3, "deadline": 5.0})
        assert decision.admitted
        assert job.priority == 3
        assert job.deadline_at == pytest.approx(
            service._now() + 5.0, abs=1.0)
        plain, _ = service.submit("record", {"seed": 2})
        assert plain.priority == 0 and plain.deadline_at is None
        service.close()

    def test_bad_scheduling_values_rejected_before_admission(
            self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(ConfigurationError, match="priority"):
            service.submit("record", {"seed": 1, "priority": "high"})
        with pytest.raises(ConfigurationError, match="deadline"):
            service.submit("record", {"seed": 1, "deadline": -1})
        assert service.queue.counts().depth == 0
        service.close()

    def test_scheduling_params_do_not_perturb_the_spec_hash(
            self, tmp_path):
        """Same work at two priorities is still one cached artifact."""
        service = make_service(tmp_path)
        first, _ = service.submit(
            "record", {"seed": 9, "priority": 7})
        service.run_until_idle()
        again, decision = service.submit(
            "record", {"seed": 9, "priority": -2, "deadline": 60.0})
        assert decision.reason == "served from cache"
        assert again.from_cache
        assert again.artifact_hash == \
            service.queue.get(first.id).artifact_hash
        service.close()


class TestBackpressure:
    def test_flood_sheds_and_bounds_depth(self, tmp_path):
        """1000-submission flood: every request either admitted or
        shed with a retry hint; depth never exceeds capacity; every
        admitted job reaches a terminal state exactly once."""
        capacity = 16
        service = make_service(tmp_path, capacity=capacity,
                               tenant_quota=capacity)
        admitted, shed = [], 0
        for index in range(1000):
            job, decision = service.submit("record", {"seed": index})
            if decision.admitted:
                admitted.append(job.id)
            else:
                shed += 1
                assert job is None
                assert decision.retry_after >= 1.0
                assert "queue full" in decision.reason
            assert service.queue.counts().depth <= capacity
            if index % 100 == 99:  # the flood outruns the drain
                for _ in range(4):
                    service.process_one()
        service.run_until_idle()
        assert len(admitted) + shed == 1000
        assert shed > 0 and len(admitted) >= capacity
        jobs = service.queue.jobs()
        assert len(jobs) == len(admitted)
        assert sorted(j.id for j in jobs) == sorted(admitted)
        assert all(j.state == "done" and j.attempts <= 1
                   for j in jobs)
        metrics = service.metrics.as_dict()
        assert metrics["serve_admitted"] == len(admitted)
        assert metrics["serve_rejected"] == shed
        service.close()

    def test_tenant_quota_isolates_a_flooder(self, tmp_path):
        service = make_service(tmp_path, capacity=100, tenant_quota=2)
        outcomes = [service.submit("record", {"seed": i},
                                   tenant="greedy")[1].admitted
                    for i in range(5)]
        assert outcomes == [True, True, False, False, False]
        job, decision = service.submit("record", {"seed": 99},
                                       tenant="polite")
        assert decision.admitted and job is not None
        service.close()

    def test_cached_resubmission_is_never_shed(self, tmp_path):
        service = make_service(tmp_path, capacity=1)
        params = {"seed": 1}
        service.submit("record", params)
        service.run_until_idle()
        # The queue is at capacity again with fresh work...
        service.submit("record", {"seed": 2})
        _, shed = service.submit("record", {"seed": 3})
        assert not shed.admitted
        # ...but the cache-answered duplicate still gets through.
        job, decision = service.submit("record", params)
        assert decision.admitted and job.from_cache
        service.close()


class TestCrashRecovery:
    def test_requeued_job_completes_exactly_once(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", salt="serve-t")
        service = make_service(tmp_path, cache=cache)
        job, _ = service.submit("record", {"seed": 1})
        claimed = service.queue.claim(time.time())
        assert claimed.id == job.id and claimed.state == "running"
        # Abandon the service mid-job: the SIGKILL stand-in.  No
        # finish is journaled, no artifact is stored.
        del service

        revived = make_service(tmp_path, cache=cache)
        assert revived.queue.requeued_jobs == 1
        assert revived.metrics.as_dict()["serve_requeued"] == 1
        recovered = revived.queue.get(job.id)
        assert recovered.state == "queued"
        assert recovered.requeues == 1
        assert revived.run_until_idle() == 1
        final = revived.queue.get(job.id)
        assert final.state == "done" and final.attempts == 2
        assert len(revived.queue.jobs()) == 1  # no duplicates
        assert revived.artifact(final.artifact_hash) is not None
        revived.close()

    def test_requeued_job_reuses_dead_servers_artifact(self, tmp_path):
        """If the artifact landed before the crash, the rerun is a
        cache hit, not a recomputation."""
        cache = ResultCache(tmp_path / "cache", salt="serve-t")
        service = make_service(tmp_path, cache=cache)
        job, _ = service.submit("record", {"seed": 1})
        service.queue.claim(time.time())
        spec = build_job_spec("record", {"seed": 1})
        cache.store(spec, fake_job(spec))  # crash after store
        del service

        calls = []

        def counting_job(spec, cache=None):
            calls.append(spec.content_hash())
            return fake_job(spec)

        revived = make_service(tmp_path, cache=cache,
                               job_fn=counting_job)
        revived.run_until_idle()
        final = revived.queue.get(job.id)
        assert final.state == "done" and final.from_cache
        assert calls == []  # never recomputed
        revived.close()


#: Journaled jobs whose spec this version cannot build: a retired kind
#: and a param value rejected since, each with the text its error names.
UNBUILDABLE = [
    (("bench", {}), "unknown job kind 'bench'"),
    (("record", {"seed": True}), "parameter 'seed'"),
]


def journal_job(data_dir, kind, params):
    """Write one queued job straight into the journal, unvalidated, as
    an older server version would have accepted it."""
    queue = JobQueue(data_dir)
    job = queue.submit("old", kind, params, "d" * 64, time.time())
    queue.close()
    return job


class TestUnbuildableJournaledJobs:
    @pytest.mark.parametrize("request_,error", UNBUILDABLE,
                             ids=["retired-kind", "rejected-param"])
    def test_fails_instead_of_killing_the_loop(self, tmp_path,
                                               request_, error):
        bad = journal_job(tmp_path / "data", *request_)
        service = make_service(tmp_path)
        good, _ = service.submit("record", {"seed": 1})
        assert service.run_until_idle() == 2
        failed = service.queue.get(bad.id)
        assert failed.state == "failed"
        assert "ConfigurationError" in failed.error
        assert error in failed.error
        assert service.queue.get(good.id).state == "done"
        service.close()

        revived = make_service(tmp_path)
        assert revived.queue.requeued_jobs == 0
        assert revived.queue.get(bad.id).state == "failed"
        assert revived.run_until_idle() == 0
        revived.close()


class TestConcurrency:
    def test_parallel_claims_never_double_run(self, tmp_path):
        """Racing workers each claim distinct jobs."""
        service = make_service(tmp_path, capacity=64)
        ran: list[str] = []
        run_lock = threading.Lock()
        original = service._run_job

        def tracking_run(job):
            with run_lock:
                ran.append(job.id)
            return original(job)

        service._run_job = tracking_run
        for index in range(24):
            service.submit("record", {"seed": index})
        threads = [threading.Thread(target=service.run_until_idle)
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert sorted(ran) == sorted(set(ran))
        assert len(ran) == 24
        assert all(j.state == "done" for j in service.queue.jobs())
        service.close()


class TestStats:
    def test_stats_shape(self, tmp_path):
        service = make_service(tmp_path)
        service.submit("record", {"seed": 1})
        service.run_until_idle()
        stats = service.stats()
        assert stats["queue"]["done"] == 1
        assert stats["journal"]["lsn"] == 3  # submit, claim, finish
        assert stats["backend"]["name"] == "inline"
        assert stats["admission"]["capacity"] == 64
        assert stats["cache"]["stores"] == 1
        assert stats["metrics"]["serve_served"] == 1
        assert stats["metrics"]["serve_latency_seconds.count"] == 1
        service.close()


def exiting_job(spec, cache=None):
    if spec.seed == 1:
        os._exit(13)  # hard worker death
    return fake_job(spec, cache)


def stubborn_job(spec, cache=None):
    # Defeats the in-worker SIGALRM and sleeps in C: only the deadline
    # sweep can end the attempt.
    if hasattr(signal, "SIGALRM"):
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
    time.sleep(2.0)
    return fake_job(spec, cache)


class TestPooledAttempts:
    def test_dead_worker_fails_the_job_and_the_pool_is_rebuilt(
            self, tmp_path):
        backend = ProcessPoolBackend(max_workers=1)
        service = make_service(tmp_path, executor=backend,
                               job_fn=exiting_job)
        try:
            doomed, _ = service.submit("record", {"seed": 1})
            healthy, _ = service.submit("record", {"seed": 2})
            assert service.run_until_idle() == 2
            final = service.queue.get(doomed.id)
            assert final.state == "failed"
            assert final.error == "BrokenProcessPool: worker process died"
            assert service.queue.get(healthy.id).state == "done"
        finally:
            service.close()
            backend.shutdown()

    def test_pool_broken_between_jobs_is_rebuilt(self, tmp_path):
        backend = ProcessPoolBackend(max_workers=1)
        service = make_service(tmp_path, executor=backend)
        try:
            with pytest.raises(BrokenProcessPool):
                backend.submit(os._exit, 13).result(timeout=60)
            first, _ = service.submit("record", {"seed": 1})
            second, _ = service.submit("record", {"seed": 2})
            assert service.run_until_idle() == 2
            assert service.queue.get(first.id).error == \
                "BrokenProcessPool: worker process died"
            assert service.queue.get(second.id).state == "done"
        finally:
            service.close()
            backend.shutdown()

    def test_wedged_job_is_swept_at_its_deadline(self, tmp_path):
        backend = ProcessPoolBackend(max_workers=1)
        service = make_service(tmp_path, executor=backend,
                               job_fn=stubborn_job,
                               budgets=Budgets(deadline_seconds=0.2))
        try:
            job, _ = service.submit("record", {"seed": 1})
            assert service.run_until_idle() == 1
            final = service.queue.get(job.id)
            assert final.state == "failed"
            assert final.error == ("JobTimeout: job missed its 0.2s "
                                   "deadline (pool sweep)")
        finally:
            service.close()
            backend.shutdown()


FORKSERVER = ("forkserver" if "forkserver" in
              multiprocessing.get_all_start_methods() else None)


class TestBackendFactory:
    def test_process_pool_forks_from_a_server(self, tmp_path):
        service = make_service(tmp_path, executor="process")
        try:
            assert isinstance(service.backend, ProcessPoolBackend)
            assert service.backend.mp_start_method == FORKSERVER
        finally:
            service.close()

    def test_remote_fleet_falls_back_to_such_a_pool(self, tmp_path):
        service = make_service(tmp_path, executor="remote", jobs=2,
                               degraded_after=3.5)
        try:
            fleet = service.backend
            assert isinstance(fleet, RemoteWorkerBackend)
            assert fleet.window == 3.5
            assert isinstance(fleet.fallback, ProcessPoolBackend)
            assert fleet.fallback.max_workers == 2
            assert fleet.fallback.mp_start_method == FORKSERVER
        finally:
            service.close()
