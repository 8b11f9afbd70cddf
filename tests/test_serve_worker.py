"""Tests for the worker fleet: the ``repro worker`` loop, the
service's claim/heartbeat/complete protocol, and graceful
degradation.

The acceptance scenario at the bottom is the full fault drill, with
real subprocesses: a worker is SIGKILLed mid-job, its lease expires,
the job requeues, and a second worker completes it -- exactly once,
with an artifact byte-identical to a local run of the same spec.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, ServeError
from repro.runner import ResultCache
from repro.runner.cache import encode_artifact
from repro.runner.executors import (
    InlineBackend,
    RemoteWorkerBackend,
)
from repro.runner.retry import RetryPolicy
from repro.serve.client import ServeClient
from repro.runner.jobs import build_job_spec
from repro.serve.service import ReproService
from repro.serve.worker import ServeWorker, default_worker_id
from repro.telemetry.metrics import MetricsRegistry

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def fake_job(spec, cache=None):
    return {"schema": 1, "spec_hash": spec.content_hash(),
            "kind": getattr(spec, "kind", "?"), "payload": "ok"}


def make_fleet_service(tmp_path, **kwargs):
    kwargs.setdefault("cache",
                      ResultCache(tmp_path / "cache", salt="fleet-t"))
    kwargs.setdefault("executor", "remote")
    kwargs.setdefault("job_fn", fake_job)
    kwargs.setdefault("metrics", MetricsRegistry())
    return ReproService(tmp_path / "data", **kwargs)


RECORD_PARAMS = {"app": "fft", "scale": 0.05, "seed": 3}


class TestRemoteWorkerBackend:
    def test_degraded_until_first_contact(self):
        backend = RemoteWorkerBackend(fallback=InlineBackend(),
                                      window=10.0)
        assert backend.degraded(100.0)
        backend.touch_worker("w1", 100.0)
        assert not backend.degraded(105.0)
        assert backend.degraded(120.0)
        assert backend.workers(105.0) == ["w1"]
        assert backend.workers(120.0) == []

    def test_submit_delegates_to_fallback(self):
        backend = RemoteWorkerBackend(fallback=InlineBackend())
        assert backend.name == "remote"
        assert backend.submit(int, "42").result() == 42


class TestServiceFleetProtocol:
    def test_claim_heartbeat_complete_roundtrip(self, tmp_path):
        service = make_fleet_service(tmp_path)
        service.submit("record", dict(RECORD_PARAMS))
        job, lease = service.claim_remote("w1")
        assert job is not None and lease.worker == "w1"
        assert lease.job_id == job.id

        renewed = service.heartbeat_remote("w1", job.id,
                                           lease.lease_id)
        assert renewed is not None
        assert service.heartbeat_remote("w1", job.id,
                                        "forged") is None

        spec = build_job_spec(job.kind, job.params)
        artifact = fake_job(spec)
        digest = hashlib.sha256(
            encode_artifact(artifact)).hexdigest()
        result = service.complete_remote(
            "w1", job.id, lease.lease_id,
            {"ok": True, "artifact": artifact, "wall_time": 0.01},
            artifact_digest=digest)
        assert result["status"] == "ok"
        assert result["job"]["state"] == "done"
        assert service.artifact(spec.content_hash()) == artifact
        metrics = service.metrics.as_dict(prefix="serve_")
        assert metrics["serve_remote_completed"] == 1
        service.close()

    def test_duplicate_completion_is_acknowledged_once(
            self, tmp_path):
        service = make_fleet_service(tmp_path)
        service.submit("record", dict(RECORD_PARAMS))
        job, lease = service.claim_remote("w1")
        spec = build_job_spec(job.kind, job.params)
        artifact = fake_job(spec)
        digest = hashlib.sha256(
            encode_artifact(artifact)).hexdigest()
        envelope = {"ok": True, "artifact": artifact,
                    "wall_time": 0.01}
        first = service.complete_remote("w1", job.id, lease.lease_id,
                                        envelope, digest)
        second = service.complete_remote("w1", job.id, lease.lease_id,
                                         envelope, digest)
        assert first["status"] == "ok"
        assert second["status"] == "duplicate"
        # Exactly one terminal journal entry: the jobs list holds a
        # single done job with one artifact.
        done = service.queue.jobs(state="done")
        assert len(done) == 1
        service.close()

    def test_parity_failure_rejects_and_requeues(self, tmp_path):
        service = make_fleet_service(tmp_path)
        service.submit("record", dict(RECORD_PARAMS))
        job, lease = service.claim_remote("w1")
        spec = build_job_spec(job.kind, job.params)
        artifact = fake_job(spec)
        result = service.complete_remote(
            "w1", job.id, lease.lease_id,
            {"ok": True, "artifact": artifact, "wall_time": 0.01},
            artifact_digest="0" * 64)  # transport corruption
        assert result["status"] == "rejected"
        assert "digest mismatch" in result["reason"]
        taken_back = service.queue.get(job.id)
        assert taken_back.state == "queued"
        assert taken_back.lease_expiries == 1
        metrics = service.metrics.as_dict(prefix="serve_")
        assert metrics["serve_parity_failures"] == 1
        service.close()

    def test_wrong_spec_artifact_is_rejected(self, tmp_path):
        service = make_fleet_service(tmp_path)
        service.submit("record", dict(RECORD_PARAMS))
        job, lease = service.claim_remote("w1")
        alien = {"schema": 1, "spec_hash": "f" * 64, "payload": "?"}
        digest = hashlib.sha256(encode_artifact(alien)).hexdigest()
        result = service.complete_remote(
            "w1", job.id, lease.lease_id,
            {"ok": True, "artifact": alien, "wall_time": 0.01},
            artifact_digest=digest)
        assert result["status"] == "rejected"
        assert "names spec" in result["reason"]
        service.close()

    def test_failure_only_accepted_from_lease_holder(self, tmp_path):
        service = make_fleet_service(tmp_path)
        service.submit("record", dict(RECORD_PARAMS))
        job, lease = service.claim_remote("w1")
        stale = service.complete_remote(
            "w2", job.id, "not-the-lease",
            {"ok": False, "error_type": "Boom", "message": "x"})
        assert stale["status"] == "stale"
        assert service.queue.get(job.id).state == "running"
        real = service.complete_remote(
            "w1", job.id, lease.lease_id,
            {"ok": False, "error_type": "Boom", "message": "x",
             "wall_time": 0.5})
        assert real["status"] == "ok"
        failed = service.queue.get(job.id)
        assert failed.state == "failed"
        assert failed.failure["type"] == "remote"
        assert failed.failure["worker"] == "w1"
        service.close()

    def test_unknown_job_completion(self, tmp_path):
        service = make_fleet_service(tmp_path)
        result = service.complete_remote(
            "w1", "j-nope", "x", {"ok": True, "artifact": {}})
        assert result["status"] == "unknown"
        service.close()

    def test_worker_endpoints_need_fleet_mode(self, tmp_path):
        service = make_fleet_service(tmp_path, executor="inline")
        with pytest.raises(ConfigurationError,
                           match="not running a remote worker fleet"):
            service.claim_remote("w1")
        service.close()

    def test_sweep_poisons_repeat_offenders(self, tmp_path):
        service = make_fleet_service(tmp_path, lease_ttl=0.2,
                                     max_lease_expiries=2)
        service.submit("record", dict(RECORD_PARAMS))
        for _ in range(2):
            job, _lease = service.claim_remote("w1")
            assert job is not None
            requeued, poisoned = service.sweep_leases(
                now=service._now() + 10.0)
        assert poisoned and poisoned[0].failure["type"] == "poison"
        metrics = service.metrics.as_dict(prefix="serve_")
        assert metrics["serve_poisoned"] == 1
        assert metrics["serve_lease_expired"] == 2
        service.close()


class TestDegradationRoundTrip:
    def test_local_fallback_claims_only_while_degraded(
            self, tmp_path):
        service = make_fleet_service(tmp_path, degraded_after=0.2)
        service.submit("record", dict(RECORD_PARAMS))
        service.submit("record", {**RECORD_PARAMS, "seed": 4})

        # No worker has ever called in: degraded from the start, the
        # local fallback executes (and the edge is counted).
        assert service.fleet_degraded()
        first = service.process_one()
        assert first is not None and first.state == "done"

        # A worker heartbeats: healthy again, the local loop yields.
        service.fleet.touch_worker("w1", service._now())
        assert not service.fleet_degraded()
        assert service.process_one() is None

        # The worker goes silent past the window: degraded again
        # (second edge), the fallback resumes, and the queue drains.
        time.sleep(0.3)
        assert service.fleet_degraded()
        second = service.process_one()
        assert second is not None and second.state == "done"
        metrics = service.metrics.as_dict(prefix="serve_")
        assert metrics["serve_degraded"] == 2
        service.close()


class FakeFleetClient:
    """Scripted stand-in for ServeClient in worker unit tests."""

    def __init__(self, claims, heartbeat=None, complete=None):
        self.host, self.port = "fake", 0
        self.claims = list(claims)
        self.claim_calls = 0
        self.heartbeat_calls = 0
        self.completes = []
        self._heartbeat = heartbeat
        self._complete = complete

    def claim(self, worker, lease_ttl=None):
        self.claim_calls += 1
        step = (self.claims.pop(0) if self.claims
                else {"job": None})
        if isinstance(step, Exception):
            raise step
        return step

    def heartbeat(self, worker, job_id, lease_id):
        self.heartbeat_calls += 1
        if isinstance(self._heartbeat, Exception):
            raise self._heartbeat
        return self._heartbeat or {"ok": True, "lease": None}

    def complete(self, worker, job_id, lease_id, envelope,
                 artifact_digest=None):
        self.completes.append((job_id, lease_id, envelope,
                               artifact_digest))
        if isinstance(self._complete, Exception):
            raise self._complete
        return self._complete or {"status": "ok"}


def fast_policy():
    return RetryPolicy(max_attempts=3, backoff_base=0.01,
                       backoff_max=0.02, max_elapsed=5.0)


def claim_reply(lease_ttl=30.0):
    return {
        "job": {"id": "j000000-abc", "kind": "record",
                "params": dict(RECORD_PARAMS)},
        "lease": {"job_id": "j000000-abc", "worker": "w",
                  "lease_id": "lease-1", "ttl": lease_ttl,
                  "expires_at": 0.0},
        "heartbeat_interval": max(0.05, lease_ttl / 3.0),
        "timeout": None,
    }


def make_worker(fake, **kwargs):
    kwargs.setdefault("retry", fast_policy())
    kwargs.setdefault("idle_exit", 0.0)
    kwargs.setdefault("quiet", True)
    kwargs.setdefault("job_fn", fake_job)
    worker = ServeWorker("127.0.0.1", 1, worker_id="wtest", **kwargs)
    worker.client = fake
    return worker


class TestServeWorkerLoop:
    def test_claims_executes_and_uploads_digest(self):
        fake = FakeFleetClient([claim_reply()])
        worker = make_worker(fake)
        assert worker.run() == 1
        (job_id, lease_id, envelope, digest), = fake.completes
        assert job_id == "j000000-abc"
        assert lease_id == "lease-1"
        assert envelope["ok"]
        spec = build_job_spec("record", RECORD_PARAMS)
        assert envelope["artifact"] == fake_job(spec)
        assert digest == hashlib.sha256(
            encode_artifact(envelope["artifact"])).hexdigest()

    def test_transport_errors_retry_then_succeed(self):
        fake = FakeFleetClient([
            ServeError("unreachable"),          # status 0: transient
            ServeError("500", status=503),      # 5xx: transient
            {"job": None},
        ])
        worker = make_worker(fake)
        assert worker.run() == 0
        assert fake.claim_calls == 3

    def test_definitive_answers_never_retry(self):
        fake = FakeFleetClient(
            [ServeError("unauthorized", status=401)])
        worker = make_worker(fake)
        with pytest.raises(ServeError, match="unauthorized"):
            worker.run()
        assert fake.claim_calls == 1

    def test_lost_heartbeat_abandons_without_upload(self):
        def slow_job(spec, cache=None):
            for _ in range(1200):  # sliced so LeaseLost can land
                time.sleep(0.05)
            return fake_job(spec)

        fake = FakeFleetClient(
            [claim_reply(lease_ttl=0.3)],
            heartbeat=ServeError("lease lost", status=409))
        worker = make_worker(fake, job_fn=slow_job)
        assert worker.run() == 0
        assert worker.abandoned == 1
        assert fake.completes == []
        assert fake.heartbeat_calls == 1

    def test_refused_completion_moves_on(self):
        fake = FakeFleetClient(
            [claim_reply()],
            complete=ServeError("stale", status=409))
        worker = make_worker(fake)
        assert worker.run() == 0
        assert worker.abandoned == 1
        assert len(fake.completes) == 1

    def test_failure_envelope_counts_failed(self):
        def broken_job(spec, cache=None):
            raise RuntimeError("boom")

        fake = FakeFleetClient([claim_reply()])
        worker = make_worker(fake, job_fn=broken_job)
        assert worker.run() == 0
        assert worker.failed == 1
        (_id, _lease, envelope, digest), = fake.completes
        assert not envelope["ok"]
        assert envelope["error_type"] == "RuntimeError"
        assert digest is None

    def test_default_worker_id_shape(self):
        assert str(os.getpid()) in default_worker_id()


# -- the full fault drill, with real processes ------------------------


def _fleet_env(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["REPRO_CACHE_SALT"] = "fleet-drill"
    return env


def _start_fleet_serve(tmp_path, env):
    ready = tmp_path / "ready"
    if ready.exists():
        ready.unlink()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", "0", "--jobs", "1",
         "--executor", "remote",
         "--lease-ttl", "2",
         "--degraded-after", "300",  # the fleet, not the fallback,
                                     # must finish the drill
         "--data-dir", str(tmp_path / "data"),
         "--ready-file", str(ready)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if ready.exists() and ready.read_text().strip():
            host, port = ready.read_text().split()
            return proc, int(port)
        if proc.poll() is not None:
            break
        time.sleep(0.1)
    proc.kill()
    raise AssertionError("serve subprocess never became ready")


_VICTIM_SCRIPT = """
import sys, time
from repro.serve.worker import ServeWorker

def wedge(spec, cache=None):
    time.sleep(600)  # holds the lease until SIGKILL

ServeWorker("127.0.0.1", int(sys.argv[1]), worker_id="victim",
            poll_interval=0.1, job_fn=wedge).run()
"""


class TestWorkerCrashDrill:
    def test_sigkill_mid_job_requeues_and_completes_once(
            self, tmp_path):
        env = _fleet_env(tmp_path)
        serve, port = _start_fleet_serve(tmp_path, env)
        victim = None
        rescuer = None
        try:
            client = ServeClient(port=port, timeout=30)
            # Victim first: its claim polling marks the fleet live,
            # so the local fallback never touches the queue.
            victim = subprocess.Popen(
                [sys.executable, "-c", _VICTIM_SCRIPT, str(port)],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.STDOUT)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                census = client.workers()
                if "victim" in census["workers"]:
                    break
                time.sleep(0.1)
            assert not client.workers()["degraded"]
            job = client.submit("record", dict(RECORD_PARAMS))

            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if client.job(job["id"])["state"] == "running":
                    break
                time.sleep(0.1)
            snapshot = client.job(job["id"])
            assert snapshot["state"] == "running", snapshot
            assert snapshot["worker"] == "victim"

            # The drill: SIGKILL mid-job.  No goodbye protocol runs;
            # only the lease TTL stands between the job and limbo.
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)

            rescuer = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--port", str(port), "--worker-id", "rescuer",
                 "--poll", "0.1", "--max-jobs", "1"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.STDOUT)

            final = client.wait(job["id"], timeout=120)
            assert final["state"] == "done"
            assert final["worker"] == "rescuer"  # provenance
            assert final["lease_id"] is None  # the lease died
            assert final["attempts"] == 2  # victim's claim + rescue
            assert final["lease_expiries"] == 1
            assert rescuer.wait(timeout=60) == 0

            # Byte-identical artifact: the rescued remote run equals
            # a local execution of the same content-hashed spec.
            from repro.runner import execute_spec

            spec = build_job_spec("record", RECORD_PARAMS)
            remote = client.artifact(final["artifact_hash"])
            assert encode_artifact(remote) == \
                encode_artifact(execute_spec(spec))

            stats = client.stats()
            assert stats["fleet"]["lease_expired"] >= 1
            assert stats["metrics"]["serve_remote_completed"] == 1
            assert stats["metrics"]["serve_requeued"] >= 1
            # Exactly once: a single job, terminal, no duplicates.
            assert len(client.jobs()) == 1
        finally:
            for proc in (victim, rescuer):
                if proc is not None and proc.poll() is None:
                    proc.kill()
            serve.send_signal(signal.SIGINT)
            try:
                serve.wait(timeout=15)
            except subprocess.TimeoutExpired:
                serve.kill()
