"""End-to-end tests for the HTTP front end.

Most tests run a real :class:`ServeServer` on an ephemeral port inside
a background thread, with an injected instant ``job_fn`` so they stay
fast.  The crash test at the bottom is the full acceptance scenario:
a real ``python -m repro serve`` subprocess, SIGKILLed mid-campaign,
restarted on the same data directory -- every accepted job must reach
a terminal state exactly once with its artifact retrievable.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.errors import ServeError
from repro.runner import ResultCache
from repro.runner.cache import encode_artifact
from repro.runner.jobs import build_job_spec, execute_spec
from repro.serve import http as http_module
from repro.serve.client import ServeClient
from repro.serve.http import ServeServer
from repro.serve.queue import read_journal_dir
from repro.serve.service import ReproService
from repro.serve.worker import ServeWorker
from repro.telemetry.metrics import MetricsRegistry

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def fake_job(spec, cache=None):
    return {"schema": 1, "spec_hash": spec.content_hash(),
            "kind": getattr(spec, "kind", "?"), "payload": "ok"}


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("cache",
                      ResultCache(tmp_path / "cache", salt="http-t"))
    kwargs.setdefault("executor", "inline")
    kwargs.setdefault("job_fn", fake_job)
    kwargs.setdefault("metrics", MetricsRegistry())
    return ReproService(tmp_path / "data", **kwargs)


def raw_request(port: int, head: str) -> bytes:
    """Send ``head`` (request line and headers, no body) on a raw
    socket and return everything the server answers."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=10) as sock:
        sock.sendall(head.encode("latin-1"))
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


def fleet_worker(port: int, **kwargs) -> ServeWorker:
    """An in-process worker that drains the queue, then exits."""
    kwargs.setdefault("worker_id", "w1")
    return ServeWorker("127.0.0.1", port, idle_exit=0.0,
                       poll_interval=0.05, quiet=True, **kwargs)


@contextmanager
def running_server(service):
    """A live server on an ephemeral port, torn down on exit."""
    box: dict = {}
    ready = threading.Event()

    def run():
        async def main():
            stop = asyncio.Event()
            server = ServeServer(service, "127.0.0.1", 0)
            await server.start()
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            box["stop"] = stop
            ready.set()
            await stop.wait()
            await server.stop()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "server did not start"
    try:
        yield box["server"]
    finally:
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(15)


class TestEndpoints:
    def test_submit_stream_fetch_roundtrip(self, tmp_path):
        service = make_service(tmp_path)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            assert client.health()["ok"]

            job = client.submit("record", {"seed": 1, "scale": 0.05})
            assert job["state"] in ("queued", "running", "done")
            final = client.wait(job["id"], timeout=30)
            assert final["state"] == "done"

            # SSE: full per-job history, strictly ordered.
            events = list(client.stream(job["id"]))
            states = [data["job"]["state"] for _, data in events]
            assert states == ["queued", "running", "done"]
            ids = [event_id for event_id, _ in events]
            assert ids == sorted(ids) and len(set(ids)) == len(ids)

            # SSE resume: ?after=N replays only what follows N.
            resumed = list(client.stream(job["id"], after=ids[0]))
            assert [event_id for event_id, _ in resumed] == ids[1:]

            # SSE resume via the Last-Event-ID header.
            conn = http.client.HTTPConnection("127.0.0.1",
                                              server.port, timeout=10)
            conn.request("GET", f"/v1/jobs/{job['id']}/events",
                         headers={"Last-Event-ID": str(ids[1])})
            response = conn.getresponse()
            assert response.getheader("Content-Type") == \
                "text/event-stream"
            header_ids = [int(line[3:])
                          for line in response.read().decode()
                          .splitlines() if line.startswith("id:")]
            conn.close()
            assert header_ids == ids[2:]

            # Artifact fetch by content hash.
            artifact = client.artifact(final["artifact_hash"])
            assert artifact["spec_hash"] == final["artifact_hash"]

            # Identical resubmission: answered from cache.
            dup = client.submit("record", {"seed": 1, "scale": 0.05})
            assert dup["state"] == "done" and dup["from_cache"]
            assert dup["artifact_hash"] == final["artifact_hash"]
            stats = client.stats()
            assert stats["metrics"]["serve_cache_hits"] == 1
            assert stats["queue"]["done"] == 2

            # Listing filters.
            assert len(client.jobs(state="done")) == 2
            assert client.jobs(tenant="nobody") == []

    def test_bad_submissions_get_400(self, tmp_path):
        service = make_service(tmp_path)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            with pytest.raises(ServeError) as err:
                client.submit("record", {"warp": 9})
            assert err.value.status == 400
            with pytest.raises(ServeError) as err:
                client.submit("dance", {})
            assert err.value.status == 400
            # A retired kind is just as unknown; the answer names the
            # six that remain.
            with pytest.raises(ServeError) as err:
                client.submit("bench", {})
            assert err.value.status == 400
            assert "record, replay, consistency, explore, chaos, " \
                "salvage)" in str(err.value)

    def test_out_of_range_scale_gets_400_at_submit(self, tmp_path):
        service = make_service(tmp_path)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            # The client writes NaN and Infinity as JSON accepts them.
            for scale in (-1.0, 0.0, float("nan"), float("inf")):
                with pytest.raises(ServeError) as err:
                    client.submit("record", {"scale": scale})
                assert err.value.status == 400
                assert "scale must be finite and above 0" in \
                    str(err.value)
            assert client.jobs() == []

    def test_unknown_resources_get_404(self, tmp_path):
        service = make_service(tmp_path)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            for call in (lambda: client.job("j999999-nope"),
                         lambda: client.artifact("f" * 64)):
                with pytest.raises(ServeError) as err:
                    call()
                assert err.value.status == 404

    def test_flood_sheds_with_429_and_retry_after(self, tmp_path):
        gate = threading.Event()

        def gated_job(spec, cache=None):
            gate.wait(15)
            return fake_job(spec)

        service = make_service(tmp_path, capacity=2,
                               job_fn=gated_job)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            first = client.submit("record", {"seed": 1})
            second = client.submit("record", {"seed": 2})
            with pytest.raises(ServeError) as err:
                client.submit("record", {"seed": 3})
            assert err.value.status == 429
            assert err.value.retry_after >= 1.0
            assert "queue full" in str(err.value)
            gate.set()
            assert client.wait(first["id"], timeout=30)["state"] == \
                "done"
            assert client.wait(second["id"], timeout=30)["state"] == \
                "done"
            stats = client.stats()
            assert stats["metrics"]["serve_rejected"] == 1


class TestWakeOnEnqueue:
    """Idle workers sleep on the wake event, not on a poll timer:
    outside fleet mode nothing else wakes them, so these jobs run
    only because entering ``queued`` did."""

    def test_a_submit_wakes_the_idle_worker(self, tmp_path):
        service = make_service(tmp_path)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            time.sleep(0.2)  # the worker's first claim found nothing
            for seed in (1, 2):
                job = client.submit("record", {"seed": seed})
                assert client.wait(job["id"], timeout=10)["state"] \
                    == "done"

    def test_a_lease_expiry_requeue_wakes_the_idle_worker(
            self, tmp_path):
        service = make_service(tmp_path)
        job, _ = service.submit("record", {"seed": 1})
        # A worker that claims and vanishes: only the sweeper's
        # requeue can hand the job back.
        service.queue.claim(time.time(), worker="ghost", lease_ttl=0.2)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            final = client.wait(job.id, timeout=10)
        assert final["state"] == "done"
        assert final["requeues"] == 1 and final["attempts"] == 2

    def test_the_sweeper_wakes_workers_for_a_degraded_fleet(
            self, tmp_path):
        """Degradation is time-based and fires no transition: a job
        the fleet left queued is taken over at the next sweep."""
        service = make_service(tmp_path, executor="remote",
                               degraded_after=0.5)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            assert client.claim("w1")["job"] is None  # fleet is live
            job = client.submit("record", {"seed": 1})
            time.sleep(0.1)  # its wake found the fleet healthy
            assert client.job(job["id"])["state"] == "queued"
            # w1 never calls again.
            final = client.wait(job["id"], timeout=10)
        assert final["state"] == "done" and final["attempts"] == 1


class TestClientWait:
    def test_returns_the_terminal_snapshot(self, tmp_path):
        def failing_job(spec, cache=None):
            if spec.seed == 2:
                raise RuntimeError("no")
            return fake_job(spec)

        service = make_service(tmp_path, job_fn=failing_job)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            ok = client.submit("record", {"seed": 1})
            bad = client.submit("record", {"seed": 2})
            done = client.wait(ok["id"], timeout=10)
            failed = client.wait(bad["id"], timeout=10)
            assert done == client.job(ok["id"])
            assert done["state"] == "done" and done["artifact_hash"]
            assert failed == client.job(bad["id"])
            assert failed["state"] == "failed"
            assert "RuntimeError: no" in failed["error"]
            # An already terminal job answers from its history.
            assert client.wait(ok["id"], timeout=10) == done

    def test_times_out_on_a_job_that_does_not_end(self, tmp_path):
        gate = threading.Event()

        def gated_job(spec, cache=None):
            gate.wait(15)
            return fake_job(spec)

        service = make_service(tmp_path, job_fn=gated_job)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            job = client.submit("record", {"seed": 1})
            started = time.monotonic()
            with pytest.raises(ServeError) as err:
                client.wait(job["id"], timeout=0.5)
            assert time.monotonic() - started < 5
            assert str(err.value) == \
                f"job {job['id']} still running after 0.5s"
            gate.set()
            assert client.wait(job["id"], timeout=10)["state"] == \
                "done"

    def test_a_server_that_never_answers_times_out_on_time(self):
        # Accepted by the kernel's backlog, never answered.
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            client = ServeClient(port=listener.getsockname()[1])
            started = time.monotonic()
            with pytest.raises(ServeError) as err:
                client.wait("j1", timeout=0.3)
            assert time.monotonic() - started < 2
        assert str(err.value) == "job j1 still unanswered after 0.3s"

    def test_unknown_job_is_a_404(self, tmp_path):
        service = make_service(tmp_path)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            with pytest.raises(ServeError) as err:
                client.wait("j999999-000000000000", timeout=5)
            assert err.value.status == 404
            assert str(err.value) == "no job 'j999999-000000000000'"


class TestAuthOverHTTP:
    def test_writes_need_the_token_reads_stay_open(self, tmp_path):
        service = make_service(tmp_path, executor="remote",
                               auth_token="sekrit")
        with running_server(service) as server:
            anon = ServeClient(port=server.port)
            assert anon.health()["ok"]  # reads are open
            assert anon.jobs() == []

            for call in (lambda: anon.submit("record", {"seed": 1}),
                         lambda: anon.claim("w1"),
                         lambda: anon.heartbeat("w1", "j", "l"),
                         lambda: anon.complete("w1", "j", "l", {})):
                with pytest.raises(ServeError) as err:
                    call()
                assert err.value.status == 401
                # No detail leaks: not why, not what would match.
                assert str(err.value) == "unauthorized"

            wrong = ServeClient(port=server.port, token="skerit")
            with pytest.raises(ServeError) as err:
                wrong.submit("record", {"seed": 1})
            assert err.value.status == 401

            good = ServeClient(port=server.port, token="sekrit")
            job = good.submit("record", {"seed": 1, "scale": 0.05})
            assert good.wait(job["id"], timeout=30)["state"] == "done"

            # The token is checked before the body is read: a declared
            # 8 MiB upload that never arrives is refused at once.
            reply = raw_request(
                server.port,
                "POST /v1/workers/complete HTTP/1.1\r\n"
                f"Content-Length: {8 << 20}\r\n\r\n")
            assert reply.startswith(b"HTTP/1.1 401 ")


class TestRequestFraming:
    @pytest.mark.parametrize("value", ["-1", "abc"])
    def test_malformed_content_length_gets_400(self, tmp_path, value):
        with running_server(make_service(tmp_path)) as server:
            reply = raw_request(
                server.port,
                f"POST /v1/jobs HTTP/1.1\r\nContent-Length: {value}"
                f"\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"malformed Content-Length" in reply

    def test_submission_cap_stays_one_mib(self, tmp_path):
        with running_server(make_service(tmp_path)) as server:
            reply = raw_request(
                server.port,
                f"POST /v1/jobs HTTP/1.1\r\nContent-Length: "
                f"{(1 << 20) + 1}\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 413 ")
        assert b"1048576-byte limit" in reply


class TestFleetWireProtocol:
    def test_claim_heartbeat_complete_over_http(self, tmp_path):
        import hashlib

        service = make_service(tmp_path, executor="remote")
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            # First contact marks the fleet live (and gates the local
            # fallback) before anything is queued.
            assert client.claim("w1")["job"] is None
            census = client.workers()
            assert census["remote"] and not census["degraded"]
            assert census["workers"] == ["w1"]

            submitted = client.submit(
                "record", {"seed": 7, "scale": 0.05})
            reply = client.claim("w1", lease_ttl=30.0)
            job, lease = reply["job"], reply["lease"]
            assert job["id"] == submitted["id"]
            assert reply["heartbeat_interval"] == \
                pytest.approx(10.0)

            renewed = client.heartbeat("w1", job["id"],
                                       lease["lease_id"])
            assert renewed["ok"]
            with pytest.raises(ServeError) as err:
                client.heartbeat("w1", job["id"], "forged")
            assert err.value.status == 409
            assert "lease lost" in str(err.value)

            spec = build_job_spec(job["kind"], job["params"])
            artifact = fake_job(spec)
            digest = hashlib.sha256(
                encode_artifact(artifact)).hexdigest()
            result = client.complete(
                "w1", job["id"], lease["lease_id"],
                {"ok": True, "artifact": artifact,
                 "wall_time": 0.01}, digest)
            assert result["status"] == "ok"
            final = client.job(job["id"])
            assert final["state"] == "done"
            assert client.artifact(final["artifact_hash"]) == artifact

    def test_default_scale_record_completes_remotely_once(
            self, tmp_path):
        """A default-scale recording is larger than the submission
        cap; its upload must still land, on the first attempt."""
        # 9.6 is the smallest scale (in steps of 0.1) whose DLRN v3
        # artifact still exceeds 1 MiB.
        params = {"app": "fft", "scale": 9.6}
        service = make_service(tmp_path, executor="remote",
                               degraded_after=300)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            assert client.claim("w1")["job"] is None  # fleet live
            job = client.submit("record", params)
            worker = fleet_worker(server.port)
            assert worker.run() == 1
            final = client.job(job["id"])
            assert final["state"] == "done"
            assert final["attempts"] == 1
            remote = encode_artifact(
                client.artifact(final["artifact_hash"]))
        # If artifacts ever shrink below the cap, resize this test:
        # it exists to send an upload over 1 MiB.
        assert len(remote) > http_module._MAX_BODY
        assert remote == encode_artifact(
            execute_spec(build_job_spec("record", params)))

    def test_upload_over_the_cap_fails_the_job_once(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(http_module, "_MAX_UPLOAD", 1 << 20)

        def bulky_job(spec, cache=None):
            # Larger than loopback's socket buffers, so the refusal
            # reaches the worker only if the server reads the upload
            # to its end instead of resetting the connection.
            return {**fake_job(spec), "payload": "x" * (16 << 20)}

        service = make_service(tmp_path, executor="remote",
                               degraded_after=300)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            assert client.claim("w1")["job"] is None  # fleet live
            job = client.submit("record", {"seed": 3})
            worker = fleet_worker(server.port, job_fn=bulky_job)
            assert worker.run() == 0
            assert worker.failed == 1 and worker.abandoned == 0
            final = client.job(job["id"])
            assert final["state"] == "failed"
            assert final["attempts"] == 1
            assert final["lease_expiries"] == 0
            failure = final["failure"]
            assert failure["error_type"] == "ArtifactTooLarge"
            assert "1048576-byte limit" in failure["message"]
            assert client.stats()["fleet"]["lease_expired"] == 0

    @pytest.mark.parametrize("kind,params,error", [
        ("bench", {}, "unknown job kind 'bench'"),
        ("record", {"seed": True}, "parameter 'seed'"),
    ], ids=["retired-kind", "rejected-param"])
    def test_unbuildable_journaled_job_fails_remotely(
            self, tmp_path, kind, params, error):
        service = make_service(tmp_path, executor="remote",
                               degraded_after=300)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            assert client.claim("w1")["job"] is None  # fleet live
            # Journaled unvalidated, as an older server accepted it.
            bad = service.queue.submit("old", kind, params, "d" * 64,
                                       time.time())
            good = client.submit("record", {"seed": 3})
            worker = fleet_worker(server.port, job_fn=fake_job)
            assert worker.run() == 1
            assert worker.failed == 1
            failed = client.job(bad.id)
            assert failed["state"] == "failed"
            assert failed["failure"]["error_type"] == \
                "ConfigurationError"
            assert error in failed["failure"]["message"]
            assert client.job(good["id"])["state"] == "done"
        revived = make_service(tmp_path, executor="remote")
        assert revived.queue.requeued_jobs == 0
        assert revived.queue.get(bad.id).state == "failed"
        revived.close()

    def test_worker_routes_409_outside_fleet_mode(self, tmp_path):
        service = make_service(tmp_path)  # inline: no fleet
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            with pytest.raises(ServeError) as err:
                client.claim("w1")
            assert err.value.status == 409
            assert "not running a remote worker fleet" in \
                str(err.value)


class TestCompactionResumeOverHTTP:
    def test_sse_and_listing_survive_compaction(self, tmp_path):
        """A cursor older than the compaction horizon gets the full
        retained snapshot (no silent gap); listings are complete."""
        submitted = []
        service = make_service(tmp_path, segment_bytes=4096,
                               compact_after=1)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            for seed in range(20):
                job = client.submit("record",
                                    {"seed": seed, "scale": 0.05})
                submitted.append(job["id"])
            for job_id in submitted:
                client.wait(job_id, timeout=60)
        service.close()
        assert service.queue.compactions >= 1

        again = make_service(tmp_path, segment_bytes=4096,
                             compact_after=1)
        with running_server(again) as server:
            client = ServeClient(port=server.port)
            stats = client.stats()
            horizon = stats["journal"]["compacted_through"]
            assert horizon > 0

            # The listing shows every job despite the dissolved
            # per-transition history.
            jobs = client.jobs()
            assert sorted(j["id"] for j in jobs) == sorted(submitted)
            assert all(j["state"] == "done" for j in jobs)

            # Resume from inside the dissolved range: the feed falls
            # back to the full snapshot -- events at or below the
            # requested cursor ARE re-delivered.
            full = _drain_events(server.port, after=0)
            stale_cursor = _drain_events(server.port,
                                         after=horizon - 1)
            assert stale_cursor == full
            assert any(event_id <= horizon - 1
                       for event_id, _ in stale_cursor)

            # A cursor at the tip resumes normally: nothing new.
            tip = max(event_id for event_id, _ in full)
            assert _drain_events(server.port, after=tip) == []
        again.close()


    def test_live_log_holds_what_a_restart_reads(self, tmp_path):
        """A live compaction leaves the in-memory event log holding
        exactly the journal's records (one per retained job below the
        horizon), so the live feed from 0 equals a restarted server's
        and the log does not grow for the server's whole life."""
        service = make_service(tmp_path, segment_bytes=4096,
                               compact_after=1)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            for seed in range(20):
                job = client.submit("record",
                                    {"seed": seed, "scale": 0.05})
                client.wait(job["id"], timeout=60)
            assert service.queue.compactions >= 1
            live = _drain_events(server.port, after=0)
            records, horizon = read_journal_dir(service.queue.data_dir)
            assert server.events.compacted_through == horizon > 0
            logged = [{"lsn": lsn, "job": data["job"]}
                      for lsn, data in server.events.replay(0)]
            assert json.loads(json.dumps(logged)) == records
        service.close()

        again = make_service(tmp_path, segment_bytes=4096,
                             compact_after=1)
        with running_server(again) as server:
            assert _drain_events(server.port, after=0) == live
        again.close()


def _drain_events(port, after):
    """Read the global SSE feed until it goes quiet; return events."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=1.0)
    events = []
    try:
        conn.request("GET", f"/v1/events?after={after}")
        response = conn.getresponse()
        event_id = 0
        for raw in response:
            line = raw.decode().rstrip("\r\n")
            if line.startswith("id:"):
                event_id = int(line[3:].strip())
            elif line.startswith("data:"):
                events.append((event_id,
                               json.loads(line[5:].strip())))
    except (TimeoutError, OSError):
        pass  # the feed never ends; quiet = drained
    finally:
        conn.close()
    return events


# -- the acceptance scenario: SIGKILL a real server mid-campaign ------


def _serve_env(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["REPRO_CACHE_SALT"] = "kill-test"
    return env


def _start_serve(tmp_path, env):
    ready = tmp_path / "ready"
    if ready.exists():
        ready.unlink()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", "0", "--jobs", "1",
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


class TestCrashRecoveryOverHTTP:
    def test_sigkill_mid_campaign_loses_nothing(self, tmp_path):
        env = _serve_env(tmp_path)
        proc, port = _start_serve(tmp_path, env)
        try:
            client = ServeClient(port=port, timeout=30)
            submitted = [
                client.submit("record", {"seed": seed, "scale": 0.08,
                                         "app": "fft"})["id"]
                for seed in (201, 202, 203)]

            # Wait until the campaign is genuinely mid-flight.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                states = {j["id"]: j["state"] for j in client.jobs()}
                if any(s in ("running", "done")
                       for s in states.values()):
                    break
                time.sleep(0.05)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()

        # Restart on the same data directory: recovery requeues the
        # killed job and the workers drain the survivors.
        proc, port = _start_serve(tmp_path, env)
        try:
            client = ServeClient(port=port, timeout=30)
            deadline = time.monotonic() + 240
            jobs = []
            while time.monotonic() < deadline:
                jobs = client.jobs()
                if len(jobs) == 3 and \
                        all(j["state"] in ("done", "failed")
                            for j in jobs):
                    break
                time.sleep(0.5)

            # Every accepted job reached a terminal state exactly
            # once, none was lost, none was duplicated.
            assert sorted(j["id"] for j in jobs) == sorted(submitted)
            assert all(j["state"] == "done" for j in jobs), jobs
            for job in jobs:
                artifact = client.artifact(job["artifact_hash"])
                assert artifact["spec_hash"] == job["artifact_hash"]

            # The SSE log spans the restart: a fresh stream replays
            # pre-crash transitions seeded from the journal.
            events = list(client.stream(submitted[0]))
            states = [data["job"]["state"] for _, data in events]
            assert states[0] == "queued"
            assert states[-1] == "done"
            ids = [event_id for event_id, _ in events]
            assert ids == sorted(ids) and len(set(ids)) == len(ids)

            stats = client.stats()
            assert stats["journal"]["recovered_jobs"] == 3
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
