"""Asyncio HTTP/1.1 front end for the record/replay service.

Stdlib only (``asyncio.start_server`` + hand-rolled request parsing --
no framework dependency), one short-lived connection per request
(``Connection: close``) except the SSE streams, which stay open until
the watched job reaches a terminal state (or forever, for the global
feed).

Routes::

    GET  /healthz                 liveness + journal lsn
    POST /v1/jobs                 submit {"kind", "params", "tenant"}
                                  -> 202 job | 400 bad spec
                                  -> 429 + Retry-After when shed
    GET  /v1/jobs                 job listing (?tenant=&state=)
    GET  /v1/jobs/<id>            one job snapshot
    GET  /v1/jobs/<id>/events     SSE stream of that job's transitions
    GET  /v1/events               SSE stream of every transition
    GET  /v1/artifacts/<hash>     artifact fetch by content hash
    GET  /v1/stats                queue/fleet/admission/cache census
    GET  /v1/workers              fleet census (liveness, leases)
    POST /v1/workers/claim        {"worker"} -> job + lease | job:null
    POST /v1/workers/heartbeat    {"worker","job_id","lease_id"}
                                  -> lease | 409 lease lost
    POST /v1/workers/complete     {"worker","job_id","lease_id",
                                   "envelope","artifact_digest"}
                                  -> verified completion | 409/404

Request bodies are capped before any body byte is read: 64 MiB for
``POST /v1/workers/complete``, which carries a whole artifact, and
1 MiB for every other route.  A larger body gets 413 naming its size
and the limit (a worker then fails the job as ``ArtifactTooLarge``);
a ``Content-Length`` that is not a decimal byte count gets 400.

The worker endpoints are the fleet wire protocol (see
:mod:`repro.serve.worker` for the peer).  When the service carries a
shared-secret bearer token, submissions and every worker call must
present ``Authorization: Bearer <token>`` -- compared constant-time,
before the request body is read, and rejected 401 with no detail
about which part was wrong.

SSE event ids are journal log sequence numbers; reconnecting with
``Last-Event-ID: N`` (or ``?after=N``) replays everything after N --
including transitions journaled by a *previous* server process,
because the event log is seeded from every recovered journal segment.
A cursor older than the journal's ``compacted_through`` LSN can no
longer be resumed exactly (compaction dissolved those events) and is
answered with the full retained snapshot instead of a silent gap.

Job execution happens on worker tasks (one per configured worker)
that pull from the durable queue through ``asyncio.to_thread``, so a
long simulation never blocks the accept loop: submissions, listings
and streams stay responsive while jobs run.  An idle worker task
sleeps until a job enters ``queued`` (a submit, a lease-expiry
requeue or a punt) wakes it.  In fleet mode those tasks idle while
remote workers are heartbeating and take over automatically when none
is (graceful degradation).  A once-a-second sweeper task expires
abandoned leases and, while the fleet is degraded, wakes the worker
tasks: degradation is time-based and fires no transition, so the
sweeper is what notices it.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import signal
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigurationError
from repro.serve.lease import heartbeat_interval
from repro.serve.model import STATE_QUEUED, TERMINAL_STATES, Job
from repro.serve.queue import read_journal_dir
from repro.serve.service import ReproService
from repro.serve.sse import EventLog, format_sse

#: Request body caps, chosen from the request line before any body
#: byte is read.  Every body but a worker's upload is a small JSON
#: request; an upload carries a whole artifact (a default-scale
#: ``record`` is 1.2-1.5 MB, its recording base64-encoded).
_MAX_BODY = 1 << 20  # 1 MiB
_MAX_UPLOAD = 64 << 20  # 64 MiB, POST /v1/workers/complete only
_UPLOAD_ROUTE = ("POST", "/v1/workers/complete")

#: How often the server sweeps expired leases.
SWEEP_INTERVAL = 1.0

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request",
    401: "Unauthorized", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error",
}


async def _discard(reader: asyncio.StreamReader, count: int) -> None:
    """Read and drop up to ``count`` bytes, in bounded chunks."""
    while count > 0:
        chunk = await reader.read(min(count, 1 << 16))
        if not chunk:
            return
        count -= len(chunk)


def _json_body(status: int, payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


class ServeServer:
    """Bind a :class:`ReproService` to a TCP port."""

    def __init__(self, service: ReproService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.events: EventLog | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._workers: list[asyncio.Task] = []
        self._stopping = asyncio.Event()
        #: Set (from any thread) when a job enters ``queued``.
        self._wake = asyncio.Event()

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind, seed the event log, launch worker + sweeper tasks."""
        self._loop = loop = asyncio.get_running_loop()
        # Seed from every journal segment so SSE resume spans restarts
        # (and compactions), then attach live; the lsn guard in
        # EventLog dedupes any transition that lands in between.
        records, compacted = read_journal_dir(
            self.service.queue.data_dir)
        self.events = EventLog(loop, compacted_through=compacted)
        for record in records:
            self.events.seed(record["lsn"],
                             Job.from_dict(record["job"]))
        self.service.queue.subscribe(self.events.append)
        self.service.queue.subscribe_compaction(self.events.compacted)
        self.service.queue.subscribe(self._wake_on_enqueue)
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        for index in range(self.service.jobs):
            self._workers.append(
                loop.create_task(self._worker(index)))
        self._workers.append(loop.create_task(self._sweeper()))

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self.service.close()

    async def _worker(self, index: int) -> None:
        """Pull-and-run loop, woken by enqueues.

        The wake event is cleared *before* each claim, so a job queued
        while the claim runs sets it again and is never missed.  With
        nothing to claim the task sleeps until the next wake.
        """
        while not self._stopping.is_set():
            self._wake.clear()
            job = await asyncio.to_thread(self.service.process_one)
            if job is None:
                await self._wake.wait()

    def _wake_on_enqueue(self, _lsn: int, job: Job) -> None:
        """Queue observer (any thread): wake the idle worker tasks
        when a job enters ``queued``."""
        if job.state == STATE_QUEUED:
            self._loop.call_soon_threadsafe(self._wake.set)

    async def _sweeper(self) -> None:
        """Once a second: expire abandoned leases and wake the worker
        tasks while the fleet is degraded (how its queue gets
        served)."""
        while not self._stopping.is_set():
            await asyncio.sleep(SWEEP_INTERVAL)
            await asyncio.to_thread(self.service.sweep_leases)
            if self.service.fleet is not None \
                    and self.service.fleet_degraded():
                self._wake.set()

    # -- request plumbing -----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            await self._dispatch(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as error:  # noqa: BLE001 -- 500, not a crash
            try:
                await self._respond(writer, 500, {
                    "error": f"{type(error).__name__}: {error}"})
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, reader, writer) -> None:
        request_line = (await reader.readline()).decode("latin-1")
        if not request_line.strip():
            return
        try:
            method, target, _version = request_line.split(None, 2)
        except ValueError:
            await self._respond(writer, 400,
                                {"error": "malformed request line"})
            return
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        method = method.upper()
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        if self._token_gated(method, path) \
                and not self._authorized(headers):
            # Before the body: an unauthorized client cannot make the
            # server buffer an upload.
            await self._reject_unauthorized(writer)
            return
        declared = headers.get("content-length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            await self._respond(writer, 400, {
                "error": f"malformed Content-Length {declared!r}"})
            return
        length = int(declared)
        upload = (method, path) == _UPLOAD_ROUTE
        limit = _MAX_UPLOAD if upload else _MAX_BODY
        if length > limit:
            await self._respond(writer, 413, {
                "error": f"request body of {length} bytes exceeds "
                         f"the {limit}-byte limit of {method} {path}"})
            if upload:
                # Read the refused upload to its end, keeping none of
                # it: closing on unread bytes resets the connection,
                # and the worker would see a broken pipe, not this 413.
                await _discard(reader, length)
            return
        body = await reader.readexactly(length) if length else b""
        query = {key: values[-1] for key, values in
                 parse_qs(parts.query).items()}
        await self._route(writer, method, path, query, headers, body)

    async def _respond(self, writer, status: int, payload: dict,
                       extra_headers: dict | None = None) -> None:
        body = _json_body(status, payload)
        headers = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            headers.append(f"{name}: {value}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode())
        writer.write(body)
        await writer.drain()

    # -- routing --------------------------------------------------------

    @staticmethod
    def _token_gated(method: str, path: str) -> bool:
        """Submissions and every fleet call need the bearer token;
        reads stay open."""
        return ((method, path) == ("POST", "/v1/jobs")
                or path == "/v1/workers"
                or path.startswith("/v1/workers/"))

    def _authorized(self, headers: dict) -> bool:
        """Constant-time bearer-token check (True when auth is off)."""
        token = self.service.auth_token
        if not token:
            return True
        provided = headers.get("authorization", "")
        if provided[:7].lower() == "bearer ":
            provided = provided[7:].strip()
        return hmac.compare_digest(provided.encode(), token.encode())

    async def _reject_unauthorized(self, writer) -> None:
        # Deliberately detail-free: no hint whether the token was
        # missing, malformed, or wrong.
        await self._respond(writer, 401, {"error": "unauthorized"},
                            extra_headers={"WWW-Authenticate":
                                           "Bearer"})

    async def _route(self, writer, method, path, query, headers,
                     body) -> None:
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, {
                "ok": True, "lsn": self.service.queue.lsn})
            return
        if path == "/v1/workers" or path.startswith("/v1/workers/"):
            await self._route_workers(writer, method, path, body)
            return
        if path == "/v1/jobs":
            if method == "POST":
                await self._submit(writer, body)
            elif method == "GET":
                jobs = self.service.queue.jobs(
                    tenant=query.get("tenant"),
                    state=query.get("state"))
                await self._respond(writer, 200, {
                    "jobs": [job.as_dict() for job in jobs]})
            else:
                await self._respond(writer, 405,
                                    {"error": "use GET or POST"})
            return
        if path.startswith("/v1/jobs/") and method == "GET":
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                await self._stream_job(writer, rest[:-len("/events")],
                                       query, headers)
            else:
                job = self.service.queue.get(rest)
                if job is None:
                    await self._respond(writer, 404, {
                        "error": f"no job {rest!r}"})
                else:
                    await self._respond(writer, 200, job.as_dict())
            return
        if path == "/v1/events" and method == "GET":
            await self._stream_all(writer, query, headers)
            return
        if path.startswith("/v1/artifacts/") and method == "GET":
            artifact_hash = path[len("/v1/artifacts/"):]
            artifact = self.service.artifact(artifact_hash)
            if artifact is None:
                await self._respond(writer, 404, {
                    "error": f"no artifact {artifact_hash[:12]}..."})
            else:
                await self._respond(writer, 200, artifact)
            return
        if path == "/v1/stats" and method == "GET":
            await self._respond(writer, 200, self.service.stats())
            return
        await self._respond(writer, 404,
                            {"error": f"no route {method} {path}"})

    async def _submit(self, writer, body: bytes) -> None:
        try:
            request = json.loads(body.decode() or "{}")
            if not isinstance(request, dict):
                raise ValueError("body must be a JSON object")
            kind = request.get("kind", "")
            params = request.get("params") or {}
            tenant = str(request.get("tenant") or "default")
        except (ValueError, UnicodeDecodeError) as error:
            await self._respond(writer, 400, {"error": str(error)})
            return
        try:
            job, decision = await asyncio.to_thread(
                self.service.submit, kind, params, tenant)
        except ConfigurationError as error:
            await self._respond(writer, 400, {"error": str(error)})
            return
        if job is None:
            await self._respond(
                writer, 429,
                {"error": decision.reason,
                 "retry_after": decision.retry_after},
                extra_headers={
                    "Retry-After":
                        str(max(1, int(decision.retry_after + 0.5)))})
            return
        await self._respond(writer, 202, job.as_dict())

    # -- the fleet wire protocol ----------------------------------------

    async def _route_workers(self, writer, method, path,
                             body) -> None:
        """claim / heartbeat / complete / census -- all token-gated
        (checked before the body was read)."""
        if path == "/v1/workers" and method == "GET":
            now = self.service._now()
            fleet = self.service.fleet
            await self._respond(writer, 200, {
                "remote": fleet is not None,
                "degraded": (fleet.degraded(now)
                             if fleet is not None else False),
                "workers": (fleet.workers(now)
                            if fleet is not None else []),
                "leases": self.service.queue.lease_census(now)})
            return
        if method != "POST":
            await self._respond(writer, 405, {"error": "use POST"})
            return
        try:
            request = json.loads(body.decode() or "{}")
            if not isinstance(request, dict):
                raise ValueError("body must be a JSON object")
            worker = str(request.get("worker") or "")
            if not worker:
                raise ValueError("missing worker id")
        except (ValueError, UnicodeDecodeError) as error:
            await self._respond(writer, 400, {"error": str(error)})
            return
        action = path[len("/v1/workers/"):]
        try:
            if action == "claim":
                await self._claim(writer, worker, request)
            elif action == "heartbeat":
                await self._heartbeat(writer, worker, request)
            elif action == "complete":
                await self._complete(writer, worker, request)
            else:
                await self._respond(writer, 404, {
                    "error": f"no worker action {action!r}"})
        except ConfigurationError as error:
            # Not a fleet server (or a malformed request deeper in).
            await self._respond(writer, 409, {"error": str(error)})

    async def _claim(self, writer, worker: str, request) -> None:
        lease_ttl = request.get("lease_ttl")
        job, lease = await asyncio.to_thread(
            self.service.claim_remote, worker,
            float(lease_ttl) if lease_ttl else None)
        if job is None:
            await self._respond(writer, 200, {"job": None})
            return
        await self._respond(writer, 200, {
            "job": job.as_dict(),
            "lease": lease.as_dict(),
            "heartbeat_interval": heartbeat_interval(lease.ttl),
            "timeout": self.service.admission.job_timeout})

    async def _heartbeat(self, writer, worker: str, request) -> None:
        lease = await asyncio.to_thread(
            self.service.heartbeat_remote, worker,
            str(request.get("job_id") or ""),
            str(request.get("lease_id") or ""))
        if lease is None:
            await self._respond(writer, 409, {"error": "lease lost"})
            return
        await self._respond(writer, 200, {"ok": True,
                                          "lease": lease.as_dict()})

    async def _complete(self, writer, worker: str, request) -> None:
        envelope = request.get("envelope")
        if not isinstance(envelope, dict):
            await self._respond(writer, 400, {
                "error": "completion needs an envelope object"})
            return
        result = await asyncio.to_thread(
            self.service.complete_remote, worker,
            str(request.get("job_id") or ""),
            str(request.get("lease_id") or ""),
            envelope, request.get("artifact_digest"))
        status = result["status"]
        if status == "unknown":
            await self._respond(writer, 404, {
                "error": "no such job", **result})
        elif status in ("stale", "rejected"):
            await self._respond(writer, 409, result)
        else:  # ok | duplicate
            await self._respond(writer, 200, result)

    # -- SSE ------------------------------------------------------------

    @staticmethod
    def _after(query: dict, headers: dict) -> int:
        raw = query.get("after") or headers.get("last-event-id") or "0"
        try:
            return max(0, int(raw))
        except ValueError:
            return 0

    async def _start_sse(self, writer) -> None:
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-cache\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()

    async def _stream_job(self, writer, job_id: str, query,
                          headers) -> None:
        job = self.service.queue.get(job_id)
        if job is None:
            await self._respond(writer, 404,
                                {"error": f"no job {job_id!r}"})
            return
        after = self._after(query, headers)
        await self._start_sse(writer)
        assert self.events is not None
        async for lsn, data in self.events.stream(after, job_id):
            writer.write(format_sse(lsn, data))
            await writer.drain()
            if data["job"]["state"] in TERMINAL_STATES:
                break

    async def _stream_all(self, writer, query, headers) -> None:
        after = self._after(query, headers)
        await self._start_sse(writer)
        assert self.events is not None
        async for lsn, data in self.events.stream(after):
            writer.write(format_sse(lsn, data))
            await writer.drain()


async def run_server(service: ReproService, host: str, port: int,
                     ready_callback=None) -> None:
    """Start a server and block until cancelled or signalled.

    SIGINT/SIGTERM handlers are installed on the event loop itself:
    a server backgrounded by a non-interactive shell (CI smoke, an
    init script) inherits SIGINT as ignored, which Python honors --
    without these handlers a ``kill -INT`` would be silently dropped
    and the process would only die to SIGKILL, skipping the graceful
    drain below.
    """
    server = ServeServer(service, host, port)
    await server.start()
    if ready_callback is not None:
        ready_callback(server)
    loop = asyncio.get_running_loop()
    task = asyncio.current_task()
    hooked = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, task.cancel)
            hooked.append(signum)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or non-unix: rely on the runner
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        for signum in hooked:
            loop.remove_signal_handler(signum)
        await server.stop()


__all__ = ["ServeServer", "run_server"]
