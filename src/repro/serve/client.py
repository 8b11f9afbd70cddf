"""Blocking HTTP client for the record/replay service.

Built on :mod:`http.client` (stdlib, no dependency), one connection
per call to match the server's ``Connection: close`` discipline.  The
CLI's ``repro submit`` / ``repro jobs`` commands and the CI smoke test
are the intended users; anything speaking JSON-over-HTTP works just as
well without this module.

Every error becomes a :class:`~repro.errors.ServeError` carrying the
HTTP status (and the ``Retry-After`` hint on a 429 shed), so callers
distinguish "malformed spec" from "come back later" without parsing
message text.
"""

from __future__ import annotations

import http.client
import json
import socket
import time

from repro.errors import ServeError
from repro.serve.model import TERMINAL_STATES


class ServeClient:
    """Talk to one ``repro serve`` instance.

    ``token`` is the shared-secret bearer token; it rides every
    request as ``Authorization: Bearer <token>`` (required by servers
    started with ``--auth-token`` for submissions and all fleet
    calls).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8321,
                 timeout: float = 30.0,
                 token: str | None = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.token = token or None

    # -- plumbing -------------------------------------------------------

    def _auth_headers(self) -> dict:
        if not self.token:
            return {}
        return {"Authorization": f"Bearer {self.token}"}

    def _request(self, method: str, path: str,
                 body: dict | None = None) -> dict:
        payload = json.dumps(body).encode() if body is not None \
            else None
        headers = {"Content-Type": "application/json"} if payload \
            else {}
        headers.update(self._auth_headers())
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            try:
                conn.request(method, path, body=payload,
                             headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except OSError as error:
                raise ServeError(
                    f"cannot reach serve at {self.host}:{self.port}: "
                    f"{error}") from error
            try:
                data = json.loads(raw.decode() or "{}")
            except ValueError:
                data = {"error": raw.decode(errors="replace")}
            if response.status >= 400:
                retry_after = float(
                    response.headers.get("Retry-After", 0) or 0)
                raise ServeError(
                    data.get("error",
                             f"HTTP {response.status} on {path}"),
                    status=response.status, retry_after=retry_after)
            return data
        finally:
            conn.close()

    # -- API ------------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def submit(self, kind: str, params: dict | None = None,
               tenant: str = "default") -> dict:
        """Submit one job; returns the accepted job snapshot.

        Raises :class:`ServeError` with ``status=429`` (and a
        ``retry_after``) when the server sheds the request.
        """
        return self._request("POST", "/v1/jobs", {
            "kind": kind, "params": params or {}, "tenant": tenant})

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self, tenant: str | None = None,
             state: str | None = None) -> list[dict]:
        query = "&".join(f"{k}={v}" for k, v in
                         (("tenant", tenant), ("state", state))
                         if v is not None)
        path = "/v1/jobs" + (f"?{query}" if query else "")
        return self._request("GET", path)["jobs"]

    def artifact(self, artifact_hash: str) -> dict:
        return self._request("GET", f"/v1/artifacts/{artifact_hash}")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    # -- the fleet wire protocol (repro worker speaks these) ------------

    def workers(self) -> dict:
        """Fleet census: live workers, degradation, lease counts."""
        return self._request("GET", "/v1/workers")

    def claim(self, worker: str,
              lease_ttl: float | None = None) -> dict:
        """Claim one job under a lease; ``{"job": None}`` when idle."""
        body = {"worker": worker}
        if lease_ttl is not None:
            body["lease_ttl"] = lease_ttl
        return self._request("POST", "/v1/workers/claim", body)

    def heartbeat(self, worker: str, job_id: str,
                  lease_id: str) -> dict:
        """Renew a lease; raises ``ServeError(status=409)`` if lost."""
        return self._request("POST", "/v1/workers/heartbeat", {
            "worker": worker, "job_id": job_id, "lease_id": lease_id})

    def complete(self, worker: str, job_id: str, lease_id: str,
                 envelope: dict,
                 artifact_digest: str | None = None) -> dict:
        """Upload one finished job's envelope for verification."""
        return self._request("POST", "/v1/workers/complete", {
            "worker": worker, "job_id": job_id, "lease_id": lease_id,
            "envelope": envelope, "artifact_digest": artifact_digest})

    def wait(self, job_id: str, timeout: float = 300.0) -> dict:
        """Follow the job's SSE stream to its terminal event and
        return that snapshot as soon as the server publishes it.

        A stream the server drops early is resumed after the last
        event seen (event ids are journal LSNs).  Raises
        :class:`ServeError` if the job is still not terminal after
        ``timeout`` seconds (naming its last state seen, or
        ``unanswered`` when the server sent none in time), or
        (``status=404``) if the server has no such job.
        """
        deadline = time.monotonic() + timeout
        state, after = "unanswered", 0
        try:
            while True:  # until terminal; a dropped stream resumes
                for after, data in self._events(
                        f"/v1/jobs/{job_id}/events?after={after}",
                        deadline=deadline):
                    job = data["job"]
                    if job["state"] in TERMINAL_STATES:
                        return job
                    state = job["state"]
        except socket.timeout:
            pass
        raise ServeError(f"job {job_id} still {state} after "
                         f"{timeout:g}s")

    def stream(self, job_id: str | None = None, after: int = 0,
               timeout: float | None = None):
        """Yield ``(event_id, data)`` SSE events as they arrive.

        ``job_id=None`` follows the global feed (which never ends --
        bound it with ``timeout``); a per-job stream ends when the
        server closes it at the job's terminal transition.
        """
        path = (f"/v1/jobs/{job_id}/events" if job_id
                else "/v1/events")
        if after:
            path += f"?after={after}"
        yield from self._events(
            path, timeout=timeout if timeout is not None
            else self.timeout)

    def _events(self, path: str, *, timeout: float | None = None,
                deadline: float | None = None):
        """Yield the SSE stream at ``path`` until the server closes it.

        Each socket operation waits at most ``timeout`` seconds or,
        given a monotonic ``deadline`` instead, until that deadline.
        A read that runs out of time raises :class:`socket.timeout`;
        so does connecting or awaiting the response headers past the
        deadline (without one, that is "cannot reach").
        """
        if deadline is not None:
            timeout = max(deadline - time.monotonic(), 0.001)
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout)
        try:
            try:
                conn.request("GET", path,
                             headers=self._auth_headers())
                # getresponse() detaches the socket from ``conn`` (the
                # server closes after the stream); the response keeps
                # reading from it.
                sock = conn.sock
                response = conn.getresponse()
            except OSError as error:
                if deadline is not None \
                        and isinstance(error, socket.timeout):
                    raise  # out of time, not out of reach
                raise ServeError(
                    f"cannot reach serve at {self.host}:{self.port}: "
                    f"{error}") from error
            if response.status >= 400:
                try:
                    message = json.loads(response.read())["error"]
                except (ValueError, KeyError, TypeError):
                    message = f"HTTP {response.status} on {path}"
                raise ServeError(message, status=response.status)
            event_id = 0
            while True:
                if deadline is not None:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        raise socket.timeout(f"deadline passed on {path}")
                    sock.settimeout(left)
                raw = response.readline()
                if not raw:
                    return
                line = raw.decode().rstrip("\n").rstrip("\r")
                if line.startswith("id:"):
                    event_id = int(line[3:].strip())
                elif line.startswith("data:"):
                    yield event_id, json.loads(line[5:].strip())
        finally:
            conn.close()


__all__ = ["ServeClient"]
