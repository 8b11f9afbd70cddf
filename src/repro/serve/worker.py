"""The ``repro worker`` process: the fleet's pull-side loop.

A worker owns no state the service cannot reconstruct.  Its whole
life is::

    claim -> execute (heartbeating) -> complete -> claim -> ...

**Claim** asks the front end for one job and receives it together
with a lease (opaque id + TTL), the heartbeat interval, and the
per-job timeout the server's admission policy promises.  **Execute**
runs the job through the runner's
:func:`~repro.runner.jobs.invoke` envelope on a dedicated thread --
which is exactly what makes the guard's
:class:`~repro.guard.watchdog.WatchdogTimer` the deadline enforcer
(``invoke`` arms it automatically off the main thread) -- while the
main thread renews the lease every ``heartbeat_interval`` seconds.
**Complete** uploads the envelope plus a SHA-256 digest of the
canonical artifact bytes so the server can verify the parity contract
before journaling the terminal transition.

Failure discipline, in order of what can go wrong:

* Every HTTP call retries under the runner's decorrelated-jitter
  :class:`~repro.runner.retry.RetryPolicy` -- but only *transport*
  failures (unreachable server, 5xx).  A definitive server answer
  (401, 404, 409) is information, not flake, and is never retried.
* A heartbeat answered 409 means the lease is lost (expired and
  requeued, or completed elsewhere): the worker asynchronously raises
  :class:`LeaseLost` into the execution thread and abandons the job
  without uploading -- the service's requeue sweep owns it now.
* If the worker dies entirely (SIGKILL, power loss), no protocol step
  is needed: the lease expires on its own and the job requeues.  The
  artifact-digest verification on upload plus the queue's terminal
  state make the eventual completion exactly-once even when the dead
  worker's upload arrives late.

Workers are identified by ``hostname-pid`` by default -- unique
enough for a fleet, stable enough to read in logs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import signal
import socket
import threading
import time

from repro.errors import ConfigurationError, ServeError
from repro.runner import jobs as jobs_module
from repro.runner.cache import encode_artifact
from repro.runner.retry import RetryPolicy, retrying_call
from repro.serve.client import ServeClient
from repro.serve.lease import heartbeat_interval

#: Idle delay between claim attempts when the queue is empty.
DEFAULT_POLL_INTERVAL = 0.5


class LeaseLost(Exception):
    """The server reassigned (or expired) this worker's lease."""


class _Transient(Exception):
    """A retryable transport failure (wrapped for retrying_call)."""


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _abort_thread(thread: threading.Thread, exception: type) -> None:
    """Asynchronously raise ``exception`` in ``thread`` (the same
    ``PyThreadState_SetAsyncExc`` mechanism as the guard's watchdog
    timer, fired on demand instead of on a clock)."""
    if thread.ident is None or not thread.is_alive():
        return
    ctypes.pythonapi.PyThreadState_SetAsyncExc(
        ctypes.c_ulong(thread.ident), ctypes.py_object(exception))


class ServeWorker:
    """One fleet worker against one serve front end."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8321, *,
                 worker_id: str | None = None,
                 token: str | None = None,
                 cache_root=None, cache_salt: str | None = None,
                 lease_ttl: float | None = None,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 max_jobs: int | None = None,
                 idle_exit: float | None = None,
                 retry: RetryPolicy | None = None,
                 job_fn=jobs_module.execute_spec,
                 quiet: bool = False) -> None:
        self.worker_id = worker_id or default_worker_id()
        self.client = ServeClient(host, port, token=token)
        self.cache_root = cache_root
        self.cache_salt = cache_salt
        self.lease_ttl = lease_ttl
        self.poll_interval = max(0.05, float(poll_interval))
        self.max_jobs = max_jobs
        self.idle_exit = idle_exit
        self.retry = retry or RetryPolicy(max_attempts=5,
                                          backoff_base=0.1,
                                          backoff_max=2.0,
                                          max_elapsed=30.0)
        self.job_fn = job_fn
        self.quiet = quiet
        self.completed = 0
        self.abandoned = 0
        self.failed = 0
        self._stop = threading.Event()

    # -- plumbing -------------------------------------------------------

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"[worker {self.worker_id}] {message}", flush=True)

    def stop(self) -> None:
        """Ask the loop to exit after the current job."""
        self._stop.set()

    def install_signal_handlers(self) -> None:
        """SIGINT/SIGTERM finish the current job, then exit cleanly
        (SIGKILL is the crash-drill path: the lease expires for us)."""
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                signal.signal(signum, lambda *_: self.stop())
            except ValueError:
                return  # not the main thread; the caller owns signals

    def _call(self, what: str, fn):
        """One server call under the jittered retry policy.

        Transport failures (unreachable, 5xx) retry; definitive
        answers (4xx) propagate immediately as :class:`ServeError`.
        """
        def attempt():
            try:
                return fn()
            except ServeError as error:
                if error.status and error.status < 500:
                    raise  # a real answer, not a flake
                raise _Transient(str(error)) from error

        def on_retry(index, delay, error):
            self._log(f"{what} failed ({error}); retry {index} "
                      f"in {delay:.2f}s")

        try:
            return retrying_call(
                attempt, policy=self.retry,
                seed=f"{self.worker_id}:{what}",
                retry_on=(_Transient,), on_retry=on_retry)
        except _Transient as error:
            cause = error.__cause__
            raise cause if isinstance(cause, ServeError) \
                else ServeError(str(error)) from None

    # -- the loop -------------------------------------------------------

    def run(self) -> int:
        """Claim and execute until stopped; returns jobs completed."""
        self._log(f"polling {self.client.host}:{self.client.port}")
        idle_since: float | None = None
        while not self._stop.is_set():
            if self.max_jobs is not None \
                    and self.completed >= self.max_jobs:
                break
            reply = self._call(
                "claim", lambda: self.client.claim(
                    self.worker_id, self.lease_ttl))
            job = reply.get("job")
            if not job:
                now = time.monotonic()
                idle_since = idle_since if idle_since is not None \
                    else now
                if self.idle_exit is not None \
                        and now - idle_since >= self.idle_exit:
                    self._log("queue idle; exiting")
                    break
                self._stop.wait(self.poll_interval)
                continue
            idle_since = None
            self._run_job(job, reply)
        self._log(f"done: {self.completed} completed, "
                  f"{self.failed} failed, "
                  f"{self.abandoned} abandoned")
        return self.completed

    def _run_job(self, job: dict, reply: dict) -> None:
        lease = reply.get("lease") or {}
        lease_id = lease.get("lease_id", "")
        ttl = float(lease.get("ttl") or 30.0)
        timeout = reply.get("timeout")
        self._log(f"claimed {job['id']} ({job['kind']}, "
                  f"lease {lease_id[:8]}, ttl {ttl:g}s)")
        try:
            spec = jobs_module.build_job_spec(job["kind"], job["params"])
        except ConfigurationError as error:
            # A journaled job this version cannot build (a retired
            # kind or param): fail it rather than exit the worker.
            self._upload(job, lease_id, jobs_module.failure_envelope(
                "ConfigurationError", str(error)))
            return
        box: dict = {}

        def execute() -> None:
            # A non-main thread on purpose: invoke() then enforces
            # the deadline with the guard's WatchdogTimer.
            try:
                box["envelope"] = jobs_module.invoke(
                    self.job_fn, spec, timeout,
                    self.cache_root, self.cache_salt)
            except LeaseLost:
                box["lost"] = True

        thread = threading.Thread(
            target=execute, daemon=True,
            name=f"exec-{job['id'][:12]}")
        thread.start()
        if not self._heartbeat_until_done(thread, job, lease_id,
                                          lease):
            # Lease lost mid-run: abandon without uploading; the
            # requeue sweep owns the job now.
            _abort_thread(thread, LeaseLost)
            thread.join(timeout=5.0)
            self.abandoned += 1
            self._log(f"abandoned {job['id']} (lease lost)")
            return
        envelope = box.get("envelope")
        if envelope is None:  # executor died without an envelope
            envelope = jobs_module.failure_envelope(
                "WorkerError", "execution thread produced no envelope")
        self._upload(job, lease_id, envelope)

    def _heartbeat_until_done(self, thread, job, lease_id,
                              lease) -> bool:
        """Renew the lease until execution finishes.

        Returns False the moment the lease is lost -- a 409 from the
        server, or heartbeat retries exhausted (we cannot *prove* the
        lease is alive, so we must assume it is not).
        """
        while thread.is_alive():
            thread.join(timeout=self._interval_for(lease))
            if not thread.is_alive():
                return True
            try:
                reply = self._call(
                    "heartbeat", lambda: self.client.heartbeat(
                        self.worker_id, job["id"], lease_id))
                lease = reply.get("lease") or lease
            except ServeError as error:
                if error.status == 409:
                    return False
                self._log(f"heartbeat gave up ({error}); "
                          f"assuming lease lost")
                return False
        return True

    def _interval_for(self, lease) -> float:
        ttl = float((lease or {}).get("ttl") or 0.0)
        if ttl > 0:
            return heartbeat_interval(ttl)
        return heartbeat_interval(30.0)

    def _upload(self, job: dict, lease_id: str,
                envelope: dict) -> None:
        digest = None
        if envelope.get("ok"):
            digest = hashlib.sha256(
                encode_artifact(envelope["artifact"])).hexdigest()
        try:
            result = self._call(
                "complete", lambda: self.client.complete(
                    self.worker_id, job["id"], lease_id,
                    envelope, digest))
        except ServeError as error:
            if error.status == 413 and envelope.get("ok"):
                # Over the server's upload cap: fail the job with the
                # reason rather than leave its lease to expire.
                self._upload(job, lease_id, jobs_module.failure_envelope(
                    "ArtifactTooLarge",
                    f"artifact upload refused: {error}",
                    envelope.get("wall_time", 0.0)))
                return
            # 404/409: the job moved on without us (completed
            # elsewhere, requeued past this lease, or rejected on
            # parity).  Nothing to retry -- log and keep claiming.
            self.abandoned += 1
            self._log(f"completion of {job['id']} refused: {error}")
            return
        status = result.get("status")
        if envelope.get("ok"):
            self.completed += 1
        else:
            self.failed += 1
        self._log(f"{job['id']} {status} "
                  f"(ok={bool(envelope.get('ok'))}, "
                  f"wall={envelope.get('wall_time', 0.0):.2f}s)")


def run_worker(host: str, port: int, **kwargs) -> int:
    """Build a :class:`ServeWorker`, wire signals, run the loop."""
    worker = ServeWorker(host, port, **kwargs)
    worker.install_signal_handlers()
    return worker.run()


__all__ = [
    "DEFAULT_POLL_INTERVAL",
    "LeaseLost",
    "ServeWorker",
    "default_worker_id",
    "run_worker",
]
