"""Pluggable execution backends for the runner (and the serve layer).

The runner used to be welded to ``ProcessPoolExecutor``; everything
that wanted a different substrate -- the serial in-process baseline,
a persistent service pool, eventually remote workers -- had to go
around it.  :class:`ExecutorBackend` extracts the five operations the
runner actually needs (start, submit, restart-after-crash, shutdown,
and its capacity: how many attempts run at once) so the execution
substrate is a constructor argument instead of a hard-coded class.

Three backends ship today:

* :class:`InlineBackend` -- ``submit`` runs the callable immediately
  in the calling process and returns an already-completed future.
  This is the serial baseline and the zero-dependency fallback; it
  shares *every* code path (cache, retry, reporting, envelopes) with
  the pooled backends.
* :class:`ProcessPoolBackend` -- a ``ProcessPoolExecutor`` wrapper
  that knows how to rebuild itself after a hard worker death
  (``BrokenProcessPool``), preserving the runner's crash-recovery
  semantics.
* :class:`RemoteWorkerBackend` -- the serve tier's fleet substrate.
  Remote ``repro worker`` processes pull jobs over HTTP rather than
  having them pushed through ``submit``, so this backend's job is
  fleet *liveness*: it tracks when each worker was last heard from
  and answers :meth:`~RemoteWorkerBackend.degraded` -- and its
  ``submit`` delegates to a local fallback backend, which is exactly
  the graceful-degradation path (no worker heartbeating => the
  service runs jobs locally through the same five operations).

The contract that makes backends interchangeable: a job is a pure
function of its :class:`~repro.runner.specs.RunSpec`, so the *same
spec must produce byte-identical artifacts on every backend* (the
``encode_artifact`` determinism guard extends across substrates; see
``tests/test_executors.py``).  The remote backend honors it too: an
uploaded artifact is digest-verified against the parity contract
before its terminal journal entry (see :mod:`repro.serve.service`).
"""

from __future__ import annotations

import concurrent.futures
import threading

from repro.errors import ConfigurationError


class ExecutorBackend:
    """The substrate the runner submits job attempts to.

    Lifecycle: ``start(width)`` before the first submit, ``submit``
    per attempt, ``restart(width)`` if the substrate broke (a worker
    died hard enough to poison its siblings), ``shutdown`` when its
    owner is done with it.  :meth:`capacity` says how many submitted attempts
    run at once: the runner keeps that many in flight, so none waits in
    a queue the backend keeps out of its sight.
    """

    #: Backend name (the CLI ``--executor`` spelling).
    name = "abstract"

    def capacity(self, width: int) -> int:
        """Attempts this backend runs at once when asked for
        ``width``: one, unless a backend overlaps them."""
        return 1

    def start(self, width: int) -> None:
        """Provision capacity for up to ``width`` concurrent jobs."""

    def submit(self, fn, /, *args) -> concurrent.futures.Future:
        """Schedule ``fn(*args)``; return a future for its result."""
        raise NotImplementedError

    def restart(self, width: int) -> None:
        """Rebuild the substrate after it broke; pending futures on
        the old substrate are dead and must be resubmitted."""

    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = False) -> None:
        """Release the substrate's resources."""


class InlineBackend(ExecutorBackend):
    """Execute every submit synchronously in the calling process."""

    name = "inline"

    def submit(self, fn, /, *args) -> concurrent.futures.Future:
        future: concurrent.futures.Future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except BaseException as error:  # noqa: BLE001 -- future carries it
            future.set_exception(error)
        return future


class ProcessPoolBackend(ExecutorBackend):
    """Fan submits out across a rebuildable worker-process pool.

    ``mp_start_method`` selects how workers are created.  ``None``
    keeps the platform default (``fork`` on Linux: cheapest, and what
    batch sweeps have always used).  Long-lived *threaded* hosts --
    the serve layer's asyncio front end -- must pass ``"spawn"``:
    forking a process with live threads can deadlock the child on
    locks frozen mid-operation, and a pool that forks lazily per
    submit will do exactly that once the event loop is running.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None,
                 mp_start_method: str | None = None) -> None:
        self.max_workers = max_workers
        self.mp_start_method = mp_start_method
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None

    def capacity(self, width: int) -> int:
        """``width``, capped at ``max_workers`` when one is set."""
        limit = self.max_workers or width
        return max(1, min(limit, width))

    def _make_pool(self, width: int):
        kwargs = {"max_workers": self.capacity(width)}
        if self.mp_start_method is not None:
            import multiprocessing

            kwargs["mp_context"] = multiprocessing.get_context(
                self.mp_start_method)
        return concurrent.futures.ProcessPoolExecutor(**kwargs)

    def start(self, width: int) -> None:
        if self._pool is None:
            self._pool = self._make_pool(width)

    def submit(self, fn, /, *args) -> concurrent.futures.Future:
        if self._pool is None:
            self.start(width=self.max_workers or 1)
        return self._pool.submit(fn, *args)

    def restart(self, width: int) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
        self._pool = self._make_pool(width)

    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = False) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait,
                                cancel_futures=cancel_futures)
            self._pool = None


#: Never heard from a worker for this long => the fleet is degraded.
DEFAULT_FLEET_WINDOW = 15.0


class RemoteWorkerBackend(ExecutorBackend):
    """Fleet liveness plus a local fallback for degraded operation.

    Remote workers *pull* work (claim/heartbeat/complete over HTTP;
    see :mod:`repro.serve.worker`), so nothing is ever pushed through
    this backend while the fleet is healthy.  What the service needs
    from the backend object is the degradation decision: every worker
    contact lands in :meth:`touch_worker`, and when no worker has been
    heard from within ``window`` seconds -- including "no worker ever
    showed up" -- :meth:`degraded` flips true and the service's local
    loop starts claiming jobs itself, executing them via ``submit``
    on the ``fallback`` backend (inline or a process pool).  The
    moment any worker calls in again the fleet is healthy and local
    claiming stops.  Lifecycle calls pass through to the fallback so
    the degraded path is always warm.
    """

    name = "remote"

    def __init__(self, fallback: ExecutorBackend | None = None,
                 window: float = DEFAULT_FLEET_WINDOW) -> None:
        self.fallback = fallback or InlineBackend()
        self.window = max(0.1, float(window))
        self._lock = threading.Lock()
        self._last_seen: dict[str, float] = {}

    # -- fleet liveness ------------------------------------------------

    def touch_worker(self, worker: str, now: float) -> None:
        """Record contact (claim/heartbeat/complete) from a worker."""
        with self._lock:
            previous = self._last_seen.get(worker, 0.0)
            self._last_seen[worker] = max(previous, now)

    def workers(self, now: float) -> list[str]:
        """Workers heard from within the window, sorted by name."""
        cutoff = now - self.window
        with self._lock:
            return sorted(worker for worker, seen
                          in self._last_seen.items()
                          if seen >= cutoff)

    def degraded(self, now: float) -> bool:
        """True when no live worker exists and the local fallback
        should claim jobs."""
        cutoff = now - self.window
        with self._lock:
            return not any(seen >= cutoff
                           for seen in self._last_seen.values())

    # -- ExecutorBackend via the fallback ------------------------------

    def capacity(self, width: int) -> int:
        """The fallback's: it runs every submitted attempt."""
        return self.fallback.capacity(width)

    def start(self, width: int) -> None:
        self.fallback.start(width)

    def submit(self, fn, /, *args) -> concurrent.futures.Future:
        """The degraded path: run locally on the fallback backend."""
        return self.fallback.submit(fn, *args)

    def restart(self, width: int) -> None:
        self.fallback.restart(width)

    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = False) -> None:
        self.fallback.shutdown(wait=wait, cancel_futures=cancel_futures)


#: Named backend constructors (the ``--executor`` registry).
BACKENDS = {
    "inline": InlineBackend,
    "process": ProcessPoolBackend,
    "remote": RemoteWorkerBackend,
}


def resolve_backend(executor, jobs: int, *,
                    mp_start_method: str | None = None,
                    window: float = DEFAULT_FLEET_WINDOW
                    ) -> ExecutorBackend:
    """Turn an ``executor`` option into a backend instance.

    ``None`` picks the historical default: inline for a serial runner
    (``jobs == 1``), a process pool otherwise.  A string looks up
    :data:`BACKENDS`; an :class:`ExecutorBackend` instance passes
    through (the caller owns its lifecycle configuration).  A process
    pool, standalone or as the remote backend's fallback when
    ``jobs > 1``, uses ``mp_start_method``; the remote backend's fleet
    liveness window is ``window``.
    """
    if executor is None:
        executor = "inline" if jobs <= 1 else "process"
    if isinstance(executor, ExecutorBackend):
        return executor
    try:
        factory = BACKENDS[executor]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown executor backend {executor!r} (expected one of: "
            + ", ".join(sorted(BACKENDS)) + ")") from None
    if factory is InlineBackend:
        return InlineBackend()
    pool = ProcessPoolBackend(max_workers=max(1, jobs),
                              mp_start_method=mp_start_method)
    if factory is RemoteWorkerBackend:
        return RemoteWorkerBackend(
            fallback=pool if jobs > 1 else InlineBackend(),
            window=window)
    return pool


__all__ = [
    "BACKENDS",
    "DEFAULT_FLEET_WINDOW",
    "ExecutorBackend",
    "InlineBackend",
    "ProcessPoolBackend",
    "RemoteWorkerBackend",
    "resolve_backend",
]
