"""The runner: fan simulation jobs out across an executor backend.

:class:`Runner` takes a batch of :class:`RunSpec` jobs and drives each
to a terminal state:

1. **Dedup** -- specs are keyed by content hash; a sweep that names
   the same run twice pays for it once.
2. **Cache** -- every job is first looked up in the content-addressed
   :class:`~repro.runner.cache.ResultCache`; hits never reach a
   worker.
3. **Waves** -- jobs with dependencies (a replay needs its recording)
   run after their dependencies, so N replays of one recording share
   one record job through the cache instead of each recomputing it.
4. **Execute** -- misses are submitted to a pluggable
   :class:`~repro.runner.executors.ExecutorBackend`:
   :class:`~repro.runner.executors.InlineBackend` (the serial
   baseline, same code path for cache and retry),
   :class:`~repro.runner.executors.ProcessPoolBackend` (``jobs > 1``)
   or :class:`~repro.runner.executors.RemoteWorkerBackend` (the serve
   layer's lease-based worker fleet, with a local fallback pool it
   degrades to when no worker heartbeats).  One attempt loop drives
   every wave on every backend, with at most ``jobs`` attempts in
   flight on a parallel backend and one inline (so an inline sweep
   finishes each job before it starts the next).  Each attempt runs
   under a per-job wall-clock timeout enforced *inside* the worker
   (SIGALRM on a unix main thread, an async-raise watchdog timer
   elsewhere), so a hung simulation turns into a structured timeout
   failure rather than a stuck pool.  A deadline sweep backstops
   both: an attempt still pending :func:`sweep_deadline` after it got
   its slot is abandoned and fed through the normal retry path, so
   even a worker wedged in C code cannot stall the sweep.
   :func:`attempt_envelope` turns a submitted attempt into its
   envelope, here and in the serve layer.
5. **Retry** -- failed attempts (exceptions, timeouts, a crashed
   worker process) are retried with exponential backoff under a
   :class:`~repro.runner.retry.RetryPolicy`; a job that exhausts its
   budget yields a :class:`~repro.runner.retry.FailureRecord` and the
   sweep continues.

Progress and counters flow through a pluggable
:class:`~repro.runner.reporting.Reporter`.
"""

from __future__ import annotations

import collections
import concurrent.futures
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.runner import jobs as jobs_module
from repro.runner.cache import ResultCache
from repro.runner.executors import ExecutorBackend, resolve_backend
from repro.runner.reporting import NullReporter, Reporter, RunnerMetrics
from repro.runner.retry import (
    AttemptFailure,
    FailureRecord,
    RetryPolicy,
)
from repro.runner.specs import RunSpec


class RunnerError(ReproError):
    """A sweep-level failure (raised by the strict helpers only)."""


def sweep_deadline(timeout: float) -> float:
    """Pool-side backstop budget for one attempt.

    The in-worker enforcement (SIGALRM on the main thread, the async-
    raise watchdog elsewhere) gets the first shot at a hung job; the
    pool's deadline sweep only collects attempts stuck past it -- jobs
    wedged in C code where no Python-level exception can land.  The
    margin keeps the two mechanisms from racing on healthy timeouts.
    """
    return timeout + max(1.0, 0.5 * timeout)


def overdue_futures(pending, deadlines, now: float) -> list:
    """Futures in ``pending`` whose sweep deadline has passed."""
    return [future for future, due in deadlines.items()
            if due <= now and future in pending and not future.done()]


def submit_attempt(backend: ExecutorBackend, job_fn, spec,
                   timeout: float | None,
                   cache: ResultCache | None) -> concurrent.futures.Future:
    """Submit one :func:`~repro.runner.jobs.invoke` attempt of ``spec``.

    A submit that raises (a pool already broken, or shut down) comes
    back as a failed future, so :func:`attempt_envelope` maps it like
    any other attempt.
    """
    cache_args = ((str(cache.root), cache.salt) if cache is not None
                  else (None, None))
    try:
        return backend.submit(jobs_module.invoke, job_fn, spec, timeout,
                              *cache_args)
    except Exception as error:  # noqa: BLE001 -- the future carries it
        future: concurrent.futures.Future = concurrent.futures.Future()
        future.set_exception(error)
        return future


def attempt_envelope(future, timeout: float | None, submitted: float,
                     restart) -> dict:
    """Wait for one attempt until its sweep deadline; return its
    envelope.

    ``submitted`` is the monotonic time the attempt was submitted into
    its slot, which starts its :func:`sweep_deadline`.  The envelope is
    the attempt's own (:func:`~repro.runner.jobs.invoke` never raises),
    or a failure envelope when the attempt missed its deadline (the
    future is cancelled; its worker stays busy until the job returns),
    its worker died (``restart()`` rebuilds the backend), or anything
    else raised.
    """
    wait = None
    if timeout:
        wait = max(0.0, submitted + sweep_deadline(timeout)
                   - time.monotonic())
    try:
        return future.result(timeout=wait)
    except concurrent.futures.TimeoutError:
        future.cancel()
        return jobs_module.failure_envelope(
            "JobTimeout",
            f"job missed its {timeout:g}s deadline (pool sweep)",
            time.monotonic() - submitted)
    except BrokenProcessPool:
        # The worker died hard (SIGKILL, segfault, os._exit), which
        # poisons every sibling future on the substrate.
        restart()
        return jobs_module.failure_envelope("BrokenProcessPool",
                                            "worker process died")
    except Exception as error:  # noqa: BLE001 -- envelope, not loss
        return jobs_module.failure_envelope(type(error).__name__,
                                            str(error))


@dataclass
class JobOutcome:
    """Terminal state of one job in a sweep."""

    spec: RunSpec
    artifact: dict | None = None
    failure: FailureRecord | None = None
    attempts: int = 0
    wall_time: float = 0.0
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        """Whether the job produced an artifact."""
        return self.artifact is not None


@dataclass
class _Job:
    """A miss from the moment it takes a slot to its terminal state."""

    spec: RunSpec
    #: When the job took its slot: the retry policy's elapsed clock.
    started: float
    attempt: int = 1
    #: When the current attempt was submitted: its sweep clock.
    submitted: float = 0.0
    last_delay: float | None = None
    failures: list = field(default_factory=list)


class Runner:
    """Parallel, cached, fault-tolerant executor for run specs.

    A backend the runner builds starts on the first :meth:`run` and
    serves every later one until :meth:`close` (or the end of a
    ``with`` block); an injected backend stays the caller's.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | bool | None = True,
        timeout: float | None = None,
        retry: RetryPolicy | None = None,
        reporter: Reporter | None = None,
        job_fn=jobs_module.execute_spec,
        executor: str | ExecutorBackend | None = None,
    ) -> None:
        if jobs < 1:
            raise RunnerError("need at least one worker")
        self.jobs = jobs
        if cache is True:
            cache = ResultCache()
        elif cache is False:
            cache = None
        self.cache = cache
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self.reporter = reporter or NullReporter()
        self.job_fn = job_fn
        self._owns_backend = not isinstance(executor, ExecutorBackend)
        self._backend = resolve_backend(executor, jobs)
        #: Jobs in flight at once: as many as the backend runs at
        #: once, so no attempt spends its deadline queued inside it
        #: (1 also keeps an inline sweep in order).
        self._width = self._backend.capacity(jobs)
        self.metrics = RunnerMetrics()

    @property
    def backend(self) -> ExecutorBackend:
        """The execution substrate this runner submits attempts to."""
        return self._backend

    # -- public API -----------------------------------------------------

    def run(self, specs) -> list[JobOutcome]:
        """Drive every spec to a terminal state.

        Returns one outcome per *distinct* requested spec, in first-
        seen order.  Dependency jobs added for scheduling are executed
        (and cached) but not returned.
        """
        requested: list[RunSpec] = []
        seen: set[str] = set()
        for spec in specs:
            spec_hash = spec.content_hash()
            if spec_hash not in seen:
                seen.add(spec_hash)
                requested.append(spec)

        waves = self._plan_waves(requested, seen)
        self.metrics = RunnerMetrics(
            queued=sum(len(wave) for wave in waves))
        self.reporter.on_start(self.metrics.queued)

        outcomes: dict[str, JobOutcome] = {}
        self._backend.start(self._width)
        for wave in waves:
            self._run_wave(wave, outcomes)
        self.reporter.on_finish(self.metrics)
        return [outcomes[spec.content_hash()] for spec in requested]

    def close(self) -> None:
        """Shut down the backend this runner built."""
        if self._owns_backend:
            self._backend.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run_one(self, spec: RunSpec) -> dict:
        """Run a single spec; return its artifact or raise."""
        outcome = self.run([spec])[0]
        if not outcome.ok:
            raise RunnerError(outcome.failure.summary())
        return outcome.artifact

    def artifacts_by_hash(self, specs) -> dict[str, dict]:
        """Run a sweep; map spec hash -> artifact for the successes."""
        return {outcome.spec.content_hash(): outcome.artifact
                for outcome in self.run(specs) if outcome.ok}

    # -- scheduling -----------------------------------------------------

    def _plan_waves(self, requested, seen) -> list[list[RunSpec]]:
        """Topologically bucket jobs: dependencies before dependents.

        With the cache enabled, dependencies of requested jobs are
        injected into the first wave so concurrent dependents share
        one computation through the cache instead of racing on it.
        """
        first: list[RunSpec] = []
        second: list[RunSpec] = []
        for spec in requested:
            dependencies = spec.dependencies()
            if not dependencies:
                first.append(spec)
                continue
            second.append(spec)
            if self.cache is None:
                continue  # nothing to share without a cache
            for dependency in dependencies:
                dep_hash = dependency.content_hash()
                if dep_hash not in seen:
                    seen.add(dep_hash)
                    first.append(dependency)
        return [wave for wave in (first, second) if wave]

    def _run_wave(self, wave, outcomes) -> None:
        misses: list[RunSpec] = []
        for spec in wave:
            artifact = self.cache.load(spec) if self.cache else None
            if artifact is not None:
                self.metrics.queued -= 1
                self.metrics.done += 1
                self.metrics.cache_hits += 1
                outcome = JobOutcome(spec=spec, artifact=artifact,
                                     from_cache=True)
                outcomes[spec.content_hash()] = outcome
                self.reporter.on_job_done(
                    spec, from_cache=True, wall_time=0.0,
                    metrics=self.metrics)
            else:
                self.metrics.cache_misses += 1
                misses.append(spec)
        if misses:
            self._drive(misses, outcomes)

    # -- execution ------------------------------------------------------

    def _finish_success(self, spec, envelope, attempt) -> JobOutcome:
        artifact = envelope["artifact"]
        if self.cache is not None:
            self.cache.store(spec, artifact)
        self.metrics.done += 1
        self.metrics.running -= 1
        self.metrics.job_wall_times.append(envelope["wall_time"])
        outcome = JobOutcome(spec=spec, artifact=artifact,
                             attempts=attempt,
                             wall_time=envelope["wall_time"])
        self.reporter.on_job_done(
            spec, from_cache=False, wall_time=envelope["wall_time"],
            metrics=self.metrics)
        return outcome

    def _finish_failure(self, job: _Job) -> JobOutcome:
        elapsed = time.monotonic() - job.started
        record = FailureRecord(spec=job.spec, attempts=list(job.failures),
                               total_elapsed=elapsed)
        self.metrics.failed += 1
        self.metrics.running -= 1
        self.reporter.on_job_failed(job.spec, record.last.brief(),
                                    self.metrics)
        return JobOutcome(spec=job.spec, failure=record,
                          attempts=len(job.failures), wall_time=elapsed)

    def _attempt_failure(self, envelope, attempt) -> AttemptFailure:
        return AttemptFailure(
            attempt=attempt,
            error_type=envelope["error_type"],
            message=envelope["message"],
            traceback=envelope.get("traceback", ""),
            wall_time=envelope.get("wall_time", 0.0),
        )

    def _drive(self, misses, outcomes) -> None:
        """The attempt loop, for every wave on every backend.

        A miss takes one of ``width`` slots when its first attempt is
        submitted and holds it through its retries, until its terminal
        state.  So at most ``width`` attempts are in flight, and the
        backend, sized to ``width``, starts each one when it is
        submitted (unless a swept attempt still occupies a worker):
        the sweep deadline counts from then.
        """
        backend, width = self._backend, self._width
        waiting = collections.deque(misses)
        # future -> the job whose attempt it carries
        pending: dict = {}
        # future -> monotonic sweep deadline for that attempt
        deadlines: dict = {}
        # (resubmit at, job) for jobs backing off between attempts
        backoff: list = []

        def submit(job: _Job) -> None:
            self.reporter.on_job_start(job.spec, job.attempt)
            job.submitted = time.monotonic()
            future = submit_attempt(backend, self.job_fn, job.spec,
                                    self.timeout, self.cache)
            pending[future] = job
            if self.timeout:
                deadlines[future] = (job.submitted
                                     + sweep_deadline(self.timeout))

        def rebuild() -> None:
            # Every sibling future on the dead substrate is poisoned:
            # rebuild it and resubmit the survivors, uncharged.
            backend.restart(width)
            survivors = list(pending.values())
            pending.clear()
            deadlines.clear()
            for job in survivors:
                submit(job)

        def settle(future, job: _Job) -> None:
            deadlines.pop(future, None)
            envelope = attempt_envelope(future, self.timeout,
                                        job.submitted, rebuild)
            spec_hash = job.spec.content_hash()
            if envelope["ok"]:
                outcomes[spec_hash] = self._finish_success(
                    job.spec, envelope, job.attempt)
                return
            job.failures.append(self._attempt_failure(envelope,
                                                      job.attempt))
            if not self.retry.should_retry(
                    job.attempt, time.monotonic() - job.started):
                outcomes[spec_hash] = self._finish_failure(job)
                return
            delay = self.retry.delay(
                job.attempt, previous_delay=job.last_delay,
                rng=self.retry.attempt_rng(spec_hash, job.attempt))
            self.metrics.retries += 1
            self.reporter.on_retry(job.spec, job.attempt, delay,
                                   job.failures[-1].brief())
            job.attempt += 1
            job.last_delay = delay
            backoff.append((time.monotonic() + delay, job))

        while waiting or pending or backoff:
            now = time.monotonic()
            due = [job for at, job in backoff if at <= now]
            backoff[:] = [(at, job) for at, job in backoff if at > now]
            for job in due:
                submit(job)
            while waiting and len(pending) + len(backoff) < width:
                self.metrics.queued -= 1
                self.metrics.running += 1
                submit(_Job(waiting.popleft(), started=time.monotonic()))
            if not pending:
                next_due = min(due for due, _ in backoff)
                time.sleep(min(0.05, max(0.0, next_due - now)))
                continue
            done, _ = concurrent.futures.wait(
                pending, timeout=0.05,
                return_when=concurrent.futures.FIRST_COMPLETED)
            for future in done:
                job = pending.pop(future, None)
                # None: a pool break earlier in this batch already
                # resubmitted the job on the fresh substrate.
                if job is not None:
                    settle(future, job)
            # Deadline sweep: an attempt that outlived both the
            # in-worker enforcement and the sweep margin is wedged
            # below Python (C-level blocking).  Abandon it without
            # waiting on its worker: the job fails fast through the
            # normal retry path instead of stalling the sweep.
            for future in overdue_futures(pending, deadlines,
                                          time.monotonic()):
                job = pending.pop(future, None)
                if job is not None:
                    self.metrics.swept += 1
                    settle(future, job)
