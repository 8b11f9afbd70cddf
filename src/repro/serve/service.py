"""The record/replay service: queue + cache + executor + telemetry.

:class:`ReproService` is the transport-independent core behind
``repro serve``.  It owns

* the durable :class:`~repro.serve.queue.JobQueue` (accepted work
  survives any crash),
* the content-addressed :class:`~repro.runner.cache.ResultCache`
  (identical submissions are answered without recomputation, and
  artifacts are fetchable by hash),
* a pluggable :class:`~repro.runner.executors.ExecutorBackend`
  (inline for tests and tiny deployments, a process pool for real
  parallelism -- byte-identical artifacts either way),
* :class:`~repro.serve.admission.AdmissionController` (bounded depth,
  per-tenant quotas, guard-budget job timeouts), and
* ``serve_*`` telemetry on the shared
  :class:`~repro.telemetry.metrics.MetricsRegistry` plus a ``serve``
  Perfetto track on an optional
  :class:`~repro.telemetry.tracer.Tracer`.

Execution path: a claimed job's ``(kind, params)`` resolve to a
content-hashed spec (:func:`~repro.runner.jobs.build_job_spec`), the
spec's one attempt goes through the runner's
:func:`~repro.runner.pool.submit_attempt` and
:func:`~repro.runner.pool.attempt_envelope` (the same
:func:`~repro.runner.jobs.invoke` envelope, in-worker timeout,
deadline sweep and pool rebuild as a ``repro bench`` sweep), and the
artifact lands in the cache before the job's terminal transition is
journaled.  That write-artifact-then-journal order is what makes crash
recovery safe: a job requeued after a crash either finds its artifact
already cached (instant completion) or recomputes the same bytes.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time

from repro.errors import ConfigurationError
from repro.guard.limits import Budgets
from repro.runner import jobs as jobs_module
from repro.runner.cache import ResultCache, encode_artifact
from repro.runner.executors import (
    ExecutorBackend,
    RemoteWorkerBackend,
    resolve_backend,
)
from repro.runner.pool import attempt_envelope, submit_attempt
from repro.serve.admission import (
    DEFAULT_CAPACITY,
    DEFAULT_TENANT_QUOTA,
    AdmissionController,
    AdmissionDecision,
    split_service_params,
)
from repro.serve.lease import (
    DEFAULT_DEGRADED_AFTER,
    DEFAULT_LEASE_TTL,
    DEFAULT_MAX_LEASE_EXPIRIES,
    Lease,
)
from repro.serve.model import STATE_DONE, Job, JobStateError
from repro.serve.queue import (
    DEFAULT_COMPACT_AFTER,
    DEFAULT_SEGMENT_BYTES,
    JobQueue,
)
from repro.telemetry.metrics import (
    NULL_METRICS,
    MetricsRegistry,
)
from repro.telemetry.tracer import NULL_TRACER, Tracer


class ReproService:
    """Transport-independent service core (HTTP front end separate)."""

    def __init__(self, data_dir, *,
                 cache: ResultCache | None = None,
                 executor: str | ExecutorBackend | None = None,
                 jobs: int = 1,
                 capacity: int = DEFAULT_CAPACITY,
                 tenant_quota: int = DEFAULT_TENANT_QUOTA,
                 budgets: Budgets | None = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 job_fn=jobs_module.execute_spec,
                 auth_token: str | None = None,
                 lease_ttl: float | None = None,
                 max_lease_expiries: int | None = None,
                 degraded_after: float | None = None,
                 segment_bytes: int | None = None,
                 compact_after: int | None = None,
                 retain_terminal: int | None = None) -> None:
        # Every fleet/journal knob treats None as "the default", so
        # the CLI can pass unset flags straight through.
        if lease_ttl is None:
            lease_ttl = DEFAULT_LEASE_TTL
        if max_lease_expiries is None:
            max_lease_expiries = DEFAULT_MAX_LEASE_EXPIRIES
        if degraded_after is None:
            degraded_after = DEFAULT_DEGRADED_AFTER
        if segment_bytes is None:
            segment_bytes = DEFAULT_SEGMENT_BYTES
        if compact_after is None:
            compact_after = DEFAULT_COMPACT_AFTER
        self.queue = JobQueue(data_dir, segment_bytes=segment_bytes,
                              compact_after=compact_after,
                              retain_terminal=retain_terminal)
        self.cache = cache if cache is not None else ResultCache()
        self.jobs = max(1, int(jobs))
        self.auth_token = auth_token or None
        self.lease_ttl = max(0.1, float(lease_ttl))
        self.max_lease_expiries = max(1, int(max_lease_expiries))
        self._owns_backend = not isinstance(executor, ExecutorBackend)
        # The service host is threaded (asyncio loop + to_thread
        # workers), and a plain fork from a threaded process can
        # deadlock the child on locks frozen mid-operation.
        # forkserver forks workers from a clean single-threaded broker
        # instead (and unlike spawn needs no __main__ re-import); where
        # unavailable the platform default is already spawn.  In fleet
        # mode remote workers pull jobs over HTTP, and the local
        # backend is the graceful-degradation fallback.
        method = ("forkserver" if "forkserver" in
                  multiprocessing.get_all_start_methods() else None)
        self.backend = resolve_backend(executor, self.jobs,
                                       mp_start_method=method,
                                       window=degraded_after)
        #: Degradation edge detector: None = never evaluated yet.
        self._was_degraded: bool | None = None
        self.admission = AdmissionController(
            capacity=capacity, tenant_quota=tenant_quota,
            budgets=budgets, workers=self.jobs)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.job_fn = job_fn
        self._epoch = time.perf_counter()

        m = self.metrics
        self._submitted = m.counter("serve_submitted")
        self._admitted = m.counter("serve_admitted")
        self._rejected = m.counter("serve_rejected")
        self._served = m.counter("serve_served")
        self._failed = m.counter("serve_failed")
        self._cache_hits = m.counter("serve_cache_hits")
        self._requeued = m.counter("serve_requeued")
        self._degraded = m.counter("serve_degraded")
        self._lease_expired = m.counter("serve_lease_expired")
        self._poisoned = m.counter("serve_poisoned")
        self._deadline_failed = m.counter("serve_deadline_failed")
        self._parity_failures = m.counter("serve_parity_failures")
        self._remote_completed = m.counter("serve_remote_completed")
        self._workers_alive = m.gauge("serve_workers_alive")
        self._depth = m.gauge("serve_queue_depth")
        self._gauge_queued = m.gauge("serve_jobs_queued")
        self._gauge_running = m.gauge("serve_jobs_running")
        self._latency = m.histogram("serve_latency_seconds")
        self._queue_wait = m.histogram("serve_queue_wait_seconds")
        #: Last-synced queue-side counter values (metrics diffing).
        self._queue_seen = {"deadline_failed": 0, "lease_expired": 0,
                            "poisoned_jobs": 0}

        self.backend.start(self.jobs)
        requeued = self.queue.recover_running()
        self._requeued.inc(len(requeued))
        self._update_gauges()

    # -- helpers --------------------------------------------------------

    def _now(self) -> float:
        return time.time()

    def _elapsed(self) -> float:
        """Seconds since service start (the serve track's clock)."""
        return time.perf_counter() - self._epoch

    def _update_gauges(self) -> None:
        counts = self.queue.counts()
        self._depth.set(counts.depth)
        self._gauge_queued.set(counts.queued)
        self._gauge_running.set(counts.running)
        for name, counter in (
                ("deadline_failed", self._deadline_failed),
                ("lease_expired", self._lease_expired),
                ("poisoned_jobs", self._poisoned)):
            current = getattr(self.queue, name)
            delta = current - self._queue_seen[name]
            if delta > 0:
                counter.inc(delta)
                self._queue_seen[name] = current

    def _spec_for(self, job_or_kind, params=None):
        if isinstance(job_or_kind, Job):
            return jobs_module.build_job_spec(job_or_kind.kind,
                                              job_or_kind.params)
        return jobs_module.build_job_spec(job_or_kind, params or {})

    # -- submission -----------------------------------------------------

    def submit(self, kind: str, params: dict | None = None,
               tenant: str = "default"
               ) -> tuple[Job | None, AdmissionDecision]:
        """Accept (or shed) one submission.

        Returns ``(job, decision)``; ``job`` is ``None`` exactly when
        the decision sheds the request.  Raises
        :class:`~repro.errors.ConfigurationError` on a malformed
        spec -- the caller's 400, distinct from the 429 shed path.
        """
        # Scheduling parameters (priority, deadline) must not reach
        # the spec: same computation => same hash => same artifact.
        params, schedule = split_service_params(dict(params or {}))
        spec = self._spec_for(kind, params)  # validates; may raise
        self._submitted.inc()
        cached = self.cache.load(spec)
        if cached is not None:
            # Answered without queue capacity or a worker: cached
            # submissions are always admitted, never shed.
            job = self.queue.submit_resolved(
                tenant, kind, params, spec.content_hash(),
                self._now(), artifact_hash=spec.content_hash())
            self._admitted.inc()
            self._cache_hits.inc()
            self._served.inc()
            self.tracer.instant("serve", f"cache-hit:{job.label()}",
                                self._elapsed(), job=job.id)
            self._update_gauges()
            return job, AdmissionDecision(admitted=True,
                                          reason="served from cache")
        decision = self.admission.check(tenant, self.queue.counts())
        if not decision.admitted:
            self._rejected.inc()
            return None, decision
        now = self._now()
        deadline_at = (now + schedule["deadline"]
                       if schedule["deadline"] is not None else None)
        job = self.queue.submit(tenant, kind, params,
                                spec.content_hash(), now,
                                priority=schedule["priority"],
                                deadline_at=deadline_at)
        self._admitted.inc()
        self._update_gauges()
        return job, decision

    # -- execution ------------------------------------------------------

    def _run_job(self, job: Job) -> Job:
        """Execute one claimed job to its terminal state."""
        started = self._elapsed()
        if job.started_at and job.submitted_at:
            self._queue_wait.observe(
                max(0.0, job.started_at - job.submitted_at))
        try:
            spec = self._spec_for(job)
        except ConfigurationError as error:
            # A journaled job whose spec no longer builds (a retired
            # kind or param) fails like any other job instead of
            # escaping the worker loop on every restart.
            envelope = jobs_module.failure_envelope(
                type(error).__name__, str(error))
        else:
            cached = self.cache.load(spec)
            if cached is not None:
                # A requeued job whose first life finished the work,
                # or a duplicate spec completed since admission.
                envelope = {"ok": True, "artifact": cached,
                            "wall_time": 0.0, "from_cache": True}
            else:
                timeout = self.admission.job_timeout
                submitted = time.monotonic()
                future = submit_attempt(self.backend, self.job_fn, spec,
                                        timeout, self.cache)
                envelope = attempt_envelope(
                    future, timeout, submitted,
                    lambda: self.backend.restart(self.jobs))
        if envelope["ok"]:
            artifact = envelope["artifact"]
            if not envelope.get("from_cache"):
                # Artifact before journal: recovery can then always
                # trust a journaled "done" to have a fetchable result.
                self.cache.store(spec, artifact)
            self.queue.finish(
                job, now=self._now(),
                artifact_hash=spec.content_hash(),
                from_cache=bool(envelope.get("from_cache")))
            self._served.inc()
        else:
            self.queue.finish(
                job, now=self._now(),
                error=f"{envelope['error_type']}: "
                      f"{envelope['message']}")
            self._failed.inc()
        elapsed = self._elapsed() - started
        self._latency.observe(elapsed)
        self.admission.observe_latency(elapsed)
        self.tracer.span("serve", job.label(), started, elapsed,
                         job=job.id, ok=envelope["ok"],
                         from_cache=bool(envelope.get("from_cache")))
        self._update_gauges()
        return job

    def process_one(self) -> Job | None:
        """Claim and run the next queued job (worker loop body).

        In fleet mode the local loop claims **only while the fleet is
        degraded** -- remote workers own the queue whenever at least
        one of them is heartbeating; the moment none is, this becomes
        the process-pool (or inline) fallback path.
        """
        if self.fleet and not self.fleet_degraded():
            return None
        job = self.queue.claim(self._now())
        if job is None:
            return None
        self._update_gauges()
        return self._run_job(job)

    def run_until_idle(self) -> int:
        """Drain the queue synchronously; returns jobs processed.

        The test and CLI convenience path (``repro submit --wait``
        against an in-process service); the HTTP server runs
        :meth:`process_one` from async worker tasks instead.
        """
        processed = 0
        while self.process_one() is not None:
            processed += 1
        return processed

    # -- the worker fleet -----------------------------------------------

    @property
    def fleet(self) -> RemoteWorkerBackend | None:
        """The remote backend, or ``None`` outside fleet mode."""
        backend = self.backend
        return backend if isinstance(backend, RemoteWorkerBackend) \
            else None

    def fleet_degraded(self, now: float | None = None) -> bool:
        """Whether the local fallback should claim jobs right now.

        Also the degradation edge detector: each ``False -> True``
        transition (including the initial "no worker ever showed up")
        bumps the ``serve_degraded`` counter.  Recovery is automatic
        and silent -- any worker contact flips this back.
        """
        fleet = self.fleet
        if fleet is None:
            return True  # local backends always execute locally
        now = self._now() if now is None else now
        degraded = fleet.degraded(now)
        if degraded and self._was_degraded is not True:
            self._degraded.inc()
            self.tracer.instant("serve", "fleet-degraded",
                                self._elapsed())
        self._was_degraded = degraded
        return degraded

    def claim_remote(self, worker: str,
                     lease_ttl: float | None = None
                     ) -> tuple[Job | None, Lease | None]:
        """One worker's claim: pop a job under a journaled lease.

        Returns ``(job, lease)`` -- both ``None`` when the queue has
        nothing claimable.  The contact alone marks the fleet healthy.
        """
        fleet = self._require_fleet()
        now = self._now()
        fleet.touch_worker(worker, now)
        self.fleet_degraded(now)
        job = self.queue.claim(now, worker=worker,
                               lease_ttl=lease_ttl or self.lease_ttl)
        self._update_gauges()
        if job is None:
            return None, None
        self.tracer.instant("serve", f"claim:{job.label()}",
                            self._elapsed(), job=job.id,
                            worker=worker)
        return job, Lease.for_job(job)

    def heartbeat_remote(self, worker: str, job_id: str,
                         lease_id: str) -> Lease | None:
        """Renew a lease; ``None`` means the lease was lost."""
        fleet = self._require_fleet()
        now = self._now()
        fleet.touch_worker(worker, now)
        self.fleet_degraded(now)
        job = self.queue.heartbeat(job_id, worker, lease_id, now)
        return Lease.for_job(job) if job is not None else None

    def complete_remote(self, worker: str, job_id: str,
                        lease_id: str, envelope: dict,
                        artifact_digest: str | None = None) -> dict:
        """Accept one uploaded completion, exactly once, verified.

        The parity contract is checked *before* the terminal journal
        entry: the upload must hash to ``artifact_digest`` (transport
        integrity), must name the job's recomputed spec hash, and must
        be byte-identical to any artifact already cached for that spec
        (a remote worker and a local run of the same spec are the same
        computation).  A verified duplicate -- the job already
        terminal with the same artifact -- is acknowledged without a
        second journal entry; an upload failing parity requeues the
        job (counting toward poison) and reports ``rejected``.

        Returns ``{"status": ..., "job": ...}`` with status one of
        ``ok`` / ``duplicate`` / ``unknown`` / ``stale`` /
        ``rejected``.
        """
        fleet = self._require_fleet()
        now = self._now()
        fleet.touch_worker(worker, now)
        self.fleet_degraded(now)
        job = self.queue.get(job_id)
        if job is None:
            return {"status": "unknown", "job": None}
        started = self._elapsed()
        if envelope.get("ok"):
            # Only a success needs the spec: a failure upload must land
            # even for a job whose spec no longer builds.
            spec = self._spec_for(job)
            artifact = envelope.get("artifact")
            problem = self._verify_parity(spec, artifact,
                                          artifact_digest)
            if job.terminal:
                duplicate = (problem is None
                             and job.state == STATE_DONE
                             and job.artifact_hash
                             == spec.content_hash())
                return {"status": "duplicate" if duplicate
                        else "stale", "job": job.as_dict()}
            if problem is not None:
                # Parity failure: the upload is not the computation
                # the spec names.  Take the job back (counts toward
                # poison) rather than journal a lie.
                self._parity_failures.inc()
                if job.leased:
                    self.queue.punt(
                        job_id, now,
                        max_expiries=self.max_lease_expiries)
                self._update_gauges()
                return {"status": "rejected", "reason": problem,
                        "job": job.as_dict()}
            # Artifact before journal, exactly as the local path.
            self.cache.store(spec, artifact)
            try:
                self.queue.finish(job, now=now,
                                  artifact_hash=spec.content_hash())
            except JobStateError:
                # Lost a completion race; the winner journaled it.
                return {"status": "duplicate", "job": job.as_dict()}
            self._served.inc()
            self._remote_completed.inc()
        else:
            if job.terminal:
                return {"status": "stale", "job": job.as_dict()}
            if not (job.leased and job.lease_id == lease_id
                    and job.worker == worker):
                # Only the current lease holder may fail a job: a
                # stale worker's failure must not clobber a retry in
                # flight elsewhere.
                return {"status": "stale", "job": job.as_dict()}
            error_type = envelope.get("error_type", "RemoteFailure")
            message = envelope.get("message", "")
            self.queue.finish(
                job, now=now, error=f"{error_type}: {message}",
                failure={"type": "remote", "worker": worker,
                         "error_type": error_type,
                         "message": message,
                         "wall_time": envelope.get("wall_time", 0.0)})
            self._failed.inc()
        elapsed = self._elapsed() - started
        self._latency.observe(elapsed)
        self.admission.observe_latency(
            max(elapsed, envelope.get("wall_time", 0.0) or elapsed))
        self.tracer.span("serve", f"remote:{job.label()}", started,
                         elapsed, job=job.id, worker=worker,
                         ok=bool(envelope.get("ok")))
        self._update_gauges()
        return {"status": "ok", "job": job.as_dict()}

    def _verify_parity(self, spec, artifact,
                       artifact_digest: str | None) -> str | None:
        """The parity contract, as a reason string (None = verified)."""
        if not isinstance(artifact, dict):
            return "artifact must be a JSON object"
        blob = encode_artifact(artifact)
        if artifact_digest is not None:
            digest = hashlib.sha256(blob).hexdigest()
            if digest != artifact_digest:
                return (f"artifact digest mismatch (got "
                        f"{digest[:12]}..., declared "
                        f"{str(artifact_digest)[:12]}...)")
        if artifact.get("spec_hash") != spec.content_hash():
            return (f"artifact names spec "
                    f"{str(artifact.get('spec_hash'))[:12]}..., "
                    f"job resolves to "
                    f"{spec.content_hash()[:12]}...")
        cached = self.cache.load(spec)
        if cached is not None and encode_artifact(cached) != blob:
            return ("artifact bytes differ from the cached result "
                    "of the same spec (parity contract violation)")
        return None

    def sweep_leases(self, now: float | None = None
                     ) -> tuple[list[Job], list[Job]]:
        """The periodic fleet sweep: expire leases, refresh gauges.

        Returns ``(requeued, poisoned)``.  Harmless outside fleet
        mode (no leases ever exist to expire).
        """
        now = self._now() if now is None else now
        requeued, poisoned = self.queue.expire_leases(
            now, max_expiries=self.max_lease_expiries)
        self._requeued.inc(len(requeued))
        self._failed.inc(len(poisoned))
        fleet = self.fleet
        if fleet is not None:
            self._workers_alive.set(len(fleet.workers(now)))
            self.fleet_degraded(now)
        self._update_gauges()
        return requeued, poisoned

    def _require_fleet(self) -> RemoteWorkerBackend:
        fleet = self.fleet
        if fleet is None:
            raise ConfigurationError(
                "this server is not running a remote worker fleet "
                "(start it with --executor remote)")
        return fleet

    # -- queries --------------------------------------------------------

    def artifact(self, artifact_hash: str) -> dict | None:
        """Fetch a stored artifact by content hash."""
        return self.cache.load_by_hash(artifact_hash)

    def stats(self) -> dict:
        """Service census: queue, journal, fleet, admission, cache,
        and the ``serve_*`` metrics."""
        now = self._now()
        fleet = self.fleet
        return {
            "queue": self.queue.counts().as_dict(),
            "journal": {
                "recovered_jobs": self.queue.recovered_jobs,
                "requeued_jobs": self.queue.requeued_jobs,
                "truncated_bytes": self.queue.truncated_bytes,
                **self.queue.journal_stats(),
            },
            "fleet": {
                "remote": fleet is not None,
                "degraded": (fleet.degraded(now)
                             if fleet is not None else False),
                "workers": (fleet.workers(now)
                            if fleet is not None else []),
                "lease_ttl": self.lease_ttl,
                "max_lease_expiries": self.max_lease_expiries,
                "leases": self.queue.lease_census(now),
                "deadline_failed": self.queue.deadline_failed,
                "lease_expired": self.queue.lease_expired,
                "poisoned_jobs": self.queue.poisoned_jobs,
            },
            "admission": {
                "capacity": self.admission.capacity,
                "tenant_quota": self.admission.tenant_quota,
                "job_timeout": self.admission.job_timeout,
                "mean_latency": self.admission.mean_latency(),
            },
            "backend": {"name": self.backend.name,
                        "parallel": self.backend.parallel,
                        "workers": self.jobs},
            "cache": self.cache.counters(),
            "metrics": self.metrics.as_dict(prefix="serve_"),
        }

    def close(self) -> None:
        """Shut down the backend (if owned) and the journal handle."""
        if self._owns_backend:
            self.backend.shutdown(wait=True, cancel_futures=True)
        self.queue.close()


__all__ = ["ReproService"]
