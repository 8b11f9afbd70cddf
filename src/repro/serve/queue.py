"""Crash-consistent durable job queue with bounded, segmented journals.

The queue is a write-ahead journal plus an in-memory index.  Every
accepted job and every state transition appends one self-checking line
to the **active segment** (``<data-dir>/queue.jsonl``) **before** the
transition is acknowledged anywhere else (HTTP response, SSE event,
worker pickup)::

    <crc32 of payload, 8 hex chars> <payload JSON>\\n

The payload is a full job snapshot (``{"lsn": N, "job": {...}}``) or a
compaction marker (``{"lsn": N, "meta": {...}}``), so recovery is
*newest wins*: replay every segment in order, keep the last snapshot
per job id.  Appends are single ``write`` calls on an ``O_APPEND``
handle followed by flush + fsync -- the same durability discipline as
:mod:`repro.guard.journal` -- so a SIGKILL at any byte leaves a
journal whose longest valid prefix contains every acknowledged
transition.  The CRC makes the torn tail detectable: recovery parses
until the first bad line (torn, failing its CRC, or a CRC-valid
record it cannot load), truncates the active segment back to the
good boundary, and continues from there.  Nothing acknowledged is
ever lost; nothing is ever replayed twice into the index (newest-wins
is idempotent).

**Rotation and compaction** keep an eternal server's journal bounded:

* when the active segment exceeds ``segment_bytes`` it is *sealed* --
  atomically renamed to ``queue-NNNNNN.jsonl`` -- and a fresh active
  segment starts;
* when the sealed-segment count reaches ``compact_after``, compaction
  rewrites only the *live state* -- the newest snapshot of every job,
  preserving each snapshot's original LSN -- into one new sealed
  segment, prefixed by a ``{"meta": {"compacted_through": L}}``
  marker.  The compacted segment is written to a temp file, fsynced,
  and atomically renamed **before** any old segment is deleted, so a
  crash at any byte of compaction recovers from either the old
  segments or the finished compacted one -- never from a torn hybrid.
  ``retain_terminal`` optionally drops all but the newest N terminal
  jobs during compaction (the only place history is ever discarded).

``compacted_through`` is the contract with SSE resume: event ids are
journal LSNs, and every individual event with ``lsn <=
compacted_through`` may have been superseded away -- a client
resuming from older than that must be given a full snapshot instead
of a silent gap (:mod:`repro.serve.sse` implements exactly that).

**Leases** make remote execution crash-safe.  A claim by a worker
journals the lease (worker id, lease id, TTL, expiry) inside the
``running`` snapshot; heartbeats renew the in-memory expiry only.
:meth:`JobQueue.expire_leases` is the requeue sweep: an expired lease
takes the journal's one backward edge (``running -> queued``), and a
job whose leases have expired ``max_expiries`` times is declared
poison and failed with a structured record instead of looping
forever.  Claim order is ``(priority, enqueue LSN)`` -- lower
priorities first, FIFO within a priority, requeued jobs rejoining at
their requeue LSN -- and a job past its deadline is failed at claim
time rather than handed to a worker.

Thread-safety: all mutation happens under one lock (HTTP accept loop
and worker threads share the queue).  Each journaled transition also
notifies registered observers -- the SSE event log and the server's
worker wake-up ride on these.

**The census** (:meth:`JobQueue.counts`) is kept running rather than
recounted: ``_append``, the one journaled-transition path, moves a job
from its last journaled state to its new one; compaction subtracts the
terminal jobs it drops; recovery counts once.  Admission and the stats
endpoints therefore cost the same at 10 jobs and at 10,000, although
``_jobs`` never shrinks unless ``retain_terminal`` is set.
"""

from __future__ import annotations

import heapq
import json
import os
import re
import threading
import zlib
from collections import Counter
from pathlib import Path

from repro.serve.lease import (
    DEFAULT_LEASE_TTL,
    DEFAULT_MAX_LEASE_EXPIRIES,
    new_lease_id,
)
from repro.serve.model import (
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
    STATES,
    TERMINAL_STATES,
    Job,
    QueueCounts,
    census,
    job_id,
)

JOURNAL_NAME = "queue.jsonl"

#: Sealed segment naming: ``queue-000001.jsonl`` etc.
SEGMENT_PATTERN = re.compile(r"^queue-(\d{6})\.jsonl$")

#: Rotate the active segment past this size (bounded journal files).
DEFAULT_SEGMENT_BYTES = 4 << 20

#: Compact once this many sealed segments accumulate.
DEFAULT_COMPACT_AFTER = 4


def _segment_name(seq: int) -> str:
    return f"queue-{seq:06d}.jsonl"


def _frame(payload: str) -> str:
    """One journal line: crc32 guard + payload."""
    return f"{zlib.crc32(payload.encode()):08x} {payload}\n"


def _parse_line(line: str):
    """Decode one journal line, or ``None`` if torn, corrupt or not a
    record recovery can load."""
    if not line.endswith("\n"):
        return None  # torn tail: the write never completed
    body = line[:-1]
    if len(body) < 10 or body[8] != " ":
        return None
    crc_text, payload = body[:8], body[9:]
    try:
        if int(crc_text, 16) != zlib.crc32(payload.encode()):
            return None
        record = json.loads(payload)
        # An integer LSN, and a compaction marker or a job snapshot
        # whose scheduling fields have their types.
        if not isinstance(record["lsn"], int):
            return None
        if "meta" in record:
            loadable = isinstance(
                record["meta"].get("compacted_through", 0), int)
        else:
            job = Job.from_dict(record["job"])
            loadable = (isinstance(job.id, str)
                        and isinstance(job.seq, int)
                        and isinstance(job.priority, int)
                        and job.state in STATES)
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    return record if loadable else None


def read_journal(path: Path) -> tuple[list[dict], int]:
    """One segment file's longest valid prefix.

    Returns ``(records, good_bytes)`` where ``good_bytes`` is the file
    offset of the first invalid line (= the truncation point).
    Parsing stops at the first bad line: a torn write corrupts only
    the suffix, never an interior record, because lines are appended
    with single writes.
    """
    records: list[dict] = []
    good = 0
    try:
        with open(path, "rb") as handle:
            for raw in handle:
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError:
                    break  # corruption is data, not an exception
                record = _parse_line(line)
                if record is None:
                    break
                records.append(record)
                good += len(raw)
    except OSError:
        return [], 0
    return records, good


def segment_paths(data_dir: Path) -> list[Path]:
    """Sealed segments in creation (= numeric) order."""
    found = []
    try:
        names = os.listdir(data_dir)
    except OSError:
        return []
    for name in names:
        match = SEGMENT_PATTERN.match(name)
        if match:
            found.append((int(match.group(1)), data_dir / name))
    return [path for _seq, path in sorted(found)]


def read_journal_dir(data_dir) -> tuple[list[dict], int]:
    """Every record across sealed segments plus the active journal.

    Returns ``(records, compacted_through)``: records in journal
    order (sealed segments numerically, active last; longest valid
    prefix of each), and the newest compaction marker's LSN (0 when
    never compacted).  Meta records are filtered out of ``records``.
    """
    data_dir = Path(data_dir)
    records: list[dict] = []
    compacted_through = 0
    for path in segment_paths(data_dir) + [data_dir / JOURNAL_NAME]:
        segment_records, _good = read_journal(path)
        for record in segment_records:
            meta = record.get("meta")
            if meta is not None:
                compacted_through = max(
                    compacted_through,
                    int(meta.get("compacted_through", 0)))
                continue
            records.append(record)
    return records, compacted_through


class JobQueue:
    """Durable priority queue of :class:`Job` with journaled
    transitions, worker leases, and segment rotation/compaction."""

    def __init__(self, data_dir: str | os.PathLike, *,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 compact_after: int = DEFAULT_COMPACT_AFTER,
                 retain_terminal: int | None = None) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.data_dir / JOURNAL_NAME
        self.segment_bytes = max(4096, int(segment_bytes))
        self.compact_after = max(1, int(compact_after))
        self.retain_terminal = retain_terminal
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._job_lsn: dict[str, int] = {}
        #: Each job's last journaled state and the running census of
        #: those states (see the module docstring).
        self._job_state: dict[str, str] = {}
        self._census = QueueCounts()
        #: Claim order: (priority, enqueue LSN, job id) min-heap.
        self._ready: list[tuple[int, int, str]] = []
        self._observers: list = []
        self._lsn = 0
        self._next_seq = 0
        self._next_segment = 1
        self._active_bytes = 0
        self.recovered_jobs = 0
        self.requeued_jobs = 0
        self.truncated_bytes = 0
        self.compacted_through = 0
        self.rotations = 0
        self.compactions = 0
        self.lease_expired = 0
        self.poisoned_jobs = 0
        self.deadline_failed = 0
        self._recover()
        self._handle = open(self.journal_path, "a",
                            encoding="utf-8", newline="\n")

    # -- journal --------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild state from every segment's valid prefix."""
        sealed = segment_paths(self.data_dir)
        if sealed:
            last_seq = int(SEGMENT_PATTERN.match(
                sealed[-1].name).group(1))
            self._next_segment = last_seq + 1
        records: list[dict] = []
        for path in sealed:
            segment_records, _good = read_journal(path)
            records.extend(segment_records)
        active_records, good = read_journal(self.journal_path)
        records.extend(active_records)
        try:
            size = self.journal_path.stat().st_size
        except OSError:
            size = 0
        if good < size:
            # Torn tail from a crash mid-append: cut it off so the
            # next append starts on a clean line boundary.  Only the
            # active segment can tear; sealed segments are immutable.
            self.truncated_bytes = size - good
            with open(self.journal_path, "r+b") as handle:
                handle.truncate(good)
        self._active_bytes = good
        requeue = []
        for record in records:  # newest snapshot per id wins
            meta = record.get("meta")
            if meta is not None:
                self.compacted_through = max(
                    self.compacted_through,
                    int(meta.get("compacted_through", 0)))
                self._lsn = max(self._lsn, record.get("lsn", 0))
                continue
            job = Job.from_dict(record["job"])
            self._jobs[job.id] = job
            self._job_lsn[job.id] = record.get("lsn", 0)
            self._lsn = max(self._lsn, record.get("lsn", 0))
            self._next_seq = max(self._next_seq, job.seq + 1)
        rearm = []
        for job in sorted(self._jobs.values(), key=lambda j: j.seq):
            if job.state == STATE_QUEUED:
                heapq.heappush(
                    self._ready,
                    (job.priority, self._job_lsn[job.id], job.id))
            elif job.state == STATE_RUNNING:
                if job.lease_id is not None:
                    rearm.append(job)  # worker may still be alive
                else:
                    requeue.append(job)
        self.recovered_jobs = len(self._jobs)
        self._job_state = {job.id: job.state
                           for job in self._jobs.values()}
        self._census = census(self._jobs.values())
        # Requeues are journaled below, after the handle opens -- done
        # lazily in recover_running() so callers observe the crashed
        # state first if they want to.  Leased running jobs are not
        # requeued: their expiry clock is re-armed instead, giving a
        # still-live worker one TTL to heartbeat before the sweep.
        self._pending_requeue = requeue
        self._pending_rearm = rearm

    def recover_running(self, now: float | None = None
                        ) -> list[Job]:
        """Requeue jobs that were mid-execution at crash time.

        Journals a fresh snapshot per requeued job and returns them.
        Leased (remote) running jobs are *re-armed* rather than
        requeued: their lease expiry restarts at ``now + ttl`` so a
        worker that survived the server restart keeps its claim by
        heartbeating; a dead worker's job falls to the next
        :meth:`expire_leases` sweep.  Idempotent: a second call finds
        nothing pending.
        """
        import time as _time
        now = _time.time() if now is None else now
        with self._lock:
            requeued = []
            for job in self._pending_requeue:
                job.transition(STATE_QUEUED)
                self._append(job)
                heapq.heappush(self._ready,
                               (job.priority, self._lsn, job.id))
                requeued.append(job)
                self.requeued_jobs += 1
            self._pending_requeue = []
            for job in self._pending_rearm:
                job.lease_expires_at = now + (job.lease_ttl
                                              or DEFAULT_LEASE_TTL)
            self._pending_rearm = []
        for job in requeued:
            self._notify(job)
        return requeued

    def _append(self, job: Job) -> None:
        """Journal ``job``'s current snapshot durably and move it in
        the census (lock held)."""
        self._lsn += 1
        payload = json.dumps({"lsn": self._lsn, "job": job.as_dict()},
                             sort_keys=True, separators=(",", ":"))
        self._write_line(payload)
        self._job_lsn[job.id] = self._lsn
        previous = self._job_state.get(job.id)
        if previous != job.state:
            if previous is not None:
                self._count(previous, job.tenant, -1)
            self._count(job.state, job.tenant, 1)
            self._job_state[job.id] = job.state
        self._maybe_roll()

    def _count(self, state: str, tenant: str, delta: int) -> None:
        """Add ``delta`` jobs of ``tenant`` in ``state`` to the census
        (lock held); tenants are counted over non-terminal jobs only."""
        counts = self._census
        setattr(counts, state, getattr(counts, state) + delta)
        if state not in TERMINAL_STATES:
            live = counts.by_tenant.get(tenant, 0) + delta
            if live:
                counts.by_tenant[tenant] = live
            else:
                del counts.by_tenant[tenant]

    def _write_line(self, payload: str) -> None:
        line = _frame(payload)
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._active_bytes += len(line.encode())

    def _maybe_roll(self) -> None:
        """Rotate (and maybe compact) once the active segment is full
        (lock held)."""
        if self._active_bytes < self.segment_bytes:
            return
        self._rotate()
        if len(segment_paths(self.data_dir)) >= self.compact_after:
            self._compact_locked()

    def _rotate(self) -> None:
        """Seal the active segment and start a fresh one (lock held)."""
        self._handle.close()
        sealed = self.data_dir / _segment_name(self._next_segment)
        os.replace(self.journal_path, sealed)
        self._next_segment += 1
        self._handle = open(self.journal_path, "a",
                            encoding="utf-8", newline="\n")
        self._active_bytes = 0
        self.rotations += 1

    def compact(self) -> int:
        """Force a compaction pass; returns bytes reclaimed."""
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> int:
        """Rewrite live state into one sealed segment (lock held).

        Crash-safe ordering: the compacted segment is fully written
        and fsynced under a temp name, atomically renamed into place,
        and only *then* are the superseded segments deleted and the
        active segment reset.  Recovery at any intermediate point sees
        either the old segments, or the compacted one plus harmless
        duplicates -- newest-wins makes both converge.
        """
        before = self._active_bytes + sum(
            path.stat().st_size for path in segment_paths(self.data_dir)
            if path.exists())
        drop: list[Job] = []
        if self.retain_terminal is not None:
            terminal = sorted(
                (job for job in self._jobs.values() if job.terminal),
                key=lambda j: j.seq)
            if len(terminal) > self.retain_terminal:
                keep_from = len(terminal) - self.retain_terminal
                drop = terminal[:keep_from]
        for job in drop:
            del self._jobs[job.id]
            del self._job_lsn[job.id]
            self._count(self._job_state.pop(job.id), job.tenant, -1)
        snapshots = sorted(self._jobs.values(),
                           key=lambda j: self._job_lsn[j.id])
        seq = self._next_segment
        self._next_segment += 1
        sealed = self.data_dir / _segment_name(seq)
        tmp = sealed.with_suffix(".tmp")
        marker = json.dumps(
            {"lsn": self._lsn,
             "meta": {"compacted_through": self._lsn,
                      "jobs": len(snapshots),
                      "dropped_terminal": len(drop)}},
            sort_keys=True, separators=(",", ":"))
        with open(tmp, "w", encoding="utf-8", newline="\n") as out:
            out.write(_frame(marker))
            for job in snapshots:
                out.write(_frame(json.dumps(
                    {"lsn": self._job_lsn[job.id],
                     "job": job.as_dict()},
                    sort_keys=True, separators=(",", ":"))))
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, sealed)  # compacted segment is durable NOW
        # Only after the rename may history be discarded.
        for path in segment_paths(self.data_dir):
            if path != sealed:
                try:
                    path.unlink()
                except OSError:
                    pass
        self._handle.close()
        self._handle = open(self.journal_path, "w",
                            encoding="utf-8", newline="\n")
        self._active_bytes = 0
        self.compacted_through = self._lsn
        self.compactions += 1
        after = sealed.stat().st_size
        return max(0, before - after)

    def _notify(self, job: Job) -> None:
        for observer in list(self._observers):
            observer(self._job_lsn.get(job.id, self._lsn), job)

    def subscribe(self, observer) -> None:
        """``observer(lsn, job)`` fires after each durable transition."""
        self._observers.append(observer)

    # -- operations -----------------------------------------------------

    @property
    def lsn(self) -> int:
        """Last durable log sequence number (SSE event ids)."""
        return self._lsn

    def submit(self, tenant: str, kind: str, params: dict,
               spec_hash: str, now: float, *,
               priority: int = 0,
               deadline_at: float | None = None) -> Job:
        """Accept a new job: journal first, then enqueue."""
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            job = Job(id=job_id(seq, spec_hash), seq=seq,
                      tenant=tenant, kind=kind, params=dict(params),
                      spec_hash=spec_hash, submitted_at=now,
                      priority=priority, deadline_at=deadline_at)
            self._jobs[job.id] = job
            self._append(job)
            heapq.heappush(self._ready,
                           (job.priority, self._lsn, job.id))
        self._notify(job)
        return job

    def submit_resolved(self, tenant: str, kind: str, params: dict,
                        spec_hash: str, now: float,
                        artifact_hash: str) -> Job:
        """Accept a job already answered by the cache: journal it
        straight into ``done`` (the ``queued -> done`` edge)."""
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            job = Job(id=job_id(seq, spec_hash), seq=seq,
                      tenant=tenant, kind=kind, params=dict(params),
                      spec_hash=spec_hash, submitted_at=now,
                      from_cache=True, artifact_hash=artifact_hash,
                      finished_at=now)
            job.transition(STATE_DONE)
            self._jobs[job.id] = job
            self._append(job)
        self._notify(job)
        return job

    def claim(self, now: float, *, worker: str | None = None,
              lease_ttl: float | None = None) -> Job | None:
        """Pop the highest-priority queued job, mark it running
        durably, and (for a remote ``worker``) grant a journaled
        lease.  Jobs already past their deadline are failed here with
        a typed reason instead of being handed out.
        """
        expired: list[Job] = []
        with self._lock:
            job = None
            while self._ready:
                _prio, _lsn, candidate = heapq.heappop(self._ready)
                job = self._jobs.get(candidate)
                if job is None or job.state != STATE_QUEUED:
                    job = None
                    continue  # stale entry (requeue churn)
                if job.deadline_at is not None \
                        and now > job.deadline_at:
                    late = now - job.deadline_at
                    job.error = (f"DeadlineExpired: deadline passed "
                                 f"{late:.3f}s before claim")
                    job.failure = {"type": "deadline",
                                   "deadline_at": job.deadline_at,
                                   "late_by": late}
                    job.finished_at = now
                    job.transition(STATE_FAILED)
                    self._append(job)
                    self.deadline_failed += 1
                    expired.append(job)
                    job = None
                    continue
                job.transition(STATE_RUNNING)
                job.attempts += 1
                job.started_at = now
                if worker is not None:
                    job.grant_lease(worker, new_lease_id(),
                                    lease_ttl or DEFAULT_LEASE_TTL,
                                    now)
                self._append(job)
                break
        for dead in expired:
            self._notify(dead)
        if job is None:
            return None
        self._notify(job)
        return job

    def heartbeat(self, identifier: str, worker: str,
                  lease_id: str, now: float) -> Job | None:
        """Renew a lease; returns the job, or ``None`` if the lease
        was lost (expired and requeued, completed elsewhere, or a
        stale/forged id).  Renewals are in-memory only -- the
        journaled TTL is what recovery re-arms from.
        """
        with self._lock:
            job = self._jobs.get(identifier)
            if (job is None or job.state != STATE_RUNNING
                    or job.worker != worker
                    or job.lease_id != lease_id):
                return None
            job.lease_expires_at = now + (job.lease_ttl
                                          or DEFAULT_LEASE_TTL)
            return job

    def expire_leases(self, now: float, *,
                      max_expiries: int = DEFAULT_MAX_LEASE_EXPIRIES
                      ) -> tuple[list[Job], list[Job]]:
        """The requeue sweep: take back every job whose lease expired.

        Returns ``(requeued, poisoned)``.  A job whose leases have
        expired ``max_expiries`` times is poison -- it has killed (or
        outlived) that many workers -- and is failed with a structured
        record instead of being requeued forever.
        """
        requeued: list[Job] = []
        poisoned: list[Job] = []
        with self._lock:
            for job in list(self._jobs.values()):
                if not job.leased or job.lease_expires_at is None \
                        or job.lease_expires_at > now:
                    continue
                self._expire_one(job, now, max_expiries,
                                 requeued, poisoned)
        for job in requeued + poisoned:
            self._notify(job)
        return requeued, poisoned

    def _expire_one(self, job: Job, now: float, max_expiries: int,
                    requeued: list, poisoned: list) -> None:
        """Requeue or poison one expired-lease job (lock held)."""
        job.lease_expiries += 1
        self.lease_expired += 1
        last_worker = job.worker
        if job.lease_expiries >= max_expiries:
            job.error = (f"PoisonJob: lease expired "
                         f"{job.lease_expiries} time(s), last held "
                         f"by {last_worker!r}")
            job.failure = {"type": "poison",
                           "lease_expiries": job.lease_expiries,
                           "attempts": job.attempts,
                           "last_worker": last_worker}
            job.finished_at = now
            job.clear_lease()
            job.transition(STATE_FAILED)
            self._append(job)
            self.poisoned_jobs += 1
            poisoned.append(job)
        else:
            job.transition(STATE_QUEUED)  # clears the lease
            self._append(job)
            heapq.heappush(self._ready,
                           (job.priority, self._lsn, job.id))
            self.requeued_jobs += 1
            requeued.append(job)

    def punt(self, identifier: str, now: float, *,
             max_expiries: int = DEFAULT_MAX_LEASE_EXPIRIES
             ) -> Job | None:
        """Forcibly take a leased job back (e.g. a completion that
        failed parity verification).  Counts as a lease expiry for
        poison purposes; returns the requeued/poisoned job."""
        requeued: list[Job] = []
        poisoned: list[Job] = []
        with self._lock:
            job = self._jobs.get(identifier)
            if job is None or not job.leased:
                return None
            self._expire_one(job, now, max_expiries,
                             requeued, poisoned)
        for changed in requeued + poisoned:
            self._notify(changed)
        return (requeued + poisoned)[0]

    def finish(self, job: Job, *, now: float,
               artifact_hash: str | None = None,
               error: str | None = None,
               from_cache: bool = False,
               failure: dict | None = None) -> Job:
        """Move a running (or requeued) job to its terminal state,
        durably.  The lease, if any, dies with the transition."""
        with self._lock:
            job.finished_at = now
            job.from_cache = job.from_cache or from_cache
            job.clear_lease()
            if error is None:
                job.artifact_hash = artifact_hash
                job.transition(STATE_DONE)
            else:
                job.error = error
                job.failure = failure
                job.transition(STATE_FAILED)
            self._append(job)
        self._notify(job)
        return job

    # -- queries --------------------------------------------------------

    def get(self, identifier: str) -> Job | None:
        """Look up by job id."""
        return self._jobs.get(identifier)

    def jobs(self, tenant: str | None = None,
             state: str | None = None) -> list[Job]:
        """All jobs, optionally filtered, in acceptance order."""
        with self._lock:
            selected = sorted(self._jobs.values(),
                              key=lambda j: j.seq)
        if tenant is not None:
            selected = [j for j in selected if j.tenant == tenant]
        if state is not None:
            selected = [j for j in selected if j.state == state]
        return selected

    def counts(self) -> QueueCounts:
        """Point-in-time state census (admission + gauges): a copy of
        the running census, equal to :func:`census` over the retained
        jobs at a fraction of its cost."""
        with self._lock:
            counts = self._census
            return QueueCounts(counts.queued, counts.running,
                               counts.done, counts.failed,
                               dict(counts.by_tenant))

    def lease_census(self, now: float) -> dict:
        """Live-lease snapshot for stats endpoints."""
        with self._lock:
            leased = [job for job in self._jobs.values()
                      if job.leased]
            holders = Counter(job.worker for job in leased)
            return {
                "leased": len(leased),
                "by_worker": dict(sorted(holders.items())),
                "expiring_soon": sum(
                    1 for job in leased
                    if job.lease_expires_at is not None
                    and job.lease_expires_at - now
                    < (job.lease_ttl or DEFAULT_LEASE_TTL) / 3.0),
            }

    def journal_stats(self) -> dict:
        """Segment/rotation/compaction census for stats endpoints."""
        sealed = segment_paths(self.data_dir)
        return {
            "lsn": self._lsn,
            "segments": len(sealed) + 1,
            "segment_bytes": self.segment_bytes,
            "active_bytes": self._active_bytes,
            "sealed_bytes": sum(p.stat().st_size for p in sealed
                                if p.exists()),
            "rotations": self.rotations,
            "compactions": self.compactions,
            "compacted_through": self.compacted_through,
        }

    def close(self) -> None:
        """Release the journal handle (the journal itself persists)."""
        try:
            self._handle.close()
        except OSError:
            pass


__all__ = [
    "DEFAULT_COMPACT_AFTER",
    "DEFAULT_SEGMENT_BYTES",
    "JOURNAL_NAME",
    "JobQueue",
    "read_journal",
    "read_journal_dir",
    "segment_paths",
]
