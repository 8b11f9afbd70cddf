"""The serve layer's job model: states, transitions, wire form.

A :class:`Job` is one unit of service traffic: a submitted request to
run something the runner knows how to execute (a recording, a replay,
a chaos campaign, a salvage pass, ...).  Its life is a small state
machine::

    queued ──> running ──> done
       │          │   └──> failed
       │          └──> queued        (requeued after a server crash
       │                              or an expired worker lease)
       ├─────────> done              (answered from the result cache)
       └─────────> failed            (deadline passed before claim,
                                      or poison after repeated leases)

``done`` and ``failed`` are terminal.  The *only* backward edge is
``running -> queued``: a job that was mid-execution when the server
died -- or whose remote worker's lease expired -- is requeued, safe
because every job kind is a pure function of its content-hashed spec
and results land in the content-addressed cache, so re-execution is
idempotent (at worst the rerun is answered by the artifact the dead
process already stored).

Remote execution attaches a *lease* to the ``running`` state: the
claiming worker's identity, an opaque lease id, and an expiry the
worker must keep renewing by heartbeat.  Lease fields are part of the
journaled snapshot (the claim is durable before the worker sees the
job); heartbeat renewals move the in-memory expiry only -- recovery
re-arms a leased job's expiry from the journaled TTL, so a restarted
server gives a still-live worker one full TTL to re-announce itself
before requeueing.

Jobs serialize to flat JSON dictionaries -- the durable queue journal
appends full job snapshots (newest wins on recovery), and the same
dictionaries travel the HTTP API and the SSE stream unchanged.
:meth:`Job.from_dict` ignores unknown keys so older code can read a
journal written by a newer schema's snapshots.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from repro.errors import ConfigurationError

#: Job lifecycle states.
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"

STATES = (STATE_QUEUED, STATE_RUNNING, STATE_DONE, STATE_FAILED)

#: States a job never leaves.
TERMINAL_STATES = frozenset({STATE_DONE, STATE_FAILED})

#: Legal state-machine edges (see the module docstring).
TRANSITIONS = {
    STATE_QUEUED: frozenset({STATE_RUNNING, STATE_DONE, STATE_FAILED}),
    STATE_RUNNING: frozenset({STATE_DONE, STATE_FAILED, STATE_QUEUED}),
    STATE_DONE: frozenset(),
    STATE_FAILED: frozenset(),
}


class JobStateError(ConfigurationError):
    """An illegal job state transition was attempted."""


@dataclass
class Job:
    """One submitted job and its full current state.

    ``seq`` is the acceptance sequence number (queue order and the
    tiebreak of the job id); ``spec_hash`` is the content hash of the
    underlying spec -- also the address of the result artifact in the
    cache.  Timestamps are wall-clock (``time.time``), recorded by the
    server.
    """

    id: str
    seq: int
    tenant: str
    kind: str
    params: dict
    spec_hash: str
    state: str = STATE_QUEUED
    attempts: int = 0
    requeues: int = 0
    from_cache: bool = False
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    artifact_hash: str | None = None
    error: str | None = None
    #: Scheduling: lower priorities claim first; ties break on seq.
    priority: int = 0
    #: Absolute wall-clock deadline; past it the job fails at claim
    #: time instead of wasting a worker.
    deadline_at: float | None = None
    #: Remote-execution lease (None for locally executed jobs).
    worker: str | None = None
    lease_id: str | None = None
    lease_expires_at: float | None = None
    lease_ttl: float | None = None
    #: How many leases on this job have expired (poison detection).
    lease_expiries: int = 0
    #: Structured terminal-failure record (deadline, poison, parity).
    failure: dict | None = None

    @property
    def terminal(self) -> bool:
        """Whether the job has reached a final state."""
        return self.state in TERMINAL_STATES

    @property
    def leased(self) -> bool:
        """Whether a remote worker currently holds this job."""
        return self.state == STATE_RUNNING and self.lease_id is not None

    def grant_lease(self, worker: str, lease_id: str, ttl: float,
                    now: float) -> None:
        """Attach a worker lease (call at the claim transition)."""
        self.worker = worker
        self.lease_id = lease_id
        self.lease_ttl = ttl
        self.lease_expires_at = now + ttl

    def clear_lease(self) -> None:
        """Drop the lease (requeue, completion, or poison)."""
        self.lease_id = None
        self.lease_expires_at = None
        self.lease_ttl = None

    def transition(self, state: str) -> None:
        """Move to ``state``, enforcing the state machine."""
        if state not in STATES:
            raise JobStateError(f"unknown job state {state!r}")
        if state not in TRANSITIONS[self.state]:
            raise JobStateError(
                f"job {self.id}: illegal transition "
                f"{self.state} -> {state}")
        if state == STATE_QUEUED:  # the requeue edge
            self.requeues += 1
            self.started_at = None
            self.clear_lease()
        self.state = state

    def label(self) -> str:
        """Short human-readable label for logs and traces."""
        app = self.params.get("app", "")
        return f"{self.kind}:{app}" if app else self.kind

    def as_dict(self) -> dict:
        """The flat JSON wire form (journal, HTTP, SSE)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        """Invert :meth:`as_dict` (journal recovery).

        Unknown keys are dropped so a journal written by a newer
        schema still recovers under this one.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items()
                      if key in known})


def job_id(seq: int, spec_hash: str) -> str:
    """Stable job id: acceptance order plus the spec it names."""
    return f"j{seq:06d}-{spec_hash[:12]}"


@dataclass
class QueueCounts:
    """Point-in-time census of job states (queue-depth gauges)."""

    queued: int = 0
    running: int = 0
    done: int = 0
    failed: int = 0
    by_tenant: dict = field(default_factory=dict)

    @property
    def depth(self) -> int:
        """Non-terminal jobs: what admission control bounds."""
        return self.queued + self.running

    def as_dict(self) -> dict:
        return {"queued": self.queued, "running": self.running,
                "done": self.done, "failed": self.failed,
                "depth": self.depth,
                "by_tenant": dict(self.by_tenant)}


def census(jobs) -> QueueCounts:
    """Count jobs by state and non-terminal jobs by tenant."""
    counts = QueueCounts()
    for job in jobs:
        setattr(counts, job.state,
                getattr(counts, job.state) + 1)
        if not job.terminal:
            counts.by_tenant[job.tenant] = \
                counts.by_tenant.get(job.tenant, 0) + 1
    return counts


__all__ = [
    "Job",
    "JobStateError",
    "QueueCounts",
    "STATES",
    "STATE_DONE",
    "STATE_FAILED",
    "STATE_QUEUED",
    "STATE_RUNNING",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "census",
    "job_id",
]
