"""Shrink a failing schedule to a minimal grant-order delta.

A failing explored schedule arrives as a full grant-order prescription
(every commit named).  Almost all of it is irrelevant: the bug needs
only the prefix up to the racing window.  :func:`minimize_schedule`
binary-searches the prescription length -- probe ``L`` re-records
under ``SchedulePlan(prefix=grants[:L])`` and checks the invariant --
converging on the adjacent pair where ``L-1`` grants pass and ``L``
fail.  That prefix is locally minimal by construction (shortening it
by one grant makes the bug vanish) and costs ~log2(n) re-records, each
cache-eligible because probes are ordinary explore specs.

The minimal schedule is then *verified through the debugger*: its
recording is replayed by a :class:`~repro.debugger.controller.\
ReplayController` with commit-fingerprint verification on, jumped to
the first grant that differs from the natural schedule (the earliest
observable divergence), fingerprinted there, and run to completion.
Only a recording that survives that -- bit-faithful replay of the
whole minimized failure -- is reported as a repro, and its ``.dlrn``
blob loads straight into ``repro debug``.
"""

from __future__ import annotations

import base64
import hashlib
from dataclasses import dataclass

from repro.core.replayer import first_divergence
from repro.core.serialization import load_recording
from repro.runner.jobs import recording_from_artifact


@dataclass(frozen=True)
class MinimalRepro:
    """A minimized, debugger-verified failing schedule."""

    plan: dict                  # minimal SchedulePlan wire form
    prefix_length: int          # grants prescribed by the minimal plan
    full_length: int            # grants in the original failing plan
    runs: int                   # probe re-records the search spent
    verified: bool              # debugger replayed it bit-faithfully
    detail: str                 # invariant diagnosis at the minimum
    divergence_commit: int      # first grant differing from natural
    state_fingerprint: str      # digest of state at the divergence
    recording_b64: str          # the minimal .dlrn container, base64

    @property
    def recording_blob(self) -> bytes:
        return base64.b64decode(self.recording_b64)

    def recording(self):
        """The minimal failing recording, ready for ``repro debug``."""
        return load_recording(self.recording_blob)

    def as_dict(self, include_recording: bool = False) -> dict:
        data = {
            "kind": "minimal-repro",
            "plan": self.plan,
            "prefix_length": self.prefix_length,
            "full_length": self.full_length,
            "runs": self.runs,
            "verified": self.verified,
            "detail": self.detail,
            "divergence_commit": self.divergence_commit,
            "state_fingerprint": self.state_fingerprint,
        }
        if include_recording:
            data["recording_b64"] = self.recording_b64
        return data


def _probe(app, mode, prefix, *, chunk_size, num_threads, cache):
    """Re-record under a prefix prescription; returns the explore
    artifact's metrics plus the artifact itself."""
    from repro.explore.driver import execute_explore_spec
    from repro.runner.specs import RunSpec

    spec = RunSpec.explore(app, mode, prefix=tuple(prefix),
                           chunk_size=chunk_size,
                           num_threads=num_threads)
    artifact = execute_explore_spec(spec, cache)
    return artifact


def _verify_with_debugger(recording, divergence_commit: int):
    """Replay the minimal recording through the time-travel debugger:
    land on the divergence commit, fingerprint, run to the end with
    commit verification on.  Returns ``(verified, fingerprint_digest,
    message)``."""
    from repro.debugger.controller import ReplayController

    controller = ReplayController(recording, checkpoint_every=64,
                                  verify=True)
    target = min(divergence_commit, controller.total_commits)
    stop = controller.goto(target)
    if stop.reason == "divergence":
        return False, "", stop.message
    digest = hashlib.sha256(
        repr(controller.state_fingerprint()).encode()).hexdigest()
    stop = controller.cont()
    while stop.reason == "breakpoint":
        stop = controller.cont()
    if stop.reason != "end":
        return False, digest, (stop.message
                               or f"stopped on {stop.reason}")
    return True, digest, ""


def minimize_schedule(app: str, mode, grant_order, *,
                      chunk_size: int = 0, num_threads: int = 8,
                      cache=None, tracer=None) -> MinimalRepro:
    """Shrink a failing grant order to its minimal failing prefix.

    ``grant_order`` is the full per-commit processor sequence of a
    schedule known to violate the workload invariant (an explore
    artifact's ``metrics["grant_order"]``).  Preconditions: the natural
    schedule (empty prefix) passes and the full prescription fails --
    both are re-checked, and a violated precondition raises
    ``ValueError`` rather than reporting a bogus minimum.

    Probes that stall or diverge count as *not reproducing*: the
    search only ever tightens toward schedules that fail cleanly and
    replay deterministically.
    """
    grants = [int(g) for g in grant_order]
    runs = 0

    def failing(length: int):
        nonlocal runs
        runs += 1
        artifact = _probe(app, mode, grants[:length],
                          chunk_size=chunk_size,
                          num_threads=num_threads, cache=cache)
        metrics = artifact["metrics"]
        return metrics["outcome"] == "failure", artifact

    full_fails, full_artifact = failing(len(grants))
    if not full_fails:
        raise ValueError(
            "the full grant prescription does not reproduce the "
            f"failure (outcome "
            f"{full_artifact['metrics']['outcome']!r})")
    natural_fails, natural_artifact = failing(0)
    if natural_fails:
        raise ValueError(
            "the natural schedule already fails; nothing to minimize "
            "(not a schedule-dependent bug)")
    natural_order = list(natural_artifact["metrics"]["grant_order"])

    # Invariant: lo passes, hi fails.  Converges to the adjacent pair.
    lo, hi = 0, len(grants)
    hi_artifact = full_artifact
    while hi - lo > 1:
        mid = (lo + hi) // 2
        mid_fails, mid_artifact = failing(mid)
        if mid_fails:
            hi, hi_artifact = mid, mid_artifact
        else:
            lo = mid
    metrics = hi_artifact["metrics"]
    minimal_order = list(metrics["grant_order"])
    # The first grant where the minimized schedule departs from the
    # natural one (the earliest observable difference).
    divergence = first_divergence(minimal_order, natural_order)
    if divergence is None:
        divergence = len(minimal_order)
    recording = recording_from_artifact(hi_artifact)
    verified, digest, message = _verify_with_debugger(
        recording, divergence)
    if tracer is not None:
        tracer.metrics.counter("explore_bisect_probes").inc(runs)
    plan = {"seed": None, "prefix": grants[:hi], "change_points": []}
    return MinimalRepro(
        plan=plan,
        prefix_length=hi,
        full_length=len(grants),
        runs=runs,
        verified=verified,
        detail=(metrics.get("invariant_detail", "")
                + (f"; debugger: {message}" if message else "")),
        divergence_commit=divergence,
        state_fingerprint=digest,
        recording_b64=hi_artifact["payload"],
    )
