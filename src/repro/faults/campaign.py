"""Chaos campaigns: record, inject, replay, classify -- in parallel.

A campaign takes one recorded execution, expands a seeded
:class:`~repro.faults.plan.FaultPlan` into per-fault jobs, and pushes
them through the experiment runner's pool.  Each job reproduces the
full life of one fault and classifies the outcome:

``harmless``
    The fault landed somewhere inert (an ignored byte, a shift past
    the end of a log): strict load and replay still verified, and the
    replayed final memory matches the baseline exactly.
``detected``
    A typed :class:`~repro.errors.ReproError` surfaced the fault --
    at the integrity layer (CRC/framing) or during replay
    (divergence/deadlock) -- and salvage could not verify anything.
``recovered``
    The fault was detected *and* salvage replay still reproduced part
    of the execution, with a :class:`~repro.faults.salvage.SalvageReport`
    quantifying exactly how much.
``silent-divergence``
    The failure mode the whole fault model exists to rule out: replay
    claimed success but produced different final memory than the
    baseline.  One of these fails the campaign (exit 1 in the CLI,
    ``invariant_ok = False`` here).

Every fault must land in the first three buckets -- that is the
resilience invariant the chaos tests assert.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass, field

from repro.core.delorean import DeLoreanSystem
from repro.core.serialization import load_recording, save_recording
from repro.errors import IntegrityError, ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.salvage import salvage_from_blob, salvage_replay
from repro.workloads import app_program

#: Outcome buckets, in decreasing order of comfort.
OUTCOMES = ("harmless", "detected", "recovered", "silent-divergence")


def _memory_sha(final_memory: dict[int, int]) -> str:
    canonical = json.dumps(sorted(final_memory.items()))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class ChaosSpec:
    """One fault-injection job for the runner pool.

    Duck-types the runner's spec interface (``content_hash`` /
    ``dependencies`` / ``label``).  Carries the intact baseline blob
    (base64, so the spec stays JSON-friendly) plus the oracle values a
    classification must never silently contradict.
    """

    blob_b64: str
    fault: FaultSpec
    baseline_commits: int
    baseline_memory_sha: str

    def content_hash(self) -> str:
        blob_sha = hashlib.sha256(self.blob_b64.encode()).hexdigest()
        canonical = json.dumps({
            "kind": "chaos",
            "blob": blob_sha,
            "fault": self.fault.as_dict(),
            "baseline_commits": self.baseline_commits,
            "baseline_memory_sha": self.baseline_memory_sha,
        }, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def dependencies(self) -> tuple:
        return ()

    def label(self) -> str:
        return f"chaos:{self.fault.label()}"


def _classify_replayable(recording, spec: ChaosSpec,
                         damage=None) -> dict:
    """Replay a loaded (possibly silently damaged) recording and
    classify: verified+baseline-equal is harmless, anything else goes
    through salvage."""
    from repro.machine.system import replay_execution

    try:
        result = replay_execution(recording)
    except ReproError as error:
        report = salvage_replay(recording, damage=damage)
        return {
            "outcome": ("recovered" if report.recovered
                        else "detected"),
            "detected_by": type(error).__name__,
            "detail": str(error),
            "salvage": report.as_dict(),
        }
    if result.determinism.matches:
        memory_sha = _memory_sha(result.final_memory)
        commits = len(recording.fingerprints)
        if (memory_sha == spec.baseline_memory_sha
                and commits == spec.baseline_commits):
            if damage:
                # Tolerant load flagged damage, yet the remainder
                # replayed and verified end-to-end: detected + fully
                # recovered.
                report = salvage_replay(recording, damage=damage)
                return {
                    "outcome": "recovered",
                    "detected_by": "SectionDamage",
                    "detail": damage[0].describe(),
                    "salvage": report.as_dict(),
                }
            return {"outcome": "harmless", "detected_by": None,
                    "detail": "replay verified, baseline reproduced",
                    "salvage": None}
        return {
            "outcome": "silent-divergence",
            "detected_by": None,
            "detail": (f"replay verified against a corrupted oracle: "
                       f"memory {memory_sha[:12]} vs baseline "
                       f"{spec.baseline_memory_sha[:12]}, "
                       f"{commits} vs {spec.baseline_commits} commits"),
            "salvage": None,
        }
    report = salvage_replay(recording, damage=damage)
    return {
        "outcome": "recovered" if report.recovered else "detected",
        "detected_by": "DeterminismReport",
        "detail": result.determinism.summary(),
        "salvage": report.as_dict(),
    }


def execute_chaos_spec(spec: ChaosSpec, cache=None) -> dict:
    """Run one fault end to end; returns its classification artifact.

    Module-level and cache-signature-compatible so the runner pool can
    pickle it to workers.
    """
    injector = FaultInjector()
    blob = base64.b64decode(spec.blob_b64)
    fault = spec.fault

    if fault.layer == "blob":
        damaged_blob = injector.inject_blob(blob, fault)
        if damaged_blob == blob:
            result = {"outcome": "harmless", "detected_by": None,
                      "detail": "fault produced an identical blob",
                      "salvage": None}
            return _artifact(spec, result)
        try:
            recording = load_recording(damaged_blob)
        except IntegrityError as error:
            try:
                _, report = salvage_from_blob(damaged_blob)
            except ReproError as salvage_error:
                result = {
                    "outcome": "detected",
                    "detected_by": type(error).__name__,
                    "detail": (f"{error}; salvage also failed: "
                               f"{salvage_error}"),
                    "salvage": None,
                }
            else:
                result = {
                    "outcome": ("recovered" if report.recovered
                                else "detected"),
                    "detected_by": type(error).__name__,
                    "detail": str(error),
                    "salvage": report.as_dict(),
                }
            return _artifact(spec, result)
        result = _classify_replayable(recording, spec)
        return _artifact(spec, result)

    if fault.layer == "log":
        recording = load_recording(blob)
        damaged = injector.inject_recording(recording, fault)
        result = _classify_replayable(damaged, spec)
        return _artifact(spec, result)

    raise ReproError(f"campaign cannot run {fault.layer!r} faults "
                     f"as jobs (runner faults wrap the job function)")


def _artifact(spec: ChaosSpec, result: dict) -> dict:
    return {
        "schema": 1,
        "kind": "chaos",
        "spec_hash": spec.content_hash(),
        "fault": spec.fault.as_dict(),
        "fault_label": spec.fault.label(),
        **result,
    }


@dataclass
class CampaignReport:
    """Aggregate verdict of one chaos campaign."""

    app: str
    mode: str
    plan_seed: int
    total_commits: int
    results: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def count(self, outcome: str) -> int:
        """Results in one outcome bucket."""
        return sum(1 for r in self.results
                   if r["outcome"] == outcome)

    @property
    def invariant_ok(self) -> bool:
        """True when no fault produced a silent wrong result and no
        job failed outright."""
        return (self.count("silent-divergence") == 0
                and not self.failures)

    def as_dict(self) -> dict:
        return {
            "app": self.app,
            "mode": self.mode,
            "plan_seed": self.plan_seed,
            "total_commits": self.total_commits,
            "faults": len(self.results),
            "outcomes": {outcome: self.count(outcome)
                         for outcome in OUTCOMES},
            "job_failures": list(self.failures),
            "invariant_ok": self.invariant_ok,
        }

    def summary(self) -> str:
        counts = ", ".join(f"{self.count(o)} {o}" for o in OUTCOMES
                           if self.count(o))
        verdict = ("invariant holds" if self.invariant_ok
                   else "INVARIANT VIOLATED")
        return (f"chaos[{self.app}/{self.mode}] "
                f"{len(self.results)} faults: {counts or 'none'} "
                f"-- {verdict}")

    def write_jsonl(self, path: str) -> None:
        """One line per fault, then the campaign summary line."""
        with open(path, "w") as handle:
            for result in self.results:
                handle.write(json.dumps(result, sort_keys=True) + "\n")
            handle.write(json.dumps(
                {"kind": "campaign-summary", **self.as_dict()},
                sort_keys=True) + "\n")


def record_baseline(app: str, mode, scale: float = 1.0,
                    seed: int = 1, checkpoint_every: int = 32,
                    tracer=None):
    """Record the campaign's baseline execution (with interval
    checkpoints, so salvage has resync points) and return
    ``(recording, blob)``."""
    system = DeLoreanSystem(mode=mode)
    recording = system.record(app_program(app, scale=scale, seed=seed),
                              checkpoint_every=checkpoint_every,
                              tracer=tracer)
    return recording, save_recording(recording)


def build_specs(blob: bytes, recording,
                plan: FaultPlan) -> list[ChaosSpec]:
    """Expand a fault plan into runner jobs against one baseline."""
    blob_b64 = base64.b64encode(blob).decode("ascii")
    baseline_sha = _memory_sha(recording.final_memory)
    return [ChaosSpec(
        blob_b64=blob_b64,
        fault=fault,
        baseline_commits=len(recording.fingerprints),
        baseline_memory_sha=baseline_sha,
    ) for fault in plan if fault.layer in ("blob", "log")]


def run_campaign(app: str, mode, *, scale: float = 1.0,
                 seed: int = 1, plan_seed: int = 7,
                 fault_count: int = 12, checkpoint_every: int = 32,
                 runner=None, tracer=None) -> CampaignReport:
    """Record once, inject ``fault_count`` seeded faults, classify
    each through ``runner`` (a :class:`~repro.runner.pool.Runner`;
    default: inline, uncached)."""
    from repro.runner.pool import Runner

    recording, blob = record_baseline(
        app, mode, scale=scale, seed=seed,
        checkpoint_every=checkpoint_every, tracer=tracer)
    plan = FaultPlan.generate(
        plan_seed, fault_count,
        num_processors=recording.machine_config.num_processors)
    specs = build_specs(blob, recording, plan)
    if runner is None:
        runner = Runner(jobs=1, cache=False,
                        job_fn=execute_chaos_spec)
    report = CampaignReport(
        app=app,
        mode=getattr(mode, "value", str(mode)),
        plan_seed=plan_seed,
        total_commits=len(recording.fingerprints))
    for outcome in runner.run(specs):
        if outcome.ok:
            report.results.append(outcome.artifact)
        else:
            report.failures.append(outcome.failure.summary())
    if tracer is not None:
        for bucket in OUTCOMES:
            tracer.metrics.counter(
                f"chaos_{bucket.replace('-', '_')}").inc(
                report.count(bucket))
    return report
