"""Where the traced run wraps ``repro``: one entry per layer boundary.

Each point is patched where callers look it up: methods on their
class (before any machine is built, so every instance sees the
wrapper), functions in every module that imported them by name.
:data:`SELF_METRICS` maps each span layer to the per-layer metric that
reports its wall-clock self time.
"""

from __future__ import annotations

import importlib

#: Hot leaf layers: counted and timed, but no span is stored per call.
_HOT = {"machine.program.compute_mix", "chunks.cache", "chunks.signature",
        "chunks.processor", "chunks.directory", "core.arbiter"}


def _events(args):
    return args[0].events_processed


def _grants(args):
    return args[0].grant_count


def _blob_bytes(counts, blob):
    counts["core.serialization.blob_bytes"] += len(blob)


def _cache_lookup(counts, artifact):
    counts["runner.cache.hits"] += 1


def _spec_label(args, result):
    return args[1].label()


def _submitted_job(args, result):
    job = result[0]
    return job.id if job is not None else None


#: (module, attribute path, layer, wrap options)
POINTS = [
    # Program generation, wherever programs are built.
    ("repro.workloads", "splash2_program", "workloads.build", {}),
    ("repro.workloads", "commercial_program", "workloads.build", {}),
    ("repro.runner.jobs", "splash2_program", "workloads.build", {}),
    ("repro.runner.jobs", "commercial_program", "workloads.build", {}),
    # machine: the event loop (its self time holds ChunkMachine's own
    # event handlers) and the ALU model.
    ("repro.machine.engine", "EventEngine.run", "machine.engine",
     {"delta": ("machine.engine.events", _events)}),
    ("repro.chunks.processor", "compute_mix",
     "machine.program.compute_mix",
     {"calls": "machine.program.compute_mix_calls"}),
    ("repro.baselines.consistency", "compute_mix",
     "machine.program.compute_mix",
     {"calls": "machine.program.compute_mix_calls"}),
    # chunks
    ("repro.chunks.processor", "ChunkProcessor.build_chunk",
     "chunks.processor", {"calls": "chunks.processor.chunks_built"}),
    ("repro.chunks.processor", "ChunkProcessor.build_continuation",
     "chunks.processor", {"calls": "chunks.processor.chunks_built"}),
    ("repro.chunks.processor", "ChunkProcessor.on_commit",
     "chunks.processor", {"calls": "chunks.processor.chunks_committed"}),
    ("repro.chunks.processor", "ChunkProcessor.squash_if_conflicts",
     "chunks.processor", {}),
    ("repro.chunks.processor", "ChunkProcessor.receive_interrupt",
     "chunks.processor", {}),
    ("repro.chunks.cache", "SpeculativeCache.access", "chunks.cache",
     {"calls": "chunks.cache.accesses"}),
    ("repro.chunks.cache", "SpeculativeCache.invalidate", "chunks.cache",
     {}),
    ("repro.chunks.cache", "SpeculativeCache.write_would_overflow",
     "chunks.cache", {}),
] + [
    ("repro.chunks.signature", f"Signature.{method}", "chunks.signature",
     {"calls": "chunks.signature.ops"})
    for method in ("insert", "may_contain", "intersects", "union_update",
                   "clear", "copy")
] + [
    ("repro.chunks.directory", "CommitDirectory.propagate_commit",
     "chunks.directory", {"calls": "chunks.directory.commits"}),
    ("repro.chunks.directory", "CommitDirectory.on_commit_request",
     "chunks.directory", {}),
    ("repro.chunks.directory", "CommitDirectory.on_squash",
     "chunks.directory", {}),
    # core
    ("repro.core.arbiter", "CommitArbiter.try_grant", "core.arbiter",
     {"delta": ("core.arbiter.grants", _grants)}),
    ("repro.core.arbiter", "CommitArbiter.receive_request",
     "core.arbiter", {}),
    ("repro.core.arbiter", "CommitArbiter.release", "core.arbiter", {}),
    ("repro.core.arbiter", "CommitArbiter.commit_finished",
     "core.arbiter", {}),
    ("repro.core.delorean", "DeLoreanSystem.record", "core.delorean", {}),
    ("repro.core.delorean", "DeLoreanSystem.replay", "core.delorean", {}),
    ("repro.machine.system", "verify_determinism",
     "core.replayer.verify", {}),
] + [
    (module, "save_recording", "core.serialization.save",
     {"on_result": _blob_bytes})
    for module in ("repro", "repro.core.serialization", "repro.runner.jobs")
] + [
    (module, "load_recording", "core.serialization.load", {})
    for module in ("repro", "repro.core.serialization", "repro.runner.jobs")
] + [
    ("repro.core.logs", f"{cls}.{method}", "core.logs.encode", {})
    for cls, method in (("PILog", "encode"), ("ChunkSizeLog", "encode"),
                        ("InterruptLog", "encode"), ("IOLog", "encode"),
                        ("DMALog", "encode"),
                        ("PILog", "compressed_size_bits"),
                        ("ChunkSizeLog", "compressed_size_bits"))
] + [
    # baselines
    ("repro.baselines.consistency", "InterleavedExecutor.run",
     "baselines.consistency", {}),
    # runner
    ("repro.runner.pool", "Runner.run", "runner.pool", {}),
    ("repro.runner.jobs", "invoke", "runner.jobs.envelope",
     {"case_of": _spec_label}),
    ("repro.runner.cache", "ResultCache.load_by_hash", "runner.cache.load",
     {"calls": "runner.cache.lookups", "on_result": _cache_lookup}),
    ("repro.runner.cache", "ResultCache.store", "runner.cache.store", {}),
    # serve
    ("repro.serve.service", "ReproService.submit", "serve.service",
     {"case_of": _submitted_job}),
    ("repro.serve.service", "ReproService.process_one", "serve.service",
     {}),
] + [
    ("repro.serve.queue", f"JobQueue.{method}", "serve.queue.journal", {})
    for method in ("submit", "submit_resolved", "claim", "finish")
]

#: Span layer -> per-layer metric reporting its wall-clock self time.
SELF_METRICS = {
    "workloads.build": "workloads.build_s",
    "machine.engine": "machine.engine.self_s",
    "machine.program.compute_mix": "machine.program.compute_mix_s",
    "chunks.processor": "chunks.processor.self_s",
    "chunks.cache": "chunks.cache.self_s",
    "chunks.signature": "chunks.signature.self_s",
    "chunks.directory": "chunks.directory.self_s",
    "core.arbiter": "core.arbiter.self_s",
    "core.delorean": "core.delorean.self_s",
    "core.replayer.verify": "core.replayer.verify_s",
    "core.serialization.save": "core.serialization.save_s",
    "core.serialization.load": "core.serialization.load_s",
    "core.logs.encode": "core.logs.encode_s",
    "baselines.consistency": "baselines.consistency.run_s",
    "runner.pool": "runner.pool.self_s",
    "runner.jobs.envelope": "runner.jobs.envelope_s",
    "runner.cache.load": "runner.cache.load_s",
    "runner.cache.store": "runner.cache.store_s",
    "serve.service": "serve.service.self_s",
    "serve.queue.journal": "serve.queue.journal_s",
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


def install(tracer) -> list:
    """Wrap every point; returns the undo list for :func:`uninstall`."""
    undo = []
    for module_name, path, layer, options in POINTS:
        owner, name = _resolve(module_name, path)
        original = owner.__dict__[name]
        undo.append((owner, name, original))
        setattr(owner, name, tracer.wrap(
            original, layer, label=path, keep=layer not in _HOT,
            **options))
    return undo


def uninstall(undo) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def layer_metrics(tracer, self_seconds: dict) -> dict:
    """Per-layer metric values from a tracer's counters and the
    attributed self times."""
    counts = tracer.counts()
    metrics = {metric: self_seconds.get(layer, 0.0)
               for layer, metric in SELF_METRICS.items()}
    for name in ("machine.engine.events",
                 "machine.program.compute_mix_calls",
                 "chunks.processor.chunks_built", "chunks.cache.accesses",
                 "chunks.signature.ops", "chunks.directory.commits",
                 "core.arbiter.grants", "core.serialization.blob_bytes"):
        metrics[name] = counts.get(name, 0)
    built = counts.get("chunks.processor.chunks_built", 0)
    metrics["chunks.processor.useful_ratio"] = (
        counts.get("chunks.processor.chunks_committed", 0) / built
        if built else 0.0)
    lookups = counts.get("runner.cache.lookups", 0)
    metrics["runner.cache.hit_ratio"] = (
        counts.get("runner.cache.hits", 0) / lookups if lookups else 0.0)
    return metrics
