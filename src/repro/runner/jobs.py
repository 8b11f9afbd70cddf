"""Job kinds, and execution: turn a spec into a result artifact.

:data:`KINDS` declares each of the six job kinds once: its parameter
names and types, the builder that turns validated params into a
content-hashed spec, and the executor that turns the spec into an
artifact.  The RunSpec kinds (``record``, ``replay``, ``consistency``,
``explore``) keep their defaults in the :class:`RunSpec` constructors;
the campaign kinds (``chaos``, ``salvage``) keep theirs in the table
and resolve them into a :class:`CampaignSpec`.  Serve's validation,
:func:`build_job_spec`, :func:`execute_spec` and ``repro submit`` all
read the table.

This module is the worker side of the runner.  :func:`execute_spec`
runs one job and packages the outcome as a JSON-serializable
*artifact*::

    {
      "schema": 1,
      "kind": "record" | "replay" | "consistency" | ...,
      "spec": {...canonical spec...},
      "spec_hash": "...",
      "metrics": {...figure-ready numbers...},
      "payload_codec": "dlrn" | "pickle",
      "payload": "<base64>",
    }

``metrics`` carries every number the figure renderers need, so sweeps
can tabulate results without touching the payload.  ``payload`` holds
the full result object -- a DLRN v3 container (``save_recording``, no
pickle) for recordings, a fixed-protocol pickle for
replay/consistency results -- so the benchmark harness can hand
callers real ``Recording`` / ``ReplayResult`` / ``InterleavedResult``
instances reconstructed from cache.  Both encodings are
deterministic: executing the same spec twice yields byte-identical
artifacts (the cache determinism guard).  Record artifacts travel
from remote workers over HTTP, so :func:`recording_from_artifact`
reads v3 only and never the pickle-bearing legacy containers.

:func:`invoke` is the actual pool entry point: it wraps
:func:`execute_spec` with a hard per-job timeout -- SIGALRM on a unix
main thread, an async-raise :class:`~repro.guard.watchdog.WatchdogTimer`
everywhere else -- and converts every failure into a structured,
picklable failure dictionary, so a crashing or hanging job degrades
the sweep instead of poisoning the pool.  The pool itself adds a
deadline sweep on top (see :mod:`repro.runner.pool`) for jobs wedged
where no in-process exception can land.
"""

from __future__ import annotations

import base64
import pickle
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from repro.baselines import InterleavedExecutor
from repro.core.delorean import DeLoreanSystem
from repro.core.modes import ExecutionMode
from repro.core.replayer import ReplayPerturbation
from repro.core.serialization import load_recording, save_recording
from repro.errors import ConfigurationError
from repro.runner.specs import CampaignSpec, RunSpec
from repro.workloads import app_program
# perfbench/layers.py wraps these two by name in this module as well.
from repro.workloads import (  # noqa: F401
    commercial_program,
    splash2_program,
)

#: Pickle protocol pinned for byte-stable payloads across interpreters.
_PICKLE_PROTOCOL = 4


class JobTimeout(Exception):
    """A job exceeded its per-job wall-clock budget."""


def program_for(spec: RunSpec):
    """The program for a run spec's app: a ``zoo:`` specimen, built
    each time, or a SPLASH-2/commercial stand-in from
    :func:`~repro.workloads.app_program`'s memo."""
    if spec.app.startswith("zoo:"):
        from repro.workloads.bugzoo import zoo_specimen

        return zoo_specimen(spec.app[len("zoo:"):]).build()
    return app_program(spec.app, scale=spec.scale, seed=spec.seed,
                       num_threads=spec.num_threads)


def base_artifact(spec) -> dict:
    """The fields every artifact starts with: the spec and its hash."""
    return {
        "schema": 1,
        "kind": spec.kind,
        "spec": spec.canonical(),
        "spec_hash": spec.content_hash(),
    }


def _record_metrics(recording) -> dict:
    ordering = recording.memory_ordering
    total = recording.total_committed_instructions
    return {
        "cycles": recording.stats.cycles,
        "total_committed_instructions": total,
        "num_processors": recording.machine_config.num_processors,
        "pi_bits_raw": ordering.pi_size_bits(False),
        "pi_bits_compressed": ordering.pi_size_bits(True),
        "cs_bits_raw": ordering.cs_size_bits(False),
        "cs_bits_compressed": ordering.cs_size_bits(True),
        "total_bits_raw": ordering.total_size_bits(False),
        "total_bits_compressed": ordering.total_size_bits(True),
        "log_bits_per_proc_per_kiloinst_raw":
            ordering.bits_per_proc_per_kiloinst(total, False),
        "log_bits_per_proc_per_kiloinst_compressed":
            ordering.bits_per_proc_per_kiloinst(total, True),
        "run_stats": recording.stats.as_dict(),
    }


def _run_record(spec: RunSpec, cache=None) -> dict:
    system = DeLoreanSystem(
        mode=spec.execution_mode(),
        machine_config=spec.machine_config(),
        chunk_size=spec.chunk_size or None,
    )
    recording = system.record(program_for(spec))
    artifact = base_artifact(spec)
    artifact["metrics"] = _record_metrics(recording)
    artifact["payload_codec"] = "dlrn"
    artifact["payload"] = base64.b64encode(
        save_recording(recording)).decode("ascii")
    return artifact


def _run_replay(spec: RunSpec, cache=None) -> dict:
    record_spec = spec.record_spec()
    if cache is not None:
        record_artifact = cache.get_or_compute(record_spec,
                                               execute_spec)
    else:
        record_artifact = execute_spec(record_spec)
    recording = recording_from_artifact(record_artifact)
    system = DeLoreanSystem(
        mode=recording.mode_config.mode,
        machine_config=recording.machine_config,
        mode_config=recording.mode_config,
    )
    perturbation = (None if spec.perturb_seed is None
                    else ReplayPerturbation(seed=spec.perturb_seed))
    result = system.replay(recording, perturbation=perturbation,
                           use_strata=spec.use_strata)
    artifact = base_artifact(spec)
    artifact["metrics"] = {
        "cycles": result.cycles,
        "matches": result.determinism.matches,
        "compared_chunks": result.determinism.compared_chunks,
        "summary": result.determinism.summary(),
        "record_cycles": recording.stats.cycles,
        "run_stats": result.stats.as_dict(),
    }
    artifact["payload_codec"] = "pickle"
    artifact["payload"] = base64.b64encode(
        pickle.dumps(result, protocol=_PICKLE_PROTOCOL)).decode("ascii")
    return artifact


def _run_consistency(spec: RunSpec, cache=None) -> dict:
    executor = InterleavedExecutor(
        program_for(spec),
        spec.machine_config(),
        spec.consistency_model(),
        collect_trace=spec.collect_trace,
    )
    result = executor.run()
    artifact = base_artifact(spec)
    artifact["metrics"] = {
        "cycles": result.cycles,
        "total_instructions": result.total_instructions,
        "ipc": result.ipc,
        "spin_instructions": result.spin_instructions,
        "trace_length": len(result.trace),
    }
    artifact["payload_codec"] = "pickle"
    artifact["payload"] = base64.b64encode(
        pickle.dumps(result, protocol=_PICKLE_PROTOCOL)).decode("ascii")
    return artifact


def _run_explore(spec: RunSpec, cache=None) -> dict:
    # Lazy: repro.explore sits above the runner layer; importing it
    # here (only when an explore spec is executed) avoids the cycle.
    from repro.explore.driver import execute_explore_spec

    return execute_explore_spec(spec, cache)


def _run_chaos(spec: CampaignSpec, cache=None) -> dict:
    from repro.faults.campaign import run_campaign

    params = spec.param_dict
    report = run_campaign(
        params["app"], ExecutionMode(params["mode"]),
        scale=params["scale"], seed=params["seed"],
        plan_seed=params["plan_seed"],
        fault_count=params["fault_count"],
        checkpoint_every=params["checkpoint_every"])
    return {
        **base_artifact(spec),
        "metrics": {
            "injected": len(report.results),
            "failures": len(report.failures),
            "invariant_ok": report.invariant_ok,
        },
        "report": report.as_dict(),
    }


def _run_salvage(spec: CampaignSpec, cache=None) -> dict:
    from repro.faults.salvage import salvage_replay

    params = spec.param_dict
    if cache is None:
        raise ConfigurationError(
            "salvage jobs need a result cache to resolve "
            "recording_hash")
    recording_artifact = cache.load_by_hash(params["recording_hash"])
    if recording_artifact is None:
        raise ConfigurationError(
            f"no cached artifact {params['recording_hash'][:12]}... "
            f"to salvage (record it first)")
    report = salvage_replay(recording_from_artifact(recording_artifact),
                            max_events=params["max_events"])
    return {
        **base_artifact(spec),
        "metrics": {"coverage": report.coverage},
        "report": report.as_dict(),
    }


@dataclass(frozen=True)
class JobKind:
    """One job kind: ``params`` maps each parameter a request may
    carry to its type, ``build(kind, params)`` turns validated params
    into the kind's spec, and ``execute(spec, cache)`` turns the spec
    into an artifact.  ``defaults`` holds a campaign kind's parameter
    defaults; a parameter without one is required."""

    name: str
    params: dict
    build: Callable[["JobKind", dict], object]
    execute: Callable[..., dict]
    defaults: dict = field(default_factory=dict)


#: Serve's defaults for the RunSpec constructors' positional arguments.
_POSITIONAL_DEFAULTS = {"app": "fft", "mode": "order_only", "model": "sc"}


def _run_spec(constructor, config: str):
    """Builder of a RunSpec kind.  The constructor gets only the params
    the request carried, so its own defaults stay the only ones, plus
    serve's defaults for its positional app and ``config`` (the mode
    or model)."""
    def build(kind: JobKind, params: dict) -> RunSpec:
        params = dict(params)
        app = params.pop("app", _POSITIONAL_DEFAULTS["app"])
        return constructor(
            app, params.pop(config, _POSITIONAL_DEFAULTS[config]),
            **params)
    return build


def _campaign_spec(kind: JobKind, params: dict) -> CampaignSpec:
    """Builder of a campaign kind: every default resolved in, so two
    spellings of the same work share one cache key."""
    for name in kind.params:
        if name not in params and name not in kind.defaults:
            raise ConfigurationError(
                f"{kind.name} jobs need a {name} parameter")
    return CampaignSpec(kind.name,
                        tuple({**kind.defaults, **params}.items()))


_COMMON = {"app": str, "scale": float, "seed": int}
_SIMULATED = {**_COMMON, "mode": str, "chunk_size": int,
              "num_threads": int}

#: Every job kind, by name, in ``repro submit`` order.  Service-level
#: scheduling parameters (``priority``, ``deadline``) never appear:
#: admission's :func:`~repro.serve.admission.split_service_params`
#: strips them first, so the same work at two priorities is still one
#: cached artifact.
KINDS = {kind.name: kind for kind in (
    JobKind("record", {**_SIMULATED, "simultaneous": int},
            _run_spec(RunSpec.record, "mode"), _run_record),
    JobKind("replay", {**_SIMULATED, "use_strata": bool,
                       "perturb_seed": int},
            _run_spec(RunSpec.replay, "mode"), _run_replay),
    JobKind("consistency", {**_COMMON, "model": str, "num_threads": int,
                            "collect_trace": bool},
            _run_spec(RunSpec.consistency, "model"), _run_consistency),
    JobKind("explore", {**_SIMULATED, "schedule_seed": int},
            _run_spec(RunSpec.explore, "mode"), _run_explore),
    JobKind("chaos", {**_COMMON, "mode": str, "plan_seed": int,
                      "fault_count": int, "checkpoint_every": int},
            _campaign_spec, _run_chaos,
            defaults={"app": "fft", "mode": "order_only", "scale": 0.25,
                      "seed": 1, "plan_seed": 7, "fault_count": 12,
                      "checkpoint_every": 32}),
    JobKind("salvage", {"recording_hash": str, "max_events": int},
            _campaign_spec, _run_salvage,
            defaults={"max_events": None}),
)}


def job_kind(name: str) -> JobKind:
    """The table entry of ``name``; a :class:`ConfigurationError`
    names the known kinds otherwise."""
    try:
        return KINDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown job kind {name!r} "
            f"(expected one of {', '.join(KINDS)})") from None


def _coerce(expected: type, value):
    """``value`` as ``expected``, refusing conversions that change it:
    bool params take only bools and no other param takes one, and int
    params take no fractional number."""
    if (expected is bool) != isinstance(value, bool):
        raise TypeError(value)
    if expected is int and isinstance(value, float) \
            and not value.is_integer():
        raise ValueError(value)
    return expected(value)


def validate_params(kind: str, params: dict) -> dict:
    """Check and coerce a raw parameter dictionary for ``kind``.

    Returns a new dictionary with every value coerced to its declared
    type; raises :class:`ConfigurationError` on an unknown kind, an
    unknown parameter (so a typo fails fast instead of hashing into a
    never-hit cache key), or a value that does not convert exactly.
    """
    allowed = job_kind(kind).params
    if not isinstance(params, dict):
        raise ConfigurationError(
            f"{kind} params must be an object, got "
            f"{type(params).__name__}")
    clean: dict = {}
    for name, value in params.items():
        if name not in allowed:
            raise ConfigurationError(
                f"{kind} jobs take no parameter {name!r} "
                f"(allowed: {', '.join(sorted(allowed))})")
        try:
            clean[name] = _coerce(allowed[name], value)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"{kind} parameter {name!r} must be "
                f"{allowed[name].__name__}, got {value!r}") from None
    return clean


def build_job_spec(kind: str, params: dict):
    """Resolve a ``(kind, params)`` request to its frozen,
    content-hashed spec (a :class:`RunSpec` or a
    :class:`CampaignSpec`)."""
    entry = job_kind(kind)
    return entry.build(entry, validate_params(kind, params))


def execute_spec(spec, cache=None) -> dict:
    """Run one spec of any kind to completion and return its artifact.

    ``cache`` (a :class:`~repro.runner.cache.ResultCache`) lets jobs
    with dependencies -- a replay needs its recording, a salvage its
    recording's artifact -- reuse and populate cached intermediates
    instead of recomputing them.  Module-level, so it crosses the
    process-pool boundary as every pool's and the service's default
    ``job_fn``.
    """
    return job_kind(spec.kind).execute(spec, cache)


def recording_from_artifact(artifact: dict):
    """Materialize a fresh :class:`Recording` from a record artifact.

    Artifacts may come from another host, so only DLRN v3 payloads are
    read; a v1/v2 payload (a pickled trailer) raises
    :class:`~repro.errors.LogFormatError`.
    """
    if artifact.get("payload_codec") != "dlrn":
        raise ValueError(
            f"not a record artifact (codec "
            f"{artifact.get('payload_codec')!r})")
    return load_recording(base64.b64decode(artifact["payload"]),
                          legacy=False)


def result_from_artifact(artifact: dict):
    """Materialize the replay/consistency result object."""
    if artifact.get("payload_codec") != "pickle":
        raise ValueError(
            f"not a pickled-result artifact (codec "
            f"{artifact.get('payload_codec')!r})")
    return pickle.loads(base64.b64decode(artifact["payload"]))


def _raise_timeout(signum, frame):
    raise JobTimeout()


def invoke(job_fn, spec: RunSpec, timeout: float | None,
           cache_root, cache_salt) -> dict:
    """Pool entry point: run ``job_fn(spec, cache)`` under a hard
    per-job timeout and map every outcome to a picklable envelope.

    Returns ``{"ok": True, "artifact": ..., "wall_time": ...}`` or
    ``{"ok": False, "error_type": ..., "message": ...,
    "traceback": ..., "wall_time": ...}``.  Never raises: exceptions
    (and their tracebacks) travel as data so an exotic unpicklable
    error cannot wedge the executor.
    """
    from repro.runner.cache import ResultCache

    cache = (ResultCache(cache_root, cache_salt)
             if cache_root is not None else None)
    started = time.perf_counter()
    alarm_set = False
    previous_handler = None
    watchdog = None
    if timeout and hasattr(signal, "SIGALRM"):
        try:
            previous_handler = signal.signal(signal.SIGALRM,
                                             _raise_timeout)
            signal.setitimer(signal.ITIMER_REAL, timeout)
            alarm_set = True
        except ValueError:
            # Not the main thread: fall through to the watchdog timer.
            pass
    if timeout and not alarm_set:
        # Worker threads and non-unix platforms: enforce the deadline
        # with an async-raise watchdog instead of dropping enforcement
        # (the pool's deadline sweep backstops C-level blocking).
        from repro.guard.watchdog import WatchdogTimer

        watchdog = WatchdogTimer(timeout, JobTimeout).start()
    try:
        artifact = job_fn(spec, cache)
        return {"ok": True, "artifact": artifact,
                "wall_time": time.perf_counter() - started}
    except JobTimeout:
        return {
            "ok": False,
            "error_type": "JobTimeout",
            "message": f"job exceeded its {timeout:g}s budget",
            "traceback": "",
            "wall_time": time.perf_counter() - started,
        }
    except BaseException as error:  # noqa: BLE001 -- envelope, not loss
        return {
            "ok": False,
            "error_type": type(error).__name__,
            "message": str(error),
            "traceback": traceback.format_exc(),
            "wall_time": time.perf_counter() - started,
        }
    finally:
        if alarm_set:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous_handler)
        if watchdog is not None:
            watchdog.cancel()
