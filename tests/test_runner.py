"""Tests for the repro.runner execution engine.

Covers the canonical spec hashing (including stability across
interpreter processes), the content-addressed cache round-trip and its
determinism guard, the pool's timeout -> retry -> structured-failure
path, worker-crash recovery, and the wave scheduling that lets a
replay job reuse its cached recording.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.baselines import ConsistencyModel, InterleavedExecutor
from repro.core.delorean import DeLoreanSystem
from repro.core.modes import ExecutionMode
from repro.core.replayer import ReplayPerturbation
from repro.errors import ConfigurationError, LogFormatError
from repro.runner import (
    ResultCache,
    Runner,
    RunnerError,
    RunSpec,
    execute_spec,
)
from repro.runner.cache import encode_artifact
from repro.runner.executors import ProcessPoolBackend
from repro.runner.figures import resolve_figures, specs_for
from repro.runner.jobs import (
    KINDS,
    TRACE_COLUMNS,
    build_job_spec,
    program_for,
    recording_from_artifact,
    trace_from_artifact,
    validate_params,
)
from repro.runner.reporting import Reporter
from repro.runner.retry import RetryPolicy
from repro.workloads import _memo_program

SCALE = 0.05
SEED = 3


def record_spec(app="fft", mode=ExecutionMode.ORDER_ONLY, **kwargs):
    kwargs.setdefault("scale", SCALE)
    kwargs.setdefault("seed", SEED)
    return RunSpec.record(app, mode, **kwargs)


def fresh_cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache", salt="test-salt")


# -- specs ------------------------------------------------------------


class TestRunSpec:
    def test_equal_specs_equal_hash(self):
        assert record_spec().content_hash() == \
            record_spec().content_hash()

    def test_any_field_changes_hash(self):
        base = record_spec()
        variants = [
            record_spec(app="lu"),
            record_spec(mode=ExecutionMode.PICOLOG),
            record_spec(chunk_size=1000),
            record_spec(scale=0.06),
            record_spec(seed=4),
            record_spec(num_threads=4),
            record_spec(simultaneous=4),
        ]
        hashes = {spec.content_hash() for spec in variants}
        assert base.content_hash() not in hashes
        assert len(hashes) == len(variants)

    def test_machine_override_order_is_canonical(self):
        one = RunSpec(kind="record", app="fft", mode="order_only",
                      machine_overrides=(("num_processors", 4),
                                         ("simultaneous_chunks", 4)))
        two = RunSpec(kind="record", app="fft", mode="order_only",
                      machine_overrides=(("simultaneous_chunks", 4),
                                         ("num_processors", 4)))
        assert one.content_hash() == two.content_hash()

    def test_canonical_includes_full_machine_config(self):
        canonical = record_spec(num_threads=4).canonical()
        assert canonical["machine"]["num_processors"] == 4
        # Defaults are resolved in, so changing a default in code
        # invalidates cached artifacts automatically.
        assert "standard_chunk_size" in canonical["machine"]

    def test_replay_depends_on_its_record(self):
        replay = RunSpec.replay("fft", ExecutionMode.ORDER_ONLY,
                                scale=SCALE, seed=SEED)
        (dependency,) = replay.dependencies()
        assert dependency == record_spec()
        assert record_spec().dependencies() == ()

    def test_replay_default_perturb_seed_derives_from_seed(self):
        replay = RunSpec.replay("fft", ExecutionMode.ORDER_ONLY,
                                seed=11)
        assert replay.perturb_seed == 11 * 13 + 7

    def test_kind_validation(self):
        with pytest.raises(ConfigurationError):
            RunSpec(kind="bogus", app="fft")
        with pytest.raises(ConfigurationError):
            RunSpec(kind="record", app="fft")   # mode missing
        with pytest.raises(ConfigurationError):
            RunSpec(kind="consistency", app="fft")  # model missing

    @pytest.mark.parametrize("scale", [
        0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_out_of_range_scale_rejected_at_construction(self, scale):
        builds = [
            lambda: RunSpec(kind="record", app="fft", mode="order_only",
                            scale=scale),
            lambda: RunSpec.record("fft", "order_only", scale=scale),
            lambda: RunSpec.replay("fft", "order_only", scale=scale),
            lambda: RunSpec.explore("fft", "order_only", scale=scale),
            lambda: RunSpec.consistency("fft", "sc", scale=scale),
            lambda: build_job_spec("record", {"scale": scale}),
        ]
        for build in builds:
            with pytest.raises(ConfigurationError,
                               match="scale must be finite and above 0"):
                build()

    @pytest.mark.parametrize("build", [
        record_spec, lambda: build_job_spec("chaos", {"app": "lu"})])
    def test_encoding_computed_once_and_kept_out_of_identity(self, build):
        """The canonical encoding is built once per spec object and is
        not part of the spec: equality, hashing, ``replace``, pickles
        and copies see only the fields."""
        spec, fresh = build(), build()
        digest = spec.content_hash()
        assert spec.canonical_json() is spec.canonical_json()
        assert spec == fresh and hash(spec) == hash(fresh)
        assert pickle.dumps(spec) == pickle.dumps(fresh)
        for copied in (pickle.loads(pickle.dumps(spec)),
                       copy.deepcopy(spec), copy.copy(spec),
                       dataclasses.replace(spec)):
            assert "_canonical_json" not in vars(copied)
            assert copied == spec and copied.content_hash() == digest
        # The mutable dict artifacts embed is still built per call.
        assert spec.canonical() is not spec.canonical()

    def test_hash_stable_across_processes(self):
        spec = record_spec()
        code = (
            "from repro.runner import RunSpec\n"
            "from repro.core.modes import ExecutionMode\n"
            f"spec = RunSpec.record('fft', ExecutionMode.ORDER_ONLY, "
            f"scale={SCALE!r}, seed={SEED})\n"
            "print(spec.content_hash())\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + \
            env.get("PYTHONPATH", "")
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True).stdout.strip()
            for _ in range(2)
        }
        assert outputs == {spec.content_hash()}


# -- cache ------------------------------------------------------------


class TestResultCache:
    def test_miss_store_hit_round_trip(self, tmp_path):
        cache = fresh_cache(tmp_path)
        spec = record_spec()
        assert cache.load(spec) is None
        artifact = execute_spec(spec)
        path = cache.store(spec, artifact)
        assert path.is_file()
        loaded = cache.load(spec)
        assert loaded == artifact
        assert cache.counters() == {"hits": 1, "misses": 1,
                                    "stores": 1, "evictions": 0}
        assert cache.hit_rate == 0.5

    def test_corrupt_artifact_is_dropped(self, tmp_path):
        cache = fresh_cache(tmp_path)
        spec = record_spec()
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.load(spec) is None
        assert not path.exists()

    def test_foreign_artifact_is_rejected(self, tmp_path):
        cache = fresh_cache(tmp_path)
        spec = record_spec()
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"spec_hash": "somebody-else"}))
        assert cache.load(spec) is None

    def test_salt_partitions_namespaces(self, tmp_path):
        spec = record_spec()
        artifact = execute_spec(spec)
        old = ResultCache(tmp_path / "cache", salt="code-v1")
        old.store(spec, artifact)
        new = ResultCache(tmp_path / "cache", salt="code-v2")
        assert new.load(spec) is None   # code changed: no stale hits

    def test_same_spec_yields_byte_identical_artifacts(self):
        # The determinism guard: same spec hash => byte-identical
        # artifact, for every job kind.
        specs = [
            record_spec(),
            RunSpec.replay("fft", ExecutionMode.ORDER_ONLY,
                           scale=SCALE, seed=SEED),
            RunSpec.consistency("fft", ConsistencyModel.SC,
                                scale=SCALE, seed=SEED),
            RunSpec.consistency("fft", ConsistencyModel.SC,
                                collect_trace=True, scale=SCALE,
                                seed=SEED),
        ]
        for spec in specs:
            first = encode_artifact(execute_spec(spec))
            second = encode_artifact(execute_spec(spec))
            assert first == second, spec.label()


# -- jobs -------------------------------------------------------------


class TestJobs:
    def test_runs_of_one_spec_share_the_memoized_program(self):
        spec = record_spec(scale=0.07)
        _memo_program.cache_clear()
        first = encode_artifact(execute_spec(spec))
        second = encode_artifact(execute_spec(spec))
        info = _memo_program.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert first == second
        assert program_for(spec) is program_for(spec)

    def test_zoo_programs_are_not_memoized(self):
        spec = RunSpec.record("zoo:lost-update", "order_only")
        _memo_program.cache_clear()
        first, second = program_for(spec), program_for(spec)
        assert first == second and first is not second
        assert _memo_program.cache_info().currsize == 0

    def test_record_artifact_materializes_recording(self):
        artifact = execute_spec(record_spec())
        recording = recording_from_artifact(artifact)
        assert recording.stats.cycles == \
            artifact["metrics"]["cycles"]
        # Fresh object per materialization: no shared mutable state.
        assert recording is not recording_from_artifact(artifact)

    def test_replay_artifact_is_its_metrics(self, tmp_path):
        cache = fresh_cache(tmp_path)
        spec = RunSpec.replay("fft", ExecutionMode.ORDER_ONLY,
                              scale=SCALE, seed=SEED)
        artifact = execute_spec(spec, cache)
        assert (artifact["payload_codec"], artifact["payload"]) == (
            "none", "")
        # The record dependency went through the cache.
        record_artifact = cache.load(spec.record_spec())
        recording = recording_from_artifact(record_artifact)
        result = DeLoreanSystem(
            mode=recording.mode_config.mode,
            machine_config=recording.machine_config,
            mode_config=recording.mode_config,
        ).replay(recording, perturbation=ReplayPerturbation(
            seed=spec.perturb_seed))
        assert result.determinism.matches
        assert artifact["metrics"] == {
            "cycles": result.cycles,
            "matches": True,
            "compared_chunks": result.determinism.compared_chunks,
            "summary": result.determinism.summary(),
            "record_cycles": record_artifact["metrics"]["cycles"],
            "run_stats": result.stats.as_dict(),
        }

    def test_consistency_artifact(self):
        spec = RunSpec.consistency("fft", ConsistencyModel.RC,
                                   scale=SCALE, seed=SEED)
        artifact = execute_spec(spec)
        assert artifact["metrics"]["cycles"] > 0
        assert artifact["metrics"]["trace_length"] == 0  # no trace
        assert (artifact["payload_codec"], artifact["payload"]) == (
            "none", "")
        assert "trace" not in artifact
        with pytest.raises(LogFormatError, match="no trace columns"):
            trace_from_artifact(artifact)


def traced_artifact(app: str, scale: float = SCALE) -> dict:
    """A ``collect_trace`` SC artifact as a reader gets it: through its
    canonical JSON bytes."""
    spec = RunSpec.consistency(app, ConsistencyModel.SC,
                               collect_trace=True, scale=scale,
                               seed=SEED)
    return json.loads(encode_artifact(execute_spec(spec)))


class TestTraceColumns:
    """A traced consistency artifact carries its access trace as
    integer columns, and :func:`trace_from_artifact` reads back exactly
    the executor's trace or raises :class:`LogFormatError`."""

    @pytest.mark.parametrize("app", ["lu", "sweb2005"])
    def test_trace_is_the_executors(self, app):
        spec = RunSpec.consistency(app, ConsistencyModel.SC,
                                   collect_trace=True, scale=0.2,
                                   seed=SEED)
        artifact = traced_artifact(app, scale=0.2)
        expected = InterleavedExecutor(
            program_for(spec), spec.machine_config(),
            spec.consistency_model(), collect_trace=True).run().trace
        trace = trace_from_artifact(artifact)
        assert len(trace) == artifact["metrics"]["trace_length"] > 0
        assert trace == expected
        assert any(access.is_write for access in trace)
        assert {type(access.is_write) for access in trace} == {bool}

    def test_an_empty_trace_round_trips(self):
        artifact = traced_artifact("fft")
        artifact["trace"] = {name: [] for name in TRACE_COLUMNS}
        assert trace_from_artifact(artifact) == []

    def test_seeded_column_mutations_raise_log_format_errors(self):
        artifact = traced_artifact("fft")
        rng = random.Random(33)

        def missing(trace):
            del trace[rng.choice(TRACE_COLUMNS)]

        def extra(trace):
            trace[rng.choice(["index", "cycle", ""])] = list(
                trace["line"])

        def ragged(trace):
            column = trace[rng.choice(TRACE_COLUMNS)]
            if rng.random() < 0.5:
                column.pop(rng.randrange(len(column)))
            else:
                column.insert(rng.randrange(len(column)), 1)

        def set_value(make):
            def mutate(trace):
                column = trace[rng.choice(TRACE_COLUMNS)]
                index = rng.randrange(len(column))
                column[index] = make(column[index])
            return mutate

        def non_list(trace):
            trace[rng.choice(TRACE_COLUMNS)] = rng.choice(
                [None, 3, "1,2", {"0": 1}])

        mutations = {
            "missing": missing,
            "extra": extra,
            "ragged": ragged,
            "float": set_value(float),
            "bool": set_value(lambda value: rng.random() < 0.5),
            "negative": set_value(lambda value: -1 - value),
            "string": set_value(str),
            "non-list": non_list,
        }
        seen = set()
        for _ in range(200):
            name = rng.choice(sorted(mutations) + ["non-dict"])
            seen.add(name)
            mutated = copy.deepcopy(artifact)
            if name == "non-dict":
                mutated["trace"] = rng.choice(
                    [None, [], "trace", list(mutated["trace"].values())])
            else:
                mutations[name](mutated["trace"])
            with pytest.raises(LogFormatError):
                trace_from_artifact(mutated)
        assert seen == set(mutations) | {"non-dict"}
        # A write flag is 0 or 1, so it decodes to a bool exactly.
        mutated = copy.deepcopy(artifact)
        mutated["trace"]["is_write"][0] = 2
        with pytest.raises(LogFormatError, match="is_write"):
            trace_from_artifact(mutated)
        assert trace_from_artifact(artifact)


class TestRecordArtifacts:
    """Every malformed record artifact raises LogFormatError."""

    MALFORMED = {
        "wrong codec": {"payload_codec": "pickle", "payload": ""},
        "no codec": {"payload": ""},
        "no payload": {"payload_codec": "dlrn"},
        "non-string payload": {"payload_codec": "dlrn", "payload": 7},
        "non-base64 payload": {"payload_codec": "dlrn",
                               "payload": "RExSTg==!"},
        "non-ascii payload": {"payload_codec": "dlrn",
                              "payload": "RExSTg\u00e9="},
        "not a container": {"payload_codec": "dlrn",
                            "payload": "RExSTg=="},
        "not an object": ["payload_codec", "dlrn"],
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_record_artifacts(self, name):
        with pytest.raises(LogFormatError):
            recording_from_artifact(copy.deepcopy(self.MALFORMED[name]))

    # The debugger reads a file as JSON when it starts with "{".
    @pytest.mark.parametrize("name", sorted(
        name for name, document in MALFORMED.items()
        if isinstance(document, dict)))
    def test_malformed_record_artifacts_in_the_debugger(self, name,
                                                        tmp_path):
        from repro.debugger import load_debug_target

        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(self.MALFORMED[name]))
        with pytest.raises(LogFormatError, match=str(path)):
            load_debug_target(str(path))


# -- job kinds --------------------------------------------------------

_FULL = {"app": "lu", "scale": 0.2, "seed": 5, "num_threads": 4}

#: One spec per RunSpec kind, as ``(kind, params, constructor spec,
#: content hash)``: the hashes are literal, so a refactor that changed
#: every canonical form at once still fails here.
PINNED_HASHES = [
    ("record", {}, RunSpec.record("fft", "order_only"),
     "a8197d175cea1252564af8255895f69f5e5d57667e461c49ed7f89a061ec4c64"),
    ("record",
     {**_FULL, "mode": "picolog", "chunk_size": 1000, "simultaneous": 3},
     RunSpec.record("lu", "picolog", chunk_size=1000, num_threads=4,
                    simultaneous=3, scale=0.2, seed=5),
     "9d9c8138af97a2111e4d18605d383a9a9e6b5cda353582dc6315323c55076141"),
    ("replay", {}, RunSpec.replay("fft", "order_only"),
     "33042d3bb41f3e161b2a006398f69bae00fc22f6cd2cd0727a8ce35d6e41c5b2"),
    ("replay",
     {**_FULL, "mode": "picolog", "chunk_size": 1000, "use_strata": True,
      "perturb_seed": 9},
     RunSpec.replay("lu", "picolog", use_strata=True, perturb_seed=9,
                    chunk_size=1000, num_threads=4, scale=0.2, seed=5),
     "06fbf7fba6140f6714d4ce4726acaec5b0c24b13ae95eaff7b2d747ed61d3f6b"),
    ("consistency", {}, RunSpec.consistency("fft", "sc"),
     "08ec33fd6a5f81e209901c37a13f0c6b9aa50b9ae855586b2a7be3d3dbb89058"),
    ("consistency", {**_FULL, "model": "rc", "collect_trace": True},
     RunSpec.consistency("lu", "rc", num_threads=4, collect_trace=True,
                         scale=0.2, seed=5),
     "72599fba1add58bc458f1f4349a5925013045202a34b761012056738db7e204c"),
    ("explore", {}, RunSpec.explore("fft", "order_only"),
     "0ae6e7f52d3ad3bcd8cc94cf409105f3ffde1c456d2fa1bd2e7d34f8b851c2cf"),
    ("explore",
     {**_FULL, "mode": "picolog", "chunk_size": 1000, "schedule_seed": 9},
     RunSpec.explore("lu", "picolog", schedule_seed=9, num_threads=4,
                     chunk_size=1000, scale=0.2, seed=5),
     "48ec57ed3ed07dc603d3bd5d1ff232c2c2174b86d47b6f1ce7dc9cb8d260cbb7"),
]

#: A value other than the default for every campaign-kind parameter.
_OTHER = {"app": "lu", "mode": "picolog", "scale": 0.5, "seed": 2,
          "plan_seed": 8, "fault_count": 3, "checkpoint_every": 16,
          "max_events": 1000, "recording_hash": "b" * 64}


class TestJobKinds:
    @pytest.mark.parametrize(
        "kind,params,spec,digest", PINNED_HASHES,
        ids=[f"{kind}-{'full' if params else 'empty'}"
             for kind, params, _, _ in PINNED_HASHES])
    def test_runspec_hashes_pinned(self, kind, params, spec, digest):
        assert spec.content_hash() == digest
        assert build_job_spec(kind, params).content_hash() == digest

    def test_campaign_spec_hashes_the_work_not_the_spelling(self):
        assert build_job_spec("chaos", {}).content_hash() == \
            build_job_spec("chaos", {"app": "fft", "plan_seed": 7}) \
            .content_hash()
        for name, kind in KINDS.items():
            if not kind.defaults:
                continue
            required = {param: "a" * 64 for param in kind.params
                        if param not in kind.defaults}
            base = build_job_spec(name, required).content_hash()
            for param in kind.params:
                changed = build_job_spec(
                    name, {**required, param: _OTHER[param]})
                assert changed.content_hash() != base, (name, param)

    @pytest.mark.parametrize("name,value", [
        ("seed", True), ("num_threads", 2.9), ("scale", True)])
    def test_params_reject_silent_coercion(self, name, value):
        with pytest.raises(ConfigurationError, match=repr(name)):
            validate_params("record", {name: value})

    def test_params_keep_exact_conversions(self):
        assert validate_params(
            "record", {"seed": "03", "num_threads": 2.0, "scale": 1}) == \
            {"seed": 3, "num_threads": 2, "scale": 1.0}

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_every_kind_runs_through_the_job_path(self, kind, tmp_path):
        cache = fresh_cache(tmp_path)
        if kind == "salvage":
            record = build_job_spec("record", {"scale": SCALE})
            params = {"recording_hash":
                      cache.get_or_compute(record,
                                           execute_spec)["spec_hash"]}
        else:
            params = {"scale": SCALE}
        spec = build_job_spec(kind, params)
        artifact = execute_spec(spec, cache)
        assert artifact["kind"] == kind
        assert artifact["spec_hash"] == spec.content_hash()

    def test_submit_offers_exactly_the_table_kinds(self):
        from repro.cli import build_parser

        commands = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
        submit = commands.choices["submit"]
        (kind,) = [action for action in submit._actions
                   if action.dest == "kind"]
        assert list(kind.choices) == list(KINDS)


# -- runner: success paths -------------------------------------------


class _Events(Reporter):
    def __init__(self):
        self.started = 0
        self.done = []
        self.retries = []
        self.failed = []
        self.finished = None

    def on_start(self, total_jobs):
        self.started = total_jobs

    def on_job_done(self, spec, *, from_cache, wall_time, metrics):
        self.done.append((spec.label(), from_cache))

    def on_retry(self, spec, attempt, delay, error):
        self.retries.append((spec.label(), attempt, error))

    def on_job_failed(self, spec, error, metrics):
        self.failed.append((spec.label(), error))

    def on_finish(self, metrics):
        self.finished = metrics.snapshot()


class TestRunnerSuccess:
    def test_inline_run_and_cache_hit(self, tmp_path):
        cache = fresh_cache(tmp_path)
        events = _Events()
        runner = Runner(jobs=1, cache=cache, reporter=events)
        spec = record_spec()
        first = runner.run_one(spec)
        assert runner.metrics.cache_hits == 0
        again = Runner(jobs=1, cache=cache).run_one(spec)
        assert encode_artifact(first) == encode_artifact(again)
        assert events.finished["done"] == 1

    def test_dedupes_requested_specs(self, tmp_path):
        runner = Runner(jobs=1, cache=fresh_cache(tmp_path))
        outcomes = runner.run([record_spec(), record_spec()])
        assert len(outcomes) == 1
        assert runner.metrics.done == 1

    def test_pool_runs_sweep(self, tmp_path):
        cache = fresh_cache(tmp_path)
        specs = [record_spec(app=app) for app in ("fft", "lu")]
        with Runner(jobs=2, cache=cache) as runner:
            outcomes = runner.run(specs)
        assert all(outcome.ok for outcome in outcomes)
        assert runner.metrics.done == 2
        # Second sweep: pure cache.
        with Runner(jobs=2, cache=fresh_cache(tmp_path)) as rerun:
            rerun_outcomes = rerun.run(specs)
        assert all(outcome.from_cache for outcome in rerun_outcomes)
        assert rerun.metrics.cache_hit_rate == 1.0

    def test_replay_wave_reuses_cached_record(self, tmp_path):
        cache = fresh_cache(tmp_path)
        replays = [
            RunSpec.replay("fft", ExecutionMode.ORDER_ONLY,
                           scale=SCALE, seed=SEED),
            RunSpec.replay("fft", ExecutionMode.ORDER_ONLY,
                           use_strata=True, scale=SCALE, seed=SEED),
        ]
        with Runner(jobs=2, cache=cache) as runner:
            outcomes = runner.run(replays)
        assert all(outcome.ok for outcome in outcomes)
        # The shared record dependency ran as its own (cached) job.
        assert cache.load(replays[0].record_spec()) is not None
        # 2 replays + 1 injected dependency.
        assert runner.metrics.done == 3


def _stub_artifact(spec, **metrics) -> dict:
    return {"schema": 1, "kind": spec.kind, "spec": spec.canonical(),
            "spec_hash": spec.content_hash(), "metrics": metrics}


def _stub_job(spec, cache):
    return _stub_artifact(spec)


def _pid_job(spec, cache):
    time.sleep(0.5)
    return _stub_artifact(spec, pid=os.getpid())


def _short_job(spec, cache):
    time.sleep(0.3)
    return _stub_artifact(spec)


class _Order(Reporter):
    def __init__(self):
        self.events = []

    def on_job_start(self, spec, attempt):
        self.events.append(("start", spec.content_hash()))

    def on_job_done(self, spec, *, from_cache, wall_time, metrics):
        self.events.append(("done", spec.content_hash()))


class TestRunnerSlots:
    def test_inline_sweep_finishes_each_job_before_the_next(
            self, tmp_path):
        events = _Order()
        specs = [record_spec(seed=seed) for seed in (21, 22, 23)]
        runner = Runner(jobs=1, cache=fresh_cache(tmp_path),
                        reporter=events, job_fn=_stub_job)
        assert all(outcome.ok for outcome in runner.run(specs))
        assert events.events == [
            (event, spec.content_hash())
            for spec in specs for event in ("start", "done")]

    def test_slots_never_outnumber_an_injected_pools_workers(self):
        # Six slots over one worker would queue five attempts inside
        # the pool, where their sweep deadlines (1.5 s at timeout=0.5)
        # run out behind the 0.3 s jobs ahead of them.
        backend = ProcessPoolBackend(max_workers=1)
        runner = Runner(jobs=6, cache=False, timeout=0.5,
                        retry=RetryPolicy(max_attempts=1),
                        job_fn=_short_job, executor=backend)
        try:
            outcomes = runner.run(
                [record_spec(seed=seed) for seed in range(31, 37)])
        finally:
            backend.shutdown()
        assert [outcome.ok for outcome in outcomes] == [True] * 6

    def test_later_waves_get_the_full_width(self, tmp_path):
        # Wave 1 has two misses (two of the four recordings are
        # cached); wave 2's four replays still get four workers.
        cache = fresh_cache(tmp_path)
        replays = [RunSpec.replay("fft", ExecutionMode.ORDER_ONLY,
                                  scale=SCALE, seed=seed)
                   for seed in (11, 12, 13, 14)]
        for replay in replays[:2]:
            cache.store(replay.record_spec(),
                        _stub_artifact(replay.record_spec()))
        with Runner(jobs=4, cache=cache, job_fn=_pid_job) as runner:
            outcomes = runner.run(replays)
        # Wave 1: two hits, two misses; wave 2: four misses.
        assert (runner.metrics.cache_hits,
                runner.metrics.cache_misses) == (2, 6)
        pids = {outcome.artifact["metrics"]["pid"]
                for outcome in outcomes}
        assert len(pids) == 4

    def test_one_pool_serves_every_run_until_close(self):
        import multiprocessing

        pids = set()
        with Runner(jobs=2, cache=False, job_fn=_pid_job) as runner:
            for seed in range(41, 51, 2):
                outcomes = runner.run([record_spec(seed=seed),
                                       record_spec(seed=seed + 1)])
                pids |= {outcome.artifact["metrics"]["pid"]
                         for outcome in outcomes}
        # Five runs, one pair of workers (a pool per run would show
        # ten pids), and none of them outlives close().
        assert len(pids) <= 2
        alive = {child.pid for child in multiprocessing.active_children()}
        assert not pids & alive


# -- runner: failure paths -------------------------------------------

_COUNTER = "attempts.count"


def _tally(cache) -> int:
    # The runner always passes a ResultCache when caching is on; its
    # root directory doubles as scratch space for these fault jobs.
    counter = Path(str(cache.root)) / _COUNTER
    counter.parent.mkdir(parents=True, exist_ok=True)
    with open(counter, "a") as handle:
        handle.write("x")
    return counter.stat().st_size


def _always_failing_job(spec, cache):
    raise RuntimeError("synthetic job failure")


def _sleepy_job(spec, cache):
    time.sleep(30)
    return {"never": "returned"}


def _flaky_job(spec, cache):
    if _tally(cache) < 2:
        raise RuntimeError("transient flake")
    return {"schema": 1, "kind": spec.kind, "spec": spec.canonical(),
            "spec_hash": spec.content_hash(), "metrics": {"ok": 1}}


def _crashy_job(spec, cache):
    if _tally(cache) < 2:
        os._exit(13)   # hard worker death: exercises pool rebuild
    return {"schema": 1, "kind": spec.kind, "spec": spec.canonical(),
            "spec_hash": spec.content_hash(), "metrics": {"ok": 1}}


FAST_RETRY = RetryPolicy(max_attempts=2, backoff_base=0.01,
                         backoff_max=0.01)


class TestRunnerFailure:
    def test_exception_retries_then_structured_failure(self, tmp_path):
        events = _Events()
        runner = Runner(jobs=1, cache=fresh_cache(tmp_path),
                        retry=FAST_RETRY, reporter=events,
                        job_fn=_always_failing_job)
        outcome = runner.run([record_spec()])[0]
        assert not outcome.ok
        assert outcome.attempts == 2
        record = outcome.failure
        assert record.error_type == "RuntimeError"
        assert [a.attempt for a in record.attempts] == [1, 2]
        assert "synthetic job failure" in record.summary()
        assert events.retries and events.failed
        assert runner.metrics.failed == 1

    def test_interrupt_inside_an_inline_job_stops_the_sweep(self):
        """Ctrl-C is not a job failure: it leaves ``Runner.run`` after
        the one call instead of being retried."""
        calls = []

        def interrupted_job(spec, cache):
            calls.append(spec)
            raise KeyboardInterrupt

        runner = Runner(jobs=1, cache=False, job_fn=interrupted_job)
        with pytest.raises(KeyboardInterrupt):
            runner.run([record_spec()])
        assert len(calls) == 1

    def test_run_one_raises_runner_error(self, tmp_path):
        runner = Runner(jobs=1, cache=fresh_cache(tmp_path),
                        retry=RetryPolicy(max_attempts=1),
                        job_fn=_always_failing_job)
        with pytest.raises(RunnerError, match="synthetic"):
            runner.run_one(record_spec())

    @pytest.mark.skipif(not hasattr(__import__("signal"), "SIGALRM"),
                        reason="needs SIGALRM")
    def test_timeout_retries_then_structured_failure(self, tmp_path):
        events = _Events()
        runner = Runner(jobs=1, cache=fresh_cache(tmp_path),
                        timeout=0.2, retry=FAST_RETRY,
                        reporter=events, job_fn=_sleepy_job)
        started = time.perf_counter()
        outcome = runner.run([record_spec()])[0]
        assert time.perf_counter() - started < 10
        assert not outcome.ok
        assert outcome.failure.error_type == "JobTimeout"
        assert "0.2s budget" in outcome.failure.last.message
        assert len(outcome.failure.attempts) == 2

    def test_flaky_job_recovers_on_retry(self, tmp_path):
        runner = Runner(jobs=1, cache=fresh_cache(tmp_path),
                        retry=FAST_RETRY, job_fn=_flaky_job)
        outcome = runner.run([record_spec()])[0]
        assert outcome.ok
        assert outcome.attempts == 2
        assert runner.metrics.retries == 1

    def test_crashed_worker_does_not_kill_the_sweep(self, tmp_path):
        # One job hard-kills its worker once; the pool is rebuilt, the
        # job retried, and an innocent sibling job still completes.
        with Runner(jobs=2, cache=fresh_cache(tmp_path),
                    retry=RetryPolicy(max_attempts=3,
                                      backoff_base=0.01,
                                      backoff_max=0.01),
                    job_fn=_crashy_job) as runner:
            outcomes = runner.run([record_spec(app="fft"),
                                   record_spec(app="lu")])
        assert all(outcome.ok for outcome in outcomes)
        assert any(outcome.attempts > 1 for outcome in outcomes)

    def test_failure_degrades_sweep_not_kills_it(self, tmp_path):
        # A sweep mixing a doomed job with good ones finishes, with
        # the failure reported alongside the successes.
        cache = fresh_cache(tmp_path)
        good = record_spec()
        cache.store(good, execute_spec(good))
        runner = Runner(jobs=1, cache=cache, retry=FAST_RETRY,
                        job_fn=_always_failing_job)
        outcomes = runner.run([good, record_spec(app="lu")])
        assert outcomes[0].ok and outcomes[0].from_cache
        assert not outcomes[1].ok
        assert runner.metrics.done == 1
        assert runner.metrics.failed == 1


# -- figures ----------------------------------------------------------


class TestFigures:
    def test_specs_for_dedupes_shared_runs(self):
        figures = resolve_figures(["fig10", "fig11"])
        apps = ("fft", "lu")
        union = specs_for(figures, apps=apps, scale=SCALE, seed=SEED)
        separate = sum(len(fig.specs(apps, SCALE, SEED))
                       for fig in figures)
        assert len(union) < separate   # RC baselines shared
        assert len({spec.content_hash() for spec in union}) == \
            len(union)

    def test_unknown_figure_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown figure"):
            resolve_figures(["fig99"])

    def test_default_resolves_all(self):
        assert {fig.name for fig in resolve_figures([])} >= \
            {"fig06", "fig07", "fig10", "fig11"}
