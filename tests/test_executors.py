"""Tests for the pluggable executor backends.

The contract that makes backends interchangeable: a job is a pure
function of its content-hashed spec, so the same spec must produce a
byte-identical artifact on every backend.  These tests pin that
parity across the inline and process-pool substrates, plus the
lifecycle and resolution rules the runner and the serve layer rely
on.
"""

from __future__ import annotations

import pytest

from repro.core.modes import ExecutionMode
from repro.errors import ConfigurationError
from repro.runner import ResultCache, Runner, RunSpec, execute_spec
from repro.runner.cache import encode_artifact
from repro.runner.executors import (
    BACKENDS,
    ExecutorBackend,
    InlineBackend,
    ProcessPoolBackend,
    RemoteWorkerBackend,
    resolve_backend,
)
from repro.runner.jobs import invoke

SCALE = 0.05
SEED = 3


def record_spec(**kwargs):
    kwargs.setdefault("scale", SCALE)
    kwargs.setdefault("seed", SEED)
    return RunSpec.record("fft", ExecutionMode.ORDER_ONLY, **kwargs)


def _boom():
    raise RuntimeError("boom")


class TestInlineBackend:
    def test_submit_returns_completed_future(self):
        backend = InlineBackend()
        future = backend.submit(lambda x: x * 2, 21)
        assert future.done()
        assert future.result() == 42

    def test_exception_travels_in_future(self):
        backend = InlineBackend()
        future = backend.submit(_boom)
        assert future.done()
        with pytest.raises(RuntimeError, match="boom"):
            future.result()

    def test_not_parallel(self):
        assert InlineBackend().capacity(4) == 1
        assert InlineBackend.name == "inline"


class TestCapacity:
    def test_each_backend_reports_what_it_runs_at_once(self):
        narrow_pool = ProcessPoolBackend(max_workers=1)
        assert ProcessPoolBackend().capacity(4) == 4
        assert ProcessPoolBackend(max_workers=2).capacity(4) == 2
        assert narrow_pool.capacity(4) == 1
        assert RemoteWorkerBackend(fallback=narrow_pool).capacity(4) == 1
        assert RemoteWorkerBackend().capacity(4) == 1  # inline fallback


class TestResolveBackend:
    def test_none_serial_picks_inline(self):
        assert isinstance(resolve_backend(None, 1), InlineBackend)

    def test_none_parallel_picks_process(self):
        backend = resolve_backend(None, 4)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 4

    def test_names_resolve(self):
        assert isinstance(resolve_backend("inline", 8), InlineBackend)
        assert isinstance(resolve_backend("process", 2),
                          ProcessPoolBackend)

    def test_instance_passes_through(self):
        backend = InlineBackend()
        assert resolve_backend(backend, 8) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            resolve_backend("quantum", 1)

    def test_registry_is_the_cli_surface(self):
        assert set(BACKENDS) == {"inline", "process", "remote"}


class TestProcessPoolLifecycle:
    def test_restart_rebuilds_the_pool(self):
        backend = ProcessPoolBackend(max_workers=1)
        backend.start(1)
        first = backend._pool
        backend.restart(1)
        assert backend._pool is not first
        assert backend.submit(int, "7").result(timeout=60) == 7
        backend.shutdown()

    def test_submit_without_start_self_provisions(self):
        backend = ProcessPoolBackend(max_workers=1)
        assert backend.submit(int, "5").result(timeout=60) == 5
        backend.shutdown()

    def test_shutdown_is_idempotent(self):
        backend = ProcessPoolBackend(max_workers=1)
        backend.start(1)
        backend.shutdown()
        backend.shutdown()
        assert backend._pool is None


class TestCrossBackendParity:
    def test_byte_identical_artifacts(self, tmp_path):
        """The same spec yields the same bytes on every substrate."""
        spec = record_spec()
        encodings = {}
        for backend in (InlineBackend(),
                        ProcessPoolBackend(max_workers=1)):
            backend.start(1)
            try:
                envelope = backend.submit(
                    invoke, execute_spec, spec, None,
                    str(tmp_path / backend.name), "parity-salt",
                ).result(timeout=300)
            finally:
                backend.shutdown()
            assert envelope["ok"], envelope
            encodings[backend.name] = \
                encode_artifact(envelope["artifact"])
        assert encodings["inline"] == encodings["process"]

    def test_envelope_failure_shape_matches(self, tmp_path):
        spec = RunSpec.record("no-such-app", ExecutionMode.ORDER_ONLY,
                              scale=SCALE, seed=SEED)
        shapes = {}
        for backend in (InlineBackend(),
                        ProcessPoolBackend(max_workers=1)):
            backend.start(1)
            try:
                envelope = backend.submit(
                    invoke, execute_spec, spec, None,
                    str(tmp_path / backend.name), "parity-salt",
                ).result(timeout=300)
            finally:
                backend.shutdown()
            assert not envelope["ok"]
            shapes[backend.name] = (envelope["error_type"],
                                    envelope["message"])
        assert shapes["inline"] == shapes["process"]


class TestRunnerBackendChoice:
    def test_explicit_backend_is_honored(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", salt="test-salt")
        with Runner(jobs=1, cache=cache, executor="process") as runner:
            assert runner.backend.name == "process"
            outcomes = runner.run([record_spec()])
        assert all(o.ok for o in outcomes)

    def test_injected_instance_is_not_shut_down(self, tmp_path):
        backend = InlineBackend()
        cache = ResultCache(tmp_path / "cache", salt="test-salt")
        runner = Runner(jobs=1, cache=cache, executor=backend)
        assert runner.backend is backend
        outcomes = runner.run([record_spec()])
        assert all(o.ok for o in outcomes)

    def test_abstract_backend_rejects_submit(self):
        with pytest.raises(NotImplementedError):
            ExecutorBackend().submit(int, "1")
