"""repro.runner: parallel experiment execution with result caching.

The experiment-execution engine behind ``python -m repro bench`` and
``benchmarks/harness.py``:

* :class:`RunSpec` -- canonical, content-hashed description of one
  simulation run, and :class:`CampaignSpec` its counterpart for the
  campaign job kinds (:mod:`repro.runner.specs`);
* :data:`KINDS` -- every job kind's parameters, spec builder and
  executor, declared once (:mod:`repro.runner.jobs`);
* :class:`ResultCache` -- content-addressed on-disk artifact store
  under ``.repro-cache/`` (:mod:`repro.runner.cache`);
* :class:`Runner` -- process-pool fan-out with per-job timeouts,
  bounded retry and structured failures (:mod:`repro.runner.pool`,
  :mod:`repro.runner.retry`);
* :class:`Reporter` / :class:`RunnerMetrics` -- pluggable progress and
  counters (:mod:`repro.runner.reporting`);
* the figure registry mapping the paper's evaluation sweeps to spec
  batches (:mod:`repro.runner.figures`).
"""

from repro.runner.cache import GCReport, ResultCache, source_tree_salt
from repro.runner.executors import (
    BACKENDS,
    ExecutorBackend,
    InlineBackend,
    ProcessPoolBackend,
    resolve_backend,
)
from repro.runner.jobs import (
    KINDS,
    build_job_spec,
    execute_spec,
    recording_from_artifact,
    trace_from_artifact,
)
from repro.runner.pool import JobOutcome, Runner, RunnerError
from repro.runner.reporting import (
    ConsoleReporter,
    JSONLReporter,
    NullReporter,
    Reporter,
    RunnerMetrics,
    reporter_from_option,
)
from repro.runner.retry import AttemptFailure, FailureRecord, RetryPolicy
from repro.runner.specs import CampaignSpec, RunSpec

__all__ = [
    "AttemptFailure",
    "BACKENDS",
    "CampaignSpec",
    "ConsoleReporter",
    "ExecutorBackend",
    "FailureRecord",
    "GCReport",
    "InlineBackend",
    "JSONLReporter",
    "JobOutcome",
    "KINDS",
    "NullReporter",
    "ProcessPoolBackend",
    "Reporter",
    "ResultCache",
    "RetryPolicy",
    "Runner",
    "RunnerError",
    "RunnerMetrics",
    "RunSpec",
    "resolve_backend",
    "build_job_spec",
    "execute_spec",
    "recording_from_artifact",
    "source_tree_salt",
    "trace_from_artifact",
]
