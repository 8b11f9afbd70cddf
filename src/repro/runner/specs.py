"""Canonical run specifications and their content hashes.

A :class:`RunSpec` names one simulation run -- the experiment suite's
unit of work: recording an app under a DeLorean mode, replaying such a
recording, or executing the app on a conventional (interleaved)
machine under a consistency model.  Two properties make it the key of
the result cache:

* **Canonical** -- a spec resolves to one fully-specified dictionary
  (workload, seed, scale, mode/model knobs, and the *complete*
  :class:`~repro.machine.timing.MachineConfig`, defaults included).
  Changing any machine default in the source therefore changes the
  canonical form, which automatically invalidates stale artifacts.
* **Content-addressed** -- :meth:`RunSpec.content_hash` is the SHA-256
  of the canonical JSON encoding (sorted keys, floats via ``repr``),
  so the hash is stable across processes, interpreter runs and hosts.

Specs are small frozen dataclasses: hashable, picklable (they cross
the process-pool boundary) and order-insensitive to construct.

The job kinds that are not a single simulation run (``chaos`` and
``salvage``) get a :class:`CampaignSpec` with the same
``canonical()``/``content_hash()``/``label()`` surface, so the result
cache and the job envelope treat every kind alike.  The kind table in
:mod:`repro.runner.jobs` builds both.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

from repro.baselines import ConsistencyModel
from repro.core.modes import ExecutionMode
from repro.errors import ConfigurationError
from repro.machine.timing import MachineConfig

#: Bump when the artifact schema or job semantics change in a way that
#: must invalidate every cached result regardless of spec equality.
SPEC_SCHEMA_VERSION = 1

#: Schema stamp of campaign-spec canonical forms (the cache
#: invalidation lever of the campaign kinds, independent of RunSpec's).
#: Schema 2 resolves every parameter default into the spec.
CAMPAIGN_SCHEMA = 2

#: The field that configures each RunSpec kind's run.
_CONFIG_FIELD = {"record": "mode", "replay": "mode", "explore": "mode",
                 "consistency": "model"}


def _canon(value):
    """JSON-stable canonical form: floats via repr, enums via value."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {key: _canon(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    if isinstance(value, (ExecutionMode, ConsistencyModel)):
        return value.value
    return value


class _ContentHashed:
    """The cache-key surface shared by both spec types: the SHA-256 of
    the canonical JSON encoding of :meth:`canonical`.

    Specs are frozen, so the encoding is computed once per spec object
    and kept in its ``__dict__`` under a name that is not a dataclass
    field: ``==``, ``hash`` and :func:`dataclasses.replace` see only
    fields, and :meth:`__getstate__` leaves it out of pickles and
    copies.  Only the immutable string is kept; :meth:`canonical`
    still builds a fresh dict on every call, since callers embed it in
    artifacts.
    """

    def canonical_json(self) -> str:
        """Canonical JSON encoding (the hashed byte stream)."""
        encoded = self.__dict__.get("_canonical_json")
        if encoded is None:
            encoded = json.dumps(self.canonical(), sort_keys=True,
                                 separators=(",", ":"))
            object.__setattr__(self, "_canonical_json", encoded)
        return encoded

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_canonical_json", None)
        return state

    def content_hash(self) -> str:
        """SHA-256 of the canonical encoding; the cache key."""
        return hashlib.sha256(
            self.canonical_json().encode()).hexdigest()


@dataclass(frozen=True)
class RunSpec(_ContentHashed):
    """One fully-determined simulation run.

    ``kind`` selects the job: ``record`` (DeLorean initial execution),
    ``replay`` (perturbed deterministic replay of the corresponding
    record spec), ``consistency`` (conventional interleaved run) or
    ``explore`` (one schedule-perturbed supervised record, the
    schedule explorer's unit of work).
    ``machine_overrides`` is a sorted tuple of ``(field, value)`` pairs
    applied on top of the Table 5 :class:`MachineConfig` defaults.

    The ``schedule_*`` fields are the explicit schedule identity of an
    ``explore`` run (the :class:`~repro.core.arbiter.SchedulePlan` wire
    form).  They participate in :meth:`canonical` like every other
    field, so each explored schedule is content-addressable: the same
    (workload, machine, plan) triple hashes identically on every
    platform and its outcome caches soundly.
    """

    kind: str
    app: str
    mode: str = ""              # ExecutionMode value, record/replay
    model: str = ""             # ConsistencyModel value, consistency
    chunk_size: int = 0         # 0 = the mode's preferred size
    scale: float = 1.0
    seed: int = 11
    use_strata: bool = False    # replay from the stratified PI log
    perturb_seed: int | None = None   # None = noise-free replay
    collect_trace: bool = False       # consistency: keep access trace
    schedule_seed: int | None = None  # explore: PCT priority seed
    schedule_prefix: tuple = ()       # explore: prescribed grant order
    schedule_change_points: tuple = ()  # explore: PCT demotion points
    machine_overrides: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        config = _CONFIG_FIELD.get(self.kind)
        if config is None:
            raise ConfigurationError(
                f"unknown run kind {self.kind!r} (expected one of "
                f"{', '.join(_CONFIG_FIELD)})")
        if not getattr(self, config):
            raise ConfigurationError(
                f"{self.kind} specs need a {config}")
        if not 0 < self.scale < math.inf:
            raise ConfigurationError(
                f"scale must be finite and above 0, got {self.scale!r}")
        object.__setattr__(self, "machine_overrides",
                           tuple(sorted(tuple(pair) for pair in
                                        self.machine_overrides)))
        object.__setattr__(self, "schedule_prefix",
                           tuple(int(p) for p in self.schedule_prefix))
        object.__setattr__(
            self, "schedule_change_points",
            tuple(sorted(int(c) for c in self.schedule_change_points)))

    # -- constructors ---------------------------------------------------

    @classmethod
    def record(cls, app: str, mode, *, chunk_size: int = 0,
               num_threads: int = 8, simultaneous: int = 0,
               scale: float = 1.0, seed: int = 11) -> "RunSpec":
        """Spec of one recording (the harness ``record_app`` unit)."""
        overrides = [("num_processors", num_threads)]
        if simultaneous:
            overrides.append(("simultaneous_chunks", simultaneous))
        mode = mode.value if isinstance(mode, ExecutionMode) else mode
        return cls(kind="record", app=app, mode=mode,
                   chunk_size=chunk_size, scale=scale, seed=seed,
                   machine_overrides=tuple(overrides))

    @classmethod
    def replay(cls, app: str, mode, *, use_strata: bool = False,
               perturb_seed: int | None = None, chunk_size: int = 0,
               num_threads: int = 8, scale: float = 1.0,
               seed: int = 11) -> "RunSpec":
        """Spec of one perturbed replay (Section 6.2.1 methodology).

        ``perturb_seed=None`` picks the harness default, which derives
        the paper's replay-noise seed from the workload seed.
        """
        if perturb_seed is None:
            perturb_seed = seed * 13 + 7
        mode = mode.value if isinstance(mode, ExecutionMode) else mode
        return cls(kind="replay", app=app, mode=mode,
                   chunk_size=chunk_size, scale=scale, seed=seed,
                   use_strata=use_strata, perturb_seed=perturb_seed,
                   machine_overrides=(("num_processors", num_threads),))

    @classmethod
    def explore(cls, app: str, mode, *, schedule_seed: int | None = None,
                prefix: tuple = (), change_points: tuple = (),
                num_threads: int = 8, chunk_size: int = 0,
                scale: float = 1.0, seed: int = 11) -> "RunSpec":
        """Spec of one schedule-perturbed supervised record (the
        explorer's unit of work; see :mod:`repro.explore`)."""
        mode = mode.value if isinstance(mode, ExecutionMode) else mode
        return cls(kind="explore", app=app, mode=mode,
                   chunk_size=chunk_size, scale=scale, seed=seed,
                   schedule_seed=schedule_seed,
                   schedule_prefix=tuple(prefix),
                   schedule_change_points=tuple(change_points),
                   machine_overrides=(("num_processors", num_threads),))

    @classmethod
    def consistency(cls, app: str, model, *, num_threads: int = 8,
                    collect_trace: bool = False, scale: float = 1.0,
                    seed: int = 11) -> "RunSpec":
        """Spec of one conventional-machine (SC/PC/RC) run."""
        model = (model.value if isinstance(model, ConsistencyModel)
                 else model)
        return cls(kind="consistency", app=app, model=model,
                   scale=scale, seed=seed, collect_trace=collect_trace,
                   machine_overrides=(("num_processors", num_threads),))

    # -- resolution -----------------------------------------------------

    def execution_mode(self) -> ExecutionMode:
        """The resolved DeLorean execution mode."""
        return ExecutionMode(self.mode)

    def consistency_model(self) -> ConsistencyModel:
        """The resolved consistency model."""
        return ConsistencyModel(self.model)

    def machine_config(self) -> MachineConfig:
        """Table 5 defaults with this spec's overrides applied."""
        return MachineConfig(**dict(self.machine_overrides))

    def schedule_plan(self):
        """The resolved :class:`~repro.core.arbiter.SchedulePlan` of an
        explore spec."""
        from repro.core.arbiter import SchedulePlan

        if self.kind != "explore":
            raise ConfigurationError(
                f"{self.kind} specs have no schedule plan")
        return SchedulePlan(seed=self.schedule_seed,
                            prefix=self.schedule_prefix,
                            change_points=self.schedule_change_points)

    @property
    def num_threads(self) -> int:
        """Worker/processor count the spec runs with."""
        return dict(self.machine_overrides).get("num_processors", 8)

    def record_spec(self) -> "RunSpec":
        """The record spec a replay spec depends on."""
        if self.kind != "replay":
            raise ConfigurationError(
                f"{self.kind} specs have no record dependency")
        return RunSpec.record(
            self.app, self.mode, chunk_size=self.chunk_size,
            num_threads=self.num_threads, scale=self.scale,
            seed=self.seed)

    def dependencies(self) -> tuple["RunSpec", ...]:
        """Specs whose artifacts this spec's job consumes."""
        if self.kind == "replay":
            return (self.record_spec(),)
        return ()

    # -- hashing --------------------------------------------------------

    def canonical(self) -> dict:
        """The fully-resolved, JSON-stable dictionary form."""
        data = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "machine_overrides"}
        data["schema"] = SPEC_SCHEMA_VERSION
        data["machine"] = asdict(self.machine_config())
        return _canon(data)

    def label(self) -> str:
        """Short human-readable job label for progress reporting."""
        what = self.mode or self.model
        extras = []
        if self.chunk_size:
            extras.append(f"chunk={self.chunk_size}")
        if self.use_strata:
            extras.append("strata")
        if self.kind == "explore":
            if self.schedule_seed is not None:
                extras.append(f"sched={self.schedule_seed}")
            if self.schedule_prefix:
                extras.append(f"prefix={len(self.schedule_prefix)}")
            if self.schedule_change_points:
                extras.append(f"cp={len(self.schedule_change_points)}")
        if self.num_threads != 8:
            extras.append(f"p={self.num_threads}")
        suffix = f" [{' '.join(extras)}]" if extras else ""
        return f"{self.kind}:{self.app}/{what}{suffix}"


@dataclass(frozen=True)
class CampaignSpec(_ContentHashed):
    """Content-hashed spec of a campaign kind (``chaos`` or
    ``salvage``).

    ``params`` is a sorted tuple of ``(name, value)`` pairs, so the
    dataclass stays hashable and order-insensitive to construct.  The
    kind table resolves every default into it, so the same work
    always hashes the same whichever params the request spelled out.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "params",
            tuple(sorted((str(k), v) for k, v in self.params)))

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    def canonical(self) -> dict:
        """The fully-resolved, JSON-stable dictionary form."""
        return _canon({**self.param_dict, "schema": CAMPAIGN_SCHEMA,
                       "kind": self.kind})

    def label(self) -> str:
        """Short human-readable job label for progress reporting."""
        params = self.param_dict
        app = params.get("app") or \
            params.get("recording_hash", "")[:12]
        return f"{self.kind}:{app}" if app else self.kind
