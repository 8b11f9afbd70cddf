"""The three benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup`, runs
checked operations for a given number of seconds in :meth:`run`, and
returns its end-to-end figures.  Only public entry points are driven:
``DeLoreanSystem.record``/``replay``, ``save_recording``/
``load_recording``, ``Runner.run`` and the serve HTTP API through
``ServeClient``.

* ``record-replay``: one caller runs six cases -- fft (barrier
  phases), radix (conflict-heavy: squashes and signature hits) and
  sjbb2k (interrupts, DMA and I/O logs), each in OrderOnly and
  PicoLog -- through record -> save -> load -> verified replay.  The
  simulator core and DLRN serialization do the work; no runner, no
  serve.  One operation is a pass over all six cases.
* ``fig-sweep``: one caller runs the deduplicated fig10+fig11 spec
  union for lu and water-ns through ``Runner(jobs=1)`` with a fresh
  result cache per sweep, so every sweep is cold.  Only here do the
  RC/SC interleaved executor, stratified replay, the runner envelope
  and the record -> replay cache hand-off do real work.
* ``serve-mix``: a closed loop of two clients against an in-process
  ``ReproService`` + ``ServeServer`` with one inline worker.  Rounds of
  seeded jobs mix small record jobs, replays of recorded specs and
  exact resubmissions of completed specs (cache hits), so the queue
  journal, HTTP, admission and the result cache dominate.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import random
import shutil
import threading
import time

import repro.workloads as programs
from repro import DeLoreanSystem, ExecutionMode
from repro.core import serialization
from repro.errors import ServeError
from repro.runner.cache import ResultCache, encode_artifact
from repro.runner.figures import FIGURES, specs_for
from repro.runner.pool import Runner
from repro.runner.reporting import Reporter
from repro.serve.client import ServeClient
from repro.serve.http import ServeServer
from repro.serve.service import ReproService
from repro.telemetry.tracer import EventTracer

from perfbench.measure import HostSpeed, OpLog, compare, median

clock = time.perf_counter


def _build(app: str, scale: float, seed: int):
    if app in programs.COMMERCIAL_APPS:
        return programs.commercial_program(app, scale=scale, seed=seed)
    return programs.splash2_program(app, scale=scale, seed=seed)


def _digest(artifact: dict) -> str:
    return hashlib.sha256(encode_artifact(artifact)).hexdigest()


class Workload:
    """Shared bookkeeping: per-label simulated statistics, checked
    against the first observation in the run and, when the seed has
    one, the stored reference."""

    name = ""

    def __init__(self, seed: int, scratch, references: dict) -> None:
        self.seed = seed
        self.scratch = scratch
        self.references = references.get(self.name, {}).get(str(seed))
        #: label -> simulated statistics first seen in this process.
        self.observed: dict = {}

    def check(self, label: str, stats: dict) -> list:
        first = self.observed.setdefault(label, stats)
        problems = compare(f"{label} (run)", stats, first)
        if self.references is not None:
            problems += compare(f"{label} (reference)", stats,
                                self.references.get(label, {}))
        return problems

    def teardown(self, state) -> None:
        """Release what :meth:`setup` built (nothing by default)."""

    def untraced_layer_metrics(self, state) -> dict:
        """Per-layer figures measured without spans, after the untraced
        part of a traced run."""
        return {}

    def traced_layer_metrics(self, plain, traced, tracer) -> dict:
        """Per-layer figures from the untraced (``plain``) and traced
        results of a traced run."""
        return {}


class RecordReplay(Workload):
    name = "record-replay"
    CASES = (("fft", 1.0), ("radix", 0.75), ("sjbb2k", 0.6))
    MODES = (ExecutionMode.ORDER_ONLY, ExecutionMode.PICOLOG)

    def setup(self):
        return {app: _build(app, scale, self.seed)
                for app, scale in self.CASES}

    @staticmethod
    def _pipeline(program, mode):
        system = DeLoreanSystem(mode=mode)
        t0 = clock()
        recording = system.record(program)
        t1 = clock()
        blob = serialization.save_recording(recording)
        t2 = clock()
        loaded = serialization.load_recording(blob)
        t3 = clock()
        replayer = DeLoreanSystem(mode=loaded.mode_config.mode,
                                  machine_config=loaded.machine_config,
                                  mode_config=loaded.mode_config)
        result = replayer.replay(loaded)
        t4 = clock()
        times = {"record": t1 - t0, "save": t2 - t1, "load": t3 - t2,
                 "replay": t4 - t3}
        return times, recording, result

    def run(self, state, seconds, log: OpLog, speed: HostSpeed,
            tracer=None) -> dict:
        rounds = []
        deadline = clock() + seconds
        before = speed.probe()
        while True:
            # Reference-host seconds per phase, summed over the round.
            phases = dict.fromkeys(("record", "save", "load", "replay"),
                                   0.0)
            kinst = 0.0
            passed = True
            for app, _scale in self.CASES:
                for mode in self.MODES:
                    label = f"{app}/{mode.value}"
                    if tracer is not None:
                        tracer.set_case(label)
                    times = None
                    try:
                        times, recording, result = self._pipeline(
                            state[app], mode)
                        problems = [] if result.determinism.matches else [
                            f"{label}: replay diverged: "
                            f"{result.determinism.summary()}"]
                        problems += self.check(label, {
                            "record_cycles": recording.stats.cycles,
                            "instructions":
                                recording.total_committed_instructions,
                            "log_bits_compressed":
                                recording.memory_ordering
                                .total_size_bits(True),
                            "replay_cycles": result.cycles,
                        })
                    except Exception as error:  # noqa: BLE001 -- counted
                        problems = [f"{label}: {type(error).__name__}: "
                                    f"{error}"]
                    after = speed.probe()
                    factor = (before + after) / 2
                    before = after
                    if log.settle(sum(times.values()) if times else None,
                                  problems):
                        for phase, spent in times.items():
                            phases[phase] += spent / factor
                        kinst += recording.total_committed_instructions / 1e3
                    else:
                        passed = False
            if passed:
                rounds.append((phases, kinst))
            if clock() >= deadline:
                break

        def rate(phase_names):
            return median([kinst / sum(phases[p] for p in phase_names)
                           for phases, kinst in rounds]) if rounds else 0.0

        op_seconds = [sum(phases.values()) for phases, _k in rounds]
        pipeline = rate(("record", "save", "load", "replay"))
        return {
            "op_seconds": op_seconds,
            "op_ms_p50": median(op_seconds) * 1e3 if rounds else 0.0,
            "ops_per_s": (len(rounds) * len(self.CASES) * len(self.MODES)
                          / sum(op_seconds)) if rounds else 0.0,
            "sim_kips": pipeline,
            "report": {
                "record_kips": (rate(("record",)), "kinst/s"),
                "replay_kips": (rate(("replay",)), "kinst/s"),
                "pipeline_kips": (pipeline, "kinst/s"),
                "rounds": (len(rounds), "count"),
            },
        }

    def untraced_layer_metrics(self, state, repeats: int = 5) -> dict:
        """``telemetry.tracer_on_ratio``: record wall time of
        fft/OrderOnly with the program's EventTracer on, over the same
        with it off (medians of alternating runs)."""
        system = DeLoreanSystem(mode=ExecutionMode.ORDER_ONLY)
        program = state["fft"]
        on, off = [], []
        for _ in range(repeats):
            t0 = clock()
            system.record(program)
            off.append(clock() - t0)
            t0 = clock()
            system.record(program, tracer=EventTracer())
            on.append(clock() - t0)
        return {"telemetry.tracer_on_ratio": median(on) / median(off)}


class _ProbeBetweenJobs(Reporter):
    """Runner reporter that probes host speed after every job of a
    sweep, so each stretch of work is normalized by the probes on
    either side of it and the probes' own time is left out."""

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        #: (work paused at, host factor, work resumed at) per probe.
        self.marks: list = []

    def _probe(self) -> None:
        paused = clock()
        factor = self.speed.probe(slices=1)
        self.marks.append((paused, factor, clock()))

    def on_start(self, total_jobs) -> None:
        self._probe()

    def on_job_done(self, spec, from_cache, wall_time, metrics) -> None:
        self._probe()

    def on_job_failed(self, spec, error, metrics) -> None:
        self._probe()

    def on_finish(self, metrics) -> None:
        self._probe()

    def reference_seconds(self) -> float:
        """Work time between the first and last probe, in reference-host
        seconds."""
        return sum((paused - resumed) / ((before + after) / 2)
                   for (_p, before, resumed), (paused, after, _r)
                   in zip(self.marks, self.marks[1:]))


class FigSweep(Workload):
    name = "fig-sweep"
    APPS = ("lu", "water-ns")
    SCALE = 0.5

    def __init__(self, seed, scratch, references) -> None:
        super().__init__(seed, scratch, references)
        self.digests: dict = {}

    def setup(self):
        # The first ResultCache fingerprints the installed sources; a
        # user pays that once per process, so it belongs to set-up.
        ResultCache(self.scratch / "cache-probe")
        return specs_for([FIGURES["fig10"], FIGURES["fig11"]],
                         apps=self.APPS, scale=self.SCALE, seed=self.seed)

    def _spec_stats(self, artifact: dict) -> tuple[dict, float]:
        """(checked statistics, committed kilo-instructions)."""
        metrics = artifact["metrics"]
        kind = artifact["kind"]
        if kind == "record":
            return ({"cycles": metrics["cycles"],
                     "instructions": metrics["total_committed_instructions"],
                     "log_bits_compressed":
                         metrics["total_bits_compressed"]},
                    metrics["total_committed_instructions"] / 1e3)
        if kind == "replay":
            instructions = metrics["run_stats"][
                "total_committed_instructions"]
            return ({"cycles": metrics["cycles"],
                     "record_cycles": metrics["record_cycles"],
                     "instructions": instructions,
                     "matches": metrics["matches"]},
                    instructions / 1e3)
        return ({"cycles": metrics["cycles"],
                 "instructions": metrics["total_instructions"]},
                metrics["total_instructions"] / 1e3)

    def run(self, specs, seconds, log: OpLog, speed: HostSpeed,
            tracer=None) -> dict:
        sweeps = []
        deadline = clock() + seconds
        index = 0
        while True:
            root = self.scratch / f"sweep-{index}"
            if tracer is not None:
                tracer.set_case(f"sweep-{index}")
            index += 1
            probes = _ProbeBetweenJobs(speed)
            try:
                outcomes = Runner(jobs=1, cache=ResultCache(root),
                                  reporter=probes).run(specs)
                error = None
            except Exception as caught:  # noqa: BLE001 -- counted
                outcomes, error = [], caught
            spent = probes.reference_seconds()
            shutil.rmtree(root, ignore_errors=True)
            kinst = 0.0
            passed = error is None
            if error is not None:
                log.settle(None, [f"sweep: {type(error).__name__}: "
                                  f"{error}"])
            for outcome in outcomes:
                label = outcome.spec.label()
                if not outcome.ok:
                    passed = log.settle(None, [
                        f"{label}: {outcome.failure.summary()}"]) and passed
                    continue
                stats, spec_kinst = self._spec_stats(outcome.artifact)
                problems = self.check(label, stats)
                if stats.get("matches") is False:
                    problems.append(f"{label}: replay diverged")
                # Cold sweeps of one spec must store identical bytes.
                digest = _digest(outcome.artifact)
                if self.digests.setdefault(label, digest) != digest:
                    problems.append(f"{label}: artifact bytes changed")
                if log.settle(outcome.wall_time, problems):
                    kinst += spec_kinst
                else:
                    passed = False
            if passed:
                sweeps.append((spent, kinst))
            if clock() >= deadline:
                break
        op_seconds = [spent for spent, _k in sweeps]
        return {
            "op_seconds": op_seconds,
            "op_ms_p50": median(op_seconds) * 1e3 if sweeps else 0.0,
            "ops_per_s": (len(sweeps) * len(specs) / sum(op_seconds))
            if sweeps else 0.0,
            "sim_kips": median([k / s for s, k in sweeps]) if sweeps
            else 0.0,
            "report": {
                "sweep_s": (median(op_seconds) if sweeps else 0.0, "s"),
                "sweeps": (len(sweeps), "count"),
                "specs_per_sweep": (len(specs), "count"),
            },
        }


class ServeHarness:
    """An in-process ``ReproService`` + ``ServeServer`` on a loopback
    port, its event loop on its own thread."""

    def __init__(self, root) -> None:
        self.root = root
        self.service = ReproService(root / "data",
                                    cache=ResultCache(root / "cache"),
                                    jobs=1)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main,
                                        name="serve-loop", daemon=True)
        self._thread.start()
        if not self._ready.wait(30):
            raise RuntimeError("serve loop did not start")
        self.client = ServeClient("127.0.0.1", self.server.port,
                                  timeout=60)
        self.client.health()

    def _main(self) -> None:
        async def serve():
            self.loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self.server = ServeServer(self.service, "127.0.0.1", 0)
            await self.server.start()
            self._ready.set()
            await self._stop.wait()
            await self.server.stop()

        asyncio.run(serve())

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60)
        if self._thread.is_alive():
            raise RuntimeError("serve loop did not stop")
        shutil.rmtree(self.root, ignore_errors=True)


class ServeMix(Workload):
    name = "serve-mix"
    CLIENTS = 2
    #: One round: R = record job, P = replay of an earlier record,
    #: H = exact resubmission of an earlier job.  8 of 20 are hits,
    #: below one half so the median job sits among cache misses instead
    #: of on the hit/miss boundary.
    ROLES = "RRHRPHRHPRHPHRHPHRPH"
    ROUND = len(ROLES)
    SCALE = 0.1
    APPS = ("fft", "lu", "radix", "water-ns", "ocean", "barnes", "sjbb2k")
    MODES = ("order_only", "picolog", "order_and_size")

    def __init__(self, seed, scratch, references) -> None:
        super().__init__(seed, scratch, references)
        self._servers = 0

    def plan_round(self, round_index: int) -> list:
        """``(role, kind, params, target position)`` per job of one
        round; ``role`` is ``record``, ``replay`` or ``hit``.

        Every round has the same roles in the same order (:data:`ROLES`)
        so seeds vary only the programs and which earlier job a replay
        or hit names.  That job sits at least two positions earlier;
        with two clients the submitter waits for it to finish, so each
        hit is a resubmission of a completed spec.
        """
        rng = random.Random(f"serve-mix:{self.seed}:{round_index}")
        # Every round records each app once, in a seeded order, with the
        # modes rotating between rounds: rounds carry equal simulated
        # work whatever the seed.
        apps = list(self.APPS)
        rng.shuffle(apps)
        jobs: list = []
        recorded = 0
        unreplayed: list = []
        for position, role in enumerate(self.ROLES):
            if role == "H":
                target = rng.randrange(position - 1)
                _role, kind, params, _target = jobs[target]
                jobs.append(("hit", kind, params, target))
            elif role == "P":
                target = rng.choice([p for p in unreplayed
                                     if p <= position - 2])
                unreplayed.remove(target)
                jobs.append(("replay", "replay", jobs[target][2], target))
            else:
                app = apps[recorded]
                recorded += 1
                mode = self.MODES[(self.APPS.index(app) + round_index)
                                  % len(self.MODES)]
                unreplayed.append(position)
                jobs.append(("record", "record", {
                    "app": app, "mode": mode, "scale": self.SCALE,
                    "seed": self.seed * 100_000
                    + round_index * self.ROUND + position,
                }, None))
        return jobs

    def setup(self):
        self._servers += 1
        return ServeHarness(self.scratch / f"serve-{self._servers}")

    def teardown(self, harness) -> None:
        harness.close()

    def traced_layer_metrics(self, plain, traced, tracer) -> dict:
        # HTTP overhead pairs each client submit round trip with the
        # server-side ReproService.submit span of the same job.
        server = {span[7]: span[6] - span[5] for span in tracer.kept()
                  if span[4] == "ReproService.submit" and span[7]}
        overheads = [r["submit_s"] - server[r["job_id"]]
                     for r in traced["records"] if r["job_id"] in server]
        return {
            "serve.queue.appends": traced["appends"],
            "serve.queue_wait_ms_p50": plain["queue_wait_ms_p50"],
            "serve.http.overhead_ms_p50":
                median(overheads) * 1e3 if overheads else 0.0,
            "serve.hit_job_ms_p50": plain["hit_ms_p50"],
            "serve.miss_job_ms_p50": plain["miss_ms_p50"],
        }

    def _one_job(self, client, kind, params) -> dict:
        t0 = clock()
        job = client.submit(kind, params)
        submit_s = clock() - t0
        if job["state"] not in ("done", "failed"):
            for _event_id, event in client.stream(job["id"]):
                if event["job"]["state"] in ("done", "failed"):
                    job = event["job"]
                    break
        if job["state"] != "done":
            raise RuntimeError(f"job {job['id']} ended {job['state']}: "
                               f"{job.get('error')}")
        artifact = client.artifact(job["artifact_hash"])
        return {"latency": clock() - t0, "submit_s": submit_s,
                "job": job, "artifact": artifact}

    @staticmethod
    def _check_job(role, target, outcome, done) -> tuple:
        """(problems, simulated kilo-instructions, digest)."""
        job, artifact = outcome["job"], outcome["artifact"]
        digest = _digest(artifact)
        label = f"{role} {job['kind']}:{job['params'].get('app')}"
        problems = []
        if artifact.get("spec_hash") != job["spec_hash"]:
            problems.append(f"{label}: artifact is not the submitted spec")
        metrics = artifact.get("metrics", {})
        kinst = 0.0
        if role == "hit":
            # An exact resubmission: answered from the cache with the
            # very bytes the first run produced.
            if not job["from_cache"]:
                problems.append(f"{label}: resubmission recomputed")
            if digest != done[target]["digest"]:
                problems.append(f"{label}: resubmission bytes differ")
        elif role == "replay":
            kinst = metrics["run_stats"]["total_committed_instructions"] / 1e3
            if not metrics.get("matches"):
                problems.append(f"{label}: replay diverged")
            if metrics.get("record_cycles") != done[target]["cycles"]:
                problems.append(f"{label}: replayed a different recording")
        else:
            kinst = metrics["total_committed_instructions"] / 1e3
        return problems, kinst, digest

    def run(self, harness, seconds, log: OpLog, speed: HostSpeed,
            tracer=None) -> dict:
        lock = threading.Condition()
        done: dict = {}
        latency: dict = {}
        records: list = []
        plans: dict = {}
        #: (paused at, host factor, resumed at) per round boundary.
        boundaries: list = []
        cursor = [0]
        deadline = clock() + seconds
        appends_before = harness.service.queue.lsn

        def take():
            with lock:
                while True:
                    index = cursor[0]
                    position = index % self.ROUND
                    if position or len(boundaries) * self.ROUND > index:
                        break
                    # Round boundary: let the loop drain, then probe the
                    # host's speed while no job runs.
                    if len(done) == index:
                        paused = clock()
                        boundaries.append((paused, speed.probe(), clock()))
                        break
                    if not lock.wait(timeout=300):
                        raise RuntimeError("round did not drain")
                if position == 0 and index and clock() >= deadline:
                    return None  # only whole rounds are measured
                cursor[0] += 1
                round_index = index // self.ROUND
                if round_index not in plans:
                    plans[round_index] = self.plan_round(round_index)
                role, kind, params, target = plans[round_index][position]
                if target is not None:
                    target += round_index * self.ROUND
                return index, role, kind, params, target

        def client_loop():
            client = ServeClient(harness.client.host, harness.client.port,
                                 timeout=60)
            while True:
                item = take()
                if item is None:
                    return
                index, role, kind, params, target = item
                entry = {"digest": None, "cycles": None}
                try:
                    with lock:
                        if not lock.wait_for(
                                lambda: target is None or target in done,
                                timeout=120):
                            raise RuntimeError(f"job {target} never ended")
                    outcome = self._one_job(client, kind, params)
                    problems, kinst, entry["digest"] = self._check_job(
                        role, target, outcome, done)
                    entry["cycles"] = outcome["artifact"]["metrics"].get(
                        "cycles")
                except ServeError as error:
                    outcome, kinst = None, 0.0
                    refused = "refused (429)" if error.status == 429 \
                        else f"HTTP {error.status}"
                    problems = [f"{kind}: {refused}: {error}"]
                except Exception as error:  # noqa: BLE001 -- counted
                    outcome, kinst = None, 0.0
                    problems = [f"{kind}: {type(error).__name__}: {error}"]
                with lock:
                    passed = log.settle(
                        outcome["latency"] if outcome else None, problems)
                    latency[index] = outcome["latency"] if passed \
                        else math.inf
                    if passed:
                        job = outcome["job"]
                        records.append({
                            "index": index,
                            "latency": outcome["latency"],
                            "submit_s": outcome["submit_s"],
                            "job_id": job["id"],
                            "hit": job["from_cache"],
                            "kinst": kinst,
                            "queue_wait": (job["started_at"]
                                           - job["submitted_at"])
                            if job.get("started_at") else None,
                        })
                    done[index] = entry
                    lock.notify_all()

        threads = [threading.Thread(target=client_loop,
                                    name=f"serve-client-{n}")
                   for n in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Reference-host time: each round is normalized by the probes
        # at its two ends.  Rates are medians over rounds, which carry
        # equal work, so one stalled round cannot skew them.
        factors = [(before[1] + after[1]) / 2
                   for before, after in zip(boundaries, boundaries[1:])]
        durations = [(after[0] - before[2]) / factor
                     for before, after, factor
                     in zip(boundaries, boundaries[1:], factors)]
        jobs_done = [0] * len(durations)
        kinst_done = [0.0] * len(durations)
        for record in records:
            jobs_done[record["index"] // self.ROUND] += 1
            kinst_done[record["index"] // self.ROUND] += record["kinst"]

        def reference(index, seconds):
            return seconds / factors[index // self.ROUND]

        def rate(done):
            return median([count / seconds for count, seconds
                           in zip(done, durations)])

        latencies = [reference(i, s) for i, s in sorted(latency.items())]
        hits = [reference(r["index"], r["latency"])
                for r in records if r["hit"]]
        misses = [reference(r["index"], r["latency"])
                  for r in records if not r["hit"]]
        waits = [reference(r["index"], r["queue_wait"]) for r in records
                 if r["queue_wait"] is not None]
        return {
            "records": records,
            "op_seconds": latencies,
            "op_ms_p50": median(latencies) * 1e3 if latencies else 0.0,
            "ops_per_s": rate(jobs_done),
            "sim_kips": rate(kinst_done),
            "appends": harness.service.queue.lsn - appends_before,
            "hit_ms_p50": median(hits) * 1e3 if hits else 0.0,
            "miss_ms_p50": median(misses) * 1e3 if misses else 0.0,
            "queue_wait_ms_p50": median(waits) * 1e3 if waits else 0.0,
            "report": {
                "job_ms_p50": (median(latencies) * 1e3 if latencies
                               else 0.0, "ms"),
                "jobs": (len(latencies), "count"),
                "jobs_per_s": (rate(jobs_done), "1/s"),
                "hits": (len(hits), "count"),
            },
        }


WORKLOADS = {cls.name: cls for cls in (RecordReplay, FigSweep, ServeMix)}
