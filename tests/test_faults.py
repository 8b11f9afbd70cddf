"""Tests for repro.faults: injection, container integrity, salvage.

The headline property is the resilience invariant: every injected
fault is *detected* (a typed ReproError) or *recovered* (a salvage
report whose coverage counts only fingerprint-verified commits) --
never a silent wrong result.  ``TestCorruptionSweep`` pins it down
exhaustively, one corrupted byte at a time.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from conftest import counter_program, small_config

from repro.core.delorean import DeLoreanSystem
from repro.core.modes import ExecutionMode
from repro.core.serialization import (
    container_frames,
    load_recording,
    load_recording_tolerant,
    save_recording,
)
from repro.errors import (
    ChecksumError,
    IntegrityError,
    LogFormatError,
    ReproError,
    SalvageError,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FaultyJobFn,
    execute_chaos_spec,
    run_campaign,
    salvage_from_blob,
    salvage_replay,
)
from repro.faults.campaign import build_specs
from repro.faults.salvage import SalvageSegment
from repro.machine.system import replay_execution
from repro.runner import Runner
from repro.runner.retry import FailureRecord, RetryPolicy
from repro.telemetry import EventTracer
from repro.workloads import app_program


def make_recording(mode=ExecutionMode.ORDER_ONLY, threads=3,
                   increments=12, checkpoint_every=0,
                   num_processors=4):
    config = small_config(num_processors=num_processors)
    system = DeLoreanSystem(mode=mode, machine_config=config,
                            chunk_size=config.standard_chunk_size)
    recording = system.record(counter_program(threads, increments),
                              checkpoint_every=checkpoint_every)
    return system, recording


def memory_sha(final_memory):
    return hashlib.sha256(
        json.dumps(sorted(final_memory.items())).encode()).hexdigest()


# -- fault plans -------------------------------------------------------


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        one = FaultPlan.generate(42, 20, num_processors=4)
        two = FaultPlan.generate(42, 20, num_processors=4)
        assert one == two

    def test_different_seed_different_plan(self):
        assert (FaultPlan.generate(1, 20)
                != FaultPlan.generate(2, 20))

    def test_same_seed_byte_identical_injected_blob(self):
        _, recording = make_recording()
        blob = save_recording(recording)
        injector = FaultInjector()
        for fault in FaultPlan.generate(9, 16,
                                        layers=("blob",)):
            assert (injector.inject_blob(blob, fault)
                    == FaultInjector().inject_blob(blob, fault))

    def test_log_faults_are_deterministic_too(self):
        _, recording = make_recording()
        injector = FaultInjector()
        for fault in FaultPlan.generate(9, 12, layers=("log",)):
            one = injector.inject_recording(recording, fault)
            two = injector.inject_recording(recording, fault)
            assert one.pi_log.entries == two.pi_log.entries
            assert one.dma_log.entries == two.dma_log.entries
            for proc in one.cs_logs:
                assert (one.cs_logs[proc].entries
                        == two.cs_logs[proc].entries)

    def test_injection_does_not_mutate_the_original(self):
        _, recording = make_recording()
        before = list(recording.pi_log.entries)
        FaultInjector().inject_recording(
            recording, FaultSpec(layer="log", kind="drop_pi",
                                 position=0.5))
        assert recording.pi_log.entries == before

    def test_damaged_copy_shares_the_immutable_program(self):
        _, recording = make_recording()
        for fault in FaultPlan.generate(9, 12, layers=("log",)):
            damaged = FaultInjector().inject_recording(recording, fault)
            assert damaged.program is recording.program
            assert damaged.pi_log is not recording.pi_log

    def test_spec_validation(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            FaultSpec(layer="nope", kind="bit_flip", position=0.1)
        with pytest.raises(ConfigurationError):
            FaultSpec(layer="blob", kind="drop_pi", position=0.1)
        with pytest.raises(ConfigurationError):
            FaultSpec(layer="blob", kind="bit_flip", position=1.5)


# -- framed containers: DLRN v3 and the legacy v2 reader ---------------

DATA = Path(__file__).parent / "data"


def fixture_blob(name: str) -> bytes:
    """A recording written by the last release with v1/v2 writers."""
    return (DATA / name).read_bytes()


class _FramedContainerChecks:
    """Properties every framed container version keeps.  Subclasses
    supply :meth:`blob` and name their state sections (what nothing
    can be replayed without)."""

    STATE_SECTIONS: tuple = ()

    def blob(self) -> bytes:
        raise NotImplementedError

    def test_payload_corruption_raises_checksum_error(self):
        blob = bytearray(self.blob())
        frames, damage = container_frames(bytes(blob))
        assert not damage
        target = frames[0]  # the PI section
        blob[target.end - 1] ^= 0xFF
        with pytest.raises(ChecksumError) as excinfo:
            load_recording(bytes(blob))
        assert excinfo.value.section_tag == target.tag

    def test_header_corruption_detected(self):
        blob = bytearray(self.blob())
        blob[14] ^= 0xFF  # inside the JSON header
        with pytest.raises(IntegrityError):
            load_recording(bytes(blob))

    def test_tolerant_load_resyncs_past_damage(self):
        blob = bytearray(self.blob())
        intact = load_recording(bytes(blob))
        frames, _ = container_frames(bytes(blob))
        target = frames[0]
        blob[target.end - 1] ^= 0xFF
        loaded, damage = load_recording_tolerant(bytes(blob))
        assert any(d.reason == "CRC32 mismatch" for d in damage)
        # Everything after the damaged section survived intact.
        for proc in intact.cs_logs:
            assert (loaded.cs_logs[proc].entries
                    == intact.cs_logs[proc].entries)

    def test_tolerant_load_of_clean_blob_reports_no_damage(self):
        blob = self.blob()
        loaded, damage = load_recording_tolerant(blob)
        assert damage == []
        assert (loaded.pi_log.entries
                == load_recording(blob).pi_log.entries)

    def test_destroyed_state_is_unsalvageable(self):
        clean = self.blob()
        frames, _ = container_frames(clean)
        for name in self.STATE_SECTIONS:
            blob = bytearray(clean)
            section = next(f for f in frames if f.name == name)
            for offset in range(section.start, section.end):
                blob[offset] = 0
            with pytest.raises(SalvageError):
                load_recording_tolerant(bytes(blob))

    def test_dropped_section_detected_strictly(self):
        blob = self.blob()
        frames, _ = container_frames(blob)
        target = frames[1]
        damaged = blob[:target.start] + blob[target.end:]
        with pytest.raises(LogFormatError):
            load_recording(damaged)
        _, damage = load_recording_tolerant(damaged)
        assert any("missing" in d.reason for d in damage)

    def test_duplicate_section_detected_strictly(self):
        blob = self.blob()
        frames, _ = container_frames(blob)
        target = frames[1]
        section = blob[target.start:target.end]
        damaged = (blob[:target.end] + section + blob[target.end:])
        with pytest.raises(LogFormatError):
            load_recording(damaged)
        loaded, damage = load_recording_tolerant(damaged)
        assert any(d.reason == "duplicate section ignored"
                   for d in damage)
        assert (loaded.pi_log.entries
                == load_recording(blob).pi_log.entries)


class TestDlrnV3(_FramedContainerChecks):
    STATE_SECTIONS = ("program", "config", "verify")

    def blob(self) -> bytes:
        return save_recording(make_recording()[1])

    def test_v3_is_the_default_and_round_trips(self):
        system, recording = make_recording()
        blob = save_recording(recording)
        assert blob[:4] == b"DLRN" and blob[4] == 3
        loaded = load_recording(blob)
        result = system.replay(loaded)
        assert result.determinism.matches


class TestDlrnV2(_FramedContainerChecks):
    """The legacy v2 reader, on a committed v2 blob."""

    STATE_SECTIONS = ("trailer",)

    def blob(self) -> bytes:
        return fixture_blob("counter-v2.dlrn")

    def test_v2_fixture_loads_and_replays(self):
        blob = self.blob()
        assert blob[4] == 2
        result = replay_execution(load_recording(blob))
        assert result.determinism.matches

    def test_v1_and_v2_load_identically(self):
        v1 = load_recording(fixture_blob("counter-v1.dlrn"))
        v2 = load_recording(self.blob())
        assert v1.pi_log.entries == v2.pi_log.entries
        assert v1.final_memory == v2.final_memory
        assert v1.program == v2.program
        for proc in v1.cs_logs:
            assert (v1.cs_logs[proc].entries
                    == v2.cs_logs[proc].entries)


class TestV1Hardening:
    """A damaged v1 blob must raise LogFormatError, never a raw
    struct/pickle/EOF error."""

    def test_v1_fixture_loads_and_replays(self):
        blob = fixture_blob("counter-v1.dlrn")
        assert blob[4] == 1
        loaded = load_recording(blob)
        result = replay_execution(loaded)
        assert result.determinism.matches

    def test_truncation_sweep_raises_only_typed_errors(self):
        blob = fixture_blob("counter-v1.dlrn")
        for cut in range(1, len(blob), max(1, len(blob) // 97)):
            with pytest.raises(IntegrityError):
                load_recording(blob[:cut])

    def test_garbage_tail_raises_log_format_error(self):
        blob = fixture_blob("counter-v1.dlrn")
        with pytest.raises(IntegrityError):
            load_recording(blob[: len(blob) // 2]
                           + b"\x97" * (len(blob) // 2))

    def test_garbage_after_magic_raises_log_format_error(self):
        with pytest.raises(LogFormatError):
            load_recording(b"DLRN\x01" + b"\xff" * 64)

    def test_corrupt_trailer_pickle_is_typed(self):
        blob = bytearray(fixture_blob("counter-v1.dlrn"))
        # Smash bytes near the end: inside the pickled trailer.
        for offset in range(len(blob) - 40, len(blob) - 20):
            blob[offset] = 0xFE
        with pytest.raises(IntegrityError):
            load_recording(bytes(blob))


# -- corruption sweep --------------------------------------------------


class TestCorruptionSweep:
    def test_every_single_byte_corruption_detected_or_harmless(self):
        """Exhaustive sweep: corrupt each byte of a small v3 blob in
        turn; every outcome must be a typed IntegrityError (detected)
        or a verified replay equal to the baseline (harmless).  A
        verified replay with *different* results would be a silent
        divergence -- the failure mode the container exists to rule
        out."""
        system, recording = make_recording(threads=2, increments=4,
                                           num_processors=2)
        blob = save_recording(recording)
        baseline_sha = memory_sha(recording.final_memory)
        baseline_commits = len(recording.fingerprints)
        outcomes = {"detected": 0, "harmless": 0}
        for offset in range(len(blob)):
            damaged = (blob[:offset]
                       + bytes([blob[offset] ^ 0xFF])
                       + blob[offset + 1:])
            try:
                loaded = load_recording(damaged)
            except IntegrityError:
                outcomes["detected"] += 1
                continue
            # The corruption slipped past the integrity layer; replay
            # must still verify AND reproduce the baseline exactly.
            result = replay_execution(loaded)
            assert result.determinism.matches, (
                f"offset {offset}: loaded cleanly but replay "
                f"diverged: {result.determinism.summary()}")
            assert memory_sha(result.final_memory) == baseline_sha, (
                f"offset {offset}: SILENT DIVERGENCE")
            assert len(loaded.fingerprints) == baseline_commits, (
                f"offset {offset}: SILENT DIVERGENCE (commit count)")
            outcomes["harmless"] += 1
        # The integrity layer must be doing essentially all the work.
        assert outcomes["detected"] > 0.95 * len(blob), outcomes

    def test_sampled_corruptions_salvage_or_detect(self):
        """The recovery half of the invariant: for a sample of
        corrupted blobs, the tolerant path either salvages (honest
        coverage) or raises a typed error -- never anything rawer."""
        _, recording = make_recording(threads=2, increments=4,
                                      num_processors=2,
                                      checkpoint_every=8)
        blob = save_recording(recording)
        for offset in range(0, len(blob), max(1, len(blob) // 60)):
            damaged = (blob[:offset]
                       + bytes([blob[offset] ^ 0xFF])
                       + blob[offset + 1:])
            try:
                loaded = load_recording(damaged)
            except IntegrityError:
                try:
                    _, report = salvage_from_blob(damaged)
                except ReproError:
                    continue  # detected, unsalvageable: acceptable
                assert 0.0 <= report.coverage <= 1.0
                assert (report.verified_commits
                        <= report.total_commits)


# -- salvage replay ----------------------------------------------------


class TestSalvage:
    def test_clean_recording_full_coverage(self):
        _, recording = make_recording(checkpoint_every=8)
        report = salvage_replay(recording)
        assert report.clean
        assert report.coverage == 1.0
        assert not report.recovered  # nothing to recover *from*
        assert all(gcc is None
                   for gcc in report.first_bad_gcc.values())

    def test_damaged_pi_section_salvages_with_checkpoints(self):
        _, recording = make_recording(threads=3, increments=16,
                                      checkpoint_every=8)
        blob = save_recording(recording)
        frames, _ = container_frames(blob)
        pi = next(f for f in frames if f.name == "pi")
        damaged = bytearray(blob)
        damaged[pi.end - 1] ^= 0xFF
        loaded, report = salvage_from_blob(bytes(damaged))
        assert report.faults_detected or report.damage
        assert report.verified_commits <= report.total_commits

    def test_log_fault_reports_partial_coverage(self):
        _, recording = make_recording(threads=3, increments=16,
                                      checkpoint_every=8)
        fault = FaultSpec(layer="log", kind="drop_pi", position=0.6)
        damaged = FaultInjector().inject_recording(recording, fault)
        report = salvage_replay(damaged)
        assert report.faults_detected
        assert report.total_commits == len(recording.fingerprints)
        # Coverage counts only fingerprint-verified commits.
        assert report.verified_commits < report.total_commits
        if report.verified_commits:
            assert report.recovered
            assert report.segments

    def test_first_bad_gcc_is_per_processor(self):
        _, recording = make_recording(threads=3, increments=16,
                                      checkpoint_every=8)
        fault = FaultSpec(layer="log", kind="drop_pi", position=0.9)
        damaged = FaultInjector().inject_recording(recording, fault)
        report = salvage_replay(damaged)
        for proc, gcc in report.first_bad_gcc.items():
            if gcc is None:
                continue
            owner = recording.fingerprints[gcc][0]
            expected = (recording.machine_config.dma_proc_id
                        if owner == "dma" else owner)
            assert expected == proc

    @pytest.mark.parametrize("stratify", [False, True])
    def test_verified_prefix_is_credited_in_either_discipline(
            self, stratify):
        """A stratified recording credits the commits before its first
        unreproduced one, as an ordered recording does: fingerprint #12
        of 24 edited, resync at the checkpoint past it."""
        recording = DeLoreanSystem(stratify=stratify).record(
            app_program("fft", scale=0.2, seed=3), checkpoint_every=15)
        assert recording.stratified == stratify
        fingerprint = recording.fingerprints[12]
        recording.fingerprints[12] = fingerprint[:-1] + (("edited",),)
        report = salvage_replay(recording)
        assert report.total_commits == 24
        assert report.verified_commits == 21
        assert report.segments == [SalvageSegment(0, 12),
                                   SalvageSegment(15, 24)]
        owner = fingerprint[0]
        assert report.first_bad_gcc[owner] == 12

    def test_salvage_wires_telemetry_counters(self):
        _, recording = make_recording(threads=3, increments=12,
                                      checkpoint_every=8)
        fault = FaultSpec(layer="log", kind="drop_pi", position=0.5)
        damaged = FaultInjector().inject_recording(recording, fault)
        tracer = EventTracer()
        salvage_replay(damaged, tracer=tracer)
        metrics = tracer.metrics.as_dict()
        assert metrics.get("salvage_faults_detected", 0) >= 1

    def test_report_as_dict_is_json_serializable(self):
        _, recording = make_recording(checkpoint_every=8)
        report = salvage_replay(recording)
        assert json.loads(json.dumps(report.as_dict()))


# -- campaigns ---------------------------------------------------------


class TestCampaign:
    def test_small_campaign_invariant_holds(self):
        report = run_campaign(
            "sjbb2k", ExecutionMode.ORDER_ONLY, scale=0.1,
            plan_seed=7, fault_count=6)
        assert len(report.results) == 6
        assert report.invariant_ok, report.summary()
        assert report.count("silent-divergence") == 0

    def test_campaign_jsonl_report(self, tmp_path):
        report = run_campaign(
            "sjbb2k", ExecutionMode.ORDER_ONLY, scale=0.1,
            plan_seed=3, fault_count=3)
        out = tmp_path / "chaos.jsonl"
        report.write_jsonl(str(out))
        lines = [json.loads(line)
                 for line in out.read_text().splitlines()]
        assert len(lines) == 4  # 3 faults + summary
        assert lines[-1]["kind"] == "campaign-summary"
        assert lines[-1]["invariant_ok"]

    def test_chaos_specs_run_through_the_pool(self, tmp_path):
        system, recording = make_recording(checkpoint_every=8)
        blob = save_recording(recording)
        plan = FaultPlan.generate(5, 4, num_processors=4)
        specs = build_specs(blob, recording, plan)
        with Runner(jobs=2, cache=False,
                    job_fn=execute_chaos_spec) as runner:
            outcomes = runner.run(specs)
        assert all(outcome.ok for outcome in outcomes)
        for outcome in outcomes:
            assert outcome.artifact["outcome"] in (
                "harmless", "detected", "recovered")

    def test_chaos_cli_smoke(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "report.jsonl"
        code = main(["chaos", "sjbb2k", "--scale", "0.1",
                     "--faults", "4", "--plan-seed", "5",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "invariant holds" in capsys.readouterr().out


# -- runner-layer faults and retry hardening ---------------------------


class TestFaultyJobFn:
    def test_crash_once_then_retry_succeeds(self, tmp_path):
        system, recording = make_recording()
        blob = save_recording(recording)
        plan = FaultPlan.generate(2, 2, layers=("blob",))
        specs = build_specs(blob, recording, plan)
        job_fn = FaultyJobFn(
            job_fn=execute_chaos_spec, seed=1,
            state_dir=str(tmp_path / "state"), crash_rate=1.0)
        runner = Runner(
            jobs=1, cache=False, job_fn=job_fn,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01,
                              backoff_max=0.02))
        outcomes = runner.run(specs)
        assert all(outcome.ok for outcome in outcomes)
        assert all(outcome.attempts == 2 for outcome in outcomes)

    def test_slowdown_does_not_fail_the_job(self, tmp_path):
        system, recording = make_recording()
        blob = save_recording(recording)
        specs = build_specs(blob, recording,
                            FaultPlan.generate(3, 1,
                                               layers=("blob",)))
        job_fn = FaultyJobFn(
            job_fn=execute_chaos_spec, seed=1,
            state_dir=str(tmp_path / "state"), slow_rate=1.0,
            slow_seconds=0.01)
        runner = Runner(jobs=1, cache=False, job_fn=job_fn)
        assert runner.run(specs)[0].ok


class TestRetryHardening:
    def test_jitter_stays_within_bounds(self):
        import random
        policy = RetryPolicy(backoff_base=0.1, backoff_max=2.0)
        rng = random.Random(1)
        previous = None
        for attempt in range(1, 20):
            delay = policy.delay(attempt, previous_delay=previous,
                                 rng=rng)
            assert 0.1 <= delay <= 2.0
            previous = delay

    def test_no_jitter_reproduces_the_ladder(self):
        policy = RetryPolicy(jitter=False, backoff_base=0.25,
                             backoff_factor=2.0, backoff_max=5.0)
        assert policy.delay(1) == 0.25
        assert policy.delay(2) == 0.5
        assert policy.delay(5) == 4.0
        assert policy.delay(8) == 5.0  # capped

    def test_jitter_is_deterministic_per_attempt(self):
        policy = RetryPolicy()
        one = policy.delay(1, rng=policy.attempt_rng("abc", 1))
        two = policy.delay(1, rng=policy.attempt_rng("abc", 1))
        other = policy.delay(1, rng=policy.attempt_rng("abc", 2))
        assert one == two
        assert one != other

    def test_elapsed_cap_stops_retrying(self):
        policy = RetryPolicy(max_attempts=10, max_elapsed=1.0)
        assert policy.should_retry(1, elapsed=0.5)
        assert not policy.should_retry(1, elapsed=1.5)
        assert not policy.should_retry(10, elapsed=0.0)

    def test_failure_record_surfaces_attempts_and_elapsed(
            self, tmp_path):
        system, recording = make_recording()
        blob = save_recording(recording)
        specs = build_specs(blob, recording,
                            FaultPlan.generate(4, 1,
                                               layers=("blob",)))

        runner = Runner(
            jobs=1, cache=False, job_fn=_always_failing_chaos_job,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01,
                              backoff_max=0.02))
        outcome = runner.run(specs)[0]
        assert not outcome.ok
        record: FailureRecord = outcome.failure
        assert len(record.attempts) == 2
        assert record.total_elapsed > 0.0
        assert "in " in record.summary()


def _always_failing_chaos_job(spec, cache=None):
    raise RuntimeError("synthetic chaos job failure")
