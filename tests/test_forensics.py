"""Tests for replay-divergence forensics (repro.telemetry.forensics)."""

import copy
import dataclasses
import functools

import pytest

from conftest import counter_program, small_config
from repro.core.delorean import DeLoreanSystem
from repro.core.modes import ExecutionMode
from repro.errors import ReplayDivergenceError, ReproError
from repro.guard import supervise_replay
from repro.machine.system import replay_execution
from repro.telemetry import DivergenceForensics, diagnose_replay
from repro.workloads import app_program


def _record(mode=ExecutionMode.ORDER_ONLY):
    system = DeLoreanSystem(mode=mode, machine_config=small_config())
    return system.record(counter_program(threads=4, increments=15))


class TestStructuredError:
    def test_fields_default_to_none(self):
        error = ReplayDivergenceError("boom")
        assert str(error) == "boom"
        assert error.proc_id is None
        assert error.chunk_index is None
        assert error.expected is None
        assert error.actual is None
        assert error.context is None

    def test_fields_attach_without_changing_the_message(self):
        error = ReplayDivergenceError("boom", proc_id=2, chunk_index=7,
                                      expected=1, actual=2)
        assert str(error) == "boom"
        assert (error.proc_id, error.chunk_index) == (2, 7)
        assert (error.expected, error.actual) == (1, 2)


class TestCleanReplay:
    def test_no_divergence(self):
        report = diagnose_replay(_record())
        assert isinstance(report, DivergenceForensics)
        assert not report.diverged
        assert "no divergence" in report.summary()
        assert report.render() == report.summary()


class TestCorruptedLogs:
    def test_pi_swap_is_localized(self):
        # Swap the first adjacent pair of differing PI entries: the
        # replay commits in the wrong order and the report must name
        # the first wrong commit.
        recording = _record()
        entries = recording.pi_log.entries
        swap = next(i for i in range(len(entries) - 1)
                    if entries[i] != entries[i + 1])
        entries[swap], entries[swap + 1] = \
            entries[swap + 1], entries[swap]
        report = diagnose_replay(recording)
        assert report.diverged
        assert report.proc_id is not None
        assert report.chunk_index is not None
        assert report.chunk_index <= swap + 1
        rendered = report.render()
        assert "DIVERGED" in rendered
        assert "expected:" in rendered and "actual:" in rendered
        assert any(marker for _, _, marker
                   in report.interleaving_window)

    def test_cs_corruption_names_proc_and_chunk(self):
        # In OrderAndSize every chunk size is logged, so halving one
        # entry reliably truncates the replayed chunk early.
        recording = _record(mode=ExecutionMode.ORDER_AND_SIZE)
        log = recording.cs_logs[0]
        index, entry = next(
            (i, e) for i, e in enumerate(log.entries) if e.size > 1)
        log.entries[index] = dataclasses.replace(
            entry, size=max(1, entry.size // 2))
        report = diagnose_replay(recording)
        assert report.diverged
        assert report.proc_id == 0
        assert report.chunk_index is not None
        assert report.expected is not None
        rendered = report.render()
        assert "processor 0" in report.summary()
        assert "DIVERGED" in rendered

    def test_render_mentions_last_commits(self):
        recording = _record()
        entries = recording.pi_log.entries
        swap = next(i for i in range(len(entries) - 1)
                    if entries[i] != entries[i + 1])
        entries[swap], entries[swap + 1] = \
            entries[swap + 1], entries[swap]
        rendered = diagnose_replay(recording).render(last_n=4)
        assert "replayed commits per" in rendered


class TestScalarExpectations:
    def test_render_handles_non_fingerprint_expected(self):
        # Arbiter raise sites attach scalar expectations (a proc id);
        # the report must render them rather than crash.
        report = DivergenceForensics(
            diverged=True, reason="grant mismatch", proc_id=3,
            chunk_index=5, expected=1, actual=3)
        rendered = report.render()
        assert "expected: 1" in rendered
        assert "actual:   3" in rendered
        assert "processor 3" in report.summary()


# -- one verdict: forensics agrees with the replay it diagnoses ---------


@functools.lru_cache(maxsize=None)
def _app_recording(app, variant, scale=0.2, seed=3):
    mode = (ExecutionMode.PICOLOG if variant == "picolog"
            else ExecutionMode.ORDER_ONLY)
    system = DeLoreanSystem(mode=mode, stratify=variant == "stratified")
    return system.record(app_program(app, scale=scale, seed=seed),
                         checkpoint_every=15)


def _swap_pi(recording):
    entries = recording.pi_log.entries
    swap = next(i for i in range(len(entries) - 1)
                if entries[i] != entries[i + 1])
    entries[swap], entries[swap + 1] = entries[swap + 1], entries[swap]


def _edit_fingerprint(recording):
    fingerprint = recording.fingerprints[12]
    recording.fingerprints[12] = fingerprint[:-1] + (("edited",),)


def _extra_io(recording):
    recording.io_logs[0].values.append(12345)


def _drop_dma(recording):
    del recording.dma_log.entries[0]


def _edit_final_memory(recording):
    address = min(recording.final_memory)
    recording.final_memory[address] += 1


CORRUPTIONS = {
    "none": lambda recording: None,
    "pi-swap": _swap_pi,
    "edited-fingerprint": _edit_fingerprint,
    "extra-io": _extra_io,
    "dropped-dma": _drop_dma,
    "edited-final-memory": _edit_final_memory,
}

AGREEMENT_CASES = [
    (app, variant, corruption)
    for app in ("fft", "sjbb2k")
    for variant in ("stratified", "ordered", "picolog")
    for corruption in CORRUPTIONS
    # PicoLog keeps no PI log; fft performs no DMA.
    if not (variant == "picolog" and corruption == "pi-swap")
    and not (app == "fft" and corruption == "dropped-dma")
]


@pytest.mark.parametrize("app,variant,corruption", AGREEMENT_CASES)
def test_forensics_agrees_with_the_replay_verdict(app, variant,
                                                  corruption):
    """With the same discipline, ``diagnose_replay`` reports a
    divergence exactly when the replay raises or fails its verdict,
    at the verdict's ``first_mismatch``; supervised (ordered) replay
    agrees too."""
    recording = copy.deepcopy(_app_recording(app, variant))
    CORRUPTIONS[corruption](recording)
    for use_strata in (None, False):
        report = diagnose_replay(recording, use_strata=use_strata)
        try:
            result = replay_execution(recording, use_strata=use_strata)
        except ReproError:
            assert report.diverged
            continue
        determinism = result.determinism
        assert report.diverged == (not determinism.matches)
        assert report.chunk_index == determinism.first_mismatch
        if use_strata is False:
            verification = supervise_replay(recording).verification
            assert verification["matches"] == determinism.matches
    if corruption == "none":
        assert not report.diverged


def test_a_raised_error_is_located_by_the_rule():
    """The error's own ``chunk_index`` is the DMA-log cursor here (9),
    not a commit: with sweb2005's first DMA burst deleted, the replay
    applies each burst's successor and runs out of log, but the first
    recorded commit it did not reproduce is #1, the first burst."""
    recording = copy.deepcopy(_app_recording("sweb2005", "ordered"))
    _drop_dma(recording)
    with pytest.raises(ReplayDivergenceError) as raised:
        replay_execution(recording)
    assert raised.value.chunk_index == 9
    report = diagnose_replay(recording)
    assert report.diverged
    assert report.reason == "DMA commit due but the DMA log is exhausted"
    assert report.chunk_index == 1
    assert report.proc_id == "dma"
    assert report.expected == recording.fingerprints[1]
    assert report.actual[0] == "dma" and report.actual != report.expected
    assert report.summary().startswith(
        "replay DIVERGED at dma at commit #1:")


def test_alike_dma_commits_name_their_first_differing_write():
    """Without sweb2005's first DMA burst, burst #1 is replayed with
    burst 2's data: both render as "dma burst #1 (24 writes)", so the
    report names the first address the recorded burst wrote and the
    replayed one did not."""
    recording = copy.deepcopy(_app_recording("sweb2005", "ordered"))
    _drop_dma(recording)
    report = diagnose_replay(recording)
    recorded, replayed = dict(report.expected[2]), dict(report.actual[2])
    address = min(recorded)
    assert address < min(replayed)
    lines = report.render().splitlines()
    assert "  expected: dma burst #1 (24 writes)" in lines
    assert "  actual:   dma burst #1 (24 writes)" in lines
    assert (f"  first differing write: 0x{address:x} = "
            f"{recorded[address]} recorded, not written by the replay"
            in lines)


def test_the_dma_engine_stream_is_listed_as_dma():
    """The replayed DMA bursts are listed under "dma", after every
    processor, not under the DMA engine's processor slot (p8)."""
    recording = copy.deepcopy(_app_recording("sweb2005", "ordered"))
    _drop_dma(recording)
    report = diagnose_replay(recording)
    slot = recording.machine_config.dma_proc_id
    assert slot not in report.last_commits
    assert list(report.last_commits) == [*range(8), "dma"]
    assert all(fingerprint[0] == "dma"
               for fingerprint in report.last_commits["dma"])
    heads = [line for line in report.render().splitlines()
             if line.endswith(" committed")]
    assert heads[:-1] == [f"  p{proc}: {len(report.last_commits[proc])} "
                          f"committed" for proc in range(8)]
    assert heads[-1] == "  dma: 9 committed"


def _chunk_fingerprint(writes, end_key=("end",), instructions=10):
    return (1, 4, 0, False, instructions, tuple(sorted(writes.items())),
            end_key)


@pytest.mark.parametrize("actual,line", [
    (_chunk_fingerprint({0x10: 1, 0x18: 3}),
     "  first differing write: 0x18: recorded 2, replayed 3"),
    (_chunk_fingerprint({0x10: 1, 0x20: 2}),
     "  first differing write: 0x18 = 2 recorded, not written by the "
     "replay"),
    (_chunk_fingerprint({0x08: 5, 0x10: 1}),
     "  first differing write: 0x8 = 5 written by the replay, not "
     "recorded"),
    (_chunk_fingerprint({0x10: 1, 0x18: 2}, end_key=("other",)),
     "  first differing write: none (the writes match; the end thread "
     "state differs)"),
])
def test_alike_chunk_commits_name_their_first_differing_write(actual,
                                                              line):
    expected = _chunk_fingerprint({0x10: 1, 0x18: 2})
    report = DivergenceForensics(diverged=True, reason="mismatch",
                                 proc_id=1, chunk_index=3,
                                 expected=expected, actual=actual)
    lines = report.render().splitlines()
    assert "  expected: p1 chunk 4: 10 instructions, 2 writes" in lines
    assert "  actual:   p1 chunk 4: 10 instructions, 2 writes" in lines
    assert line in lines


def test_commits_that_render_differently_get_no_write_line():
    report = DivergenceForensics(
        diverged=True, reason="mismatch", proc_id=1, chunk_index=3,
        expected=_chunk_fingerprint({0x10: 1}),
        actual=_chunk_fingerprint({0x10: 2}, instructions=11))
    assert "first differing write" not in report.render()


@pytest.mark.parametrize("app,seed", [("sjbb2k", 3), ("sweb2005", 7)])
def test_stratified_replay_that_verifies_reports_no_divergence(app,
                                                               seed):
    """Within a stratum the global commit order is free: a stratified
    replay whose per-processor streams match has not diverged, even
    where its global order differs from the recording's."""
    recording = _app_recording(app, "stratified", seed=seed)
    replayed = replay_execution(recording)
    assert replayed.determinism.matches
    report = diagnose_replay(recording)
    assert not report.diverged
    assert report.render() == "replay deterministic: no divergence"


def test_stratified_divergence_is_located_per_processor():
    """An edited fingerprint of a stratified recording is located at
    its own global index, with the replayed commit at the same place
    in the same processor's stream as the actual one, although the
    replay's global order differs from the recording's before it."""
    recording = copy.deepcopy(_app_recording("sjbb2k", "stratified"))
    original = recording.fingerprints[12]
    _edit_fingerprint(recording)
    report = diagnose_replay(recording)
    assert report.diverged
    assert report.chunk_index == 12
    assert report.expected == recording.fingerprints[12]
    assert report.actual == original
    assert report.proc_id == original[0]
