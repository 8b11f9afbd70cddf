"""Tests for the recording inspection helpers."""

from dataclasses import replace

import pytest

from conftest import counter_program, small_config

from repro.analysis.inspect import (
    commit_timeline,
    describe_recording,
    interleaving_strip,
    per_processor_summary,
)
from repro.core.delorean import DeLoreanSystem
from repro.core.modes import ExecutionMode
from repro.machine.events import DmaTransfer, InterruptEvent
from repro.workloads.program_builder import shared_address


@pytest.fixture(scope="module")
def recording():
    config = small_config()
    system = DeLoreanSystem(machine_config=config,
                            chunk_size=config.standard_chunk_size)
    program = replace(
        counter_program(3, 20),
        interrupts=[InterruptEvent(
            time=400.0, processor=1, vector=4, handler_ops=20)],
        dma_transfers=[DmaTransfer(
            time=250.0, writes={shared_address(900): 1})])
    return system.record(program, checkpoint_every=10)


class TestDescribe:
    def test_headline_fields(self, recording):
        text = describe_recording(recording)
        assert "order_only" in text
        assert "committed:" in text
        assert "memory-ordering log" in text
        assert "bits/proc/kilo-instruction" in text

    def test_input_logs_reported(self, recording):
        text = describe_recording(recording)
        assert "1 interrupts" in text
        assert "1 DMA bursts" in text

    def test_checkpoints_reported(self, recording):
        assert "interval checkpoints at commits" in \
            describe_recording(recording)

    def test_stratified_size_reported(self, recording):
        assert "stratified PI log" in describe_recording(recording)


class TestTimeline:
    def test_rows_match_commits(self, recording):
        text = commit_timeline(recording, limit=10)
        # Header + separator + up to 10 rows (+ 'more' line).
        body = [line for line in text.splitlines()
                if line and line[0].isdigit()]
        assert len(body) == 10

    def test_truncation_note(self, recording):
        total = len(recording.fingerprints)
        text = commit_timeline(recording, limit=5)
        assert f"{total - 5} more commits" in text

    def test_dma_row_rendered(self, recording):
        text = commit_timeline(recording, limit=len(
            recording.fingerprints))
        assert "DMA" in text

    def test_handler_row_rendered(self, recording):
        text = commit_timeline(recording, limit=len(
            recording.fingerprints))
        assert "handler" in text


class TestStripAndSummary:
    def test_strip_symbol_count(self, recording):
        text = interleaving_strip(recording, width=16)
        symbols = "".join(
            line.split()[-1] for line in text.splitlines()[1:])
        assert len(symbols) == len(recording.fingerprints)

    def test_strip_marks_dma(self, recording):
        assert "*" in interleaving_strip(recording)

    def test_summary_covers_active_processors(self, recording):
        text = per_processor_summary(recording)
        for proc in (0, 1, 2):
            assert f"cpu{proc}" in text
        assert "DMA" in text

    def test_summary_handler_column(self, recording):
        text = per_processor_summary(recording)
        lines = [l for l in text.splitlines() if l.startswith("cpu1")]
        assert lines and int(lines[0].split()[-1]) >= 1


class TestOtherModes:
    def test_picolog_recording_describes(self):
        config = small_config()
        system = DeLoreanSystem(mode=ExecutionMode.PICOLOG,
                                machine_config=config,
                                chunk_size=config.standard_chunk_size)
        recording = system.record(counter_program(2, 10))
        text = describe_recording(recording)
        assert "picolog" in text
        assert "PI 0 bits (0 entries)" in text
