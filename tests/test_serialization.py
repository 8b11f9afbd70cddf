"""Tests for recording persistence (save/load round trips)."""

import base64
import copy
import json
import math
import os
import pickle
import random
import struct
import sys
import threading
import time
import weakref
import zlib
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import counter_program, small_config

from repro.core.delorean import DeLoreanSystem
from repro.core.modes import ExecutionMode
from repro.core.replayer import ReplayPerturbation
from repro.core import serialization
from repro.core.serialization import (
    container_frames,
    load_recording,
    load_recording_tolerant,
    load_recordings,
    save_recording,
)
from repro.errors import IntegrityError, LogFormatError
from repro.guard import (
    Budgets,
    load_segmented,
    replay_stitched,
    save_segmented,
    supervise_record,
)
from repro.machine.events import DmaTransfer, InterruptEvent
from repro.machine.program import Op, OpKind, Program
from repro.machine.system import replay_execution
from repro.runner.jobs import recording_from_artifact
from repro.workloads import commercial_program, splash2_program
from repro.workloads.program_builder import shared_address

DATA = Path(__file__).parent / "data"
#: Recordings written by the last release with v1/v2 writers: the
#: counter program with an interrupt and a DMA burst (v1 and v2), the
#: counter program with interval checkpoints, and sjbb2k in PicoLog.
LEGACY_FIXTURES = sorted(path.name for path in DATA.glob("*.dlrn"))


def degraded_segments():
    """The segments of a degraded sjbb2k record: a log-bytes budget
    of 40 per processor cuts it twice (PicoLog -> OrderOnly ->
    Order&Size), and each cut carries delivered interrupt handlers
    into the next segment."""
    report = supervise_record(
        commercial_program("sjbb2k", scale=0.2, seed=3),
        mode=ExecutionMode.PICOLOG,
        budgets=Budgets(max_log_bytes_per_proc=40))
    assert report.outcome == "degraded-completed"
    return report.segmented


def make_recording(mode=ExecutionMode.ORDER_ONLY, with_system=False,
                   **kwargs):
    config = small_config()
    system = DeLoreanSystem(mode=mode, machine_config=config,
                            chunk_size=config.standard_chunk_size,
                            **kwargs)
    program = counter_program(3, 12)
    if with_system:
        program = replace(
            program,
            interrupts=[InterruptEvent(
                time=300.0, processor=1, vector=4, handler_ops=20)],
            dma_transfers=[DmaTransfer(
                time=200.0, writes={shared_address(900): 77})])
    return system, system.record(program)


def fresh_program(recording):
    """``recording`` with its program swapped for an equal copy that
    was never encoded.  Once the caller rebinds its only reference to
    the original, the program a blob was saved from is gone, so
    loading the blob decodes its program section."""
    return replace(recording, program=replace(recording.program))


def load_decoded(blob: bytes, source: weakref.ref):
    """Load ``blob`` on a miss: the program it was saved from
    (``source``) is gone, so the program section must be decoded, and
    the decoded program is not the source of any cached section."""
    assert source() is None, "the source program is still alive"
    loaded = load_recording(blob)
    assert serialization._SECTION_ATTR not in vars(loaded.program)
    return loaded


class TestRoundTrip:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_logs_survive_round_trip(self, mode):
        _, recording = make_recording(mode, with_system=True)
        loaded = load_recording(save_recording(recording))
        assert loaded.pi_log.entries == recording.pi_log.entries
        for proc in recording.cs_logs:
            assert (loaded.cs_logs[proc].entries
                    == recording.cs_logs[proc].entries)
            assert (loaded.interrupt_logs[proc].entries
                    == recording.interrupt_logs[proc].entries)
            assert (loaded.io_logs[proc].values
                    == recording.io_logs[proc].values)
        assert loaded.dma_log.entries == recording.dma_log.entries
        assert (loaded.dma_log.commit_slots
                == recording.dma_log.commit_slots)
        assert loaded.final_memory == recording.final_memory
        assert loaded.mode_config == recording.mode_config

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_loaded_recording_replays_deterministically(self, mode):
        system, recording = make_recording(mode, with_system=True)
        loaded = load_recording(save_recording(recording))
        result = system.replay(loaded,
                               perturbation=ReplayPerturbation(seed=7))
        assert result.determinism.matches, result.determinism.summary()

    def test_stratified_recording_round_trip(self):
        system, recording = make_recording(stratify=True)
        loaded = load_recording(save_recording(recording))
        assert loaded.strata == recording.strata
        assert loaded.stratified
        result = system.replay(loaded, use_strata=True)
        assert result.determinism.matches


class TestFormatErrors:
    def test_bad_magic_rejected(self):
        with pytest.raises(LogFormatError):
            load_recording(b"NOPE" + b"\x00" * 32)

    def test_truncated_blob_rejected(self):
        _, recording = make_recording()
        blob = save_recording(recording)
        with pytest.raises(IntegrityError):
            load_recording(blob[: len(blob) // 2])

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_truncation_never_leaks_raw_errors(self, version):
        """Damaged blobs raise typed IntegrityErrors, never
        struct.error/zlib.error/pickle errors/EOFError."""
        if version == 3:
            blob = save_recording(make_recording()[1])
        else:
            blob = (DATA / f"counter-v{version}.dlrn").read_bytes()
        assert blob[4] == version
        for cut in range(0, len(blob), max(1, len(blob) // 50)):
            with pytest.raises(IntegrityError):
                load_recording(blob[:cut])

    def test_bad_version_rejected(self):
        _, recording = make_recording()
        blob = bytearray(save_recording(recording))
        blob[4] = 99
        with pytest.raises(LogFormatError):
            load_recording(bytes(blob))

    def test_bytes_after_the_end_frame_are_refused(self):
        """A container ends at its END frame: junk after it, or a
        second recording, is not silently dropped."""
        blob = save_recording(make_recording()[1])
        with pytest.raises(LogFormatError, match="4 bytes after") as junk:
            load_recording(blob + b"junk")
        assert "load_segmented" not in str(junk.value)
        with pytest.raises(LogFormatError, match="load_segmented"):
            load_recording(blob + blob)
        for extra in (b"junk", blob):
            loaded, damage = load_recording_tolerant(blob + extra)
            assert [(d.offset, d.reason.split()[:2]) for d in damage] \
                == [(len(blob), [str(len(extra)), "bytes"])]
            assert loaded.fingerprints == make_recording()[1].fingerprints
        assert len(load_recordings(blob + blob)) == 2
        with pytest.raises(LogFormatError, match="bad magic"):
            load_recordings(blob + b"junk")

    def test_blob_is_compact(self):
        """Logs are bit-packed and the program and verification state
        are zlib-compressed columns: fft at scale 1.0 in OrderOnly
        fits in 150 kB (its pickled v2 trailer alone took 0.8 MB)."""
        program = splash2_program("fft", scale=1.0, seed=1)
        recording = DeLoreanSystem(
            mode=ExecutionMode.ORDER_ONLY).record(program)
        assert len(save_recording(recording)) <= 150_000


class TestIntervalCheckpointPersistence:
    def test_checkpoints_survive_round_trip_and_replay(self):
        config = small_config()
        system = DeLoreanSystem(machine_config=config,
                                chunk_size=config.standard_chunk_size)
        recording = system.record(counter_program(3, 20),
                                  checkpoint_every=10)
        loaded = load_recording(save_recording(recording))
        assert len(loaded.interval_checkpoints) == len(
            recording.interval_checkpoints)
        checkpoint = loaded.interval_checkpoints.by_index(0)
        result = system.replay_interval(loaded, checkpoint=checkpoint)
        assert result.determinism.matches

    def test_storage_sizing_survives_round_trip(self):
        config = small_config()
        system = DeLoreanSystem(machine_config=config,
                                chunk_size=config.standard_chunk_size)
        recording = system.record(counter_program(3, 20),
                                  checkpoint_every=5)
        loaded = load_recording(save_recording(recording))
        original = recording.interval_checkpoints
        assert loaded.interval_checkpoints.full_size_bits() == \
            original.full_size_bits()
        assert loaded.interval_checkpoints.delta_size_bits() == \
            original.delta_size_bits()


def assert_same_state(loaded, recording):
    """Everything a replay verifies against survived."""
    assert loaded.program == recording.program
    assert loaded.fingerprints == recording.fingerprints
    assert loaded.final_memory == recording.final_memory
    assert loaded.final_thread_keys == recording.final_thread_keys
    assert loaded.stats.as_dict() == recording.stats.as_dict()


class TestCanonicalBytes:
    """v3 is canonical: saving a loaded recording reproduces the blob,
    and the loaded recording verifies like the original."""

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    @pytest.mark.parametrize("app,scale", [
        ("fft", 0.15), ("radix", 0.15), ("sjbb2k", 0.1)])
    def test_presets_round_trip_byte_identically(self, app, scale,
                                                 mode):
        build = (commercial_program if app == "sjbb2k"
                 else splash2_program)
        system = DeLoreanSystem(mode=mode)
        recording = system.record(build(app, scale=scale, seed=2))
        blob = save_recording(recording)
        source = weakref.ref(recording.program)
        recording = fresh_program(recording)
        loaded = load_decoded(blob, source)
        assert save_recording(loaded) == blob
        assert_same_state(loaded, recording)
        assert system.replay(loaded).determinism.matches

    def test_interval_checkpoints_round_trip_byte_identically(self):
        config = small_config()
        system = DeLoreanSystem(machine_config=config,
                                chunk_size=config.standard_chunk_size)
        recording = system.record(counter_program(3, 20),
                                  checkpoint_every=5)
        blob = save_recording(recording)
        source = weakref.ref(recording.program)
        recording = fresh_program(recording)
        loaded = load_decoded(blob, source)
        assert save_recording(loaded) == blob
        assert_same_state(loaded, recording)
        assert (loaded.interval_checkpoints.checkpoints
                == recording.interval_checkpoints.checkpoints)
        assert system.replay(loaded).determinism.matches

    def test_negative_and_wide_literals_survive(self):
        """Op values are arbitrary ints: a hand-built STORE may carry
        a negative literal or one wider than 64 bits."""
        address = shared_address(0)
        program = Program(threads=[
            [Op(OpKind.STORE, address=address, value=-5),
             Op(OpKind.STORE, address=address + 1, value=1 << 70)],
            [Op(OpKind.STORE, address=address + 2, value=-(1 << 90))]])
        config = small_config()
        system = DeLoreanSystem(machine_config=config,
                                chunk_size=config.standard_chunk_size)
        blob = save_recording(system.record(program))
        source, expected = weakref.ref(program), replace(program)
        del program
        loaded = load_decoded(blob, source)
        assert loaded.program == expected
        assert save_recording(loaded) == blob
        assert system.replay(loaded).determinism.matches


class TestLiveProgram:
    """Loading a program section this process encoded returns the live
    program; any other payload decodes."""

    def test_a_live_program_is_reused(self):
        _, recording = make_recording(with_system=True)
        blob = save_recording(recording)
        loaded = load_recording(blob)
        assert loaded.program is recording.program
        assert save_recording(loaded) == blob

    def test_a_mutated_program_payload_decodes(self):
        """Recompressed, the program section holds the same program in
        other bytes: it misses, decodes to an equal program, and that
        program saves canonically, never as the payload it came from."""
        _, recording = make_recording(with_system=True)
        blob = save_recording(recording)
        frames, _ = container_frames(blob)
        frame = next(f for f in frames if f.name == "program")
        other = reframe(blob, frame, frame.payload[:4] + zlib.compress(
            zlib.decompress(frame.payload[4:]), 9))
        assert other != blob
        for _ in range(2):
            loaded = load_recording(other)
            assert loaded.program is not recording.program
            assert loaded.program == recording.program
            assert serialization._SECTION_ATTR not in vars(loaded.program)
        assert save_recording(loaded) == blob
        assert load_recording(blob).program is recording.program

    def test_the_cached_section_is_private(self):
        _, recording = make_recording(with_system=True)
        program = recording.program
        save_recording(recording)
        assert serialization._SECTION_ATTR in vars(program)
        derived = replace(program)
        assert serialization._SECTION_ATTR not in vars(derived)
        assert derived == program
        assert repr(derived) == repr(program)
        assert derived.__reduce__() == program.__reduce__()
        unpickled = pickle.loads(pickle.dumps(program))
        assert unpickled == program
        assert serialization._SECTION_ATTR not in vars(unpickled)
        assert copy.copy(program) is program
        assert copy.deepcopy(program) is program

    def test_threads_saving_and_loading_get_equal_programs(self):
        """More threads than cores and a tiny switch interval: threads
        race to encode the same never-encoded programs, and to register
        equal copies, while others load."""
        threads, rounds, seconds = (os.cpu_count() or 1) + 2, 12, 60.0
        config = small_config()
        system = DeLoreanSystem(machine_config=config,
                                chunk_size=config.standard_chunk_size)
        shared = [fresh_program(system.record(counter_program(count, 6)))
                  for count in (2, 3, 4)]
        failures = []
        start = threading.Barrier(threads, timeout=seconds)

        def work(index):
            try:
                start.wait()
                for turn in range(rounds):
                    for recording in shared:
                        if (index + turn) % 2:
                            recording = fresh_program(recording)
                        blob = save_recording(recording)
                        loaded = load_recording(blob)
                        if (loaded.program != recording.program
                                or save_recording(loaded) != blob):
                            failures.append((index, turn))
            except Exception as error:
                failures.append(error)

        workers = [threading.Thread(target=work, args=(index,),
                                    daemon=True)
                   for index in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            deadline = time.monotonic() + seconds
            for worker in workers:
                worker.join(max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert failures == []


class TestNoPickle:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_v3_round_trip_never_touches_pickle(self, mode,
                                                monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pickle used on the v3 path")

        for name in ("dumps", "loads", "Unpickler"):
            monkeypatch.setattr(pickle, name, refuse)
        system, recording = make_recording(mode, with_system=True)
        loaded = load_recording(save_recording(recording))
        assert_same_state(loaded, recording)
        assert system.replay(loaded).determinism.matches

    def test_segmented_round_trip_never_touches_pickle(self,
                                                       monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pickle used on the segmented path")

        segmented = degraded_segments()
        for name in ("dumps", "loads", "Unpickler"):
            monkeypatch.setattr(pickle, name, refuse)
        loaded = load_segmented(save_segmented(segmented))
        assert len(loaded.segments) == 3
        for segment, original in zip(loaded.segments,
                                     segmented.segments):
            assert_same_state(segment, original)
            assert segment.start_checkpoint == original.start_checkpoint
        assert replay_stitched(loaded).matches


class TestStartSection:
    """A degraded segment's start checkpoint travels in its own
    recording, and no other recording's bytes change."""

    def test_a_plain_recording_is_a_one_segment_recording(self):
        _, recording = make_recording()
        blob = save_recording(recording)
        assert "start" not in {f.name for f in container_frames(blob)[0]}
        segmented = load_segmented(blob)
        assert len(segmented.segments) == 1
        assert save_segmented(segmented) == blob

    def test_later_segments_carry_their_start(self):
        segmented = degraded_segments()
        first, *later = segmented.segments
        assert first.start_checkpoint is None
        for segment in later:
            blob = save_recording(segment)
            names = [f.name for f in container_frames(blob)[0]]
            assert names.count("start") == 1
            loaded = load_recording(blob, legacy=False)
            assert loaded.start_checkpoint == segment.start_checkpoint
            assert save_recording(loaded) == blob
            # Replay needs no checkpoint argument.
            bound = len(loaded.fingerprints) if segment is not \
                later[-1] else 0
            result = replay_execution(loaded, stop_after=bound)
            assert result.determinism.matches

    def test_the_memory_image_is_the_programs(self):
        segment = degraded_segments().segments[1]
        image = dict(segment.start_checkpoint.memory_image)
        image[max(image) + 8] = 1
        moved = replace(segment, start_checkpoint=replace(
            segment.start_checkpoint, memory_image=image))
        with pytest.raises(LogFormatError, match="initial memory"):
            save_recording(moved)

    def test_a_duplicate_start_section_is_refused(self):
        blob = save_recording(degraded_segments().segments[1])
        frames, _ = container_frames(blob)
        start = next(f for f in frames if f.name == "start")
        doubled = (blob[:start.end] + blob[start.start:start.end]
                   + blob[start.end:])
        with pytest.raises(LogFormatError, match="duplicate start"):
            load_recording(doubled)

    def test_an_undecodable_start_section_is_not_salvaged(self):
        """Without its start checkpoint a segment cannot replay, so
        the tolerant loader refuses it rather than replay from the
        program's initial state."""
        blob = save_recording(degraded_segments().segments[1])
        frames, _ = container_frames(blob)
        start = next(f for f in frames if f.name == "start")
        broken = reframe(blob, start, start.payload[:-3])
        for load in (load_recording, load_recording_tolerant):
            with pytest.raises(LogFormatError, match="start section"):
                load(broken)
        # A recording that loses the whole frame loses its start.
        dropped = blob[:start.start] + blob[start.end:]
        assert load_recording(dropped).start_checkpoint is None


def _evil_trailer_ran():
    _evil_trailer_ran.calls += 1


_evil_trailer_ran.calls = 0


class _EvilTrailer:
    def __reduce__(self):
        return (_evil_trailer_ran, ())


def reframe(blob: bytes, frame, payload: bytes) -> bytes:
    """``blob`` with ``frame``'s payload replaced and its CRC
    recomputed, so damage reaches the section decoder."""
    header = struct.pack(">BHII", frame.tag, frame.proc,
                         frame.bit_length, len(payload))
    crc = zlib.crc32(header + payload) & 0xFFFFFFFF
    return (blob[:frame.start] + b"\xa5SEC" + header
            + struct.pack(">I", crc) + payload + blob[frame.end:])


class TestLegacyFixtures:
    @pytest.mark.parametrize("name", LEGACY_FIXTURES)
    def test_fixture_loads_replays_and_converts_to_v3(self, name):
        blob = (DATA / name).read_bytes()
        assert blob[4] in (1, 2)
        recording = load_recording(blob)
        assert replay_execution(recording).determinism.matches
        v3 = save_recording(recording)
        source = weakref.ref(recording.program)
        recording = fresh_program(recording)
        converted = load_decoded(v3, source)
        assert save_recording(converted) == v3
        assert_same_state(converted, recording)
        assert replay_execution(converted).determinism.matches

    def test_fixtures_cover_interrupts_dma_and_checkpoints(self):
        loaded = {name: load_recording((DATA / name).read_bytes())
                  for name in LEGACY_FIXTURES}
        assert any(r.program.interrupts and r.program.dma_transfers
                   and r.stats.handler_chunks for r in loaded.values())
        assert any(r.interval_checkpoints for r in loaded.values())
        assert any(r.program.name == "sjbb2k" for r in loaded.values())

    def test_trailer_calling_a_foreign_global_never_runs(self):
        payload = pickle.dumps(_EvilTrailer())
        _evil_trailer_ran.calls = 0
        pickle.loads(payload)  # an unrestricted unpickler runs it
        assert _evil_trailer_ran.calls == 1
        _evil_trailer_ran.calls = 0
        blob = (DATA / "counter-v2.dlrn").read_bytes()
        frames, _ = container_frames(blob)
        trailer = next(f for f in frames if f.name == "trailer")
        evil = reframe(blob, trailer, payload)
        with pytest.raises(LogFormatError, match="_evil_trailer_ran"):
            load_recording(evil)
        with pytest.raises(IntegrityError):
            load_recording_tolerant(evil)
        assert _evil_trailer_ran.calls == 0

    def test_record_artifacts_accept_v3_only(self):
        def artifact(blob):
            return {"payload_codec": "dlrn",
                    "payload": base64.b64encode(blob).decode("ascii")}

        for name in LEGACY_FIXTURES:
            with pytest.raises(LogFormatError, match="legacy"):
                recording_from_artifact(
                    artifact((DATA / name).read_bytes()))
        _, recording = make_recording()
        loaded = recording_from_artifact(
            artifact(save_recording(recording)))
        assert loaded.fingerprints == recording.fingerprints


def with_program_head(blob: bytes, edit) -> bytes:
    """``blob`` with ``edit`` applied to its program section's JSON
    head, recompressed and reframed."""
    frames, _ = container_frames(blob)
    frame = next(f for f in frames if f.name == "program")
    content = zlib.decompress(frame.payload[4:])
    (size,) = struct.unpack_from("<I", content)
    head = json.loads(content[4:4 + size])
    edit(head)
    text = json.dumps(head).encode()
    content = struct.pack("<I", len(text)) + text + content[4 + size:]
    return reframe(blob, frame, struct.pack("<I", len(content))
                   + zlib.compress(content, 1))


class TestHostileV3:
    """Seeded mutations inside each state section, with the frame CRC
    recomputed so the damage reaches the decoder: every case ends
    quickly as a decoded recording or an IntegrityError."""

    CASES_PER_KIND = 24
    SECONDS_PER_CASE = 5.0

    @staticmethod
    def length_fields(monkeypatch, blob) -> dict:
        """Offset of every u32 length field each section's decoder
        reads, found by watching a clean decode."""
        seen: dict[str, list[int]] = {}
        read = serialization._Reader._u32

        def watch(reader):
            seen.setdefault(reader.section, []).append(reader.pos)
            return read(reader)

        with monkeypatch.context() as patch:
            patch.setattr(serialization._Reader, "_u32", watch)
            load_recording(blob)
        return seen

    def check(self, blob):
        started = time.perf_counter()
        for load in (load_recording, load_recording_tolerant):
            try:
                load(blob)
            except IntegrityError:
                pass
        assert time.perf_counter() - started < self.SECONDS_PER_CASE

    def test_seeded_mutations_decode_or_raise_typed(self, monkeypatch):
        config = small_config()
        system = DeLoreanSystem(machine_config=config,
                                chunk_size=config.standard_chunk_size)
        program = replace(
            counter_program(3, 16),
            interrupts=[InterruptEvent(
                time=300.0, processor=1, vector=4, handler_ops=20)],
            dma_transfers=[DmaTransfer(
                time=200.0, writes={shared_address(900): 77})])
        blob = save_recording(system.record(program,
                                            checkpoint_every=6))
        # Drop the source program: with it alive, the clean load would
        # reuse it and never run the program decoder.
        del program
        fields = self.length_fields(monkeypatch, blob)
        # Config is canonical JSON, with no length fields to watch.
        assert sorted(fields) == ["program", "verify"], (
            f"a state section decoder never ran: saw only {sorted(fields)}")
        frames, _ = container_frames(blob)
        rng = random.Random(17)
        for frame in frames:
            if frame.name in ("program", "config", "verify"):
                self.mutate(blob, frame, fields.get(frame.name, []), rng)

    def test_start_section_mutations_decode_or_raise_typed(
            self, monkeypatch):
        blob = save_recording(degraded_segments().segments[1])
        fields = self.length_fields(monkeypatch, blob)
        assert fields["start"]
        frames, _ = container_frames(blob)
        start = next(f for f in frames if f.name == "start")
        self.mutate(blob, start, fields["start"], random.Random(17))

    def test_a_later_segment_survives_every_truncation(self):
        """Exhaustive: every prefix of a segment with a start section
        raises a typed error, and so does every cut inside that
        section under the tolerant loader."""
        blob = save_recording(degraded_segments().segments[1])
        frames, _ = container_frames(blob)
        start = next(f for f in frames if f.name == "start")
        started = time.perf_counter()
        for cut in range(len(blob)):
            with pytest.raises(IntegrityError):
                load_recording(blob[:cut])
            if start.start <= cut < start.end:
                with pytest.raises(IntegrityError):
                    load_recording_tolerant(blob[:cut])
        assert time.perf_counter() - started < 60

    def mutate(self, blob, frame, length_offsets, rng):
        """Seeded bit flips, cuts and byte edits inside ``frame``'s
        content and raw payload, and edits of each u32 length field
        at ``length_offsets``, each checked by :meth:`check`."""
        compressed = frame.name != "config"
        content = (zlib.decompress(frame.payload[4:]) if compressed
                   else frame.payload)

        def rebuilt(mutated):
            if not compressed:
                return mutated
            return (struct.pack("<I", len(mutated))
                    + zlib.compress(mutated, 1))

        for _ in range(self.CASES_PER_KIND):
            flipped = bytearray(content)
            flipped[rng.randrange(len(flipped))] ^= (
                1 << rng.randrange(8))
            self.check(reframe(blob, frame, rebuilt(bytes(flipped))))
            cut = content[:rng.randrange(len(content))]
            self.check(reframe(blob, frame, rebuilt(cut)))
            # The raw payload too: deflate stream and size prefix.
            raw = bytearray(frame.payload)
            raw[rng.randrange(len(raw))] = rng.randrange(256)
            self.check(reframe(blob, frame, bytes(raw)))
        for offset in length_offsets:
            (declared,) = struct.unpack_from("<I", content, offset)
            for value in (0, declared - 1, declared + 1,
                          declared * 7, 0xFFFFFFFF):
                edited = bytearray(content)
                struct.pack_into("<I", edited, offset,
                                 value & 0xFFFFFFFF)
                self.check(reframe(blob, frame, rebuilt(bytes(edited))))
        if compressed:
            for value in (0, len(content) - 1, len(content) + 1,
                          0xFFFFFFFF):
                self.check(reframe(
                    blob, frame,
                    struct.pack("<I", value) + frame.payload[4:]))

    @pytest.mark.parametrize("stream", ["interrupts", "dma"])
    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf],
                             ids=["NaN", "Infinity", "-Infinity"])
    def test_non_finite_event_times_are_rejected(self, stream, time):
        """The program head is JSON, which Python reads ``NaN`` and
        ``Infinity`` from; a non-finite event time must not load."""
        blob = save_recording(make_recording(with_system=True)[1])

        def edit(head):
            head[stream][0][0] = time

        hostile = with_program_head(blob, edit)
        # Reframing alone keeps the blob loadable.
        load_recording(with_program_head(blob, lambda head: None),
                       legacy=False)
        with pytest.raises(LogFormatError, match="finite"):
            load_recording(hostile, legacy=False)
