"""Tests for chunk lifecycle, conflict tests and fingerprints."""

from conftest import record_reads

from repro.chunks.chunk import Chunk, ChunkState, TruncationReason
from repro.chunks.signature import SignatureConfig
from repro.machine.program import ThreadState


def make_chunk(proc=0, seq=1, piece=0) -> Chunk:
    return Chunk(
        processor=proc,
        logical_seq=seq,
        start_state=ThreadState(thread_id=proc),
        signature_config=SignatureConfig(),
        piece_index=piece,
    )


class TestChunkLifecycle:
    def test_initial_state(self):
        chunk = make_chunk()
        assert chunk.state is ChunkState.BUILDING
        assert chunk.is_speculative

    def test_committed_not_speculative(self):
        chunk = make_chunk()
        chunk.state = ChunkState.COMMITTED
        assert not chunk.is_speculative

    def test_squashed_not_speculative(self):
        chunk = make_chunk()
        chunk.state = ChunkState.SQUASHED
        assert not chunk.is_speculative

    def test_key_identity(self):
        assert make_chunk(2, 5, 1).key == (2, 5, 1)

    def test_repr_readable(self):
        text = repr(make_chunk(3, 7))
        assert "p3" in text and "seq=7" in text


class TestFootprintTracking:
    def test_record_write_updates_set_and_signature(self):
        chunk = make_chunk()
        chunk.record_write(10)
        assert 10 in chunk.write_lines
        assert chunk.write_signature.may_contain(10)


class TestConflictDetection:
    """The exact-set test; the hardware's signature test, which squashes
    on it, is :meth:`ChunkProcessor.squash_if_conflicts`
    (tests/test_processor.py)."""

    def test_write_write_conflict(self):
        a, b = make_chunk(0), make_chunk(1)
        a.record_write(5)
        b.record_write(5)
        assert b.truly_conflicts_with(a)

    def test_write_read_conflict(self):
        committing, inflight = make_chunk(0), make_chunk(1)
        committing.record_write(9)
        record_reads(inflight, 9)
        assert inflight.truly_conflicts_with(committing)

    def test_read_read_no_conflict(self):
        a, b = make_chunk(0), make_chunk(1)
        record_reads(a, 5)
        record_reads(b, 5)
        # a commits: its WRITE set is empty, so b survives.
        assert not b.truly_conflicts_with(a)

    def test_disjoint_no_true_conflict(self):
        a, b = make_chunk(0), make_chunk(1)
        a.record_write(1)
        b.record_write(2)
        record_reads(b, 3)
        assert not b.truly_conflicts_with(a)


class TestTruncationReasons:
    def test_nondeterministic_classification(self):
        assert TruncationReason.CACHE_OVERFLOW.is_nondeterministic
        assert TruncationReason.COLLISION_REDUCED.is_nondeterministic

    def test_deterministic_classification(self):
        for reason in (TruncationReason.SIZE_LIMIT,
                       TruncationReason.PROGRAM_END,
                       TruncationReason.IO_BOUNDARY,
                       TruncationReason.SPECIAL,
                       TruncationReason.CS_FORCED):
            assert not reason.is_nondeterministic


class TestFingerprint:
    def test_covers_writes(self):
        a, b = make_chunk(), make_chunk()
        a.write_buffer = {1: 2}
        b.write_buffer = {1: 3}
        a.end_state = ThreadState(thread_id=0)
        b.end_state = ThreadState(thread_id=0)
        assert a.commit_fingerprint() != b.commit_fingerprint()

    def test_ignores_timing(self):
        a, b = make_chunk(), make_chunk()
        for chunk in (a, b):
            chunk.end_state = ThreadState(thread_id=0)
        a.exec_cycles = 100.0
        b.exec_cycles = 999.0
        a.grant_time = 5
        b.grant_time = 50
        assert a.commit_fingerprint() == b.commit_fingerprint()

    def test_write_order_canonical(self):
        a, b = make_chunk(), make_chunk()
        a.write_buffer = {1: 10, 2: 20}
        b.write_buffer = {2: 20, 1: 10}
        a.end_state = ThreadState(thread_id=0)
        b.end_state = ThreadState(thread_id=0)
        assert a.commit_fingerprint() == b.commit_fingerprint()
