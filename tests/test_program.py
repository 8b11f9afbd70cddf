"""Tests for the program model: ops, thread state, compute algebra."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.machine.program import (
    Op,
    OpKind,
    Program,
    ThreadState,
    compute_mix,
)


class TestOpValidation:
    def test_negative_address_rejected(self):
        with pytest.raises(ConfigurationError):
            Op(OpKind.LOAD, address=-1)

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigurationError):
            Op(OpKind.COMPUTE, count=0)

    def test_default_fields(self):
        op = Op(OpKind.LOAD, address=5)
        assert op.value is None
        assert op.count == 1

    def test_ops_are_hashable_and_frozen(self):
        op = Op(OpKind.STORE, address=1, value=2)
        assert hash(op) == hash(Op(OpKind.STORE, address=1, value=2))
        with pytest.raises(AttributeError):
            op.address = 9


class TestProgramValidation:
    def test_empty_program_rejected(self):
        with pytest.raises(ConfigurationError):
            Program(threads=[])

    def test_non_op_entry_rejected(self):
        with pytest.raises(ConfigurationError):
            Program(threads=[["not an op"]])

    def test_counts(self):
        program = Program(threads=[
            [Op(OpKind.COMPUTE, count=5)],
            [Op(OpKind.LOAD, address=1), Op(OpKind.STORE, address=2)],
        ])
        assert program.num_threads == 2
        assert program.static_lengths() == [1, 2]
        assert program.total_static_ops() == 3


class TestThreadState:
    def test_snapshot_is_deep_enough(self):
        state = ThreadState(thread_id=0, op_index=3, accumulator=42,
                            retired=100)
        saved = state.snapshot()
        state.op_index = 9
        state.accumulator = 0
        assert saved.op_index == 3
        assert saved.accumulator == 42

    def test_restore_roundtrip(self):
        state = ThreadState(thread_id=1, op_index=2, retired=7,
                            compute_remaining=3, stage=1,
                            barrier_target=16)
        saved = state.snapshot()
        state.op_index = 99
        state.stage = 0
        state.restore(saved)
        assert state.architectural_key() == saved.architectural_key()

    def test_handler_fields_in_key(self):
        plain = ThreadState(thread_id=0)
        handler = ThreadState(thread_id=0,
                              handler_ops=(Op(OpKind.COMPUTE, count=1),),
                              handler_index=0)
        assert plain.architectural_key() != handler.architectural_key()
        assert handler.in_handler
        assert not plain.in_handler

    def test_exhausted_semantics(self):
        state = ThreadState(thread_id=0, finished=True)
        assert state.exhausted
        state.handler_ops = (Op(OpKind.COMPUTE, count=1),)
        assert not state.exhausted  # handler still pending


class TestComputeMix:
    def test_zero_steps_is_identity(self):
        assert compute_mix(12345, 0) == 12345

    def test_one_step_matches_affine_definition(self):
        from repro.machine.program import _AFFINE_A, _AFFINE_C
        x = 999
        assert compute_mix(x, 1) == (x * _AFFINE_A + _AFFINE_C) % (1 << 64)

    def test_matches_naive_iteration(self):
        from repro.machine.program import _AFFINE_A, _AFFINE_C
        value = 7
        for _ in range(123):
            value = (value * _AFFINE_A + _AFFINE_C) % (1 << 64)
        assert compute_mix(7, 123) == value

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=0, max_value=5000),
           st.integers(min_value=0, max_value=5000))
    def test_segmentation_invariance(self, start, first, second):
        """Splitting a compute block anywhere yields the same result.

        This is what lets replay legally split a chunk into
        back-to-back pieces (Section 4.2.3) without perturbing values.
        """
        whole = compute_mix(start, first + second)
        split = compute_mix(compute_mix(start, first), second)
        assert whole == split

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=1, max_value=10000))
    def test_result_stays_in_word_range(self, start, count):
        assert 0 <= compute_mix(start, count) < (1 << 64)


def closed_form_mix(accumulator: int, count: int) -> int:
    """``count`` affine steps without fast doubling or a memo.

    A^n comes from ``pow``; the geometric sum (A^n - 1) / (A - 1) is
    exact when A^n is reduced modulo (A - 1) * 2^64.
    """
    from repro.machine.program import _AFFINE_A, _AFFINE_C
    modulus = 1 << 64
    power = pow(_AFFINE_A, count, (_AFFINE_A - 1) * modulus)
    geometric = (power - 1) // (_AFFINE_A - 1)
    return (accumulator * power + _AFFINE_C * geometric) % modulus


class TestComputeMixMemo:
    LARGE_COUNTS = (1 << 32, (1 << 32) + 1, (1 << 40) + 12345,
                    (1 << 63) - 1)

    def test_matches_unmemoized_reference(self):
        start = 0x0123456789ABCDEF
        for count in range(4097):
            assert compute_mix(start, count) == \
                closed_form_mix(start, count), count
        for count in self.LARGE_COUNTS:
            assert compute_mix(start, count) == \
                closed_form_mix(start, count), count

    def test_repeated_counts_are_served_by_the_memo(self):
        from repro.machine.program import _affine_power
        compute_mix(1, 777)
        hits = _affine_power.cache_info().hits
        assert compute_mix(5, 777) == closed_form_mix(5, 777)
        assert _affine_power.cache_info().hits == hits + 1

    def test_segmentation_invariance_across_memo_hits(self):
        start = 424242
        for first, second in [(3, 5), (1999, 1), (1 << 33, 17),
                              (1000, 1000)]:
            # The second round serves every count from the memo.
            for _ in range(2):
                whole = compute_mix(start, first + second)
                split = compute_mix(compute_mix(start, first), second)
                assert whole == split == closed_form_mix(
                    start, first + second)

    def test_memo_is_bounded(self):
        from repro.machine.program import _affine_power
        assert _affine_power.cache_info().maxsize is not None
