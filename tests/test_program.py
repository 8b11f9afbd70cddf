"""Tests for the program model: ops, thread state, compute algebra."""

import copy
import dataclasses
import pickle
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, strategies as st

from repro.core.serialization import (
    _decode_program,
    _encode_program,
    load_recording,
    save_recording,
)
from repro.errors import ConfigurationError
from repro.machine.events import DmaTransfer, InterruptEvent
from repro.machine.program import (
    Op,
    OpKind,
    Program,
    ThreadState,
    compute_mix,
    trusted_op,
)

DATA = Path(__file__).parent / "data"


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


class TestOpRecord:
    def test_trusted_op_equals_a_validated_op(self):
        built = trusted_op(OpKind.STORE, 3, -7, 2)
        assert type(built) is Op
        assert built == Op(OpKind.STORE, address=3, value=-7, count=2)
        assert hash(built) == hash(Op(OpKind.STORE, 3, -7, 2))

    def test_fields_cannot_be_deleted(self):
        op = Op(OpKind.LOAD, address=5)
        with pytest.raises(AttributeError):
            del op.kind
        assert op.kind is OpKind.LOAD

    def test_equality_is_class_sensitive(self):
        op = Op(OpKind.LOAD, address=5)
        assert op != (OpKind.LOAD, 5, None, 1)
        assert op != Op(OpKind.STORE, address=5)

    def test_pickle_and_copy_round_trip(self):
        op = Op(OpKind.RMW, address=9, value=1 << 70, count=3)
        assert pickle.loads(pickle.dumps(op)) == op
        assert copy.deepcopy(op) == op


class TestProgramValidation:
    def test_empty_program_rejected(self):
        with pytest.raises(ConfigurationError):
            Program(threads=[])

    def test_non_op_entry_rejected(self):
        with pytest.raises(ConfigurationError):
            Program(threads=[["not an op"]])

    @pytest.mark.parametrize("field,value", [
        ("name", 7), ("name", None), ("io_seed", 1.5), ("io_seed", "3")])
    def test_ill_typed_head_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            events_program(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("time", "10"), ("processor", 0.0), ("vector", 1.5),
        ("payload", "9"), ("handler_ops", 64.0), ("high_priority", 1),
        ("replay_chunk_id", None)])
    def test_ill_typed_interrupt_rejected(self, field, value):
        fields = {"time": 10.0, "processor": 0, "vector": 1, field: value}
        with pytest.raises(ConfigurationError, match=field):
            InterruptEvent(**fields)

    @pytest.mark.parametrize("writes", [
        {7.0: 8}, {"7": 8}, {7: 8.5}, {7: None}])
    def test_ill_typed_dma_write_rejected(self, writes):
        with pytest.raises(ConfigurationError, match="DMA writes"):
            DmaTransfer(time=5.0, writes=writes)

    def test_bools_pass_where_ints_do(self):
        # Exactly what the PROGRAM section decoder accepts.
        program = events_program(
            io_seed=True,
            interrupts=[InterruptEvent(
                time=True, processor=False, vector=True, payload=False,
                handler_ops=True, replay_chunk_id=False)],
            dma_transfers=[DmaTransfer(time=1, writes={True: False})])
        section = _encode_program(program)
        assert _decode_program(section, {})["program"] == program

    def test_counts(self):
        program = Program(threads=[
            [Op(OpKind.COMPUTE, count=5)],
            [Op(OpKind.LOAD, address=1), Op(OpKind.STORE, address=2)],
        ])
        assert program.num_threads == 2
        assert program.static_lengths() == [1, 2]
        assert program.total_static_ops() == 3


def events_program(**overrides) -> Program:
    """A two-thread program with memory, an interrupt and a DMA burst,
    its fields given as the lists and dicts callers pass."""
    fields = dict(
        threads=[[Op(OpKind.LOAD, address=1)],
                 [Op(OpKind.STORE, address=2, value=3),
                  Op(OpKind.COMPUTE, count=4)]],
        name="events",
        initial_memory={1: 5, 9: 6},
        interrupts=[InterruptEvent(time=10.0, processor=0, vector=1)],
        dma_transfers=[DmaTransfer(time=5.0, writes={7: 8})],
        io_seed=3,
    )
    fields.update(overrides)
    return Program(**fields)


def assert_immutable_shape(program: Program) -> None:
    """Tuples of tuples of ops, a read-only memory image, and tuples of
    events whose DMA writes are read-only too."""
    assert type(program.threads) is tuple
    assert all(type(ops) is tuple for ops in program.threads)
    assert all(type(op) is Op for ops in program.threads for op in ops)
    assert type(program.initial_memory) is MappingProxyType
    assert type(program.interrupts) is tuple
    assert all(type(event) is InterruptEvent
               for event in program.interrupts)
    assert type(program.dma_transfers) is tuple
    assert all(type(transfer) is DmaTransfer
               and type(transfer.writes) is MappingProxyType
               for transfer in program.dma_transfers)


class TestImmutableProgram:
    def test_fields_cannot_be_reassigned(self):
        program = events_program()
        for field in dataclasses.fields(Program):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(program, field.name, getattr(program, field.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            program.dma_transfers[0].writes = {}

    def test_threads_memory_and_events_cannot_be_mutated(self):
        program = events_program()
        assert_immutable_shape(program)
        with pytest.raises(AttributeError):
            program.threads.append(())
        with pytest.raises(AttributeError):
            program.threads[0].append(Op(OpKind.LOAD))
        with pytest.raises(TypeError):
            program.threads[0][0] = Op(OpKind.LOAD)
        with pytest.raises(TypeError):
            program.initial_memory[1] = 0
        with pytest.raises(AttributeError):
            program.initial_memory.update({1: 0})
        with pytest.raises(AttributeError):
            program.interrupts.append(program.interrupts[0])
        with pytest.raises(AttributeError):
            program.dma_transfers.append(program.dma_transfers[0])
        with pytest.raises(TypeError):
            program.dma_transfers[0].writes[7] = 0
        assert dict(program.initial_memory) == {1: 5, 9: 6}
        assert dict(program.dma_transfers[0].writes) == {7: 8}

    def test_the_callers_containers_are_copied(self):
        ops = [Op(OpKind.LOAD, address=1)]
        memory = {1: 5}
        writes = {7: 8}
        program = Program(threads=[ops], initial_memory=memory,
                          dma_transfers=[DmaTransfer(1.0, writes)])
        ops.append(Op(OpKind.STORE, address=2))
        memory[1] = 0
        writes[7] = 0
        assert program.threads == ((Op(OpKind.LOAD, address=1),),)
        assert program.initial_memory == {1: 5}
        assert program.dma_transfers[0].writes == {7: 8}

    def test_built_from_lists_equals_built_from_tuples(self):
        from_lists = events_program()
        from_tuples = events_program(
            threads=tuple(map(tuple, from_lists.threads)),
            initial_memory=MappingProxyType({1: 5, 9: 6}),
            interrupts=tuple(from_lists.interrupts),
            dma_transfers=(DmaTransfer(time=5.0, writes={7: 8}),))
        assert from_lists == from_tuples
        assert from_lists != events_program(initial_memory={1: 5})

    def test_replace_derives_a_new_program(self):
        program = events_program()
        derived = dataclasses.replace(program, name="derived",
                                      interrupts=[])
        assert derived.name == "derived"
        assert derived.interrupts == ()
        assert derived.threads == program.threads
        assert derived.initial_memory == program.initial_memory
        assert_immutable_shape(derived)
        assert program.name == "events"
        assert len(program.interrupts) == 1

    def test_copies_return_the_program_itself(self):
        program = events_program()
        assert copy.copy(program) is program
        assert copy.deepcopy(program) is program
        assert copy.deepcopy([program])[0] is program
        op = program.threads[1][0]
        assert copy.copy(op) is op
        assert copy.deepcopy(op) is op

    def test_pickle_round_trip_keeps_the_shape(self):
        program = events_program()
        loaded = pickle.loads(pickle.dumps(program))
        assert loaded == program
        assert_immutable_shape(loaded)

    def test_programs_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(events_program())

    @pytest.mark.parametrize(
        "fixture", sorted(path.name for path in DATA.glob("*.dlrn")))
    def test_legacy_fixtures_decode_to_the_immutable_shape(self, fixture):
        program = load_recording((DATA / fixture).read_bytes()).program
        assert_immutable_shape(program)
        resaved = load_recording(save_recording(
            load_recording((DATA / fixture).read_bytes()))).program
        assert resaved == program
        assert_immutable_shape(resaved)


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
