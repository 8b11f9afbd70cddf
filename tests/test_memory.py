"""Tests for main memory and the I/O / interrupt / DMA event types."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.machine.events import (
    DmaTransfer,
    InterruptEvent,
    IODevice,
    build_handler_ops,
)
from repro.machine.memory import MainMemory
from repro.machine.program import OpKind


class TestMainMemory:
    def test_unmapped_reads_zero(self):
        assert MainMemory().read(12345) == 0

    def test_write_read(self):
        memory = MainMemory()
        memory.write(7, 99)
        assert memory.read(7) == 99

    def test_values_masked_to_word(self):
        memory = MainMemory()
        memory.write(1, 1 << 70)
        assert memory.read(1) < (1 << 64)

    def test_initial_contents(self):
        memory = MainMemory({1: 10, 2: 20})
        assert memory.read(1) == 10
        assert memory.read(2) == 20

    def test_apply_is_atomic_batch(self):
        memory = MainMemory()
        memory.apply({1: 11, 2: 22, 3: 33})
        assert [memory.read(a) for a in (1, 2, 3)] == [11, 22, 33]

    def test_snapshot_restore(self):
        memory = MainMemory({5: 50})
        saved = memory.snapshot()
        memory.write(5, 0)
        memory.write(6, 60)
        memory.restore(saved)
        assert memory.read(5) == 50
        assert memory.read(6) == 0

    def test_snapshot_is_copy(self):
        memory = MainMemory({1: 1})
        saved = memory.snapshot()
        memory.write(1, 2)
        assert saved[1] == 1

    def test_nonzero_words_elides_zeros(self):
        memory = MainMemory()
        memory.write(1, 5)
        memory.write(2, 0)
        assert memory.nonzero_words() == {1: 5}

    @given(st.dictionaries(st.integers(min_value=0, max_value=1000),
                           st.integers(min_value=0,
                                       max_value=(1 << 64) - 1),
                           max_size=50))
    def test_apply_equals_individual_writes(self, writes):
        batched, sequential = MainMemory(), MainMemory()
        batched.apply(writes)
        for address, value in writes.items():
            sequential.write(address, value)
        assert batched.snapshot() == sequential.snapshot()


class TestIODevice:
    def test_deterministic_per_seed(self):
        a, b = IODevice(5), IODevice(5)
        assert [a.load(0) for _ in range(5)] == [
            b.load(0) for _ in range(5)]

    def test_different_seeds_differ(self):
        assert IODevice(1).load(0) != IODevice(2).load(0)

    def test_per_port_sequences(self):
        device = IODevice(3)
        first_port0 = device.load(0)
        first_port1 = device.load(1)
        assert first_port0 != first_port1

    def test_reset_rewinds(self):
        device = IODevice(9)
        first = device.load(4)
        device.load(4)
        device.reset()
        assert device.load(4) == first


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestInterruptEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            InterruptEvent(time=-1, processor=0, vector=1)

    @pytest.mark.parametrize("time", NON_FINITE)
    def test_non_finite_time_rejected(self, time):
        with pytest.raises(ConfigurationError, match="finite"):
            InterruptEvent(time=time, processor=0, vector=1)

    def test_zero_handler_rejected(self):
        with pytest.raises(ConfigurationError):
            InterruptEvent(time=0, processor=0, vector=1, handler_ops=0)


class TestDmaTransfer:
    def test_empty_writes_rejected(self):
        with pytest.raises(ConfigurationError):
            DmaTransfer(time=0, writes={})

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            DmaTransfer(time=-5, writes={1: 2})

    @pytest.mark.parametrize("time", NON_FINITE)
    def test_non_finite_time_rejected(self, time):
        with pytest.raises(ConfigurationError, match="finite"):
            DmaTransfer(time=time, writes={1: 2})


class TestHandlerOps:
    def test_instruction_budget_matches_request(self):
        ops = build_handler_ops(vector=3, payload=77, handler_ops=50)
        total = sum(op.count if op.kind in (OpKind.COMPUTE,)
                    else 1 for op in ops)
        assert total == 50

    def test_deterministic_in_inputs(self):
        assert build_handler_ops(1, 2, 30) == build_handler_ops(1, 2, 30)
        assert build_handler_ops(1, 2, 30) != build_handler_ops(1, 3, 30)

    def test_touches_controller_region(self):
        from repro.machine.events import INTERRUPT_CONTROLLER_BASE
        ops = build_handler_ops(vector=8, payload=1, handler_ops=16)
        addresses = [op.address for op in ops
                     if op.kind is not OpKind.COMPUTE]
        assert all(a >= INTERRUPT_CONTROLLER_BASE for a in addresses)
