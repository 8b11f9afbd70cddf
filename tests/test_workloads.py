"""Tests for the synthetic workload generators and presets."""

import sys
import threading
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.machine.program import OpKind
from repro.workloads import (
    COMMERCIAL_APPS,
    PROGRAM_MEMO_SIZE,
    SPLASH2_APPS,
    SyntheticSpec,
    _memo_program,
    app_program,
    build_program,
    commercial_program,
    commercial_spec,
    splash2_program,
    splash2_spec,
)
from repro.workloads.program_builder import (
    ProgramBuilder,
    lock_address,
    private_address,
    shared_address,
)


class TestProgramBuilder:
    def test_fluent_chain(self):
        builder = ProgramBuilder(1)
        builder.writer(0).load(1).store(2).compute(3).rmw(4)
        program = builder.build()
        kinds = [op.kind for op in program.threads[0]]
        assert kinds == [OpKind.LOAD, OpKind.STORE, OpKind.COMPUTE,
                         OpKind.RMW]

    def test_critical_section_helper(self):
        from repro.machine.program import Op
        builder = ProgramBuilder(1)
        builder.writer(0).critical_section(
            lock_address(0), [Op(OpKind.RMW, address=1)])
        kinds = [op.kind for op in builder.build().threads[0]]
        assert kinds == [OpKind.LOCK, OpKind.RMW, OpKind.UNLOCK]

    def test_zero_threads_rejected(self):
        with pytest.raises(ConfigurationError):
            ProgramBuilder(0)

    def test_events_sorted(self):
        from repro.machine.events import DmaTransfer, InterruptEvent
        builder = ProgramBuilder(1)
        builder.add_interrupt(InterruptEvent(time=50, processor=0,
                                             vector=1))
        builder.add_interrupt(InterruptEvent(time=10, processor=0,
                                             vector=2))
        builder.add_dma(DmaTransfer(time=99, writes={1: 1}))
        builder.add_dma(DmaTransfer(time=5, writes={2: 2}))
        program = builder.build()
        assert program.interrupts[0].vector == 2
        assert program.dma_transfers[0].writes == {2: 2}

    def test_address_helpers_disjoint(self):
        assert lock_address(0) != shared_address(0)
        assert private_address(0, 0) != private_address(1, 0)


class TestSyntheticGeneration:
    def test_generation_is_deterministic(self):
        spec = SyntheticSpec(name="t", work_items=40, seed=9)
        assert build_program(spec).threads == build_program(spec).threads

    def test_seed_changes_program(self):
        a = build_program(SyntheticSpec(name="t", work_items=40, seed=1))
        b = build_program(SyntheticSpec(name="t", work_items=40, seed=2))
        assert a.threads != b.threads

    def test_scaling_shrinks_work(self):
        spec = SyntheticSpec(name="t", work_items=100)
        small = spec.scaled(0.25)
        assert small.work_items == 25
        assert (build_program(small).total_static_ops()
                < build_program(spec).total_static_ops())

    @pytest.mark.parametrize("scale", [
        0.0, -1.0, float("nan"), float("inf")])
    def test_scaling_rejects_out_of_range_factors(self, scale):
        with pytest.raises(ConfigurationError,
                           match="scale must be finite and above 0"):
            SyntheticSpec(name="t", work_items=100).scaled(scale)

    def test_with_threads(self):
        spec = SyntheticSpec(name="t", work_items=10).with_threads(2)
        assert build_program(spec).num_threads == 2

    def test_imbalance_skews_thread_lengths(self):
        spec = SyntheticSpec(name="t", work_items=100, imbalance=1.0)
        program = build_program(spec)
        lengths = program.static_lengths()
        assert lengths[-1] > lengths[0]

    def test_io_rate_produces_io_ops(self):
        spec = SyntheticSpec(name="t", work_items=300, io_rate=0.1,
                             seed=3)
        program = build_program(spec)
        kinds = [op.kind for ops in program.threads for op in ops]
        assert OpKind.IO_LOAD in kinds

    def test_interrupt_generation(self):
        spec = SyntheticSpec(name="t", work_items=200,
                             interrupts_per_thousand_items=20)
        program = build_program(spec)
        assert program.interrupts
        assert all(e.processor < spec.num_threads
                   for e in program.interrupts)

    def test_dma_generation(self):
        spec = SyntheticSpec(name="t", work_items=100, dma_bursts=4)
        program = build_program(spec)
        assert len(program.dma_transfers) == 4

    def test_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            SyntheticSpec(name="t", sharing_fraction=1.5)
        with pytest.raises(ConfigurationError):
            SyntheticSpec(name="t", hot_fraction=0.6,
                          remote_read_fraction=0.6)

    @pytest.mark.parametrize("field,value", [
        ("private_lines", 0), ("lock_count", -1), ("line_words", 0),
        ("publish_lines", 0), ("hot_lines", -5000)])
    def test_integer_geometry_is_validated(self, field, value):
        """Each of these once built a program silently or failed deep
        in the generator (randrange on an empty range, division by
        zero); the spec now refuses it, naming the field."""
        fft = replace(splash2_spec("fft", scale=0.1), work_items=30)
        build_program(fft)
        with pytest.raises(ConfigurationError, match=field):
            replace(fft, **{field: value})

    def test_column_check_refuses_what_op_refuses(self):
        from repro.machine.program import trusted_op
        from repro.workloads.synthetic import _check_columns

        good = [trusted_op(OpKind.LOAD, 8, None, 1)]
        _check_columns([good, []])
        with pytest.raises(ConfigurationError,
                           match="non-positive count in Op"):
            _check_columns([good, [trusted_op(OpKind.COMPUTE, 0, None, 0)]])
        with pytest.raises(ConfigurationError,
                           match="negative address in Op"):
            _check_columns([[trusted_op(OpKind.STORE, -8, None, 1)]])

    def test_estimated_instructions_positive(self):
        spec = SyntheticSpec(name="t", work_items=50)
        assert spec.estimated_instructions_per_thread() > 0


class TestPresets:
    def test_all_eleven_splash2_apps_present(self):
        expected = {"barnes", "cholesky", "fft", "fmm", "lu", "ocean",
                    "radiosity", "radix", "raytrace", "water-ns",
                    "water-sp"}
        assert set(SPLASH2_APPS) == expected

    def test_commercial_apps_present(self):
        assert set(COMMERCIAL_APPS) == {"sjbb2k", "sweb2005"}

    def test_splash2_has_no_system_references(self):
        """Section 5: SPLASH-2 runs without system references."""
        for name, spec in SPLASH2_APPS.items():
            assert spec.io_rate == 0.0, name
            assert spec.interrupts_per_thousand_items == 0.0, name
            assert spec.dma_bursts == 0, name

    def test_commercial_has_system_references(self):
        for name, spec in COMMERCIAL_APPS.items():
            assert spec.interrupts_per_thousand_items > 0, name
            assert spec.dma_bursts > 0, name
            assert spec.io_rate > 0, name

    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigurationError):
            splash2_spec("volrend")   # fails in their infrastructure too
        with pytest.raises(ConfigurationError):
            commercial_spec("tpcc")

    def test_program_factories(self):
        program = splash2_program("fft", scale=0.05, seed=2)
        assert program.name == "fft"
        assert program.num_threads == 8
        program = commercial_program("sjbb2k", scale=0.05,
                                     num_threads=4)
        assert program.num_threads == 4

    def test_outlier_apps_are_conflict_heavy(self):
        """radix/raytrace are the paper's high-conflict outliers."""
        assert (SPLASH2_APPS["radix"].remote_write_fraction
                > SPLASH2_APPS["fft"].remote_write_fraction)
        assert (SPLASH2_APPS["raytrace"].imbalance
                > SPLASH2_APPS["fft"].imbalance)


class TestAppProgramMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        _memo_program.cache_clear()
        yield
        _memo_program.cache_clear()

    def test_positional_and_keyword_spellings_share_a_program(self):
        program = app_program("fft", 0.05, 2, 4)
        assert app_program("fft", scale=0.05, seed=2,
                           num_threads=4) is program
        assert app_program(num_threads=4, seed=2, app="fft",
                           scale=0.05) is program
        assert program == splash2_program("fft", 0.05, 2, 4)

    def test_each_key_field_selects_its_own_program(self):
        program = app_program("fft", 0.05, 2, 4)
        others = [app_program("fft", 0.05, 3, 4),
                  app_program("fft", 0.1, 2, 4),
                  app_program("fft", 0.05, 2, 2),
                  app_program("radix", 0.05, 2, 4)]
        for other in others:
            assert other is not program
            assert other != program

    def test_commercial_apps_are_memoized_too(self):
        program = app_program("sjbb2k", 0.05, 1, 4)
        assert app_program("sjbb2k", 0.05, 1, 4) is program
        assert program == commercial_program("sjbb2k", 0.05, 1, 4)

    def test_the_bound_evicts_the_least_recently_used(self):
        programs = {seed: app_program("fft", 0.05, seed, 2)
                    for seed in range(1, PROGRAM_MEMO_SIZE + 1)}
        assert app_program("fft", 0.05, 1, 2) is programs[1]  # now newest
        app_program("fft", 0.05, PROGRAM_MEMO_SIZE + 1, 2)    # evicts 2
        assert _memo_program.cache_info().currsize == PROGRAM_MEMO_SIZE
        assert app_program("fft", 0.05, 1, 2) is programs[1]
        rebuilt = app_program("fft", 0.05, 2, 2)
        assert rebuilt is not programs[2]
        assert rebuilt == programs[2]

    def test_threads_sharing_the_memo_get_correct_programs(self):
        # More keys than the bound, so threads race on eviction too.
        keys = [("fft", 0.02, seed, 2)
                for seed in range(1, PROGRAM_MEMO_SIZE + 3)]
        expected = {key: splash2_program(*key) for key in keys}
        wrong = []

        def worker(offset):
            for step in range(40):
                key = keys[(offset + step) % len(keys)]
                if app_program(*key) != expected[key]:
                    wrong.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,))
                       for offset in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert _memo_program.cache_info().currsize == PROGRAM_MEMO_SIZE

    def test_the_builders_stay_uncached(self):
        assert splash2_program("fft", 0.05) is not \
            splash2_program("fft", 0.05)
        assert commercial_program("sjbb2k", 0.05) is not \
            commercial_program("sjbb2k", 0.05)
        assert _memo_program.cache_info().currsize == 0

    def test_failed_builds_are_not_memoized(self):
        with pytest.raises(ConfigurationError):
            app_program("volrend")
        with pytest.raises(ConfigurationError):
            app_program("fft", float("nan"))
        assert _memo_program.cache_info().currsize == 0
