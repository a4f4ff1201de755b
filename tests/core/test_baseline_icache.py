"""Tests for the statically-recovered baseline ([4]) and the i-cache."""

import pytest

from repro.core.baseline import build_baseline_block, simulate_baseline_block
from repro.core.icache import CodeLayout, ICacheConfig, InstructionCache
from repro.core.machine_sim import simulate_best_case, simulate_worst_case
from repro.core.specsched import schedule_speculative
from repro.core.speculation import transform_block
from repro.ir.builder import FunctionBuilder
from repro.sched.list_scheduler import schedule_block


@pytest.fixture
def spec_and_machine(m4):
    fb = FunctionBuilder("f")
    fb.block("entry")
    fb.mov("p", 100)
    load = fb.load("a", "p")
    fb.add("b", "a", 1)
    fb.mul("c", "b", "b")
    fb.store("c", "p", offset=10)
    fb.halt()
    block = fb.build().block("entry")
    spec = transform_block(block, m4, [load])
    return spec, m4, schedule_block(block, m4).length


class TestCompensationBlocks:
    def test_one_block_per_prediction(self, spec_and_machine):
        spec, m4, orig = spec_and_machine
        baseline = build_baseline_block(spec, m4, original_length=orig)
        assert set(baseline.compensation) == set(spec.ldpred_ids)

    def test_compensation_contains_the_speculated_ops(self, spec_and_machine):
        spec, m4, orig = spec_and_machine
        baseline = build_baseline_block(spec, m4, original_length=orig)
        comp = baseline.compensation[spec.ldpred_ids[0]]
        assert comp.op_count == 2  # add and mul
        # dependent ops schedule serially: add(1) then mul(3)
        assert comp.length == 4
        assert baseline.static_comp_ops == 2

    def test_code_growth_reported(self, spec_and_machine):
        spec, m4, orig = spec_and_machine
        baseline = build_baseline_block(spec, m4, original_length=orig)
        assert baseline.static_comp_ops > 0


class TestBaselineTiming:
    def test_correct_prediction_costs_main_schedule_only(self, spec_and_machine):
        spec, m4, orig = spec_and_machine
        baseline = build_baseline_block(spec, m4, original_length=orig)
        run = simulate_baseline_block(
            baseline, {spec.ldpred_ids[0]: True}, m4
        )
        assert run.effective_length == baseline.main_length
        assert run.compensation_cycles == 0
        assert run.branch_cycles == 0

    def test_misprediction_pays_serial_recovery_and_branches(self, spec_and_machine):
        spec, m4, orig = spec_and_machine
        baseline = build_baseline_block(spec, m4, original_length=orig)
        run = simulate_baseline_block(
            baseline, {spec.ldpred_ids[0]: False}, m4
        )
        comp = baseline.compensation[spec.ldpred_ids[0]]
        assert run.compensation_cycles == comp.length
        assert run.branch_cycles == 2 * m4.branch_penalty
        assert run.effective_length == (
            baseline.main_length + comp.length + 2 * m4.branch_penalty
        )

    def test_proposed_beats_baseline_on_mispredict(self, spec_and_machine):
        """The paper's headline comparison: parallel recovery beats the
        serial statically scheduled recovery."""
        spec, m4, orig = spec_and_machine
        baseline = build_baseline_block(spec, m4, original_length=orig)
        spec_schedule = schedule_speculative(spec, m4, original_length=orig)
        proposed = simulate_worst_case(spec_schedule)
        static = simulate_baseline_block(
            baseline, {l: False for l in spec.ldpred_ids}, m4
        )
        assert proposed.effective_length < static.effective_length

    def test_equal_on_all_correct(self, spec_and_machine):
        spec, m4, orig = spec_and_machine
        baseline = build_baseline_block(spec, m4, original_length=orig)
        spec_schedule = schedule_speculative(spec, m4, original_length=orig)
        proposed = simulate_best_case(spec_schedule)
        static = simulate_baseline_block(
            baseline, {l: True for l in spec.ldpred_ids}, m4
        )
        assert proposed.effective_length == static.effective_length

    def test_missing_outcomes_rejected(self, spec_and_machine):
        spec, m4, orig = spec_and_machine
        baseline = build_baseline_block(spec, m4, original_length=orig)
        with pytest.raises(ValueError, match="missing outcomes"):
            simulate_baseline_block(baseline, {}, m4)


class TestInstructionCache:
    def test_cold_misses(self):
        cache = InstructionCache(ICacheConfig(lines=4, miss_penalty=5))
        assert cache.access_range(0, 2) == 10
        assert cache.misses == 2

    def test_hits_after_warmup(self):
        cache = InstructionCache(ICacheConfig(lines=4, miss_penalty=5))
        cache.access_range(0, 2)
        assert cache.access_range(0, 2) == 0
        assert cache.miss_rate == pytest.approx(0.5)

    def test_conflict_eviction(self):
        cache = InstructionCache(ICacheConfig(lines=2, miss_penalty=1))
        cache.access_range(0, 1)     # line 0 -> index 0
        cache.access_range(2, 1)     # line 2 -> index 0: evicts line 0
        assert cache.access_range(0, 1) == 1  # miss again

    def test_invalid_access(self):
        cache = InstructionCache()
        with pytest.raises(ValueError):
            cache.access_range(0, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ICacheConfig(lines=0)

    def test_lines_for(self):
        config = ICacheConfig(ops_per_line=4)
        assert config.lines_for(1) == 1
        assert config.lines_for(4) == 1
        assert config.lines_for(5) == 2

    def test_reset(self):
        cache = InstructionCache()
        cache.access_range(0, 3)
        cache.reset()
        assert cache.accesses == 0 and cache.misses == 0


class TestCodeLayout:
    def test_contiguous_placement(self):
        layout = CodeLayout(ICacheConfig(ops_per_line=4))
        first = layout.place("a", 8)   # 2 lines
        second = layout.place("b", 1)  # 1 line
        assert first == (0, 2)
        assert second == (2, 1)
        assert layout.total_lines == 3

    def test_duplicate_placement_rejected(self):
        layout = CodeLayout()
        layout.place("a", 1)
        with pytest.raises(ValueError, match="already placed"):
            layout.place("a", 1)

    def test_missing_block(self):
        with pytest.raises(KeyError, match="never placed"):
            CodeLayout().range_of("ghost")

    def test_fetch_through_cache(self):
        config = ICacheConfig(lines=8, miss_penalty=3)
        layout = CodeLayout(config)
        cache = InstructionCache(config)
        layout.place("main", 4)
        assert layout.fetch(cache, "main") == 3
        assert layout.fetch(cache, "main") == 0

    def test_pollution_scenario(self):
        """Compensation blocks evict main code: the paper's cache story."""
        config = ICacheConfig(lines=2, ops_per_line=4, miss_penalty=1)
        layout = CodeLayout(config)
        polluted = InstructionCache(config)
        clean = InstructionCache(config)
        layout.place("main", 8)   # 2 lines: fills the cache
        layout.place("comp", 8)   # 2 lines: aliases main's lines
        # Clean machine: main stays resident.
        layout.fetch(clean, "main")
        assert layout.fetch(clean, "main") == 0
        # Polluted machine: recovery evicts main every time.
        layout.fetch(polluted, "main")
        layout.fetch(polluted, "comp")
        assert layout.fetch(polluted, "main") == 2


class TestProgramICache:
    def test_gated_instances_charge_the_squash_machine(self):
        """Confidence-gated instances still fetch through the icache, so
        the squash machine (which fetches the proposed machine's block
        stream) pays every fetch penalty the no-prediction machine does."""
        from repro.core.metrics import compile_program
        from repro.core.program_sim import simulate_program
        from repro.machine.configs import PLAYDOH_4W
        from repro.predict.confidence import ConfidenceEstimator
        from repro.profiling.profile_run import profile_program
        from repro.trace import capture_trace
        from repro.workloads.suite import load_benchmark

        program = load_benchmark("compress", scale=0.4)
        compilation = compile_program(
            program, PLAYDOH_4W, profile_program(program)
        )
        trace = capture_trace(program)
        plain, cached = (
            simulate_program(
                compilation,
                trace=trace,
                confidence=ConfidenceEstimator(),
                model_icache=model_icache,
            )
            for model_icache in (False, True)
        )
        assert cached.gated_instances > 0
        penalty = cached.proposed_icache_cycles
        assert penalty > 0
        assert cached.cycles_nopred - plain.cycles_nopred == penalty
        assert cached.cycles_proposed - plain.cycles_proposed == penalty
        assert cached.cycles_squash - plain.cycles_squash == penalty
