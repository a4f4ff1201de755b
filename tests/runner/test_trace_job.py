"""The trace stage as a first-class runner job: keys, sharing, reuse."""

import dataclasses

from repro.core.program_sim import simulate_program
from repro.core.speculation import SpeculationConfig
from repro.evaluation.experiment import Evaluation, EvaluationSettings
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W
from repro.runner import (
    DiskCache,
    JobGraph,
    Runner,
    default_deps,
    profile_spec,
    simulate_job,
    simulate_spec,
    trace_spec,
)
from repro.trace import ValueTrace


class TestTraceSpec:
    def test_trace_key_ignores_machine_and_config(self):
        """One trace serves every sweep point: simulate specs differing
        only in machine/threshold share a single trace dependency."""
        sweep = [
            simulate_spec("li", PLAYDOH_4W, scale=0.5),
            simulate_spec("li", PLAYDOH_8W, scale=0.5),
            simulate_spec(
                "li", PLAYDOH_4W, scale=0.5,
                spec_config=SpeculationConfig(threshold=0.9),
            ),
            simulate_spec("li", PLAYDOH_4W, scale=0.5, model_icache=True),
        ]
        trace_keys = {
            dep.key()
            for spec in sweep
            for dep in default_deps(spec)
            if dep.stage == "trace"
        }
        assert len(trace_keys) == 1

    def test_trace_key_varies_with_benchmark_and_scale(self):
        assert trace_spec("li", 0.5).key() != trace_spec("swim", 0.5).key()
        assert trace_spec("li", 0.5).key() != trace_spec("li", 1.0).key()

    def test_profile_and_simulate_depend_on_trace(self):
        for spec in (
            profile_spec("li", 0.5),
            simulate_spec("li", PLAYDOH_4W, scale=0.5),
        ):
            stages = [dep.stage for dep in default_deps(spec)]
            assert "trace" in stages


class TestTraceExecution:
    def test_sweep_executes_one_trace_job(self, tmp_path):
        """A two-machine, two-threshold sweep interprets each benchmark
        once: 1 build + 1 trace, read by every stage downstream."""
        jobs = [
            simulate_job(
                "compress", machine, scale=0.2,
                spec_config=SpeculationConfig(threshold=threshold),
            )
            for machine in (PLAYDOH_4W, PLAYDOH_8W)
            for threshold in (0.5, 0.8)
        ]
        graph = JobGraph(jobs)
        by_stage = {}
        for job in graph.jobs:
            by_stage.setdefault(job.spec.stage, []).append(job)
        assert len(by_stage["trace"]) == 1
        assert len(by_stage["simulate"]) == 4

        with Runner(jobs=1, cache=DiskCache(root=tmp_path / "cache")) as runner:
            results = runner.run(graph.jobs)
        trace_job_ = by_stage["trace"][0]
        trace = results[trace_job_.key()]
        assert isinstance(trace, ValueTrace)
        assert trace.program_name == "compress"
        assert trace.dynamic_operations > 0

    def test_runner_results_match_runnerless(self, tmp_path):
        """Simulation through the runner (trace job, disk-cached)
        equals direct simulation that captures its own trace."""
        settings = EvaluationSettings(scale=0.2).with_benchmarks(["swim"])
        with Runner(jobs=1, cache=DiskCache(root=tmp_path / "cache")) as runner:
            via_runner = Evaluation(settings, runner=runner).simulation(
                "swim", PLAYDOH_4W
            )
        evaluation = Evaluation(settings)
        direct = simulate_program(evaluation.compilation("swim", PLAYDOH_4W))
        assert dataclasses.asdict(via_runner) == dataclasses.asdict(direct)

    def test_trace_result_is_served_from_disk_cache(self, tmp_path):
        cache_root = tmp_path / "cache"
        settings = EvaluationSettings(scale=0.2).with_benchmarks(["li"])
        for _ in range(2):
            with Runner(jobs=1, cache=DiskCache(root=cache_root)) as runner:
                Evaluation(settings, runner=runner).simulation(
                    "li", PLAYDOH_4W
                )
        stats = DiskCache(root=cache_root).stats()
        assert stats.by_stage.get("trace") == 1
        assert stats.bytes_by_stage.get("trace", 0) > 0
