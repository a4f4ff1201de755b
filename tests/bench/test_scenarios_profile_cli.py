"""End-to-end bench coverage: scenarios, profiler attribution, the CLI.

Scenario runs here use a tiny workload scale and a restricted suite so
the whole module stays interactive; determinism of the underlying
pipeline is what makes the counter assertions exact.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.bench.cli import main as bench_main
from repro.bench.harness import BenchConfig, run_bench
from repro.bench.profiler import (
    SUBSYSTEM_OF,
    profile_scenario,
    render_profile,
    subsystem_of,
)
from repro.bench.scenarios import (
    SCENARIOS,
    BenchContext,
    resolve_scenarios,
)

#: Small, fast context shared by the scenario tests.
CTX = BenchContext(workload_scale=0.25, benchmarks=("compress", "li"))


class TestRegistry:
    def test_expected_scenarios_registered(self):
        assert {
            "table2",
            "table3",
            "table4",
            "figure8",
            "ablation_threshold",
            "runner_scaling",
        } <= set(SCENARIOS)

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            resolve_scenarios(["nope"])

    def test_resolve_default_is_all(self):
        assert len(resolve_scenarios()) == len(SCENARIOS)


class TestScenarioRuns:
    def test_table2_counters_are_deterministic(self):
        scenario = SCENARIOS["table2"]
        first = scenario.run(CTX, None)
        second = scenario.run(CTX, None)
        assert first.counters == second.counters
        assert first.counters["sim_cycles"] > 0
        assert first.counters["ops_retired"] > 0

    def test_table3_attributes_pass_time(self):
        scenario = SCENARIOS["table3"]
        state = scenario.prepare(CTX)
        run = scenario.run(CTX, state)
        assert run.counters["passes_run"] > 0
        pass_ns = run.extra["pass_ns"]
        assert "speculate" in pass_ns and "schedule-original" in pass_ns
        assert all(total >= 0 for total in pass_ns.values())

    def test_runner_scaling_reports_full_warm_hit_rate(self, tmp_path):
        ctx = BenchContext(
            workload_scale=0.25,
            benchmarks=("compress", "li"),
            workdir=tmp_path,
        )
        run = SCENARIOS["runner_scaling"].run(ctx, None)
        assert run.extra["warm_cache_hit_rate"] == 1.0
        assert run.counters["jobs_served"] == 2 * run.counters["jobs_executed"]


class TestRunBench:
    def test_artifact_covers_requested_scenarios(self):
        config = BenchConfig(
            preset="small",
            workload_scale=0.25,
            repeats=2,
            warmup=0,
            scenario_names=("table2",),
            benchmarks=("compress", "li"),
        )
        artifact = run_bench(config)
        assert set(artifact["scenarios"]) == {"table2"}
        entry = artifact["scenarios"]["table2"]
        assert entry["wall_s"]["n"] >= 1
        assert entry["counters_stable"] is True
        assert entry["rates"]["sim_cycles_per_s"] > 0


class TestProfiler:
    def test_subsystem_mapping(self):
        assert subsystem_of("/x/src/repro/core/vliw_engine.py") == "core"
        assert subsystem_of("/x/src/repro/opt/passes.py") == "compiler"
        assert subsystem_of("/x/src/repro/runner/jobs.py") == "runner"
        assert subsystem_of("/usr/lib/python3.11/json/decoder.py") == "other"

    def test_every_package_maps_to_a_subsystem(self):
        root = Path(repro.__file__).parent
        packages = sorted(
            p.name for p in root.iterdir() if (p / "__init__.py").is_file()
        )
        assert packages
        unmapped = [
            name
            for name in packages
            if subsystem_of(str(root / name / "module.py")) == "other"
        ]
        assert unmapped == [], f"add {unmapped} to SUBSYSTEM_OF"
        assert "other" not in SUBSYSTEM_OF.values()

    def test_profiled_rows_import_no_module(self):
        """In a fresh process, NumPy and the batched engine are imported
        before profiling starts, so no import is billed to the scenario.
        ``_handle_fromlist`` runs for every function-level ``from
        package import name`` and loads nothing once the module is
        imported, so it is the one import frame allowed."""
        script = (
            "from repro.bench.profiler import profile_scenario\n"
            "from repro.bench.scenarios import BenchContext\n"
            "ctx = BenchContext(workload_scale=0.25, benchmarks=('compress',))\n"
            "report = profile_scenario('table2', ctx, top=100000)\n"
            "rows = [(r.file, r.function) for r in report.hot\n"
            "        if 'importlib' in r.file and r.function != '_handle_fromlist']\n"
            "print(rows)\n"
        )
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src)},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_profile_names_top10_hot_functions_for_table2(self):
        report = profile_scenario("table2", CTX, top=10)
        assert len(report.hot) == 10
        assert all(row.function for row in report.hot)
        # The simulation pipeline must dominate: repro subsystems appear.
        assert {"core", "profiling"} <= set(report.by_subsystem)
        rendered = render_profile(report)
        assert "top 10 hot functions" in rendered
        assert "self time by subsystem" in rendered

    def test_invalid_sort_rejected(self):
        with pytest.raises(ValueError):
            profile_scenario("table2", CTX, sort="nope")


class TestCli:
    def test_list(self, capsys):
        assert bench_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "runner_scaling" in out

    def test_run_writes_artifact(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = bench_main(
            [
                "run",
                "--scale",
                "small",
                "--scenarios",
                "table3",
                "--repeats",
                "2",
                "--warmup",
                "0",
                "--benchmarks",
                "compress,li",
            ]
        )
        assert code == 0
        artifacts = list(tmp_path.glob("BENCH_*.json"))
        assert len(artifacts) == 1
        payload = json.loads(artifacts[0].read_text())
        assert payload["schema"] == "repro.bench/v1"
        assert set(payload["scenarios"]) == {"table3"}

    def test_run_unknown_scenario_exits_2(self, capsys):
        assert bench_main(["run", "--scenarios", "nope"]) == 2

    def test_compare_exit_codes(self, tmp_path, capsys):
        from repro.bench.harness import make_artifact, write_artifact
        from repro.bench.scenarios import ScenarioRun
        from repro.bench.harness import scenario_entry
        from repro.bench.stats import robust_stats

        config = BenchConfig(preset="t", workload_scale=0.1, repeats=1, warmup=0)

        def artifact_with_wall(wall):
            entry = scenario_entry(
                robust_stats([wall]), [ScenarioRun(counters={})]
            )
            return make_artifact(config, {"s": entry})

        old_dir = tmp_path / "old"
        new_dir = tmp_path / "new"
        old = write_artifact(artifact_with_wall(1.0), old_dir)
        fast = write_artifact(artifact_with_wall(1.05), new_dir)
        assert bench_main(["compare", str(old), str(fast)]) == 0

        slow_dir = tmp_path / "slow"
        slow = write_artifact(artifact_with_wall(10.0), slow_dir)
        assert bench_main(["compare", str(old), str(slow)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_compare_missing_file_exits_2(self, capsys):
        assert bench_main(["compare", "/nonexistent/a.json", "/nonexistent/b.json"]) == 2

    def test_profile_cli_json(self, capsys):
        code = bench_main(
            ["profile", "table3", "--top", "5", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "table3"
        assert len(payload["hot"]) == 5
        assert "compiler" in payload["by_subsystem"]
