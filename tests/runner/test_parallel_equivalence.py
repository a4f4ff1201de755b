"""Equivalence and warm-cache guarantees of the runner-backed Evaluation.

The contract the CLI advertises: ``--jobs 1``, ``--jobs N`` and a
warm-cache rerun produce byte-identical JSON rows, and the warm rerun
executes zero pipeline jobs (verified via the events log).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.evaluation import table2, table3
from repro.evaluation.experiment import Evaluation, EvaluationSettings
from repro.runner import (
    DiskCache,
    EventLog,
    Runner,
    executed_jobs,
    read_events,
)

SCALE = 0.2
SETTINGS = EvaluationSettings(scale=SCALE)


def _rows_json(evaluation: Evaluation) -> str:
    return json.dumps(
        [dataclasses.asdict(row) for row in table2.compute(evaluation)],
        indent=2,
    )


@pytest.fixture(scope="module")
def serial_rows() -> str:
    """Ground truth: the original in-process pipeline, no runner at all."""
    return _rows_json(Evaluation(SETTINGS))


class TestParallelEquivalence:
    def test_parallel_rows_are_byte_identical_to_serial(
        self, tmp_path, serial_rows
    ):
        runner = Runner(jobs=2, cache=DiskCache(root=tmp_path / "cache"))
        with runner:
            evaluation = Evaluation(SETTINGS, runner=runner)
            evaluation.warm(["table2"])
            assert _rows_json(evaluation) == serial_rows

    def test_serial_runner_rows_are_byte_identical_to_serial(
        self, tmp_path, serial_rows
    ):
        runner = Runner(jobs=1, cache=DiskCache(root=tmp_path / "cache"))
        with runner:
            evaluation = Evaluation(SETTINGS, runner=runner)
            evaluation.warm(["table2"])
            assert _rows_json(evaluation) == serial_rows

    def test_warm_cache_rerun_is_identical_and_executes_nothing(
        self, tmp_path, serial_rows
    ):
        cache_root = tmp_path / "cache"
        events_path = tmp_path / "warm-events.jsonl"
        with Runner(jobs=2, cache=DiskCache(root=cache_root)) as cold:
            Evaluation(SETTINGS, runner=cold).warm(["table2"])
        assert cold.events.executed > 0

        warm_runner = Runner(
            jobs=2,
            cache=DiskCache(root=cache_root),
            events=EventLog(path=str(events_path)),
        )
        with warm_runner:
            warm = Evaluation(SETTINGS, runner=warm_runner)
            warm.warm(["table2"])
            assert _rows_json(warm) == serial_rows
        warm_runner.events.close()

        events = read_events(str(events_path))
        for stage in ("build", "profile", "compile", "simulate"):
            assert executed_jobs(events, stage) == []
        assert warm_runner.events.cache_hits > 0

    def test_compilations_survive_the_pickle_round_trip(self, tmp_path):
        """Table 3 reads compilations produced in workers; the unpickled
        objects must rebuild their memoised timings on demand."""
        plain = json.dumps(
            [dataclasses.asdict(r) for r in table3.compute(Evaluation(SETTINGS))]
        )
        runner = Runner(jobs=2, cache=DiskCache(root=tmp_path / "cache"))
        with runner:
            evaluation = Evaluation(SETTINGS, runner=runner)
            evaluation.warm(["table3"])
            via_runner = json.dumps(
                [dataclasses.asdict(r) for r in table3.compute(evaluation)]
            )
        assert via_runner == plain


class TestEvaluationRunnerDelegation:
    def test_unwarmed_access_still_works_through_the_runner(self, tmp_path):
        """Stage accessors fall through to run_job on cold caches."""
        runner = Runner(jobs=1, cache=DiskCache(root=tmp_path / "cache"))
        with runner:
            evaluation = Evaluation(SETTINGS, runner=runner)
            sim = evaluation.simulation("compress", evaluation.machine_4w)
            assert sim.cycles_proposed > 0
            # Every ancestor stage executed exactly once: build, trace,
            # profile, compile, simulate.
            assert runner.events.executed == 5

    def test_benchmark_filter_narrows_the_job_graph(self, tmp_path):
        settings = SETTINGS.with_benchmarks(["li", "swim"])
        runner = Runner(jobs=1, cache=DiskCache(root=tmp_path / "cache"))
        with runner:
            evaluation = Evaluation(settings, runner=runner)
            jobs = evaluation.required_jobs(["table2"])
            assert sorted(j.spec.benchmark for j in jobs) == ["li", "swim"]
            rows = table2.compute(evaluation)
        assert [r.benchmark for r in rows] == ["li", "swim"]
