"""Tests for the benchmark's own code.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
from itertools import count
from pathlib import Path

import pytest

from spans import (
    SPAN_LAYER,
    TIME_LAYERS,
    Span,
    SpanRecorder,
    check_metric_name,
    covered,
    layer_times,
    self_time,
)
from workloads import WORKLOADS, Workload, point_digest, score, sha256

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def ticking_recorder():
    """A recorder whose clock advances by one second per reading."""
    ticks = count()
    return SpanRecorder(clock=lambda: float(next(ticks)))


# -- span self-time arithmetic ---------------------------------------------


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([], 0, 10) == 0
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_only_what_children_cover():
    parent = Span(0, "runner.run", None, 0.0, 10.0)
    kids = [
        Span(1, "stage.build", 0, 1.0, 4.0),
        Span(2, "stage.trace", 0, 6.0, 7.5),
    ]
    assert self_time(parent, kids) == pytest.approx(5.5)
    assert self_time(parent, []) == 10.0


def test_nested_spans_reconcile_to_the_wall_time():
    rec = ticking_recorder()
    with rec.span("evaluation.warm"):          # 0 .. 9
        with rec.span("runner.run"):           # 1 .. 8
            with rec.span("stage.build"):      # 2 .. 3
                pass
            with rec.span("cache.encode"):     # 4 .. 5
                pass
            with rec.span("stage.trace"):      # 6 .. 7
                pass
    with rec.span("evaluation.report"):        # 10 .. 11
        pass
    times = layer_times(rec, wall_s=13.0)
    assert times["workloads.build_s"] == 1
    assert times["trace.capture_s"] == 1
    assert times["runner.cache_encode_s"] == 1
    # warm (9 - 7 covered by run) + run (7 - 3 covered by children)
    assert times["runner.self_s"] == 2 + 4
    assert times["evaluation.report_s"] == 1
    assert times["unattributed_s"] == 13 - 9 - 1
    assert sum(times.values()) == pytest.approx(13.0)
    assert set(times) == set(TIME_LAYERS) | {"unattributed_s"}


def test_reconciliation_rejects_broken_span_trees():
    rec = ticking_recorder()
    with rec.span("runner.run"):
        pass
    with pytest.raises(ValueError, match="exceed the wall time"):
        layer_times(rec, wall_s=0.5)

    rec = SpanRecorder()
    rec.spans = [
        Span(0, "runner.run", None, 0.0, 5.0),
        Span(1, "stage.build", 0, 4.0, 6.0),
    ]
    with pytest.raises(ValueError, match="leaves its parent"):
        layer_times(rec, wall_s=10.0)

    rec.spans = [
        Span(0, "runner.run", None, 0.0, 5.0),
        Span(1, "explore.report", None, 4.0, 6.0),
    ]
    with pytest.raises(ValueError, match="overlap"):
        layer_times(rec, wall_s=10.0)


def test_unknown_span_names_are_refused():
    with pytest.raises(KeyError):
        with SpanRecorder().span("no.such.layer"):
            pass


# -- metric names ------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["", "bad name", "a/b", "_leading", ".dot", "x" * 65, "latency(ms)"]
)
def test_metric_names_outside_the_charset_are_rejected(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_every_emitted_metric_name_is_valid_and_declared():
    from run import DEFAULT_SECONDS, END_TO_END_UNITS, per_layer_units

    spec = json.loads(BENCHMARK_JSON.read_text())
    assert spec["run_seconds"] == DEFAULT_SECONDS
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == per_layer_units()
    for name in list(END_TO_END_UNITS) + list(per_layer_units()):
        assert check_metric_name(name) == name
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert set(SPAN_LAYER.values()) <= set(per_layer_units())


# -- goldens -----------------------------------------------------------------

GOLDENS = {
    "paper_cold": {"output_sha256": sha256(b"rows")},
    "sweep": {
        "seed": 0,
        "artifact_sha256": sha256(b"artifact"),
        "points": {"p1": "d1", "p2": "d2"},
    },
}


def eval_record(stdout: bytes):
    return {
        "stdout_sha256": sha256(stdout),
        "jobs_executed": 5,
        "design_points": 1,
        "points_error": 0,
    }


def sweep_record(points, pruned=0, points_error=0):
    return {
        "artifact_sha256": sha256(b"artifact"),
        "point_digests": points,
        "pruned": pruned,
        "points_error": points_error,
        "jobs_executed": 0,
        "design_points": len(points) + pruned,
    }


def test_matching_outputs_count_no_failure():
    workload = WORKLOADS["paper_cold"]
    assert score(workload, 3, eval_record(b"rows"), GOLDENS) == (7, 0, [])


def test_a_golden_mismatch_is_a_failed_operation():
    workload = WORKLOADS["paper_cold"]
    attempted, failed, problems = score(workload, 0, eval_record(b"other"), GOLDENS)
    assert (attempted, failed) == (7, 1)
    assert "golden" in problems[0]


def test_sweep_points_are_checked_against_per_point_goldens(monkeypatch):
    import workloads

    monkeypatch.setattr(workloads, "SWEEP_POINTS", 2)
    sweep = WORKLOADS["sweep_grid"]
    good = sweep_record({"p1": "d1", "p2": "d2"})
    assert score(sweep, 7, good, GOLDENS)[1] == 0
    bad = sweep_record({"p1": "d1", "p2": "changed"})
    assert score(sweep, 7, bad, GOLDENS)[1] == 1
    errored = sweep_record({"p1": "d1"}, pruned=1, points_error=1)
    assert score(sweep, 7, errored, GOLDENS)[1] == 1
    # Only the default seed has a whole-artifact golden.
    other_artifact = dict(good, artifact_sha256=sha256(b"x"))
    assert score(sweep, 7, other_artifact, GOLDENS)[1] == 0
    assert score(sweep, 0, other_artifact, GOLDENS)[1] == 1


def test_a_run_that_raised_is_one_failed_operation():
    record = {"error": "Traceback...\nJobError: job simulate:li failed"}
    assert score(WORKLOADS["paper_cold"], 0, record, GOLDENS) == (
        1, 1, ["JobError: job simulate:li failed"]
    )


def test_point_digest_ignores_the_sample_dependent_pareto_flag():
    point = {"label": "p", "speedup": 1.2}
    assert point_digest(dict(point, pareto=True)) == point_digest(
        dict(point, pareto=False)
    )
    assert point_digest(point) != point_digest(dict(point, speedup=1.3))


# -- the traced run ------------------------------------------------------------

TINY = Workload("tiny", "test", "eval", 0.05, ("table2",))


def test_traced_stages_restores_the_registry_after_an_error():
    from repro.runner.jobs import PIPELINE_STAGES, stage_function
    from tracing import CaptureLog, traced_stages

    before = {name: stage_function(name) for name in PIPELINE_STAGES}
    with pytest.raises(RuntimeError):
        with traced_stages(SpanRecorder(), CaptureLog()):
            assert all(stage_function(n) is not before[n] for n in before)
            raise RuntimeError("boom")
    assert all(stage_function(n) is before[n] for n in before)


def test_traced_run_matches_main_and_leaves_no_wrapper(tmp_path):
    from repro.evaluation.__main__ import main
    from repro.runner import DiskCache
    from repro.runner.jobs import PIPELINE_STAGES, stage_function
    from tracing import run_traced

    before = {name: stage_function(name) for name in PIPELINE_STAGES}
    cache_class = dict(vars(DiskCache))
    traced_out = io.StringIO()
    with contextlib.redirect_stdout(traced_out):
        wall, metrics = run_traced(TINY, 0, tmp_path / "traced", tmp_path / "o")
    plain_out = io.StringIO()
    with contextlib.redirect_stdout(plain_out):
        assert main(TINY.argv(0, tmp_path / "plain", tmp_path / "o")) == 0

    assert traced_out.getvalue() == plain_out.getvalue()
    assert all(stage_function(n) is before[n] for n in before)
    assert dict(vars(DiskCache)) == cache_class
    times = sum(metrics[name] for name in TIME_LAYERS) + metrics["unattributed_s"]
    assert times == pytest.approx(wall, abs=1e-6)
    assert metrics["compiler.jobs"] == 8
    assert metrics["runner.jobs_executed"] == 40
    assert metrics["core.simulate_batched_s"] > 0
    assert metrics["core.simulate_scalar_s"] == 0
