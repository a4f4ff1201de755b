"""The traced run: the entry points' call sequence, with layer spans.

It drives the same public API that ``repro-eval`` and ``repro-explore``
call (``Runner``, ``Evaluation.warm``, the experiments' ``compute``,
``explore`` and the report writers) and records spans from this file
only:

- one span around each of those calls;
- one child span per runner stage call, by wrapping every built-in
  stage through ``stage_function`` / ``register_stage`` for the length
  of the run (:func:`traced_stages` restores the registry afterwards);
- cache read, decode, encode and write spans, from a ``DiskCache``
  subclass (the ``CacheBackend`` extension point) and a ``Runner``
  subclass whose ``run`` is a span.

Its outputs must be byte-identical to the untraced run's.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

from repro.batchsim import default_context
from repro.batchsim.engine import unsupported_reason
from repro.core.metrics import ProgramCompilation
from repro.evaluation import baseline_cmp, table2, table4
from repro.evaluation.experiment import Evaluation, EvaluationSettings
from repro.explore.driver import explore, pareto_frontier
from repro.explore.report import (
    dump_report,
    render_frontier,
    render_table,
    report_payload,
)
from repro.explore.space import Axis, DesignSpace
from repro.ir.program import Program
from repro.machine.configs import spec_by_name
from repro.profiling.interpreter import run_program
from repro.runner import DiskCache, EventLog, Runner, register_stage
from repro.runner.jobs import PIPELINE_STAGES, stage_function
from repro.service.backends import make_cache
from repro.trace.format import ValueTrace

from spans import SpanRecorder, layer_times, span_count
from workloads import SWEEP_AXES, SWEEP_POINTS, Workload

#: The experiments' row generators, as ``repro-eval --json`` calls them.
COMPUTE = {
    "table2": table2.compute,
    "table4": table4.compute,
    "baseline": baseline_cmp.compute,
}

#: ``repro-eval``'s default ``--threshold``.
EVAL_THRESHOLD = 0.65


@dataclass
class CaptureLog:
    """What the wrapped ``trace`` stage captured, for the interp ratio."""

    programs: List[Program] = field(default_factory=list)
    values: int = 0


class TracedDiskCache(DiskCache):
    """``DiskCache`` whose byte and codec primitives are spans."""

    def __init__(self, recorder: SpanRecorder, root: Path):
        super().__init__(root=root)
        self._recorder = recorder

    def encode(self, value: Any) -> bytes:
        with self._recorder.span("cache.encode"):
            return super().encode(value)

    def decode(self, payload: bytes) -> Any:
        with self._recorder.span("cache.decode"):
            return super().decode(payload)

    def load_bytes(self, key: str):
        with self._recorder.span("cache.read"):
            return super().load_bytes(key)

    def store_bytes(self, key: str, payload: bytes, manifest: Dict[str, Any]) -> None:
        with self._recorder.span("cache.write"):
            super().store_bytes(key, payload, manifest)


class TracedRunner(Runner):
    """``Runner`` whose ``run`` (and so ``run_job``) is a span."""

    def __init__(self, recorder: SpanRecorder, **kwargs: Any):
        super().__init__(**kwargs)
        self._recorder = recorder

    def run(self, jobs):
        with self._recorder.span("runner.run"):
            return super().run(jobs)


def simulate_path(spec, dep_results: Dict[str, Any]) -> str:
    """``batched`` or ``scalar``, as ``unsupported_reason`` decides it."""
    trace = next(
        (v for v in dep_results.values() if isinstance(v, ValueTrace)), None
    )
    compilation = next(
        v for v in dep_results.values() if isinstance(v, ProgramCompilation)
    )
    predictor = getattr(compilation.machine, "predictor", None)
    reason = unsupported_reason(
        table=predictor.table_entries if predictor is not None else None,
        model_icache=bool(spec.param("model_icache", False)),
        trace=trace,
    )
    return "batched" if reason is None else "scalar"


def _wrap(name: str, fn, recorder: SpanRecorder, captures: CaptureLog):
    def traced(spec, dep_results):
        span = f"stage.{name}"
        if name in ("simulate", "batch_simulate"):
            span = f"stage.simulate.{simulate_path(spec, dep_results)}"
        with recorder.span(span):
            result = fn(spec, dep_results)
        if name == "trace":
            captures.programs.extend(
                v for v in dep_results.values() if isinstance(v, Program)
            )
            captures.values += len(result.values)
        return result

    return traced


@contextmanager
def traced_stages(
    recorder: SpanRecorder, captures: CaptureLog
) -> Iterator[Dict[str, Any]]:
    """Wrap every built-in stage in a span; restore the registry after."""
    originals = {name: stage_function(name) for name in PIPELINE_STAGES}
    try:
        for name, fn in originals.items():
            register_stage(name, _wrap(name, fn, recorder, captures))
        yield originals
    finally:
        for name, fn in originals.items():
            register_stage(name, fn)


def registry_restored(originals: Dict[str, Any]) -> bool:
    return all(stage_function(n) is fn for n, fn in originals.items())


def _open_runner(recorder: SpanRecorder, cache_dir: Path):
    """The runner the entry points build, with the traced cache in it."""
    with recorder.span("runner.init"):
        plain = make_cache(None, enabled=True, default_root=cache_dir)
        if type(plain) is not DiskCache:
            raise RuntimeError(
                f"the entry points would use {type(plain).__name__}, "
                "not DiskCache; unset REPRO_CACHE_URL"
            )
        cache = TracedDiskCache(recorder, cache_dir)
        events = EventLog()
        runner = TracedRunner(recorder, jobs=1, cache=cache, events=events)
    return cache, events, runner


def _close_runner(recorder: SpanRecorder, runner, events) -> None:
    with recorder.span("runner.close"):
        runner.close()
        events.close()


def _run_eval(workload: Workload, recorder: SpanRecorder, cache_dir: Path):
    """``repro-eval <experiments> --scale S --json --jobs 1``."""
    cache, events, runner = _open_runner(recorder, cache_dir)
    try:
        with recorder.span("evaluation.warm"):
            settings = EvaluationSettings(scale=workload.scale).with_threshold(
                EVAL_THRESHOLD
            )
            evaluation = Evaluation(settings, runner=runner)
            evaluation.warm(list(workload.experiments))
        for name in workload.experiments:
            with recorder.span("evaluation.report"):
                rows = [
                    dataclasses.asdict(row) for row in COMPUTE[name](evaluation)
                ]
                print(json.dumps(rows, indent=2, default=str))
    finally:
        _close_runner(recorder, runner, events)
    return cache, events, 0


def _run_explore(
    recorder: SpanRecorder, seed: int, scale: float, cache_dir: Path, out_path: Path
):
    """``repro-explore --axis ... --random N --seed S --jobs 1 --out P``."""
    with recorder.span("explore.setup"):
        axes = tuple(Axis.parse(text) for text in SWEEP_AXES)
        base = spec_by_name("playdoh-4w")
        space = DesignSpace(base=base, axes=axes, base_config=base.spec_config())
        points = space.sample(SWEEP_POINTS, seed=seed)
    cache, events, runner = _open_runner(recorder, cache_dir)
    try:
        with recorder.span("explore.explore"):
            outcome = explore(points, scale=scale, runner=runner)
    finally:
        _close_runner(recorder, runner, events)
    with recorder.span("explore.report"):
        results = list(outcome.results)
        payload = report_payload(
            space,
            results,
            scale=scale,
            benchmarks=[b.benchmark for b in results[0].benchmarks] if results else [],
            pruned=outcome.pruned,
            surrogate=outcome.surrogate,
        )
        out_path.write_text(dump_report(payload), encoding="utf-8")
        print(render_table(results))
        print()
        print(render_frontier(results))
        pareto_frontier(results)
    errors = sum(1 for p in outcome.pruned if p.reason == "error")
    return cache, events, errors


def run_traced(
    workload: Workload, seed: int, cache_dir: Path, out_path: Path
) -> Tuple[float, Dict[str, float]]:
    """One traced run; returns ``(wall_s, per-layer metrics)``.

    Stdout is the entry point's; the caller captures it.
    """
    recorder = SpanRecorder()
    captures = CaptureLog()
    class_before = dict(vars(DiskCache))
    with traced_stages(recorder, captures) as originals:
        t0 = time.perf_counter()
        if workload.kind == "eval":
            cache, events, points_error = _run_eval(workload, recorder, cache_dir)
        else:
            cache, events, points_error = _run_explore(
                recorder, seed, workload.scale, cache_dir, out_path
            )
        wall = time.perf_counter() - t0
    if not registry_restored(originals) or dict(vars(DiskCache)) != class_before:
        raise RuntimeError("the traced run left a wrapper behind")
    metrics = layer_times(recorder, wall)

    # Plain interpretation of the captured programs, outside the spans.
    interp = 0.0
    for program in captures.programs:
        t = time.perf_counter()
        run_program(program)
        interp += time.perf_counter() - t
    summary = events.summary()
    batch = default_context().stats()
    metrics.update(
        {
            "trace.values": captures.values,
            "trace.capture_per_interp": (
                metrics["trace.capture_s"] / interp if interp else 0.0
            ),
            "compiler.jobs": span_count(recorder, "stage.compile"),
            "batchsim.arrays_hit": batch["arrays.hits"],
            "batchsim.arrays_miss": batch["arrays.misses"],
            "batchsim.columns_hit": batch["columns.hits"],
            "batchsim.columns_miss": batch["columns.misses"],
            "batchsim.histograms_hit": batch["histograms.hits"],
            "batchsim.histograms_miss": batch["histograms.misses"],
            "runner.jobs_executed": summary["executed"],
            "runner.cache_hits": summary["cache_hits"],
            "runner.retries": summary["retries"],
            "runner.bytes_written": cache.bytes_written,
            "runner.bytes_read": cache.bytes_read,
            "explore.points_error": points_error,
        }
    )
    return wall, metrics
