"""In-memory spans, self-time arithmetic and the layer reconciliation.

A traced run records one :class:`Span` per call into a layer: a name, a
start, an end and the span that was open when it began.  A span's *self
time* is its duration minus the part of its interval that its child
spans cover.  Every span name maps to exactly one layer metric
(:data:`SPAN_LAYER`), so the layer self times plus ``unattributed_s``
(traced wall time minus the top-level spans) add up to the traced wall
time; :func:`layer_times` checks that identity.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Metric names the driver accepts: a letter or digit, then at most 63
#: letters, digits, ``_``, ``.`` and ``-``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Span name -> the layer metric its self time is billed to.
SPAN_LAYER: Dict[str, str] = {
    "stage.build": "workloads.build_s",
    "stage.trace": "trace.capture_s",
    "stage.profile": "profiling.profile_s",
    "stage.compile": "compiler.compile_s",
    "stage.simulate.batched": "core.simulate_batched_s",
    "stage.simulate.scalar": "core.simulate_scalar_s",
    "cache.encode": "runner.cache_encode_s",
    "cache.write": "runner.cache_write_s",
    "cache.read": "runner.cache_read_s",
    "cache.decode": "runner.cache_decode_s",
    "runner.init": "runner.self_s",
    "runner.run": "runner.self_s",
    "runner.close": "runner.self_s",
    "evaluation.warm": "runner.self_s",
    "evaluation.report": "evaluation.report_s",
    "explore.setup": "explore.self_s",
    "explore.explore": "explore.self_s",
    "explore.report": "explore.report_s",
}

#: Every time layer, in report order (``unattributed_s`` closes the sum).
TIME_LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(SPAN_LAYER.values()))

#: Allowed float error of the reconciliation, in seconds.
RECONCILE_TOLERANCE_S = 1e-6


def check_metric_name(name: str) -> str:
    """Return ``name`` if the driver accepts it as a metric name."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(
            f"metric name {name!r} must match {METRIC_NAME.pattern}"
        )
    return name


@dataclass
class Span:
    span_id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans of one single-threaded run, kept in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        if name not in SPAN_LAYER:
            raise KeyError(f"span {name!r} has no layer in SPAN_LAYER")
        parent = self._open[-1] if self._open else None
        record = Span(len(self.spans), name, parent, self.clock())
        self.spans.append(record)
        self._open.append(record.span_id)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._open.pop()

    def top_level(self) -> List[Span]:
        return [s for s in self.spans if s.parent is None]

    def children(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(span: Span, kids: Iterable[Span]) -> float:
    """``span``'s duration minus what its children cover of it."""
    return span.duration - covered(
        ((k.start, k.end) for k in kids), span.start, span.end
    )


def layer_times(recorder: SpanRecorder, wall_s: float) -> Dict[str, float]:
    """Self time per layer plus ``unattributed_s``, reconciled to ``wall_s``.

    Raises ``ValueError`` when a child span leaves its parent, top-level
    spans overlap, or the layers do not add up to the wall time.
    """
    kids = recorder.children()
    by_id = {s.span_id: s for s in recorder.spans}
    for s in recorder.spans:
        if s.parent is not None:
            p = by_id[s.parent]
            if s.start < p.start or s.end > p.end:
                raise ValueError(f"span {s.name} leaves its parent {p.name}")
    top = sorted(recorder.top_level(), key=lambda s: s.start)
    for a, b in zip(top, top[1:]):
        if b.start < a.end:
            raise ValueError(f"top-level spans {a.name} and {b.name} overlap")
    out = {layer: 0.0 for layer in TIME_LAYERS}
    for s in recorder.spans:
        out[SPAN_LAYER[s.name]] += self_time(s, kids.get(s.span_id, ()))
    top_total = sum(s.duration for s in top)
    out["unattributed_s"] = wall_s - top_total
    if out["unattributed_s"] < -RECONCILE_TOLERANCE_S:
        raise ValueError(
            f"top-level spans ({top_total:.6f}s) exceed the wall time "
            f"({wall_s:.6f}s)"
        )
    drift = sum(out.values()) - wall_s
    if abs(drift) > RECONCILE_TOLERANCE_S:
        raise ValueError(f"layers miss the wall time by {drift:.3e}s")
    return out


def span_count(recorder: SpanRecorder, name: str) -> int:
    return sum(1 for s in recorder.spans if s.name == name)
