"""cProfile-based wall-time attribution for benchmark scenarios.

``repro-bench profile <scenario>`` runs one scenario iteration under
:mod:`cProfile` and renders two views of where the time went:

* the **top-N hot functions** (by cumulative or internal time), each
  tagged with the repro subsystem its file belongs to;
* a **per-subsystem rollup** of internal (self) time — how much of the
  run was spent inside ``core`` vs ``compiler`` vs ``runner`` vs
  ``obs`` vs everything else — which is the number the ROADMAP's
  "fast as the hardware allows" goal needs watched.

Attribution is by filename: a frame from ``src/repro/<pkg>/...`` maps
to its top-level package, collapsed through :data:`SUBSYSTEM_OF` into
the coarse groups used in reports; frames outside ``repro`` count as
``other`` (stdlib, site-packages).
"""

from __future__ import annotations

import cProfile
import importlib
import pstats
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.bench.scenarios import BenchContext, resolve_scenarios

#: Fine package -> coarse reporting subsystem.
SUBSYSTEM_OF: Dict[str, str] = {
    "core": "core",
    "compiler": "compiler",
    "opt": "compiler",
    "sched": "compiler",
    "regions": "compiler",
    "ir": "compiler",
    "ddg": "compiler",
    "runner": "runner",
    "obs": "obs",
    "bench": "obs",
    "profiling": "profiling",
    "trace": "trace",
    "predict": "core",
    "machine": "core",
    "workloads": "workloads",
    "evaluation": "evaluation",
    "batchsim": "core",
    "explore": "explore",
    "service": "runner",
    "tools": "obs",
}

#: Modules the scenarios import lazily; :func:`profile_scenario` loads
#: them before profiling, so import time is not billed to the scenario.
WARM_IMPORTS = (
    "numpy",
    "repro.batchsim.context",
    "repro.batchsim.engine",
    "repro.batchsim.profiler",
)


def subsystem_of(filename: str) -> str:
    """Coarse subsystem for one profiled frame's source file."""
    marker = "repro/"
    index = filename.replace("\\", "/").rfind(marker)
    if index < 0:
        return "other"
    rest = filename.replace("\\", "/")[index + len(marker):]
    package = rest.split("/", 1)[0]
    if package.endswith(".py"):
        package = package[:-3]
    return SUBSYSTEM_OF.get(package, "other")


@dataclass
class HotFunction:
    """One row of the top-N report."""

    function: str
    file: str
    line: int
    subsystem: str
    calls: int
    tottime: float
    cumtime: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "function": self.function,
            "file": self.file,
            "line": self.line,
            "subsystem": self.subsystem,
            "calls": self.calls,
            "tottime": self.tottime,
            "cumtime": self.cumtime,
        }


@dataclass
class ProfileReport:
    """Structured result of one profiled scenario run."""

    scenario: str
    sort: str
    total_time: float
    hot: List[HotFunction] = field(default_factory=list)
    by_subsystem: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "sort": self.sort,
            "total_time": self.total_time,
            "hot": [h.as_dict() for h in self.hot],
            "by_subsystem": dict(self.by_subsystem),
        }


def _rows_from_stats(stats: pstats.Stats) -> List[HotFunction]:
    rows: List[HotFunction] = []
    for (filename, line, func), (
        _primitive,
        calls,
        tottime,
        cumtime,
        _callers,
    ) in stats.stats.items():  # type: ignore[attr-defined]
        rows.append(
            HotFunction(
                function=func,
                file=filename,
                line=line,
                subsystem=subsystem_of(filename),
                calls=calls,
                tottime=tottime,
                cumtime=cumtime,
            )
        )
    return rows


def profile_scenario(
    name: str,
    ctx: BenchContext,
    *,
    top: int = 10,
    sort: str = "cumulative",
) -> ProfileReport:
    """Run one iteration of scenario ``name`` under cProfile."""
    if sort not in ("cumulative", "tottime"):
        raise ValueError("sort must be 'cumulative' or 'tottime'")
    (scenario,) = resolve_scenarios([name])
    for module in WARM_IMPORTS:
        importlib.import_module(module)
    state = scenario.prepare(ctx) if scenario.prepare is not None else None

    profile = cProfile.Profile()
    profile.enable()
    try:
        scenario.run(ctx, state)
    finally:
        profile.disable()

    stats = pstats.Stats(profile)
    rows = _rows_from_stats(stats)
    key = (lambda r: r.cumtime) if sort == "cumulative" else (lambda r: r.tottime)
    rows.sort(key=key, reverse=True)

    by_subsystem: Dict[str, float] = {}
    for row in rows:
        by_subsystem[row.subsystem] = (
            by_subsystem.get(row.subsystem, 0.0) + row.tottime
        )
    return ProfileReport(
        scenario=name,
        sort=sort,
        total_time=getattr(stats, "total_tt", sum(r.tottime for r in rows)),
        hot=rows[:top],
        by_subsystem=dict(
            sorted(by_subsystem.items(), key=lambda kv: kv[1], reverse=True)
        ),
    )


def _short_path(filename: str) -> str:
    marker = "repro/"
    index = filename.replace("\\", "/").rfind(marker)
    if index >= 0:
        return filename.replace("\\", "/")[index:]
    return filename.rsplit("/", 1)[-1]


def render_profile(report: ProfileReport) -> str:
    lines = [
        f"profile: scenario {report.scenario!r}, sorted by {report.sort}, "
        f"total {report.total_time:.3f}s",
        "",
        f"top {len(report.hot)} hot functions:",
        f"{'#':>3} {'subsystem':<10} {'calls':>9} {'tottime':>9} "
        f"{'cumtime':>9}  function",
    ]
    for index, row in enumerate(report.hot, 1):
        lines.append(
            f"{index:>3} {row.subsystem:<10} {row.calls:>9} "
            f"{row.tottime:>9.4f} {row.cumtime:>9.4f}  "
            f"{row.function} ({_short_path(row.file)}:{row.line})"
        )
    lines.append("")
    lines.append("self time by subsystem:")
    total = sum(report.by_subsystem.values()) or 1.0
    for subsystem, tottime in report.by_subsystem.items():
        share = 100.0 * tottime / total
        lines.append(f"  {subsystem:<10} {tottime:>9.4f}s  {share:5.1f}%")
    return "\n".join(lines)
