"""Cold-process pipeline benchmark for ``repro-eval`` and ``repro-explore``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_cold --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --workload sweep_grid --trace 1   # per-layer metrics
    python3 perfbench/run.py --write-goldens         # regenerate goldens.json

Every timed run is a fresh ``python`` process (``child.py``) that calls
the user's entry point once with ``--jobs 1`` against an empty result
cache, so no memo, trace store or disk cache survives between runs.
Processes run one at a time within a window of ``--seconds``; timings
are medians over them.  ``--trace 1`` alternates an untraced process with a
traced one (``tracing.py``) and reports the per-layer metrics instead.
Every output is checked against ``goldens.json``.  The last line of
stdout is the JSON result; the lines before it are a readable report
with sample counts and the host stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import TIME_LAYERS, check_metric_name  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    GOLDENS_PATH,
    SWEEP_POINTS,
    WORKLOADS,
    Workload,
    load_goldens,
    score,
)

WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"

#: A run must end within this many seconds; children get what is left.
RUN_DEADLINE_S = 175.0

#: The measuring window of one run (BENCHMARK.json's ``run_seconds``).
DEFAULT_SECONDS = 38.0

#: The unit of each end-to-end metric.
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_cycles_per_s": "1/s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cache_mb": "MB",
    "success_rate": "ratio",
    "table2_best_mae": "fraction",
}

#: Count-valued per-layer metrics (the time layers are in TIME_LAYERS).
LAYER_COUNTS = {
    "trace.values": "count",
    "trace.capture_per_interp": "ratio",
    "compiler.jobs": "count",
    "batchsim.arrays_hit": "count",
    "batchsim.arrays_miss": "count",
    "batchsim.columns_hit": "count",
    "batchsim.columns_miss": "count",
    "batchsim.histograms_hit": "count",
    "batchsim.histograms_miss": "count",
    "runner.jobs_executed": "count",
    "runner.cache_hits": "count",
    "runner.retries": "count",
    "runner.bytes_written": "B",
    "runner.bytes_read": "B",
    "explore.points_error": "count",
}


def per_layer_units() -> Dict[str, str]:
    units = {name: "s" for name in TIME_LAYERS}
    units.update(LAYER_COUNTS)
    units["unattributed_s"] = "s"
    units["trace_overhead_s"] = "s"
    return units


class BenchError(RuntimeError):
    """The benchmark cannot run here (as opposed to a failed output)."""


def host_stamp() -> Dict[str, Any]:
    """nproc, Python and NumPy versions, and the commit (or source digest)."""
    import hashlib

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            # Never stamp the commit of a repository around the checkout.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def child_env() -> Dict[str, str]:
    """The children's environment: repro from this checkout, no REPRO_* knobs.

    Bytecode goes to a cache under the work directory, as an installed
    package would have it, so every timed process imports alike.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


class Session:
    """One benchmark run's children, work directory and deadline."""

    def __init__(self, name: str, deadline: float):
        self.dir = WORK / f"{name}-{os.getpid()}"
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def __enter__(self) -> "Session":
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        return self

    def __exit__(self, *exc: Any) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def fresh_cache(self) -> Path:
        self.count += 1
        return self.dir / f"cache{self.count}"

    def child(
        self,
        workload: Workload,
        seed: int,
        mode: str,
        cache_dir: Path,
        full_grid: bool = False,
    ) -> Dict[str, Any]:
        """Run one fresh process; return its record plus its set-up time."""
        self.count += 1
        tag = f"{mode}{self.count}"
        request = {
            "workload": workload.name,
            "seed": seed,
            "mode": mode,
            "cache_dir": str(cache_dir),
            "out_path": str(self.dir / f"{tag}.out.json"),
            "result_path": str(self.dir / f"{tag}.result.json"),
            "full_grid": full_grid,
        }
        request_path = self.dir / f"{tag}.request.json"
        request_path.write_text(json.dumps(request), encoding="utf-8")
        cache_dir.mkdir(parents=True, exist_ok=True)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before a child could start")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(request_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload.name} {mode} child timed out") from exc
        if proc.returncode != 0:
            raise BenchError(
                f"{workload.name} {mode} child exited {proc.returncode}:\n"
                + proc.stderr[-2000:]
            )
        record = json.loads(Path(request["result_path"]).read_text(encoding="utf-8"))
        record["setup_s"] = record["t_entry"] - t_spawn
        return record


class Tally:
    """Attempted and failed operations, and why any failed."""

    def __init__(self, workload: Workload, seed: int, goldens: Dict[str, Any]):
        self.workload = workload
        self.seed = seed
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, record: Dict[str, Any], label: str) -> bool:
        attempted, failed, problems = score(
            self.workload, self.seed, record, self.goldens
        )
        self.attempted += attempted
        self.failed += failed
        self.problems += [f"{label}: {p}" for p in problems]
        return not failed

    def check(self, ok: bool, problem: str) -> None:
        """A benchmark-level check: one operation, failed if not ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, deadline: float
) -> Dict[str, Any]:
    """Measure one workload; returns its result and the checks that failed."""
    goldens = load_goldens()
    tally = Tally(workload, seed, goldens)
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    with Session(workload.name, deadline) as session:
        session.child(workload, seed, "prime", session.fresh_cache())

        def run_child(mode: str) -> Dict[str, Any]:
            cache = session.fresh_cache()
            try:
                return session.child(workload, seed, mode, cache)
            finally:
                shutil.rmtree(cache, ignore_errors=True)

        start = time.monotonic()
        while True:
            record = run_child("plain")
            ok = tally.add(record, f"run {len(plain) + 1}")
            plain.append(record)
            if trace and ok:
                traced_record = run_child("traced")
                tally.add(traced_record, f"traced run {len(traced) + 1}")
                if not traced_record.get("error"):
                    tally.check(
                        traced_record["output_sha256"] == record["output_sha256"],
                        f"traced run {len(traced) + 1}: outputs differ from "
                        "the untraced run's",
                    )
                    traced_record["overhead_s"] = (
                        traced_record["wall_s"] - record["wall_s"]
                    )
                    traced.append(traced_record)
            # Start another process only if it should end within the window.
            elapsed = time.monotonic() - start
            if elapsed * (len(plain) + 1) / len(plain) > seconds:
                break
    good = [r for r in plain if not r.get("error")]
    for key in ("sim_cycles", "table2_best_mae", "points_completed"):
        values = {r[key] for r in good + traced}
        tally.check(
            len(values) <= 1, f"{key} is not constant across runs: {sorted(values)}"
        )
    timed = traced if trace else good
    if not timed:
        metrics = {}
    elif trace:
        metrics = layer_metrics(traced)
    else:
        metrics = end_to_end_metrics(good, tally)
    return {
        "workload": workload.name,
        "seed": seed,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": metrics,
        "samples": len(timed),
        "wall_samples": [r["wall_s"] for r in timed],
    }


def end_to_end_metrics(records, tally: Tally):
    values = {
        "wall_s": median([r["wall_s"] for r in records]),
        "setup_s": median([r["setup_s"] for r in records]),
        "sim_cycles_per_s": median([r["sim_cycles"] / r["wall_s"] for r in records]),
        "points_per_s": median(
            [r["points_completed"] / r["wall_s"] for r in records]
        ),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in records]),
        "cache_mb": median([r["cache_bytes"] / 1e6 for r in records]),
        "success_rate": 1.0 - tally.failed / tally.attempted,
        "table2_best_mae": median([r["table2_best_mae"] for r in records]),
    }
    return {
        check_metric_name(k): {"value": v, "unit": END_TO_END_UNITS[k]}
        for k, v in values.items()
    }


def layer_metrics(traced):
    metrics = {}
    for name, unit in per_layer_units().items():
        if name == "trace_overhead_s":
            values = [r["overhead_s"] for r in traced]
        else:
            values = [r["layers"][name] for r in traced]
        metrics[check_metric_name(name)] = {"value": median(values), "unit": unit}
    return metrics


def report(result: Dict[str, Any], stamp: Dict[str, Any], trace: bool) -> str:
    n = result["samples"]
    error_rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    lines = [
        f"workload {result['workload']} seed {result['seed']} "
        f"({'per-layer, traced' if trace else 'end-to-end'}; medians of {n} "
        f"fresh process{'es' if n != 1 else ''})",
        f"  error_rate {error_rate:.6f} ({result['failed']} failed of "
        f"{result['attempted']} operations)",
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:28s} {m['value']:>16.6f} {m['unit']:8s} n={n}")
    lines.append(
        "  wall_s of each process: "
        + " ".join(f"{w:.3f}" for w in result["wall_samples"])
    )
    for problem in result["problems"]:
        lines.append(f"  FAILED {problem}")
    lines.append("  host " + json.dumps(stamp, sort_keys=True))
    return "\n".join(lines)


def write_goldens(deadline: float) -> None:
    """Run each workload once at the default seed and store its digests."""
    sweep = WORKLOADS["sweep_grid"]
    goldens: Dict[str, Any] = {
        "regenerate": "python3 perfbench/run.py --write-goldens",
    }
    with Session("goldens", deadline) as session:
        for name in ("paper_cold", "baseline_scalar"):
            record = session.child(
                WORKLOADS[name], DEFAULT_SEED, "plain", session.fresh_cache()
            )
            if record.get("error"):
                raise BenchError(f"{name}: {record['error']}")
            goldens[name] = {"output_sha256": record["stdout_sha256"]}
        goldens["baseline_scalar"]["note"] = (
            "The planned Section-3 overhead fix (one shared cause set and "
            "denominator for both overhead columns) changes these rows on "
            "purpose; regenerate this golden with that change."
        )
        sample = session.child(sweep, DEFAULT_SEED, "plain", session.fresh_cache())
        grid = session.child(
            sweep, DEFAULT_SEED, "plain", session.fresh_cache(), full_grid=True
        )
        for record in (sample, grid):
            if record.get("error"):
                raise BenchError(f"sweep: {record['error']}")
        for label, digest in sample["point_digests"].items():
            if grid["point_digests"].get(label) != digest:
                raise BenchError(
                    f"sweep point {label} depends on the sample it is in"
                )
        goldens["sweep"] = {
            "seed": DEFAULT_SEED,
            "points_per_sample": SWEEP_POINTS,
            "artifact_sha256": sample["artifact_sha256"],
            "points": dict(sorted(grid["point_digests"].items())),
        }
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDENS_PATH.relative_to(ROOT)}")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", help=f"{', '.join(WORKLOADS)} or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        if args.write_goldens:
            write_goldens(started + 3 * RUN_DEADLINE_S)
            return 0
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        stamp = host_stamp()
        results = []
        for name in names:
            deadline = time.monotonic() + RUN_DEADLINE_S
            result = run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace), deadline
            )
            print(report(result, stamp, bool(args.trace)), flush=True)
            results.append(result)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()
        }
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
