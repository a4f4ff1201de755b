"""One run of one workload in a fresh process.

Usage: ``python3 perfbench/child.py REQUEST.json`` (``run.py`` writes the
request).  Modes:

- ``plain``: import the entry point, call its ``main`` once, and time
  the call.  This is what a user's command does.
- ``traced``: the same calls through :mod:`tracing`, with layer spans.
- ``prime``: import the entry points and exit (fills the bytecode cache
  so that every timed process imports alike).

After the timed call the child reads the result cache and the outputs,
and writes one JSON record to the request's ``result_path``.
"""

from __future__ import annotations

import io
import json
import pickle
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Any, Dict, List, Tuple

from workloads import WORKLOADS, Workload, point_digest, sha256, table2_best_mae


def cache_facts(workload: Workload, cache_dir: Path, stdout: str) -> Dict[str, Any]:
    """Jobs, bytes, simulated cycles and Table 2 rows from the cache."""
    from repro.core.metrics import OutcomeClass
    from repro.runner import DiskCache

    store = DiskCache(root=cache_dir).store
    entries = 0
    cycles = 0
    machines = set()
    rows: List[Tuple[str, float]] = []
    for manifest in sorted(store.glob("*/*.json")):
        entries += 1
        meta = json.loads(manifest.read_text(encoding="utf-8"))
        if meta["stage"] != "simulate":
            continue
        sim = pickle.loads(manifest.with_suffix(".pkl").read_bytes())
        cycles += sim.cycles_nopred + sim.cycles_proposed + sim.cycles_baseline
        machines.add(meta["machine"])
        rows.append(
            (sim.program_name, sim.time_fraction(OutcomeClass.ALL_CORRECT))
        )
    if "table2" in workload.experiments:
        # The first JSON document on stdout is Table 2's rows.
        doc, _ = json.JSONDecoder().raw_decode(stdout.lstrip())
        rows = [(r["benchmark"], r["best_case_fraction"]) for r in doc]
    return {
        "cache_entries": entries,
        "cache_bytes": sum(
            p.stat().st_size for p in cache_dir.rglob("*") if p.is_file()
        ),
        "sim_cycles": cycles,
        "machines": len(machines),
        "table2_best_mae": table2_best_mae(rows),
    }


def output_facts(workload: Workload, stdout: str, out_path: Path) -> Dict[str, Any]:
    facts: Dict[str, Any] = {"stdout_sha256": sha256(stdout.encode("utf-8"))}
    if workload.kind == "eval":
        facts["output_sha256"] = facts["stdout_sha256"]
        return facts
    artifact = out_path.read_bytes()
    doc = json.loads(artifact)
    facts.update(
        artifact_sha256=sha256(artifact),
        output_sha256=sha256(stdout.encode("utf-8") + artifact),
        point_digests={p["label"]: point_digest(p) for p in doc["points"]},
        pruned=len(doc["pruned"]),
        points_error=sum(1 for p in doc["pruned"] if p["reason"] == "error"),
    )
    return facts


def entry_point(workload: Workload):
    if workload.kind == "eval":
        from repro.evaluation.__main__ import main
    else:
        from repro.explore.cli import main
    return main


def run(request: Dict[str, Any]) -> Dict[str, Any]:
    workload = WORKLOADS[request["workload"]]
    seed = int(request["seed"])
    cache_dir = Path(request["cache_dir"])
    out_path = Path(request["out_path"])
    mode = request["mode"]
    main = entry_point(workload)
    if mode == "prime":
        import tracing  # noqa: F401  (primes its imports too)

        return {"t_entry": time.monotonic()}
    if mode == "traced":
        import tracing
    entries_before = sum(1 for _ in cache_dir.rglob("*.pkl"))

    stdout, stderr = io.StringIO(), io.StringIO()
    layers: Dict[str, float] = {}
    error = None
    wall = None
    t_entry = time.monotonic()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            if mode == "traced":
                wall, layers = tracing.run_traced(workload, seed, cache_dir, out_path)
            else:
                argv = workload.argv(
                    seed, cache_dir, out_path, full_grid=request.get("full_grid", False)
                )
                code = main(argv)
                if code != 0:
                    error = f"exit code {code}\n{stderr.getvalue()}"
    except Exception:
        error = traceback.format_exc()
    if wall is None:
        wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record: Dict[str, Any] = {
        "t_entry": t_entry,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "error": error,
    }
    if error is not None:
        return record
    text = stdout.getvalue()
    record.update(output_facts(workload, text, out_path))
    facts = cache_facts(workload, cache_dir, text)
    record.update(facts)
    record["jobs_executed"] = facts["cache_entries"] - entries_before
    if workload.kind == "eval":
        record.update(
            points_error=0,
            design_points=facts["machines"],
            points_completed=facts["machines"],
        )
    else:
        completed = len(record["point_digests"])
        record["design_points"] = completed + record["pruned"]
        record["points_completed"] = completed
    record["layers"] = layers
    return record


if __name__ == "__main__":
    request = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(request)
    Path(request["result_path"]).write_text(json.dumps(result), encoding="utf-8")
