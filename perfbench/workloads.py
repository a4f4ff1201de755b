"""The benchmark's workloads, their command lines and their goldens.

Each workload is one user command, run with ``--jobs 1`` against an
empty result cache in a fresh process.  The paper suite's programs have
fixed seeds, so only the sweep uses the benchmark seed: it picks the
sweep's random sample.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
GOLDENS_PATH = HERE / "goldens.json"

#: The benchmark's default seed; the goldens' full sweep artifact is for it.
DEFAULT_SEED = 0

SWEEP_AXES: Tuple[str, ...] = (
    "issue_width=3,4,5,6,8",
    "threshold=0.5,0.6,0.65,0.7,0.8",
    "predictor.kind=hybrid,stride,fcm,dfcm,last-value",
    "max_predictions=2,4,8",
)
SWEEP_POINTS = 48

#: The paper's Table 2 best-case column, as EXPERIMENTS.md records it.
PAPER_TABLE2_BEST: Dict[str, float] = {
    "compress": 0.48,
    "ijpeg": 0.35,
    "li": 0.49,
    "m88ksim": 0.53,
    "vortex": 0.49,
    "hydro2d": 0.63,
    "swim": 0.49,
    "tomcatv": 0.51,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``eval`` runs ``repro-eval``; ``explore`` runs ``repro-explore``.
    kind: str
    scale: float
    experiments: Tuple[str, ...] = ()

    def argv(
        self, seed: int, cache_dir: Path, out_path: Path, full_grid: bool = False
    ) -> List[str]:
        """The entry point's argument list, exactly as a user types it.

        ``full_grid`` sweeps every grid point instead of the seeded
        sample; it serves only to write the per-point goldens.
        """
        if self.kind == "eval":
            return [
                *self.experiments,
                "--scale", repr(self.scale),
                "--json",
                "--jobs", "1",
                "--cache-dir", str(cache_dir),
            ]
        argv: List[str] = []
        for axis in SWEEP_AXES:
            argv += ["--axis", axis]
        if not full_grid:
            argv += ["--random", str(SWEEP_POINTS), "--seed", str(seed)]
        return argv + [
            "--scale", repr(self.scale),
            "--jobs", "1",
            "--cache-dir", str(cache_dir),
            "--out", str(out_path),
        ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper_cold",
            "repro-eval table2 table4 at scale 16 on an empty cache: "
            "capture, profiling and simulation dominate, one simulation "
            "per trace",
            "eval", 16.0, ("table2", "table4"),
        ),
        Workload(
            "sweep_grid",
            "48-point repro-explore sample at scale 1 on an empty cache: "
            "384 compile and simulate jobs over 8 traces, runner and "
            "compile dominate",
            "explore", 1.0,
        ),
        Workload(
            "baseline_scalar",
            "repro-eval baseline at scale 8 on an empty cache: icache "
            "modelling forces the scalar simulation path",
            "eval", 8.0, ("baseline",),
        ),
    )
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def point_digest(point: Dict[str, Any]) -> str:
    """Digest of one sweep point, without its sample-dependent flag.

    A point's ``pareto`` flag depends on which other points the seed
    sampled; everything else depends only on the point itself, so one
    digest per grid point checks every seed's sweep.
    """
    body = {k: v for k, v in point.items() if k != "pareto"}
    return sha256(json.dumps(body, sort_keys=True).encode("utf-8"))


def table2_best_mae(rows: List[Tuple[str, float]]) -> float:
    """Mean |best-case fraction - paper column| over ``rows``."""
    if not rows:
        raise ValueError("no Table 2 rows to compare with the paper")
    return sum(abs(f - PAPER_TABLE2_BEST[b]) for b, f in rows) / len(rows)


def load_goldens(path: Path = GOLDENS_PATH) -> Dict[str, Any]:
    return json.loads(path.read_text(encoding="utf-8"))


def output_mismatches(
    workload: Workload, seed: int, record: Dict[str, Any], goldens: Dict[str, Any]
) -> List[str]:
    """Why one run's outputs differ from the goldens (empty = they match)."""
    if workload.kind == "eval":
        want = goldens[workload.name]["output_sha256"]
        got = record["stdout_sha256"]
        return [] if got == want else [f"stdout {got[:12]} != golden {want[:12]}"]
    sweep = goldens["sweep"]
    problems = []
    if seed == sweep["seed"] and record["artifact_sha256"] != sweep["artifact_sha256"]:
        problems.append("artifact differs from the default-seed golden")
    for label, digest in sorted(record["point_digests"].items()):
        if sweep["points"].get(label) != digest:
            problems.append(f"point {label} differs from its golden")
    if len(record["point_digests"]) + record["pruned"] != SWEEP_POINTS:
        problems.append(
            f"{len(record['point_digests'])} points + {record['pruned']} "
            f"pruned != {SWEEP_POINTS} sampled"
        )
    return problems


def score(
    workload: Workload, seed: int, record: Dict[str, Any], goldens: Dict[str, Any]
) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` operations of one run.

    Operations are the runner jobs the run executed, the design points
    it evaluated and the run's output check.  Failed operations are a
    run that raised (a runner job failure surfaces that way), sweep
    points pruned with reason ``error``, and a run whose output differs
    from its golden.
    """
    if record.get("error"):
        return 1, 1, [record["error"].strip().splitlines()[-1]]
    problems = output_mismatches(workload, seed, record, goldens)
    attempted = record["jobs_executed"] + record["design_points"] + 1
    failed = record["points_error"] + (1 if problems else 0)
    if record["points_error"]:
        problems.append(f"{record['points_error']} points pruned with error")
    return attempted, failed, problems
