"""Golden artifacts of the dynamic-execution path.

Three recorded outputs pin what a profiled run and its simulations
produce, so the simulation engine can be restructured without a second
engine kept alive to compare against:

* ``eval_all_scale1.json`` — stdout of
  ``repro-eval all --scale 1 --json --no-cache`` (includes the
  icache-modelled baseline comparison);
* ``explore_table_ccb.json`` — the ``repro-explore --out`` artifact over
  issue widths 4 and 8, ``ccb_capacity=8,none`` and
  ``predictor.table_entries=none,16``;
* ``program_sim_results.json`` — every ``ProgramSimResult`` field, cycle
  stacks and metrics included, for the suite on {playdoh-4w,
  playdoh-8w, a tight-CCB machine} under explicit stride / FCM /
  last-value predictors, ``table_capacity`` 1 and 16, confidence
  gating, and icache modelling with and without a finite table.

Regenerate all three after an *intentional* output change with::

    PYTHONPATH=src python -m tests.obs.test_dynamic_goldens
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import io
import json
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"
EVAL_GOLDEN = GOLDEN_DIR / "eval_all_scale1.json"
EXPLORE_GOLDEN = GOLDEN_DIR / "explore_table_ccb.json"
SIM_GOLDEN = GOLDEN_DIR / "program_sim_results.json"

EVAL_ARGS = ["all", "--scale", "1", "--json", "--no-cache"]
EXPLORE_ARGS = [
    "--axis", "issue_width=4,8",
    "--axis", "ccb_capacity=8,none",
    "--axis", "predictor.table_entries=none,16",
    "--scale", "1",
    "--no-cache",
]

#: Workload scale of the ProgramSimResult golden.
SIM_SCALE = 0.4


def eval_stdout() -> str:
    from repro.evaluation.__main__ import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(EVAL_ARGS)) == 0
    return out.getvalue()


def explore_artifact() -> str:
    from repro.explore.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(EXPLORE_ARGS + ["--out", str(path)]) == 0
        return path.read_text(encoding="utf-8")


def _jsonable(value):
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {
            str(_jsonable(k)): _jsonable(v) for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _machines():
    from repro.machine.configs import PLAYDOH_4W, PLAYDOH_4W_SPEC, PLAYDOH_8W

    tight = PLAYDOH_4W_SPEC.override(
        name="playdoh-4w-tightccb", ccb_capacity=8, ovb_capacity=64
    ).build()
    return (PLAYDOH_4W, PLAYDOH_8W, tight)


def _configs():
    """Name -> fresh ``simulate_program`` keyword arguments."""
    from repro.predict.confidence import ConfidenceEstimator
    from repro.predict.fcm import FCMPredictor
    from repro.predict.last_value import LastValuePredictor
    from repro.predict.stride import StridePredictor

    return {
        "stride": lambda: {"predictor": StridePredictor()},
        "fcm": lambda: {"predictor": FCMPredictor()},
        "last-value": lambda: {"predictor": LastValuePredictor()},
        "table1": lambda: {"table_capacity": 1},
        "table16": lambda: {"table_capacity": 16},
        "confidence": lambda: {"confidence": ConfidenceEstimator()},
        "icache": lambda: {"model_icache": True},
        "icache-table1": lambda: {"model_icache": True, "table_capacity": 1},
    }


def program_sim_results() -> str:
    from repro.core.metrics import compile_program
    from repro.core.program_sim import simulate_program
    from repro.profiling.profile_run import profile_program
    from repro.trace import capture_trace
    from repro.workloads.suite import load_suite

    doc = {}
    for name, program in load_suite(scale=SIM_SCALE).items():
        profile = profile_program(program)
        trace = capture_trace(program)
        for machine in _machines():
            compilation = compile_program(program, machine, profile)
            for config, kwargs in _configs().items():
                result = simulate_program(
                    compilation,
                    trace=trace,
                    collect_cycles=True,
                    collect_metrics=True,
                    **kwargs(),
                )
                doc[f"{name}@{machine.name}/{config}"] = _jsonable(result)
    # One compact line per result keeps the file small and diffs local.
    lines = [
        f"{json.dumps(key)}: "
        + json.dumps(doc[key], sort_keys=True, separators=(",", ":"))
        for key in sorted(doc)
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_eval_all_matches_golden():
    assert eval_stdout() == EVAL_GOLDEN.read_text(encoding="utf-8")


def test_explore_artifact_matches_golden():
    assert explore_artifact() == EXPLORE_GOLDEN.read_text(encoding="utf-8")


def test_program_sim_results_match_golden():
    got = json.loads(program_sim_results())
    want = json.loads(SIM_GOLDEN.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_sim_golden_exercises_every_configuration():
    """The configurations must actually differ, or the golden pins
    nothing about the features it names."""
    doc = json.loads(SIM_GOLDEN.read_text(encoding="utf-8"))
    assert any(r["table_tag_misses"] for k, r in doc.items() if "table1" in k)
    assert any(r["gated_instances"] for k, r in doc.items() if "confidence" in k)
    assert any(
        r["baseline_icache_cycles"] and r["proposed_icache_cycles"]
        for k, r in doc.items()
        if "/icache" in k
    )
    hybrid = {k.rsplit("/", 1)[0]: r for k, r in doc.items() if k.endswith("/table16")}
    assert any(
        doc[f"{point}/stride"]["mispredictions"] != r["mispredictions"]
        for point, r in hybrid.items()
    )


if __name__ == "__main__":
    from repro.batchsim import reset_shared_state

    for path, produce in (
        (EVAL_GOLDEN, eval_stdout),
        (EXPLORE_GOLDEN, explore_artifact),
        (SIM_GOLDEN, program_sim_results),
    ):
        reset_shared_state()
        path.write_text(produce(), encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
