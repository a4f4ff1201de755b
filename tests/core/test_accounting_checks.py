"""Cycle-accounting invariants are raised errors, not ``assert``s.

Each scenario breaks one invariant on purpose and must still be caught
when Python runs with ``-O``, which strips ``assert`` statements.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

SETUP = """
from repro.core import program_sim
from repro.core.metrics import compile_program
from repro.core.program_sim import CycleAccountingError, simulate_program
from repro.machine.configs import PLAYDOH_4W
from repro.profiling.profile_run import profile_program
from repro.workloads.suite import load_benchmark

program = load_benchmark("compress", scale=0.4)  # speculates a block
compilation = compile_program(program, PLAYDOH_4W, profile_program(program))
"""

#: name -> (how the invariant is broken, expected message fragment).
SCENARIOS = {
    "original-schedule-length": (
        "comp = next(iter(compilation.blocks.values()))\n"
        "comp.original_length += 1",
        "rebuilt original schedule",
    ),
    "baseline-attribution": (
        "program_sim.attribute_schedule = lambda schedule: {'issue': 1}",
        "baseline schedule attributes",
    ),
    "stack-sums-to-total": (
        "program_sim._charge_scaled = lambda stack, counts, n: None",
        "cycle stack sums to",
    ),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_mismatch_raises_under_optimize(scenario):
    breakage, message = SCENARIOS[scenario]
    script = SETUP + breakage + textwrap.dedent(
        """
        assert False, "asserts must be stripped under -O"
        try:
            simulate_program(compilation, collect_cycles=True)
        except CycleAccountingError as exc:
            print(exc)
        else:
            raise SystemExit("no CycleAccountingError")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert message in proc.stdout
