"""Entry-point compatibility of the column engine: the path report every
simulation still answers, NumPy staying out of CLI start-up, and the
batch_simulate runner stage's parity with per-machine simulate jobs.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from repro.batchsim.engine import unsupported_reason
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W


class TestUnsupportedReasons:
    def test_common_path_is_supported(self):
        assert unsupported_reason(trace=object()) is None
        # Every feature has a column form, so nothing is unsupported.
        assert unsupported_reason(
            predictor=object(),
            table=object(),
            confidence=object(),
            model_icache=True,
        ) is None


@pytest.mark.parametrize(
    "module", ["repro.evaluation.__main__", "repro.explore.cli"]
)
def test_cli_import_leaves_numpy_unloaded(module):
    """The column engine imports NumPy lazily: CLI start-up (and so
    ``--help`` and argument errors) does not pay for it."""
    src = Path(__file__).resolve().parents[2] / "src"
    script = (
        f"import sys, {module}\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestBatchSimulateJob:
    def test_job_results_match_scalar_simulate_jobs(self):
        """One batch_simulate job == N scalar simulate jobs, per entry."""
        from repro.runner import Runner, batch_simulate_job, simulate_job

        machines = [PLAYDOH_4W, PLAYDOH_8W]
        runner = Runner(jobs=1, cache=None)
        try:
            batch = batch_simulate_job(
                "compress", machines, scale=0.25, collect_metrics=True
            )
            scalars = [
                simulate_job("compress", m, scale=0.25, collect_metrics=True)
                for m in machines
            ]
            results = runner.run([batch] + scalars)
        finally:
            runner.close()
        batched = results[batch.key()]
        assert set(batched) == {m.fingerprint() for m in machines}
        for machine, job in zip(machines, scalars):
            assert dataclasses.asdict(
                batched[machine.fingerprint()]
            ) == dataclasses.asdict(results[job.key()])
