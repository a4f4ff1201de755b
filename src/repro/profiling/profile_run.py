"""One-stop profiling run: block frequencies + value profile.

This is the front half of the paper's methodology: execute the benchmark
once, collecting (a) how often each block runs and (b) how predictable
each load's value stream is under stride and FCM prediction.  The
resulting :class:`ProfileData` is what the speculation pass and the
evaluation experiments consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.program import Program
from repro.profiling.block_profile import BlockProfile
from repro.profiling.value_profile import ValueProfile


@dataclass(frozen=True)
class RunSummary:
    """The counts of the profiled run.  The final registers and memory
    stay in the trace; a profile does not carry a second copy."""

    halted: bool
    dynamic_operations: int
    dynamic_blocks: int
    loads_executed: int
    stores_executed: int


@dataclass(frozen=True)
class ProfileData:
    """Everything the compiler learns from a profiling run."""

    program_name: str
    blocks: BlockProfile
    values: ValueProfile
    execution: RunSummary


def profile_program(
    program: Program,
    max_operations: int = 5_000_000,
    profile_alu: bool = False,
    trace=None,
    batch=None,
) -> ProfileData:
    """Run ``program`` once and collect both profiles.

    ``profile_alu=True`` additionally value-profiles long-latency ALU
    results (mul/div/...), enabling ``SpeculationConfig.predict_alu``.

    ``trace`` is a :class:`~repro.trace.ValueTrace` captured from this
    program; ``None`` captures one.  Both profiles are computed from
    the trace's columns (:mod:`repro.batchsim.profiler`), through
    ``batch``'s :class:`~repro.batchsim.context.BatchContext` — ``None``
    is the process-wide default — so sweeps share the trace decode.
    """
    from repro.batchsim.context import resolve_context
    from repro.batchsim.profiler import batch_profile

    if trace is None:
        from repro.trace.capture import capture_trace

        trace = capture_trace(program, max_operations=max_operations)
    return batch_profile(
        program,
        trace,
        resolve_context(batch),
        max_operations=max_operations,
        profile_alu=profile_alu,
    )
