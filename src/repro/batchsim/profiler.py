"""Profiling over the struct-of-arrays decode of a value trace.

Both halves of a :class:`~repro.profiling.profile_run.ProfileData` reduce
to per-column facts the :class:`~repro.batchsim.arrays.TraceArrays`
decode already holds:

* block frequencies are an ``np.bincount`` over the block sequence;
* a load's stride/FCM hit counters are the sums of the stride and
  order-2 FCM outcome columns over its own values
  (:mod:`repro.predict.columns`), because both profile predictors keep
  strictly per-key state.

Dict insertion order is observable through pickling, so both the
block-count dict and the value-stats dict are built in *first dynamic
encounter* order; ops that never execute get no stats entry.
``tests/batchsim/test_profiler.py`` checks the result against a
sequential replay of the trace through the real predictor classes.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.predict.columns import fcm_column, stride_column
from repro.profiling.block_profile import BlockProfile
from repro.profiling.interpreter import ExecutionLimitExceeded
from repro.profiling.value_profile import (
    LONG_LATENCY_OPCODES,
    LoadValueStats,
    ValueProfile,
)


def _load_stats(values) -> LoadValueStats:
    """Profile counters of one op: ``StridePredictor(two_delta=True)``
    and ``FCMPredictor(order=2)`` hits over its value column."""
    return LoadValueStats(
        executions=len(values),
        stride_correct=int(stride_column(values)[0].sum()),
        fcm_correct=int(fcm_column(values)[0].sum()),
    )


def batch_profile(
    program,
    trace,
    context,
    max_operations: int = 5_000_000,
    profile_alu: bool = False,
):
    """The :class:`~repro.profiling.profile_run.ProfileData` of one
    captured run, computed column-wise through ``context``'s shared
    :class:`TraceArrays` (the body of
    :func:`repro.profiling.profile_run.profile_program`).
    """

    from repro.profiling.profile_run import ProfileData

    if trace.dynamic_operations > max_operations:
        raise ExecutionLimitExceeded(
            f"{trace.program_name}: exceeded {max_operations} operations"
        )
    arrays = context.arrays(trace, program)
    function = program.main
    tracked = (
        frozenset(LONG_LATENCY_OPCODES) if profile_alu else frozenset()
    )

    # First-encounter order of labels, then counts per label.
    block_counts: Dict[str, int] = {}
    value_stats: Dict[int, LoadValueStats] = {}
    if len(arrays.block_seq):
        uniq, first = np.unique(arrays.block_seq, return_index=True)
        counts = np.bincount(arrays.block_seq, minlength=len(arrays.labels))
        for idx in uniq[np.argsort(first)]:
            label = arrays.labels[int(idx)]
            block_counts[label] = int(counts[int(idx)])
            block = function.block(label)
            for op in block.operations:
                if not (op.is_load or op.opcode in tracked):
                    continue
                if op.op_id in value_stats:
                    continue
                value_stats[op.op_id] = _load_stats(
                    arrays.op_values(label, op.op_id)
                )
    return ProfileData(
        program_name=program.name,
        blocks=BlockProfile(block_counts),
        values=ValueProfile(value_stats),
        execution=trace.to_execution_result(),
    )
