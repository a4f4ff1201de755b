"""Profiling over the struct-of-arrays decode of a value trace.

Both halves of a :class:`~repro.profiling.profile_run.ProfileData` reduce
to per-column facts the :class:`~repro.batchsim.arrays.TraceArrays`
decode already holds:

* block frequencies are an ``np.bincount`` over the block sequence;
* the per-load stride/FCM hit counters depend only on that load's own
  value column, because both profile predictors keep strictly per-key
  state (:mod:`repro.predict.stride`, :mod:`repro.predict.fcm`).

So this module computes the profile one column at a time, with the
predictor state machines inlined into a single loop per column.  Order
notes:

* dict insertion order is observable through pickling, so both the
  block-count dict and the value-stats dict are built in *first dynamic
  encounter* order;
* ops that never execute get no stats entry;
* the inlined predictors replicate two-delta stride and order-2 FCM
  update/predict rules verbatim, including ``_values_equal`` scoring and
  Python ``hash`` context hashing.

``tests/batchsim/test_profiler.py`` checks the inlined state machines
against the real predictor classes.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.profiling.block_profile import BlockProfile
from repro.profiling.interpreter import ExecutionLimitExceeded
from repro.profiling.value_profile import (
    LONG_LATENCY_OPCODES,
    LoadValueStats,
    ValueProfile,
)
from repro.predict.base import _values_equal

#: FCM parameters of the profile predictor (``FCMPredictor(order=2)``).
_FCM_ORDER = 2
_FCM_TABLE_SIZE = 1 << 16

_MISSING = object()


def column_stats(values: List) -> LoadValueStats:
    """Stride/FCM profile counters for one op's value sequence.

    Inlines ``StridePredictor(two_delta=True)`` and
    ``FCMPredictor(order=2)`` for a single key: per value, score both
    predictions against the actual value, then update both state
    machines.
    """
    stats = LoadValueStats()
    stride_correct = 0
    fcm_correct = 0
    # Two-delta stride state (one _StrideEntry, inlined).
    s_last = None
    s_stride = 0
    s_candidate = 0
    s_seen = 0
    # Order-2 FCM state: the context (h0 older, h1 newer — the deque of
    # the last two values) plus the hashed second-level table.  The
    # context hash replicates FCMPredictor._context_hash exactly:
    # ``h = 0; for v in history: h = (h * 1000003) ^ hash(v)``.  The
    # context does not change between the predict and the update of one
    # value, so the hash is computed once and reused.
    h0 = h1 = None
    h_len = 0
    fcm_table: Dict[int, object] = {}
    for value in values:
        # -- predict + score ---------------------------------------------
        if s_seen >= 2:
            if _values_equal(s_last + s_stride, value):
                stride_correct += 1
        elif s_seen == 1:
            # One observation: no delta yet, degrade to last-value.
            if _values_equal(s_last, value):
                stride_correct += 1
        if h_len == _FCM_ORDER:
            ctx = ((hash(h0) * 1000003) ^ hash(h1)) % _FCM_TABLE_SIZE
            prediction = fcm_table.get(ctx, _MISSING)
            if prediction is not _MISSING and _values_equal(prediction, value):
                fcm_correct += 1
        # -- update ------------------------------------------------------
        if s_seen == 0:
            s_last = value
            s_seen = 1
        else:
            delta = value - s_last
            if delta == s_candidate:
                s_stride = delta
            s_candidate = delta
            s_last = value
            s_seen += 1
        if h_len == _FCM_ORDER:
            fcm_table[ctx] = value
            h0, h1 = h1, value
        elif h_len == 1:
            h0, h1 = h1, value
            h_len = 2
        else:
            h1 = value
            h_len = 1
    stats.executions = len(values)
    stats.stride_correct = stride_correct
    stats.fcm_correct = fcm_correct
    return stats


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
                value_stats[op.op_id] = column_stats(
                    arrays.op_values(label, op.op_id).tolist()
                )
    return ProfileData(
        program_name=program.name,
        blocks=BlockProfile(block_counts),
        values=ValueProfile(value_stats),
        execution=trace.to_execution_result(),
    )
