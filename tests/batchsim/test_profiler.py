"""Column-wise profiler vs a sequential replay through real predictors.

``batch_profile`` (the body of ``profile_program``) must produce the
:class:`ProfileData` a sequential walk of the trace produces when the
real stride and FCM predictor classes score every tracked value — same
counters, same dict orders (both are pickled into runner cache keys
downstream).  The stride and FCM kernels the profile sums are
additionally pinned against the real predictor objects they stand for.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batchsim.context import BatchContext
from repro.batchsim.profiler import _load_stats, batch_profile
from repro.predict.base import _values_equal
from repro.predict.fcm import FCMPredictor
from repro.predict.stride import StridePredictor
from repro.profiling.value_profile import LONG_LATENCY_OPCODES, LoadValueStats
from repro.trace import TRACED_OPCODES, capture_trace
from repro.workloads.suite import load_suite

SUITE = load_suite(scale=0.25)
TRACES = {name: capture_trace(program) for name, program in SUITE.items()}


def scalar_column_stats(values):
    """Reference: one key driven through the real predictor objects,
    scoring both predictions before updating either."""
    stride = StridePredictor()
    fcm = FCMPredictor(order=2)
    stats = LoadValueStats()
    for value in values:
        stats.executions += 1
        p = stride.predict(0)
        if p is not None and _values_equal(p, value):
            stats.stride_correct += 1
        p = fcm.predict(0)
        if p is not None and _values_equal(p, value):
            stats.fcm_correct += 1
        stride.update(0, value)
        fcm.update(0, value)
    return stats


class TestColumnStats:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.integers(min_value=-8, max_value=8),
                st.integers(),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            max_size=40,
        )
    )
    def test_matches_real_predictors(self, values):
        got = _load_stats(values)
        want = scalar_column_stats(values)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)

    def test_strided_sequence_saturates(self):
        stats = _load_stats(list(range(0, 100, 3)))
        # Two-delta stride locks on after the second delta; the first
        # two predictions cannot be scored as hits.
        assert stats.stride_correct >= stats.executions - 3
        assert stats.best_rate > 0.9

    def test_periodic_sequence_favours_fcm(self):
        stats = _load_stats([1, 7, 3, 1, 7, 3] * 20)
        assert stats.fcm_rate > stats.stride_rate


def assert_profile_matches(profile, blocks, stats):
    assert list(profile.blocks.counts.items()) == list(blocks.items())
    assert list(profile.values.loads) == list(stats)
    for op_id, entry in stats.items():
        assert dataclasses.asdict(profile.values.loads[op_id]) == (
            dataclasses.asdict(entry)
        )


def replay_profile(program, trace, profile_alu=False):
    """Reference: walk the trace in execution order, counting block
    entries and scoring every tracked op's value with one shared pair of
    real predictors (the hardware-order event stream)."""
    tracked = LONG_LATENCY_OPCODES if profile_alu else frozenset()
    stride, fcm = StridePredictor(), FCMPredictor(order=2)
    blocks, stats = {}, {}
    values = iter(trace.values)
    for block_id in trace.block_seq:
        label = trace.labels[block_id]
        blocks[label] = blocks.get(label, 0) + 1
        for op in program.main.block(label).operations:
            if op.opcode not in TRACED_OPCODES:
                continue
            value = next(values)
            if not (op.is_load or op.opcode in tracked):
                continue
            entry = stats.setdefault(op.op_id, LoadValueStats())
            entry.executions += 1
            for predictor, field in ((stride, "stride_correct"), (fcm, "fcm_correct")):
                p = predictor.predict(op.op_id)
                if p is not None and _values_equal(p, value):
                    setattr(entry, field, getattr(entry, field) + 1)
            stride.update(op.op_id, value)
            fcm.update(op.op_id, value)
    return blocks, stats


@pytest.mark.parametrize("workload", sorted(SUITE))
class TestBatchProfileParity:
    def test_matches_replay_profile(self, workload):
        program = SUITE[workload]
        trace = TRACES[workload]
        blocks, stats = replay_profile(program, trace)
        batched = batch_profile(program, trace, BatchContext())
        assert_profile_matches(batched, blocks, stats)

    def test_matches_replay_profile_with_alu(self, workload):
        program = SUITE[workload]
        trace = TRACES[workload]
        blocks, stats = replay_profile(program, trace, profile_alu=True)
        batched = batch_profile(
            program, trace, BatchContext(), profile_alu=True
        )
        assert_profile_matches(batched, blocks, stats)
