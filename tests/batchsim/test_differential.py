"""Differential suite: the column engine vs a sequential oracle.

Every simulation runs on trace columns.  These tests pin the columns
against a test-side *scalar* oracle that walks the trace in execution
order and drives the real predictor, :class:`ValuePredictionTable` and
:class:`ConfidenceEstimator` classes the way hardware would — predict,
score, train, per dynamic occurrence.  Both reduce a run to
:class:`SimCounts`; the oracle's counts are folded through the same
accounting, so whole results (metrics and cycle stacks included) must
be identical.  Icache modelling is pinned by the golden artifacts in
``tests/obs/golden/``.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batchsim import engine
from repro.batchsim.context import BatchContext
from repro.batchsim.outcomes import build_predictor
from repro.core.metrics import compile_program
from repro.core.program_sim import SimCounts, simulate_program
from repro.core.speculation import SpeculationConfig
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W, PLAYDOH_4W_SPEC
from repro.predict.base import _values_equal
from repro.predict.confidence import ConfidenceEstimator
from repro.predict.stride import StridePredictor
from repro.predict.table import ValuePredictionTable
from repro.profiling.profile_run import profile_program
from repro.trace import TRACED_OPCODES, capture_trace
from repro.workloads.suite import load_suite
from repro.workloads.synthetic import random_program

#: The machine grid: the paper's 4-wide, the Table 4 8-wide, and a
#: tight-CCB variant so compensation back-pressure (the one machine
#: feature that couples block instances) is on the grid too.
TIGHT_CCB = PLAYDOH_4W_SPEC.override(
    name="playdoh-4w-tightccb", ccb_capacity=8, ovb_capacity=64
).build()

MACHINES = (PLAYDOH_4W, PLAYDOH_8W, TIGHT_CCB)
THRESHOLDS = (0.5, 0.8)

SUITE = load_suite(scale=0.25)
TRACES = {name: capture_trace(program) for name, program in SUITE.items()}
PROFILES = {name: profile_program(program) for name, program in SUITE.items()}


def oracle_counts(
    compilation, trace, predictor=None, table_capacity=None, confidence=None
):
    """Sequential reference: one in-order pass over the trace."""
    if predictor is None:
        predictor = build_predictor(compilation.machine)
    table = ValuePredictionTable(predictor, capacity=table_capacity)
    function = compilation.program.main
    counts = SimCounts()
    values = iter(trace.values)
    for block_id in trace.block_seq:
        label = trace.labels[block_id]
        comp = compilation.blocks.get(label)
        traced = [
            (op.op_id, next(values))
            for op in function.block(label).operations
            if op.opcode in TRACED_OPCODES
        ]
        if comp is None:
            continue
        if not comp.speculated:
            counts.nonspec[label] = counts.nonspec.get(label, 0) + 1
            continue
        predicted = comp.predicted_load_ids
        gated = confidence is not None and not all(
            confidence.confident(op_id) for op_id in predicted
        )
        outcomes = {}
        for op_id, value in traced:
            if op_id not in predicted:
                continue
            prediction = table.lookup(op_id)
            correct = prediction is not None and _values_equal(prediction, value)
            outcomes[op_id] = correct
            counts.hits += correct
            counts.misses += not correct
            counts.no_predictions += prediction is None
            table.train(op_id, value)
            if confidence is not None:
                confidence.record(op_id, correct)
        if gated:
            counts.gated[label] = counts.gated.get(label, 0) + 1
        else:
            pattern = tuple(outcomes[op_id] for op_id in predicted)
            per = counts.patterns.setdefault(label, {})
            per[pattern] = per.get(pattern, 0) + 1
    counts.table_tag_misses = table.tag_misses
    return counts


def oracle_simulate(compilation, trace, **kwargs):
    """``simulate_program`` with the oracle's counts in place of the
    column engine's."""

    def counts(compilation, trace, context, max_operations, **features):
        features.pop("instance_codes")
        return oracle_counts(compilation, trace, **features)

    with mock.patch.object(engine, "batch_counts", counts):
        return simulate_program(compilation, trace=trace, **kwargs)


def assert_results_identical(scalar, batched):
    assert dataclasses.asdict(scalar) == dataclasses.asdict(batched)


def compiled(workload, machine=PLAYDOH_4W, threshold=None):
    config = SpeculationConfig() if threshold is None else SpeculationConfig(
        threshold=threshold
    )
    return compile_program(
        SUITE[workload], machine, PROFILES[workload], config=config
    )


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("workload", sorted(SUITE))
class TestGoldenSuiteParity:
    def test_batched_equals_scalar(self, workload, machine, threshold):
        compilation = compiled(workload, machine, threshold)
        trace = TRACES[workload]
        scalar = oracle_simulate(compilation, trace)
        batched = simulate_program(compilation, trace=trace)
        assert_results_identical(scalar, batched)


class TestMetricsAndContexts:
    def test_metrics_snapshots_match(self):
        """collect_metrics parity: counters, not just cycle totals."""
        compilation = compiled("compress")
        trace = TRACES["compress"]
        scalar = oracle_simulate(compilation, trace, collect_metrics=True)
        batched = simulate_program(compilation, trace=trace, collect_metrics=True)
        assert_results_identical(scalar, batched)

    def test_cycle_stacks_match(self):
        compilation = compiled("swim", PLAYDOH_8W)
        trace = TRACES["swim"]
        scalar = oracle_simulate(compilation, trace, collect_cycles=True)
        batched = simulate_program(compilation, trace=trace, collect_cycles=True)
        assert_results_identical(scalar, batched)

    def test_explicit_context_equals_default(self):
        """A caller-owned BatchContext gives the same answer as the
        process-wide one, and reusing it across points is harmless."""
        compilation = compiled("compress")
        trace = TRACES["compress"]
        context = BatchContext()
        first = simulate_program(compilation, trace=trace, batch=context)
        second = simulate_program(compilation, trace=trace, batch=context)
        via_default = simulate_program(compilation, trace=trace)
        assert_results_identical(first, second)
        assert_results_identical(first, via_default)
        assert context.stats()["arrays.hits"] > 0  # second run shared the decode

    def test_off_path_points_fall_back_identically(self):
        """Confidence gating leaves the shared-histogram path; the
        gated columns must still agree with the oracle."""
        compilation = compiled("compress")
        trace = TRACES["compress"]
        scalar = oracle_simulate(
            compilation, trace, confidence=ConfidenceEstimator()
        )
        batched = simulate_program(
            compilation, trace=trace, confidence=ConfidenceEstimator()
        )
        assert_results_identical(scalar, batched)

    @pytest.mark.parametrize(
        "features",
        [
            lambda: {"confidence": ConfidenceEstimator()},
            lambda: {"table_capacity": 1},
            lambda: {"table_capacity": 1, "confidence": ConfidenceEstimator()},
            lambda: {"predictor": StridePredictor()},
        ],
        ids=["confidence", "table1", "table1-confidence", "stride"],
    )
    @pytest.mark.parametrize("workload", ["compress", "ijpeg", "li"])
    def test_column_features_match_oracle(self, workload, features):
        """A finite table, confidence gating and an explicit predictor
        as column operations agree with the sequential oracle."""
        # A low threshold predicts more ops, so a one-entry table
        # thrashes (ijpeg's two loads share a block).
        compilation = compiled(workload, threshold=0.3)
        trace = TRACES[workload]
        scalar = oracle_simulate(
            compilation, trace, collect_cycles=True, **features()
        )
        batched = simulate_program(
            compilation, trace=trace, collect_cycles=True, **features()
        )
        assert_results_identical(scalar, batched)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    machine_idx=st.integers(min_value=0, max_value=len(MACHINES) - 1),
    threshold=st.sampled_from((0.5, 0.65, 0.8)),
    capacity=st.sampled_from((None, 1, 2, 5)),
    gate=st.booleans(),
)
def test_random_programs_batched_equals_scalar(
    seed, machine_idx, threshold, capacity, gate
):
    program = random_program(seed)
    machine = MACHINES[machine_idx]
    profile = profile_program(program)
    compilation = compile_program(
        program, machine, profile, config=SpeculationConfig(threshold=threshold)
    )
    trace = capture_trace(program)

    def features():
        return {
            "table_capacity": capacity,
            "confidence": ConfidenceEstimator() if gate else None,
        }

    scalar = oracle_simulate(compilation, trace, **features())
    batched = simulate_program(compilation, trace=trace, **features())
    assert_results_identical(scalar, batched)
