"""Capture correctness: profiles, simulations and round trips.

The trace layer's contract is *byte identity*: profiling or simulating
from a given trace must produce exactly what a run that captures its
own trace produces — results, metrics snapshots, access counters and
all — and a trace that does not match its program is rejected.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import compile_program
from repro.core.program_sim import simulate_program
from repro.ir.builder import ProgramBuilder
from repro.machine import PLAYDOH_4W
from repro.profiling.interpreter import ExecutionLimitExceeded
from repro.profiling.profile_run import profile_program
from repro.trace import (
    TraceError,
    TraceMismatch,
    ValueTrace,
    capture_trace,
    program_digest,
)
from repro.workloads.suite import load_suite

SUITE = load_suite(scale=0.25)
TRACES = {name: capture_trace(program) for name, program in SUITE.items()}


def assert_profiles_identical(a, b):
    assert a.blocks == b.blocks
    assert a.values.loads.keys() == b.values.loads.keys()
    for op_id in a.values.loads:
        assert dataclasses.asdict(a.values.loads[op_id]) == dataclasses.asdict(
            b.values.loads[op_id]
        )
    ea, eb = a.execution, b.execution
    assert ea.dynamic_operations == eb.dynamic_operations
    assert ea.dynamic_blocks == eb.dynamic_blocks
    assert ea.registers == eb.registers
    assert ea.memory.snapshot() == eb.memory.snapshot()
    assert ea.loads_executed == eb.loads_executed
    assert ea.stores_executed == eb.stores_executed
    assert ea.halted == eb.halted


@pytest.mark.parametrize("workload", sorted(SUITE))
class TestSuiteReplay:
    def test_profile_replay_is_identical(self, workload):
        program = SUITE[workload]
        live = profile_program(program)
        replayed = profile_program(program, trace=TRACES[workload])
        assert_profiles_identical(live, replayed)

    def test_alu_profile_replay_is_identical(self, workload):
        program = SUITE[workload]
        live = profile_program(program, profile_alu=True)
        replayed = profile_program(
            program, profile_alu=True, trace=TRACES[workload]
        )
        assert_profiles_identical(live, replayed)

    def test_simulation_replay_is_identical(self, workload):
        program = SUITE[workload]
        compilation = compile_program(
            program, PLAYDOH_4W, profile_program(program)
        )
        live = simulate_program(compilation, collect_metrics=True)
        replayed = simulate_program(
            compilation, collect_metrics=True, trace=TRACES[workload]
        )
        assert dataclasses.asdict(live) == dataclasses.asdict(replayed)

    def test_replayed_memory_counters_match_capture(self, workload):
        """Satellite: a replayed run must report the captured run's
        load/store counts, not zero."""
        trace = TRACES[workload]
        result = profile_program(SUITE[workload], trace=trace).execution
        assert result.loads_executed == trace.loads_executed
        assert result.stores_executed == trace.stores_executed
        assert result.loads_executed > 0
        assert result.stores_executed > 0

    def test_file_roundtrip_replays_identically(self, workload, tmp_path):
        trace = TRACES[workload]
        path = trace.save(tmp_path / f"{workload}.trace.gz")
        loaded = ValueTrace.load(path)
        assert dataclasses.asdict(loaded) == dataclasses.asdict(trace)
        live = profile_program(SUITE[workload])
        replayed = profile_program(SUITE[workload], trace=loaded)
        assert_profiles_identical(live, replayed)


class TestMismatchDetection:
    def test_wrong_program_is_rejected(self):
        with pytest.raises(TraceMismatch, match="different program"):
            profile_program(SUITE["li"], trace=TRACES["compress"])

    def test_mutated_block_is_rejected(self):
        program = load_suite(scale=0.25)["compress"]
        trace = capture_trace(program)
        # Mutating a block after capture invalidates both the digest and
        # the per-block opcode signature.
        labels = list(trace.labels)
        a = program.main.block(labels[0])
        b = program.main.block(labels[1])
        a.operations, b.operations = b.operations, a.operations
        with pytest.raises(TraceMismatch):
            profile_program(program, trace=trace)

    def test_truncated_value_stream_is_rejected(self):
        trace = TRACES["compress"]
        broken = dataclasses.replace(trace, values=trace.values[:-1])
        with pytest.raises(TraceMismatch, match="ran out of values"):
            profile_program(SUITE["compress"], trace=broken)

    def test_oversized_value_stream_is_rejected(self):
        trace = TRACES["compress"]
        broken = dataclasses.replace(trace, values=trace.values + [0])
        with pytest.raises(TraceMismatch):
            profile_program(SUITE["compress"], trace=broken)

    def test_limit_budget_is_enforced_on_replay(self):
        trace = TRACES["compress"]
        with pytest.raises(ExecutionLimitExceeded, match="compress: exceeded"):
            profile_program(SUITE["compress"], trace=trace, max_operations=10)


class TestFormat:
    def test_digest_ignores_operation_ids(self):
        a = load_suite(scale=0.25)["swim"]
        b = load_suite(scale=0.25)["swim"]  # freshly numbered ops
        ids_a = [op.op_id for blk in a.main for op in blk.operations]
        ids_b = [op.op_id for blk in b.main for op in blk.operations]
        assert ids_a != ids_b
        assert program_digest(a) == program_digest(b)

    def test_digest_sees_initial_state(self):
        a = load_suite(scale=0.25)["swim"]
        b = load_suite(scale=0.25)["swim"]
        b.poke(99999, 1)
        assert program_digest(a) != program_digest(b)

    def test_unsupported_schema_version_is_rejected(self):
        obj = TRACES["compress"].to_json_obj()
        obj["schema_version"] = 999
        with pytest.raises(TraceError, match="schema version 999"):
            ValueTrace.from_json_obj(obj)

    def test_malformed_object_is_rejected(self):
        with pytest.raises(TraceError, match="malformed"):
            ValueTrace.from_json_obj({"schema_version": 1})

    def test_unreadable_file_is_rejected(self, tmp_path):
        path = tmp_path / "bogus.trace.gz"
        path.write_bytes(b"not gzip at all")
        with pytest.raises(TraceError, match="cannot read"):
            ValueTrace.load(path)

    def test_memory_keys_survive_json(self):
        trace = TRACES["compress"]
        rt = ValueTrace.from_json_obj(
            json.loads(json.dumps(trace.to_json_obj()))
        )
        assert rt.final_memory == trace.final_memory
        assert all(isinstance(k, int) for k in rt.final_memory)


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=-(2**30), max_value=2**30) | st.floats(
            allow_nan=False, allow_infinity=False, width=32
        ),
        min_size=1,
        max_size=16,
    ),
    iterations=st.integers(min_value=1, max_value=8),
)
def test_property_roundtrip_replay(values, iterations):
    """serialize -> load -> replay reproduces the live profile for
    arbitrary array contents and loop lengths."""
    pb = ProgramBuilder("prop")
    fb = pb.function()
    fb.block("entry")
    fb.mov("base", 1000)
    fb.mov("i", 0)
    fb.br("loop")
    fb.block("loop")
    fb.add("addr", "base", "i")
    fb.load("x", "addr")
    fb.mul("y", "x", 3)
    fb.store("y", "addr")
    fb.add("i", "i", 1)
    fb.cmplt("c", "i", len(values) * iterations)
    fb.brcond("c", "loop", "done")
    fb.block("done")
    fb.halt()
    pb.add(fb.build())
    program = pb.build()
    for i, v in enumerate(values * iterations):
        program.poke(1000 + i, v)

    trace = capture_trace(program)
    with tempfile.TemporaryDirectory() as tmp:
        loaded = ValueTrace.load(trace.save(Path(tmp) / "t.gz"))
    live = profile_program(program)
    replayed = profile_program(program, trace=loaded)
    assert_profiles_identical(live, replayed)
