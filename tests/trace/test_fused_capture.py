"""Fused capture vs a capture driven through the observer protocol.

``capture_trace`` records the block sequence and traced values inside
the interpreter's generated code.  It must produce, byte for byte, the trace
an :class:`~repro.profiling.interpreter.ExecutionObserver` riding an
ordinary run records: the same fields, the same value types and the
same pickle — and it must stop at the same operation, with the same
message, when the run exceeds its budget.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.ir.builder import ProgramBuilder
from repro.profiling.interpreter import ExecutionLimitExceeded, Interpreter
from repro.trace import (
    TRACED_OPCODES,
    ValueTrace,
    block_signature,
    capture_trace,
    program_digest,
)
from repro.workloads.suite import load_suite

SUITE = load_suite(scale=0.25)


class ObserverCapture:
    """Reference: the block sequence and traced values, recorded from
    ``block_entered`` and ``operation_executed`` notifications."""

    def __init__(self):
        self.labels = []
        self.block_seq = []
        self.values = []

    def block_entered(self, block):
        if block.label not in self.labels:
            self.labels.append(block.label)
        self.block_seq.append(self.labels.index(block.label))

    def operation_executed(self, op, inputs, result):
        if op.opcode in TRACED_OPCODES:
            self.values.append(result)


def reference_capture(program, max_operations=5_000_000):
    observer = ObserverCapture()
    result = Interpreter(max_operations=max_operations).run(
        program, observers=[observer]
    )
    function = program.main
    return ValueTrace(
        program_name=program.name,
        program_digest=program_digest(program),
        labels=tuple(observer.labels),
        block_signatures=tuple(
            block_signature(function.block(label)) for label in observer.labels
        ),
        block_seq=observer.block_seq,
        values=observer.values,
        dynamic_operations=result.dynamic_operations,
        dynamic_blocks=result.dynamic_blocks,
        loads_executed=result.loads_executed,
        stores_executed=result.stores_executed,
        halted=result.halted,
        final_registers=dict(result.registers),
        final_memory=result.memory.snapshot(),
    )


def assert_traces_identical(got, want):
    for field in dataclasses.fields(ValueTrace):
        assert getattr(got, field.name) == getattr(want, field.name), field.name
    assert [type(v) for v in got.values] == [type(v) for v in want.values]
    assert pickle.dumps(got) == pickle.dumps(want)


@pytest.mark.parametrize("workload", sorted(SUITE))
def test_suite_capture_matches_observer_capture(workload):
    program = SUITE[workload]
    assert_traces_identical(capture_trace(program), reference_capture(program))


def _loop_program():
    """A loop whose body mixes traced (load, mul) and untraced ops."""
    pb = ProgramBuilder("loop")
    fb = pb.function()
    fb.block("entry")
    fb.mov("i", 0)
    fb.mov("base", 100)
    fb.br("body")
    fb.block("body")
    fb.load("x", "base")
    fb.add("y", "x", 1)
    fb.mul("z", "y", 3)
    fb.store("z", "base")
    fb.add("i", "i", 1)
    fb.cmplt("c", "i", 20)
    fb.brcond("c", "body", "done")
    fb.block("done")
    fb.halt()
    pb.add(fb.build())
    program = pb.build()
    program.poke(100, 7)
    return program


def _outcome(capture, program, limit):
    try:
        return capture(program, max_operations=limit)
    except ExecutionLimitExceeded as exc:
        return str(exc)


@pytest.mark.parametrize("limit", [1, 3, 4, 5, 10, 11, 143, 144, 145])
def test_budget_stops_at_the_same_operation(limit):
    """144 operations run in all: 3 entry, 20 x 7 body, 1 halt."""
    program = _loop_program()
    got = _outcome(capture_trace, program, limit)
    want = _outcome(reference_capture, program, limit)
    if limit < 144:
        assert got == want == f"loop: exceeded {limit} operations"
    else:
        assert_traces_identical(got, want)
        assert got.dynamic_operations == 144
