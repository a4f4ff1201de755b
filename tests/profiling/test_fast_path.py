"""Differential tests: the specialized interpreter vs the legacy loop.

The specialized fast path must be observationally indistinguishable from
the legacy per-op dispatch loop — same results, same observer event
streams, same errors at the same dynamic operation.  The legacy loop is
called directly through ``Interpreter._run_legacy``.
"""

import pytest

from repro.ir.builder import ProgramBuilder
from repro.ir.opcodes import Opcode
from repro.ir.operation import Operation, Reg
from repro.profiling.interpreter import ExecutionLimitExceeded, Interpreter
from repro.workloads.suite import load_suite


class EventRecorder:
    """Records the full observer event stream, values included."""

    def __init__(self):
        self.events = []

    def block_entered(self, block):
        self.events.append(("block", block.label))

    def operation_executed(self, op, inputs, result):
        self.events.append(("op", op.op_id, inputs, result))


def run_legacy(monkeypatch, program, observers=None, **kw):
    return Interpreter(**kw)._run_legacy(program, observers or [])


def run_fast(monkeypatch, program, observers=None, **kw):
    return Interpreter(**kw).run(program, observers=observers)


def assert_results_identical(a, b):
    assert a.program_name == b.program_name
    assert a.dynamic_operations == b.dynamic_operations
    assert a.dynamic_blocks == b.dynamic_blocks
    assert a.registers == b.registers
    assert a.memory.snapshot() == b.memory.snapshot()
    assert a.loads_executed == b.loads_executed
    assert a.stores_executed == b.stores_executed
    assert a.halted == b.halted


SUITE = load_suite(scale=0.25)


@pytest.mark.parametrize("workload", sorted(SUITE))
class TestSuiteDifferential:
    def test_results_and_event_streams_match(self, monkeypatch, workload):
        program = SUITE[workload]
        legacy_rec, fast_rec = EventRecorder(), EventRecorder()
        legacy = run_legacy(monkeypatch, program, observers=[legacy_rec])
        fast = run_fast(monkeypatch, program, observers=[fast_rec])
        assert_results_identical(legacy, fast)
        assert legacy_rec.events == fast_rec.events

    def test_observerless_run_matches_observed(self, monkeypatch, workload):
        program = SUITE[workload]
        observed = run_fast(monkeypatch, program, observers=[EventRecorder()])
        bare = run_fast(monkeypatch, program)
        assert_results_identical(observed, bare)


def _loop_program():
    pb = ProgramBuilder("loop")
    fb = pb.function()
    fb.block("entry")
    fb.mov("i", 0)
    fb.mov("base", 100)
    fb.br("body")
    fb.block("body")
    fb.load("x", "base")
    fb.add("x", "x", 1)
    fb.store("x", "base")
    fb.add("i", "i", 1)
    fb.cmplt("c", "i", 20)
    fb.brcond("c", "body", "done")
    fb.block("done")
    fb.halt()
    pb.add(fb.build())
    program = pb.build()
    program.poke(100, 7)
    return program


class TestLimitParity:
    @pytest.mark.parametrize("limit", [1, 2, 5, 6, 7, 50, 121, 122])
    def test_limit_raises_at_the_same_operation(self, monkeypatch, limit):
        """The budget error fires after the exact same observer events,
        with the exact same message, on both paths."""
        program = _loop_program()
        outcomes = []
        for runner in (run_legacy, run_fast):
            rec = EventRecorder()
            try:
                runner(monkeypatch, program, observers=[rec],
                       max_operations=limit)
                outcomes.append(("completed", rec.events))
            except ExecutionLimitExceeded as exc:
                outcomes.append((str(exc), rec.events))
        assert outcomes[0] == outcomes[1]

    def test_limit_message_names_program_and_budget(self, monkeypatch):
        program = _loop_program()
        with pytest.raises(ExecutionLimitExceeded, match="loop: exceeded 3"):
            run_fast(monkeypatch, program, max_operations=3)


class TestDispatchMiss:
    """Prediction-form opcodes have no architectural interpretation; the
    specialized path must reject them with the legacy loop's message."""

    @staticmethod
    def _program_with(op):
        pb = ProgramBuilder("predform")
        fb = pb.function()
        fb.block("entry")
        fb.mov("a", 1)
        fb.halt()
        pb.add(fb.build())
        program = pb.build()
        # The verifier (rightly) rejects prediction forms in front-end
        # code, so splice the op in after the build, before the halt —
        # exactly the malformed input the interpreter must reject.
        ops = program.main.block("entry").operations
        ops.insert(len(ops) - 1, op)
        return program

    @pytest.mark.parametrize(
        "op",
        [
            Operation(Opcode.LDPRED, dest=Reg("p")),
            Operation(Opcode.CHKPRED, dest=Reg("p"), srcs=(Reg("a"),)),
        ],
        ids=["ldpred", "chkpred"],
    )
    def test_same_message_on_both_paths(self, monkeypatch, op):
        program = self._program_with(op)
        messages = []
        for runner in (run_legacy, run_fast):
            with pytest.raises(ValueError) as excinfo:
                runner(monkeypatch, program)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "prediction forms exist only in scheduled code" in messages[0]


class TestStrictRegisters:
    def test_uninitialised_read_raises_on_both_paths(self, monkeypatch):
        pb = ProgramBuilder("strict")
        fb = pb.function()
        fb.block("entry")
        fb.add("out", "never_written", 1)
        fb.halt()
        pb.add(fb.build())
        program = pb.build()
        messages = []
        for runner in (run_legacy, run_fast):
            with pytest.raises(KeyError) as excinfo:
                runner(monkeypatch, program, strict_registers=True)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "never_written" in messages[0]

    def test_strict_results_match_when_all_registers_written(
        self, monkeypatch
    ):
        program = _loop_program()
        legacy = run_legacy(monkeypatch, program, strict_registers=True)
        fast = run_fast(monkeypatch, program, strict_registers=True)
        assert_results_identical(legacy, fast)


class TestFallThrough:
    def test_missing_branch_raises_identically(self, monkeypatch):
        pb = ProgramBuilder("fallthrough")
        fb = pb.function()
        fb.block("entry")
        fb.mov("a", 1)
        fb.halt()
        pb.add(fb.build())
        program = pb.build()
        program.main.block("entry").operations.pop()  # drop the halt
        messages = []
        for runner in (run_legacy, run_fast):
            with pytest.raises(RuntimeError) as excinfo:
                runner(monkeypatch, program)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "fell through without a branch" in messages[0]
