"""Differential tests: generated code vs the reference loop.

Observer-less runs — plain :meth:`Interpreter.run` and fused capture —
execute one generated Python function per block; runs with observers or
``strict_registers`` take the reference loop,
``Interpreter._run_legacy``, which is the executable specification.
Generated code must be indistinguishable from it: the same results with
the same value types, the same register and memory order, the same
captured trace down to its pickle bytes, and the same error type and
message at the same dynamic operation.
"""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.block import BasicBlock
from repro.ir.builder import ProgramBuilder
from repro.ir.function import Function
from repro.ir.opcodes import Opcode, arity, is_alu
from repro.ir.operation import Imm, Operation, Reg
from repro.ir.program import Program
from repro.profiling import interpreter
from repro.profiling.interpreter import ExecutionLimitExceeded, Interpreter
from repro.trace import capture_trace
from repro.workloads.suite import load_suite
from tests.trace.test_fused_capture import reference_capture


class EventRecorder:
    """Records the full observer event stream, values included."""

    def __init__(self):
        self.events = []

    def block_entered(self, block):
        self.events.append(("block", block.label))

    def operation_executed(self, op, inputs, result):
        self.events.append(("op", op.op_id, inputs, result))


def run_legacy(program, observers=None, **kw):
    return Interpreter(**kw)._run_legacy(program, observers or [])


def run_fast(program, observers=None, **kw):
    return Interpreter(**kw).run(program, observers=observers)


def typed(value):
    """A value with its type, compared by ``repr`` so that ``1`` and
    ``1.0``, ``0.0`` and ``-0.0``, and two NaNs compare as they print."""
    return type(value).__name__, repr(value)


def canonical(result):
    """Every field of an ``ExecutionResult``, with register and memory
    order and value types."""
    return (
        result.program_name,
        result.dynamic_operations,
        result.dynamic_blocks,
        [(name, typed(v)) for name, v in result.registers.items()],
        [(address, typed(v)) for address, v in result.memory.snapshot().items()],
        result.loads_executed,
        result.stores_executed,
        result.halted,
    )


def assert_results_identical(a, b):
    assert canonical(a) == canonical(b)


def outcome(run):
    """``("ok", value)`` or the raised error's type and message."""
    try:
        return "ok", run()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc).__name__, str(exc)


def each_runner_outcome(program, limit):
    """The outcome of an observer-less run and of a capture, on the
    reference loop and on generated code."""
    return {
        "result": (
            outcome(lambda: canonical(run_legacy(program, max_operations=limit))),
            outcome(lambda: canonical(run_fast(program, max_operations=limit))),
        ),
        "trace": (
            outcome(lambda: pickle.dumps(reference_capture(program, limit))),
            outcome(lambda: pickle.dumps(capture_trace(program, limit))),
        ),
    }


SUITE = load_suite(scale=0.25)


@pytest.mark.parametrize("workload", sorted(SUITE))
class TestSuiteDifferential:
    def test_results_and_event_streams_match(self, workload):
        program = SUITE[workload]
        legacy_rec, observed_rec = EventRecorder(), EventRecorder()
        legacy = run_legacy(program, observers=[legacy_rec])
        observed = run_fast(program, observers=[observed_rec])
        assert_results_identical(legacy, observed)
        assert legacy_rec.events == observed_rec.events
        assert_results_identical(legacy, run_fast(program))

    def test_observerless_run_matches_observed(self, workload):
        program = SUITE[workload]
        observed = run_fast(program, observers=[EventRecorder()])
        bare = run_fast(program)
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
    def test_limit_raises_at_the_same_operation(self, limit):
        """The budget error fires after the exact same observer events,
        with the exact same message, on every path."""
        program = _loop_program()
        outcomes = []
        for runner in (run_legacy, run_fast):
            rec = EventRecorder()
            try:
                runner(program, observers=[rec], max_operations=limit)
                outcomes.append(("completed", rec.events))
            except ExecutionLimitExceeded as exc:
                outcomes.append((str(exc), rec.events))
        assert outcomes[0] == outcomes[1]
        runs = each_runner_outcome(program, limit)
        assert runs["result"][0] == runs["result"][1]
        assert runs["trace"][0] == runs["trace"][1]

    def test_loop_stops_before_an_iteration_that_would_raise(self):
        """A self-loop whose third iteration raises (``int`` of a NaN
        word): a budget that ends before that iteration's ``and`` must
        raise the limit error, one that reaches it the ``ValueError``."""
        program = _program(
            "nanloop",
            [
                (
                    "entry",
                    [
                        _op(Opcode.MOV, "a", Imm(3)),
                        Operation(Opcode.BR, targets=("loop",)),
                    ],
                ),
                (
                    "loop",
                    [
                        _op(Opcode.SUB, "a", Reg("a"), Imm(1)),
                        _op(Opcode.LOAD, "v", Reg("a")),
                        _op(Opcode.AND, "w", Reg("v"), Imm(1)),
                        Operation(
                            Opcode.BRCOND, srcs=(Imm(1),), targets=("loop", "loop")
                        ),
                    ],
                ),
            ],
            entry="entry",
            memory={0: math.nan, 1: 1, 2: 2},
        )
        kinds = []
        for limit in range(16):
            runs = each_runner_outcome(program, limit)
            assert runs["result"][0] == runs["result"][1], limit
            assert runs["trace"][0] == runs["trace"][1], limit
            kinds.append(runs["result"][1][0])
        assert kinds == ["ExecutionLimitExceeded"] * 13 + ["ValueError"] * 3

    def test_limit_message_names_program_and_budget(self):
        program = _loop_program()
        for runner in (run_legacy, run_fast):
            with pytest.raises(ExecutionLimitExceeded, match="loop: exceeded 3"):
                runner(program, max_operations=3)


class TestDispatchMiss:
    """Prediction-form opcodes have no architectural interpretation;
    generated code must reject them with the reference loop's message,
    and only once the budget reaches them."""

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
    def test_same_message_on_both_paths(self, op):
        program = self._program_with(op)
        messages = []
        for runner in (run_legacy, run_fast):
            with pytest.raises(ValueError) as excinfo:
                runner(program)
            messages.append(str(excinfo.value))
        with pytest.raises(ValueError) as excinfo:
            capture_trace(program)
        messages.append(str(excinfo.value))
        assert len(set(messages)) == 1
        assert "prediction forms exist only in scheduled code" in messages[0]
        # A budget of one op stops the run at the mov, before the miss.
        for limit in (0, 1, 2, 3):
            runs = each_runner_outcome(program, limit)
            assert runs["result"][0] == runs["result"][1]
            assert runs["trace"][0] == runs["trace"][1]
        assert runs["result"][1][0] == "ValueError"
        assert each_runner_outcome(program, 1)["result"][1][0] == (
            "ExecutionLimitExceeded"
        )


class TestStrictRegisters:
    def test_uninitialised_read_raises_on_both_paths(self):
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
                runner(program, strict_registers=True)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "never_written" in messages[0]

    def test_strict_results_match_when_all_registers_written(self):
        program = _loop_program()
        legacy = run_legacy(program, strict_registers=True)
        fast = run_fast(program, strict_registers=True)
        assert_results_identical(legacy, fast)
        assert_results_identical(legacy, run_fast(program))


class TestFallThrough:
    def test_missing_branch_raises_identically(self):
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
                runner(program)
            messages.append(str(excinfo.value))
        with pytest.raises(RuntimeError) as excinfo:
            capture_trace(program)
        messages.append(str(excinfo.value))
        assert len(set(messages)) == 1
        assert "fell through without a branch" in messages[0]


def _program(name, blocks, entry, memory=None, registers=None):
    """A program straight from ``(label, ops)`` pairs, unverified: a
    block may even hold a branch before its last op."""
    function = Function("main", entry_label=entry)
    for label, ops in blocks:
        block = BasicBlock(label)
        block.operations = list(ops)
        function.add_block(block)
    program = Program(name)
    program.add_function(function)
    program.initial_memory.update(memory or {})
    program.initial_registers.update(registers or {})
    return program


def _op(opcode, dest=None, *srcs, **kw):
    return Operation(
        opcode, dest=Reg(dest) if dest is not None else None, srcs=srcs, **kw
    )


class TestEditedBlocks:
    """Blocks edited after the build can hold a branch before their last
    op.  The reference loop runs on past a ``br`` or ``brcond`` (the
    last one wins, its condition read where it stands) and stops at a
    ``halt``; generated code must do the same."""

    @pytest.mark.parametrize(
        "ops",
        [
            # br, then an op, then no branch: the br's target wins.
            [
                Operation(Opcode.BR, targets=("done",)),
                _op(Opcode.MOV, "x", Imm(1)),
            ],
            # brcond reads c before the next op clears it.
            [
                _op(Opcode.MOV, "c", Imm(1)),
                Operation(Opcode.BRCOND, srcs=(Reg("c"),), targets=("done", "entry")),
                _op(Opcode.MOV, "c", Imm(0)),
            ],
            # A later br overrides an earlier brcond.
            [
                Operation(Opcode.BRCOND, srcs=(Imm(0),), targets=("entry", "entry")),
                Operation(Opcode.BR, targets=("done",)),
            ],
            # halt stops the block: the second mov never runs.
            [
                _op(Opcode.MOV, "x", Imm(1)),
                Operation(Opcode.HALT),
                _op(Opcode.MOV, "x", Imm(2)),
            ],
        ],
        ids=["br-then-op", "brcond-reads-early", "br-overrides", "halt-stops"],
    )
    def test_branches_before_the_last_op_follow_the_reference_loop(self, ops):
        program = _program(
            "edited",
            [("entry", ops), ("done", [Operation(Opcode.HALT)])],
            entry="entry",
        )
        assert outcome(lambda: run_legacy(program))[0] == "ok"
        for limit in range(len(ops) + 3):
            runs = each_runner_outcome(program, limit)
            assert runs["result"][0] == runs["result"][1], limit
            assert runs["trace"][0] == runs["trace"][1], limit


# -- hand-built and random programs ---------------------------------------------

NAMES = ("a", "b", "c", "d", "e")
LABELS = ("b0", "b1", "b2", "b3")
SPECIAL = (
    0, 1, -1, 2, 3, 63, 64, -64, 2**62, 2**70, -(2**70),
    0.0, -0.0, 0.5, -2.5, 1e300, math.nan, math.inf, -math.inf,
)
ALU = tuple(op for op in Opcode if is_alu(op))


class TestProgramDataIsData:
    def test_hostile_names_and_labels_execute_as_data(self):
        """Register names and labels that read as Python code are bound
        as constants, never spliced into generated source."""
        reg = "a'); import os #"
        label = "loop\"); raise SystemExit #\n"
        program = _program(
            "hostile",
            [
                (
                    "entry",
                    [
                        _op(Opcode.MOV, reg, Imm(0)),
                        Operation(Opcode.BR, targets=(label,)),
                    ],
                ),
                (
                    label,
                    [
                        _op(Opcode.ADD, reg, Reg(reg), Imm(1)),
                        _op(Opcode.CMPLT, "}{", Reg(reg), Imm(5)),
                        Operation(
                            Opcode.BRCOND, srcs=(Reg("}{"),), targets=(label, "exit")
                        ),
                    ],
                ),
                ("exit", [Operation(Opcode.HALT)]),
            ],
            entry="entry",
        )
        legacy, fast = run_legacy(program), run_fast(program)
        assert_results_identical(legacy, fast)
        assert fast.registers == {reg: 5, "}{": 0}
        assert capture_trace(program).labels == ("entry", label, "exit")


def _single_op_outcomes(ops, memory=None, registers=None):
    program = _program(
        "single", [("entry", ops + [Operation(Opcode.HALT)])], "entry",
        memory, registers,
    )
    return (
        outcome(lambda: canonical(run_legacy(program))),
        outcome(lambda: canonical(run_fast(program))),
    )


@pytest.mark.parametrize("opcode", ALU, ids=lambda op: op.value)
def test_every_alu_opcode_on_special_values(opcode):
    """Each opcode on every pair of special values: division and modulo
    by zero, negative and oversized shifts, int/float mixes, NaN, inf
    and -0.0, as a register and as an immediate operand."""
    seconds = SPECIAL if arity(opcode) == 2 else (None,)
    for a in SPECIAL:
        for b in seconds:
            srcs = (Reg("x"),) if b is None else (Reg("x"), Imm(b))
            legacy, fast = _single_op_outcomes(
                [_op(opcode, "out", *srcs)], registers={"x": a}
            )
            assert legacy == fast, (a, b)


def test_memory_addresses_truncate_like_memory():
    """Addresses go through ``int`` as in ``Memory.load``/``store``: a
    fractional address truncates, a NaN or infinite one raises."""
    memory = {2: 20, -2: -20, 0: 1.5}
    for base in (2.5, 2.0, -2.5, -0.0, 0.5, math.nan, math.inf, 2**70):
        for ops in (
            [_op(Opcode.LOAD, "v", Reg("p"))],
            [_op(Opcode.STORE, None, Imm(7), Reg("p"), offset=1)],
        ):
            legacy, fast = _single_op_outcomes(ops, memory, {"p": base})
            assert legacy == fast, (base, ops)


def test_every_alu_opcode_has_an_expression():
    assert set(interpreter._EXPR) == {op for op in Opcode if is_alu(op)}


# Random programs: up to four blocks over five registers, with
# self-loops, counted loops, halts, fall-throughs and prediction forms.
values = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(-20, 20),
    st.floats(-50, 50, allow_nan=False),
)
immediates = values.map(Imm)
operands = st.one_of(st.sampled_from(NAMES).map(Reg), immediates)


@st.composite
def body_ops(draw, labels):
    kind = draw(st.integers(0, 99))
    dest = draw(st.sampled_from(NAMES))
    offset = draw(st.integers(-2, 4))
    if kind < 75:
        opcode = draw(st.sampled_from(ALU))
        if opcode in (Opcode.MUL, Opcode.FMUL):
            # An immediate factor keeps a looping product's size linear
            # in the budget instead of doubling its bits per iteration.
            return _op(opcode, dest, draw(operands), draw(immediates))
        return _op(opcode, dest, *[draw(operands) for _ in range(arity(opcode))])
    if kind < 87:
        return _op(Opcode.LOAD, dest, draw(operands), offset=offset)
    if kind < 95:
        return _op(Opcode.STORE, None, draw(operands), draw(operands), offset=offset)
    if kind < 98:
        if draw(st.booleans()):
            return _op(Opcode.LDPRED, dest)
        return _op(Opcode.CHKPRED, dest, draw(operands))
    # A branch before the block's end, which only an edit after the
    # build can put there: the reference loop runs on past it.
    target, other = draw(st.sampled_from(labels)), draw(st.sampled_from(labels))
    branch = draw(st.integers(0, 2))
    if branch == 0:
        return Operation(Opcode.BR, targets=(target,))
    if branch == 1:
        return Operation(Opcode.BRCOND, srcs=(draw(operands),), targets=(target, other))
    return Operation(Opcode.HALT)


@st.composite
def terminators(draw, label, labels):
    kind = draw(st.integers(0, 99))
    if kind < 60:
        targets = [draw(st.sampled_from(labels)), draw(st.sampled_from(labels))]
        if kind < 45:
            targets[draw(st.integers(0, 1))] = label  # a self-loop
        if kind < 25:
            # A counted loop: "n" and "m" are not in NAMES, so the body
            # cannot clobber the count.
            count = draw(st.integers(1, 6))
            return [
                _op(Opcode.ADD, "n", Reg("n"), Imm(1)),
                _op(Opcode.CMPLT, "m", Reg("n"), Imm(count)),
                Operation(Opcode.BRCOND, srcs=(Reg("m"),), targets=tuple(targets)),
            ]
        cond = draw(st.one_of(st.sampled_from(NAMES).map(Reg), immediates))
        return [Operation(Opcode.BRCOND, srcs=(cond,), targets=tuple(targets))]
    if kind < 80:
        return [Operation(Opcode.BR, targets=(draw(st.sampled_from(labels)),))]
    if kind < 95:
        return [Operation(Opcode.HALT)]
    return []  # falls through


@st.composite
def programs(draw):
    labels = LABELS[: draw(st.integers(1, len(LABELS)))]
    blocks = [
        (
            label,
            draw(st.lists(body_ops(labels), max_size=6))
            + draw(terminators(label, labels)),
        )
        for label in labels
    ]
    memory = draw(st.dictionaries(st.integers(-2, 8), values, max_size=6))
    registers = draw(st.dictionaries(st.sampled_from(NAMES), values, max_size=3))
    return _program("random", blocks, "b0", memory, registers)


BUDGET = 80


@settings(max_examples=100, deadline=None)
@given(programs())
def test_generated_code_matches_reference_at_every_budget(program):
    """Every observable of a run and of a capture, at every budget up to
    one past the run's length (or :data:`BUDGET`)."""
    full = outcome(lambda: run_legacy(program, max_operations=BUDGET))
    length = full[1].dynamic_operations if full[0] == "ok" else BUDGET
    for limit in range(length + 2):
        runs = each_runner_outcome(program, limit)
        assert runs["result"][0] == runs["result"][1], limit
        assert runs["trace"][0] == runs["trace"][1], limit
