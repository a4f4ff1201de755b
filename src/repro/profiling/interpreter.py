"""Architectural (functional) execution of IR programs.

The interpreter executes a program the way the paper's HP PA-RISC host
executed the benchmarks during profiling: sequentially, with exact
values.  Observers hook block entries and executed operations, which is
how workload characterisation attaches to execution without duplicating
the semantics.  Trace capture (:mod:`repro.trace.capture`) is fused
into the run instead, through a :class:`ValueSink`; profiling and
simulation then read the captured trace.

Two execution paths produce byte-identical results:

* **Generated code** runs every observer-less run — plain
  :meth:`Interpreter.run` and fused capture.  Each static block is
  compiled on first entry into one Python function whose source is
  built from the block's ops (:func:`_compile_block`): arithmetic is
  inlined with the operators of :mod:`repro.ir.opcodes`, loads and
  stores index the memory's word dict, and registers live in locals.
  A block whose final ``brcond`` targets itself loops inside its
  function.  Register names, labels, immediates and offsets are bound
  as constants of the function, never spliced into its source.
* The **reference loop**, :meth:`Interpreter._run_legacy`, dispatches
  per dynamic op and notifies observers.  It runs every run with
  observers or ``strict_registers``, and it is the executable
  specification generated code is checked against
  (``tests/profiling/test_fast_path.py``): the same results, register
  and memory order, traces, and errors at the same operation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Protocol, Union

from repro.ir.block import BasicBlock
from repro.ir.opcodes import Opcode, evaluator, is_alu
from repro.ir.operation import Imm, Operation, Reg
from repro.ir.program import Program
from repro.profiling.memory import Memory, Number


class ExecutionObserver(Protocol):
    """Hook interface for profilers and simulators."""

    def block_entered(self, block: BasicBlock) -> None:
        """Called when control enters a basic block."""

    def operation_executed(
        self, op: Operation, inputs: tuple[Number, ...], result: Optional[Number]
    ) -> None:
        """Called after each dynamic operation with its actual values."""


class ExecutionLimitExceeded(RuntimeError):
    """The program ran past the configured dynamic-operation budget."""


@dataclass
class ExecutionResult:
    """Outcome of one architectural run."""

    program_name: str
    dynamic_operations: int
    dynamic_blocks: int
    registers: Dict[str, Number]
    memory: Memory
    halted: bool

    @property
    def loads_executed(self) -> int:
        return self.memory.reads

    @property
    def stores_executed(self) -> int:
        return self.memory.writes


def _dispatch_miss_message(opcode: Opcode) -> str:
    """The error for opcodes without an interpretation — one string, so
    generated code and the reference loop can never drift apart."""
    return (
        f"interpreter cannot execute {opcode.value}; the "
        "prediction forms exist only in scheduled code"
    )


class ValueSink:
    """What a fused trace capture records from one run.

    ``labels`` are block labels in first-execution order, ``block_seq``
    the dynamic run as indices into them, and ``values`` the results of
    every executed operation whose opcode is in ``traced_opcodes``, in
    execution order (the :class:`~repro.trace.format.ValueTrace`
    streams).
    """

    __slots__ = ("traced_opcodes", "labels", "block_seq", "values")

    def __init__(self, traced_opcodes: FrozenSet[Opcode]):
        self.traced_opcodes = traced_opcodes
        self.labels: List[str] = []
        self.block_seq: List[int] = []
        self.values: List[Number] = []


# -- generated code -----------------------------------------------------------

#: Each ALU opcode as a Python expression over its operands: the
#: operators and helpers of :mod:`repro.ir.opcodes`, inlined.
_EXPR: Dict[Opcode, str] = {
    Opcode.ADD: "{} + {}",
    Opcode.SUB: "{} - {}",
    Opcode.MUL: "{} * {}",
    Opcode.DIV: "_int_div({}, {})",
    Opcode.MOD: "_int_mod({}, {})",
    Opcode.AND: "int({}) & int({})",
    Opcode.OR: "int({}) | int({})",
    Opcode.XOR: "int({}) ^ int({})",
    Opcode.SHL: "int({}) << (int({}) & 63)",
    Opcode.SHR: "int({}) >> (int({}) & 63)",
    Opcode.NEG: "-{}",
    Opcode.NOT: "~int({})",
    Opcode.MIN: "min({}, {})",
    Opcode.MAX: "max({}, {})",
    Opcode.ABS: "abs({})",
    Opcode.MOV: "{}",
    Opcode.CMPEQ: "int({} == {})",
    Opcode.CMPNE: "int({} != {})",
    Opcode.CMPLT: "int({} < {})",
    Opcode.CMPLE: "int({} <= {})",
    Opcode.CMPGT: "int({} > {})",
    Opcode.CMPGE: "int({} >= {})",
    Opcode.FADD: "{} + {}",
    Opcode.FSUB: "{} - {}",
    Opcode.FMUL: "{} * {}",
    Opcode.FDIV: "_float_div({}, {})",
    Opcode.FNEG: "-{}",
    Opcode.FABS: "abs({})",
    Opcode.FSQRT: "abs({}) ** 0.5",
}

#: The globals of every generated function: the helpers that stay calls.
_HELPERS = {
    "_int_div": evaluator(Opcode.DIV),
    "_int_mod": evaluator(Opcode.MOD),
    "_float_div": evaluator(Opcode.FDIV),
}

#: The next label a generated function returns after a ``halt``.
_HALTED = object()


@functools.lru_cache(maxsize=256)
def _code(source: str):
    """Generated source depends only on a block's shape, so structurally
    equal blocks share one code object across runs."""
    return compile(source, "<generated block>", "exec")


def _compile_block(
    ops: List[Operation],
    registers: Dict[str, Number],
    words: Dict[int, Number],
    sink: Optional[ValueSink] = None,
    label: Optional[str] = None,
):
    """Generate the function that runs ``ops`` as one block instance.

    Returns ``(run, n_ops, n_loads, n_stores, block_id)``.  ``run(room)``
    executes on ``registers`` and the memory ``words`` and returns
    ``(next_label, instances)``; ``next_label`` is :data:`_HALTED` after
    a halt and ``None`` when no branch ran.  A block whose final
    ``brcond`` targets ``label`` loops inside ``run``, for as many more
    instances as ``room`` operations allow.  ``n_ops`` counts the ops up
    to the first halt — what one instance charges to the budget.

    Register names, labels, immediates and offsets are never spliced
    into the source: each is bound as a constant ``k<i>`` of the
    generated function, beside ``R`` (the registers), ``W`` (the words)
    and, with a ``sink``, ``V`` (append a traced value) and ``S``
    (extend the block ids).  Registers live in locals ``r<i>``: those
    read before written are loaded on entry, and those written are
    stored back on exit in static first-write order, which is the order
    the reference loop inserts new keys in.
    """
    consts: List[object] = []
    local: Dict[str, str] = {}
    loaded: List[str] = []
    written: Dict[str, None] = {}  # an ordered set

    def const(value) -> str:
        consts.append(value)
        return f"k{len(consts) - 1}"

    def read(src: Union[Reg, Imm]) -> str:
        if isinstance(src, Imm):
            return const(src.value)
        if src.name not in local:
            local[src.name] = f"r{len(local)}"
            loaded.append(src.name)
        return local[src.name]

    term = ops[-1] if ops else None
    loops = (
        label is not None
        and term is not None
        and term.opcode is Opcode.BRCOND
        and label in term.targets
        and not any(op.is_branch for op in ops[:-1])
    )
    traced = sink.traced_opcodes if sink is not None else frozenset()
    body: List[str] = []
    exit_expr = None
    n_ops = n_loads = n_stores = 0
    for op in ops:
        n_ops += 1
        opcode = op.opcode
        if opcode in _EXPR:
            expr = _EXPR[opcode].format(*[read(s) for s in op.srcs])
        elif opcode is Opcode.LOAD:
            expr = f"W.get(int({read(op.srcs[0])} + {const(op.offset)}), 0)"
            n_loads += 1
        elif opcode is Opcode.STORE:
            value, base = read(op.srcs[0]), read(op.srcs[1])
            body.append(f"W[int({base} + {const(op.offset)})] = {value}")
            n_stores += 1
            continue
        elif opcode is Opcode.BR:
            exit_expr = const((op.targets[0], 1))
            continue
        elif opcode is Opcode.BRCOND:
            cond = read(op.srcs[0])
            if not loops:
                then, orelse = (const((target, 1)) for target in op.targets)
                exit_expr = f"{then} if {cond} != 0 else {orelse}"
                if op is not term:
                    body.append(f"nx = {exit_expr}")
                    exit_expr = "nx"
            continue
        elif opcode is Opcode.HALT:
            exit_expr = const((_HALTED, 1))
            break
        else:
            message = const(_dispatch_miss_message(opcode))
            body.append(f"raise ValueError({message})")
            loops = False
            break
        name = op.dest.name
        dest = local.setdefault(name, f"r{len(local)}")
        written[name] = None
        body.append(f"{dest} = {expr}")
        if opcode in traced:
            body.append(f"V({dest})")
    prologue = [f"{local[name]} = R.get({const(name)}, 0)" for name in loaded]
    epilogue = [f"R[{const(name)}] = {local[name]}" for name in written]

    block_id = -1
    if sink is not None:
        block_id = len(sink.labels)
        sink.labels.append(label)
    if loops:
        # The block branches to itself: iterate here, with registers in
        # locals, while the budget has room for another instance.  The
        # ids of the instances after the first go to the sink on exit.
        lines = prologue + [f"cap = room // {n_ops}", "n = 1", "while True:"]
        lines += [f"    {line}" for line in body]
        then, orelse = term.targets
        exits = [("n > cap", label)]
        if then != label:
            exits.insert(0, (f"{cond} != 0", then))
        elif orelse != label:
            exits.insert(0, (f"not ({cond} != 0)", orelse))
        for test, target in exits:
            lines += [f"    if {test}:", f"        nx = {const(target)}"]
            lines.append("        break")
        lines.append("    n += 1")
        if sink is not None:
            epilogue.append(f"S({const((block_id,))} * (n - 1))")
        lines += epilogue + ["return nx, n"]
    else:
        if exit_expr is None:
            exit_expr = const((None, 1))
        lines = prologue + body + epilogue + [f"return {exit_expr}"]

    params = "".join(f", k{i}" for i in range(len(consts)))
    source = f"def make(R, W, V, S{params}):\n    def run(room):\n"
    source += "".join(f"        {line}\n" for line in lines)
    source += "    return run\n"
    namespace = dict(_HELPERS)
    exec(_code(source), namespace)
    record = (None, None)
    if sink is not None:
        record = (sink.values.append, sink.block_seq.extend)
    run = namespace["make"](registers, words, *record, *consts)
    return run, n_ops, n_loads, n_stores, block_id


class Interpreter:
    """Executes a program's main function to completion."""

    def __init__(
        self,
        max_operations: int = 5_000_000,
        strict_registers: bool = False,
    ):
        self.max_operations = max_operations
        self.strict_registers = strict_registers

    def run(
        self,
        program: Program,
        observers: Optional[List[ExecutionObserver]] = None,
    ) -> ExecutionResult:
        if observers or self.strict_registers:
            return self._run_legacy(program, observers or [])
        return self._run_generated(program)

    def _run_generated(
        self, program: Program, sink: Optional[ValueSink] = None
    ) -> ExecutionResult:
        """Run on one generated function per static block.

        ``sink`` fuses trace capture into the run: each block instance
        appends its id and its traced results.
        """
        function = program.main
        memory = Memory(program.initial_memory)
        registers: Dict[str, Number] = dict(program.initial_registers)
        max_operations = self.max_operations
        compiled: Dict[str, tuple] = {}
        record_block = sink.block_seq.append if sink is not None else None

        executed = blocks = reads = writes = 0
        label: Optional[str] = function.entry_label
        halted = False

        while label is not None:
            entry = compiled.get(label)
            if entry is None:
                block = function.block(label)
                entry = compiled[label] = _compile_block(
                    block.operations, registers, memory._words, sink, block.label
                )
            run, n_ops, n_loads, n_stores, block_id = entry
            if executed + n_ops > max_operations:
                # The budget runs out inside this instance: run the ops
                # before that point, any of which may raise first, then
                # raise where the reference loop does.
                ops = function.block(label).operations
                prefix = ops[: max(0, max_operations - executed)]
                _compile_block(prefix, registers, memory._words)[0](0)
                raise ExecutionLimitExceeded(
                    f"{program.name}: exceeded {max_operations} operations"
                )
            if record_block is not None:
                record_block(block_id)
            next_label, count = run(max_operations - executed - n_ops)
            executed += n_ops * count
            blocks += count
            reads += n_loads * count
            writes += n_stores * count
            if next_label is _HALTED:
                halted = True
                break
            if next_label is None:
                raise RuntimeError(
                    f"block {label!r} fell through without a branch"
                )
            label = next_label

        memory.reads = reads
        memory.writes = writes
        return ExecutionResult(
            program_name=program.name,
            dynamic_operations=executed,
            dynamic_blocks=blocks,
            registers=registers,
            memory=memory,
            halted=halted,
        )

    # -- legacy per-op dispatch loop ------------------------------------------

    def _run_legacy(
        self, program: Program, observers: List[ExecutionObserver]
    ) -> ExecutionResult:
        function = program.main
        memory = Memory(program.initial_memory)
        registers: Dict[str, Number] = dict(program.initial_registers)

        # Hoisted out of the dynamic loop: one reader closure per run
        # (binding strictness and the register file once) and one
        # truthiness check for the observer list instead of a per-op
        # iteration over an empty tuple.
        strict = self.strict_registers
        max_operations = self.max_operations
        notify = bool(observers)

        def read(operand: Union[Reg, Imm]) -> Number:
            if isinstance(operand, Imm):
                return operand.value
            if strict and operand.name not in registers:
                raise KeyError(f"read of uninitialised register {operand.name}")
            return registers.get(operand.name, 0)

        executed = 0
        blocks = 0
        label: Optional[str] = function.entry_label
        halted = False

        while label is not None:
            block = function.block(label)
            blocks += 1
            if notify:
                for observer in observers:
                    observer.block_entered(block)

            next_label: Optional[str] = None
            for op in block.operations:
                executed += 1
                if executed > max_operations:
                    raise ExecutionLimitExceeded(
                        f"{program.name}: exceeded {max_operations} operations"
                    )
                opcode = op.opcode
                inputs = tuple(read(src) for src in op.srcs)
                result: Optional[Number] = None

                if is_alu(opcode):
                    result = evaluator(opcode)(*inputs)
                    registers[op.dest.name] = result
                elif opcode is Opcode.LOAD:
                    result = memory.load(inputs[0] + op.offset)
                    registers[op.dest.name] = result
                elif opcode is Opcode.STORE:
                    memory.store(inputs[1] + op.offset, inputs[0])
                elif opcode is Opcode.BR:
                    next_label = op.targets[0]
                elif opcode is Opcode.BRCOND:
                    next_label = op.targets[0] if inputs[0] != 0 else op.targets[1]
                elif opcode is Opcode.HALT:
                    halted = True
                else:
                    raise ValueError(_dispatch_miss_message(opcode))

                if notify:
                    for observer in observers:
                        observer.operation_executed(op, inputs, result)

                if halted:
                    break

            if halted:
                break
            if next_label is None:
                raise RuntimeError(
                    f"block {block.label!r} fell through without a branch"
                )
            label = next_label

        return ExecutionResult(
            program_name=program.name,
            dynamic_operations=executed,
            dynamic_blocks=blocks,
            registers=registers,
            memory=memory,
            halted=halted,
        )


def run_program(
    program: Program,
    observers: Optional[List[ExecutionObserver]] = None,
    max_operations: int = 5_000_000,
) -> ExecutionResult:
    """Convenience wrapper around :class:`Interpreter`."""
    return Interpreter(max_operations=max_operations).run(program, observers=observers)
