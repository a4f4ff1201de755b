"""Capturing a value trace from one architectural run."""

from __future__ import annotations

from repro.ir.program import Program
from repro.profiling.interpreter import Interpreter, ValueSink
from repro.trace.format import (
    TRACED_OPCODES,
    ValueTrace,
    block_signature,
    program_digest,
)


def capture_trace(
    program: Program, max_operations: int = 5_000_000
) -> ValueTrace:
    """Interpret ``program`` once and package the run as a trace.

    Capture is fused into the interpreter's generated code: a
    :class:`~repro.profiling.interpreter.ValueSink` receives the block
    ids and traced results directly.  Raises
    :class:`~repro.profiling.interpreter.ExecutionLimitExceeded` past
    ``max_operations``.
    """
    sink = ValueSink(TRACED_OPCODES)
    result = Interpreter(max_operations=max_operations)._run_generated(
        program, sink
    )
    function = program.main
    signatures = tuple(
        block_signature(function.block(label)) for label in sink.labels
    )
    return ValueTrace(
        program_name=program.name,
        program_digest=program_digest(program),
        labels=tuple(sink.labels),
        block_signatures=signatures,
        block_seq=sink.block_seq,
        values=sink.values,
        dynamic_operations=result.dynamic_operations,
        dynamic_blocks=result.dynamic_blocks,
        loads_executed=result.loads_executed,
        stores_executed=result.stores_executed,
        halted=result.halted,
        # The run's registers and words belong to this call alone, so
        # the trace takes them over instead of copying them.
        final_registers=result.registers,
        final_memory=result.memory._words,
    )
