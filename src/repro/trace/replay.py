"""Resolving a captured value trace against a program.

:func:`_replay_plan` maps a trace's block ids to the program's blocks and
their traced operations, rejecting a trace that belongs to a different
program.  :class:`repro.batchsim.arrays.TraceArrays` validates every
trace it decodes through it.
"""

from __future__ import annotations

from repro.ir.program import Program
from repro.trace.format import (
    TRACED_OPCODES,
    TraceMismatch,
    ValueTrace,
    block_signature,
    program_digest,
)


def _replay_plan(trace: ValueTrace, program: Program):
    """Resolve trace block ids to this program's blocks and traced ops.

    Raises :class:`TraceMismatch` when the trace does not belong to a
    structurally identical program — wrong digest, unknown label, or a
    block whose opcode sequence changed since capture.
    """
    digest = program_digest(program)
    if digest != trace.program_digest:
        raise TraceMismatch(
            f"trace was captured from a different program: digest "
            f"{trace.program_digest[:12]} != {digest[:12]} "
            f"({trace.program_name!r} vs {program.name!r})"
        )
    function = program.main
    plan = []
    for label, signature in zip(trace.labels, trace.block_signatures):
        try:
            block = function.block(label)
        except KeyError as exc:
            raise TraceMismatch(
                f"trace references block {label!r} missing from "
                f"program {program.name!r}"
            ) from exc
        if block_signature(block) != signature:
            raise TraceMismatch(
                f"block {label!r} of {program.name!r} changed since the "
                "trace was captured"
            )
        traced_ops = tuple(
            op for op in block.operations if op.opcode in TRACED_OPCODES
        )
        plan.append((block, traced_ops))
    return plan
