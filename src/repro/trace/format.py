"""The value-trace format: one architectural run, compactly.

A :class:`ValueTrace` records everything the downstream consumers of an
architectural run actually use — the dynamic block sequence and the
result values of *traced* operations (loads and long-latency ALU ops,
the only opcodes value profiling and simulation read) — plus the run's
final architectural state, so a consumer can reconstruct a
byte-identical :class:`~repro.profiling.interpreter.ExecutionResult`
without re-interpreting the program.

Format invariants (see ``docs/INTERNALS.md`` for the full spec):

* **Block ids** — ``labels`` assigns each block label a small integer in
  first-execution order; ``block_seq`` is the dynamic run as a sequence
  of those ids.
* **Value ordering** — ``values`` is a single flat stream.  Each dynamic
  block instance consumes one value per *traced* static operation of
  that block, in static (program) order; instances are concatenated in
  ``block_seq`` order.  Predicted loads are a subset of traced ops, so
  one trace serves every simulation without knowing the speculation
  decisions at capture time.
* **Identity** — ``program_digest`` hashes the program *structure*
  (labels, opcode/operand/target sequences, initial state) but not
  operation ids, which are assigned by a process-global counter and
  differ between builds of the same program.  A trace therefore serves
  any structurally identical program.
* **Versioning** — ``schema_version`` gates compatibility; loaders
  reject other versions rather than misinterpreting the stream.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Tuple, Union

from repro.ir.opcodes import Opcode
from repro.ir.operation import Imm, Reg
from repro.ir.program import Program
from repro.profiling.interpreter import ExecutionResult
from repro.profiling.memory import Memory, Number
from repro.profiling.value_profile import LONG_LATENCY_OPCODES

#: Bump when the trace layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: Opcodes whose results are recorded in the value stream.  This is the
#: union of everything the value profiler can track and everything the
#: speculation pass can predict (loads always; long-latency ALU under
#: ``predict_alu``) — so one trace serves every downstream consumer.
TRACED_OPCODES: FrozenSet[Opcode] = frozenset({Opcode.LOAD}) | LONG_LATENCY_OPCODES


class TraceError(RuntimeError):
    """A trace could not be captured, serialized, or loaded."""


class TraceMismatch(TraceError):
    """A trace does not correspond to the program offered for replay."""


def _operand_key(operand: Union[Reg, Imm]):
    if isinstance(operand, Imm):
        return ["imm", operand.value]
    return ["reg", operand.name]


#: id(program) -> (program, digest).  Identity memo: the entry pins the
#: program, so the id cannot be recycled while it lives.  Programs are
#: immutable once built (the pass managers always rebuild), so the
#: digest of a given object never changes.  Cleared alongside the other
#: process-wide memos by ``repro.batchsim.reset_shared_state``.
_DIGESTS: Dict[int, Tuple[Program, str]] = {}


def reset_digest_memo() -> None:
    _DIGESTS.clear()


def program_digest(program: Program) -> str:
    """Structural content hash of a program (memoised per object).

    Covers everything that determines the architectural run — function
    and block structure, opcodes, operands, offsets, branch targets, and
    the initial register/memory image — but deliberately *not* operation
    ids, so two builds of the same workload (whose ids depend on global
    counter state) share one trace.
    """
    entry = _DIGESTS.get(id(program))
    if entry is not None and entry[0] is program:
        return entry[1]
    doc = {
        "name": program.name,
        "main": program.main_name,
        "functions": [
            {
                "name": function.name,
                "entry": function.entry_label,
                "blocks": [
                    {
                        "label": block.label,
                        "ops": [
                            [
                                op.opcode.value,
                                op.dest.name if op.dest is not None else None,
                                [_operand_key(s) for s in op.srcs],
                                op.offset,
                                list(op.targets),
                            ]
                            for op in block.operations
                        ],
                    }
                    for block in function.blocks
                ],
            }
            for function in program
        ],
        "registers": sorted(program.initial_registers.items()),
        "memory": sorted(program.initial_memory.items()),
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    _DIGESTS[id(program)] = (program, digest)
    return digest


def block_signature(block) -> Tuple[str, ...]:
    """The opcode sequence of a block — the per-block validation key."""
    return tuple(op.opcode.value for op in block.operations)


@dataclass
class ValueTrace:
    """One captured architectural run."""

    program_name: str
    program_digest: str
    #: Block labels in first-execution order; index = block id.
    labels: Tuple[str, ...]
    #: Per-label opcode sequences, parallel to ``labels`` (validation).
    block_signatures: Tuple[Tuple[str, ...], ...]
    #: The dynamic run as label indices into ``labels``.
    block_seq: List[int]
    #: Flat traced-op value stream (see module docstring for ordering).
    values: List[Number]
    dynamic_operations: int = 0
    dynamic_blocks: int = 0
    loads_executed: int = 0
    stores_executed: int = 0
    halted: bool = True
    final_registers: Dict[str, Number] = field(default_factory=dict)
    final_memory: Dict[int, Number] = field(default_factory=dict)
    schema_version: int = TRACE_SCHEMA_VERSION

    def to_execution_result(self) -> ExecutionResult:
        """Reconstruct the captured run's :class:`ExecutionResult`.

        The memory's access counters are restored from the capture so a
        replayed run reports the captured ``loads_executed`` /
        ``stores_executed`` instead of zero.
        """
        memory = Memory.with_counts(
            self.final_memory, reads=self.loads_executed, writes=self.stores_executed
        )
        return ExecutionResult(
            program_name=self.program_name,
            dynamic_operations=self.dynamic_operations,
            dynamic_blocks=self.dynamic_blocks,
            registers=dict(self.final_registers),
            memory=memory,
            halted=self.halted,
        )

    @property
    def n_values(self) -> int:
        return len(self.values)

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "program_name": self.program_name,
            "program_digest": self.program_digest,
            "labels": list(self.labels),
            "block_signatures": [list(sig) for sig in self.block_signatures],
            "block_seq": list(self.block_seq),
            "values": list(self.values),
            "dynamic_operations": self.dynamic_operations,
            "dynamic_blocks": self.dynamic_blocks,
            "loads_executed": self.loads_executed,
            "stores_executed": self.stores_executed,
            "halted": self.halted,
            "final_registers": dict(self.final_registers),
            # JSON object keys are strings; load() converts them back.
            "final_memory": {str(k): v for k, v in self.final_memory.items()},
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ValueTrace":
        try:
            version = obj["schema_version"]
            if version != TRACE_SCHEMA_VERSION:
                raise TraceError(
                    f"unsupported trace schema version {version} "
                    f"(this build reads version {TRACE_SCHEMA_VERSION})"
                )
            return cls(
                program_name=obj["program_name"],
                program_digest=obj["program_digest"],
                labels=tuple(obj["labels"]),
                block_signatures=tuple(
                    tuple(sig) for sig in obj["block_signatures"]
                ),
                block_seq=list(obj["block_seq"]),
                values=list(obj["values"]),
                dynamic_operations=obj["dynamic_operations"],
                dynamic_blocks=obj["dynamic_blocks"],
                loads_executed=obj["loads_executed"],
                stores_executed=obj["stores_executed"],
                halted=obj["halted"],
                final_registers=dict(obj["final_registers"]),
                final_memory={
                    int(k): v for k, v in obj["final_memory"].items()
                },
                schema_version=version,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed trace object: {exc}") from exc

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        payload = json.dumps(self.to_json_obj(), separators=(",", ":"))
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(payload)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ValueTrace":
        try:
            with gzip.open(Path(path), "rt", encoding="utf-8") as handle:
                obj = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise TraceError(f"cannot read trace {path}: {exc}") from exc
        if not isinstance(obj, dict):
            raise TraceError(f"cannot read trace {path}: not a JSON object")
        return cls.from_json_obj(obj)
