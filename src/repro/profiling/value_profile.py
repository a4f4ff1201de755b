"""Value profiles of operations that produce predictable results.

Each executed tracked operation feeds both a stride predictor and an FCM
predictor keyed by the static operation id; the profile records how often
each predictor would have been correct (computed column-wise from a
value trace by :mod:`repro.batchsim.profiler`).  "The final value prediction rate
for each operation ... was chosen to be the higher value out of these two
prediction rates" — :meth:`ValueProfile.rate` implements exactly that.

Loads are always tracked (the paper predicts loads).  The paper's
formulation is general — "an operation within a VLIW instruction may have
its destination operand predicted" — so the profiler optionally tracks
long-latency ALU results too (``profile_alu``), which the speculation
pass can then predict when ``SpeculationConfig.predict_alu`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

from repro.ir.opcodes import Opcode

#: Long-latency value-producing opcodes worth profiling beyond loads.
LONG_LATENCY_OPCODES: FrozenSet[Opcode] = frozenset(
    {Opcode.MUL, Opcode.DIV, Opcode.MOD, Opcode.FMUL, Opcode.FDIV, Opcode.FSQRT}
)


@dataclass
class LoadValueStats:
    """Per-static-load profiling counters."""

    executions: int = 0
    stride_correct: int = 0
    fcm_correct: int = 0

    @property
    def stride_rate(self) -> float:
        return self.stride_correct / self.executions if self.executions else 0.0

    @property
    def fcm_rate(self) -> float:
        return self.fcm_correct / self.executions if self.executions else 0.0

    @property
    def best_rate(self) -> float:
        return max(self.stride_rate, self.fcm_rate)

    @property
    def best_predictor(self) -> str:
        return "stride" if self.stride_correct >= self.fcm_correct else "fcm"


@dataclass(frozen=True)
class ValueProfile:
    """Immutable per-load predictability profile."""

    loads: Dict[int, LoadValueStats]

    def rate(self, op_id: int) -> float:
        """Best-of(stride, FCM) prediction rate, the paper's selection metric."""
        stats = self.loads.get(op_id)
        return stats.best_rate if stats is not None else 0.0

    def executions(self, op_id: int) -> int:
        stats = self.loads.get(op_id)
        return stats.executions if stats is not None else 0

    def predictable_loads(self, threshold: float) -> list[int]:
        """Static load ids whose best rate meets the threshold."""
        return sorted(
            op_id for op_id, stats in self.loads.items() if stats.best_rate >= threshold
        )

    def __len__(self) -> int:
        return len(self.loads)
