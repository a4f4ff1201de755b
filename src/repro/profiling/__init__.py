"""Architectural execution and profiling (block frequency, value profiles)."""

from repro.profiling.block_profile import BlockProfile
from repro.profiling.interpreter import (
    ExecutionLimitExceeded,
    ExecutionObserver,
    ExecutionResult,
    Interpreter,
    run_program,
)
from repro.profiling.memory import Memory
from repro.profiling.profile_run import ProfileData, profile_program
from repro.profiling.value_profile import LoadValueStats, ValueProfile

__all__ = [
    "BlockProfile",
    "ExecutionLimitExceeded",
    "ExecutionObserver",
    "ExecutionResult",
    "Interpreter",
    "LoadValueStats",
    "Memory",
    "ProfileData",
    "ValueProfile",
    "profile_program",
    "run_program",
]
