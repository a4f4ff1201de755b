"""Trace-column simulation: the one dynamic-execution path.

``repro.batchsim`` computes every profile and simulation from a value
trace: the trace is decoded once into struct-of-arrays form
(:mod:`.arrays`), per-static-op predictor outcome columns are computed
once and shared by every sweep point that predicts that op
(:mod:`.outcomes`), and each point's dynamic accounting collapses to a
vectorised pattern-bitmask histogram folded through the exact
per-pattern block timings (:mod:`.engine`).  Finite prediction tables
and confidence gating are column operations on those outcome columns;
icache modelling is one in-order pass over the block sequence
(:func:`repro.core.program_sim.simulate_program`).

:mod:`.surrogate` layers a fast analytical cycles estimate on top, used
by ``repro-explore --surrogate`` to rank and prune candidate points
before exact simulation.

This package imports lazily, so that importing the CLIs does not load
NumPy.
"""

from __future__ import annotations

__all__ = [
    "BatchContext",
    "default_context",
    "reset_shared_state",
]


def __getattr__(name):
    if name in __all__:
        from repro.batchsim import context

        return getattr(context, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
