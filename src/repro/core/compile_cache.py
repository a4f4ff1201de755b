"""Process-wide, identity-keyed sharing of compiler/simulation products.

Sweeps simulate the *same* program blocks under many machine/threshold
variants; most per-block products (dependence graphs, original
schedules, speculation transforms, per-pattern dual-engine timings,
baseline/squash recovery runs) depend on far fewer inputs than a whole
sweep point, so recomputing them per point is the dominant sweep cost.
This module gives every :class:`~repro.ir.block.BasicBlock` a weakly
keyed memo dictionary; domain modules (:mod:`repro.core.speculation`,
:mod:`repro.core.metrics`, :mod:`repro.core.program_sim`,
:mod:`repro.compiler.passes`) store their products under explicit keys
via :func:`cached`.

Rules of the game:

* every memo lives in the per-block dictionary, so memory is bounded by
  block lifetime — dropping the last program reference drops its memos;
* values may be keyed by ``id(obj)`` of a product **only** when the memo
  value holds a strong reference to ``obj`` (then the id cannot be
  reused while the entry exists);
* everything here is a *pure* memo — results are byte-identical to
  computing every product afresh.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Hashable, Tuple
from weakref import WeakKeyDictionary

__all__ = [
    "baseline_block",
    "cached",
    "latency_fingerprint",
    "machine_fingerprint",
    "original_schedule",
    "pattern_cycles",
    "pattern_metrics",
    "pattern_run",
    "reset",
    "schedule_validated",
    "shared_analysis",
    "shared_ddg",
    "speculative_schedule",
    "stats",
]

#: block -> {key: product}.  Weak on the block: memos die with the IR.
_BLOCK_MEMOS: "WeakKeyDictionary[Any, Dict[Hashable, Any]]" = WeakKeyDictionary()

#: id(machine) -> (machine, fingerprint).  Keyed by identity — machine
#: descriptions hold unhashable mappings, so they cannot key a regular
#: (or weak-key) dict.  The entry pins the machine, so its id cannot be
#: reused while the entry lives; machines are tiny and few per process,
#: and :func:`reset` clears the pin.
_MACHINE_FPS: Dict[int, Tuple[Any, str]] = {}

#: id(machine) -> (machine, latency key).  Same pinning discipline as
#: :data:`_MACHINE_FPS`.
_LATENCY_FPS: Dict[int, Tuple[Any, Hashable]] = {}

_STATS: Counter = Counter()


def machine_fingerprint(machine) -> str:
    """Memoised ``machine.fingerprint()`` (hashes canonical spec JSON;
    memoised because every cache key embeds it)."""
    entry = _MACHINE_FPS.get(id(machine))
    if entry is None or entry[0] is not machine:
        entry = (machine, machine.fingerprint())
        _MACHINE_FPS[id(machine)] = entry
    return entry[1]


def latency_fingerprint(machine) -> Hashable:
    """Hashable key of everything :meth:`MachineDescription.latency`
    reads: the per-opcode latency table plus ``check_compare_cost``
    (which enters CHKPRED's derived latency).

    Dependence graphs and critical-path analyses depend on the machine
    *only* through ``latency()`` — edge weights and heights never read
    issue width or functional-unit counts — so memos keyed on this share
    those products across resource variants (the explore grid's
    ``issue_width=2,4`` points build each block's DDG once, not once per
    width).
    """
    entry = _LATENCY_FPS.get(id(machine))
    if entry is None or entry[0] is not machine:
        key = (
            tuple(sorted((op.value, lat) for op, lat in machine.latencies.items())),
            machine.check_compare_cost,
        )
        entry = (machine, key)
        _LATENCY_FPS[id(machine)] = entry
    return entry[1]


def cached(block, key: Tuple, compute: Callable[[], Any]) -> Any:
    """Return the memoised product for ``(block, key)``.

    ``key`` must be a hashable tuple whose first element names the
    product kind (used for hit/miss stats).
    """
    try:
        memo = _BLOCK_MEMOS.get(block)
    except TypeError:  # block not weakref-able (exotic test double)
        return compute()
    if memo is None:
        memo = {}
        _BLOCK_MEMOS[block] = memo
    if key in memo:
        _STATS[f"{key[0]}.hit"] += 1
        return memo[key]
    _STATS[f"{key[0]}.miss"] += 1
    value = compute()
    memo[key] = value
    return value


# ---------------------------------------------------------------------------
# shared compiler/simulation products
#
# Convenience wrappers over :func:`cached` for the products several
# layers need (passes, speculation selection, program simulation).
# Imports are lazy to keep this module cycle-free at the bottom of the
# ``repro.core`` import graph.


def shared_ddg(block, machine):
    """The block's original dependence graph, shared across every
    machine with the same latency table (see :func:`latency_fingerprint`)."""
    from repro.ddg.builder import build_ddg

    lfp = latency_fingerprint(machine)
    return cached(block, ("ddg", lfp), lambda: build_ddg(block, machine))


def shared_analysis(block, graph, machine):
    """Critical-path analysis of a (memoised) graph, shared across
    latency-equal machines.

    Keyed on the graph's identity; the memo value pins the graph so the
    id stays valid while the entry lives.
    """
    from repro.ddg.critical_path import analyze

    lfp = latency_fingerprint(machine)
    entry = cached(
        block, ("ana", id(graph), lfp), lambda: (graph, analyze(graph, machine))
    )
    return entry[1]


def original_schedule(block, machine):
    """The block's original resource-constrained list schedule."""
    from repro.sched.list_scheduler import ListScheduler

    fp = machine_fingerprint(machine)

    def compute():
        graph = shared_ddg(block, machine)
        analysis = shared_analysis(block, graph, machine)
        return ListScheduler(machine).schedule_graph(
            block.label, graph, analysis=analysis
        )

    return cached(block, ("osched", fp), compute)


def speculative_schedule(spec, machine, original_length):
    """List-schedule a transformed block (keyed on the spec identity).

    The memo value pins ``spec``, so the ``id(spec)`` in the key cannot
    be reused while the entry lives (see module docstring rules).
    """
    from repro.core.specsched import schedule_speculative

    fp = machine_fingerprint(machine)

    def compute():
        analysis = shared_analysis(spec.original, spec.graph, machine)
        return (
            spec,
            schedule_speculative(
                spec, machine, original_length=original_length, analysis=analysis
            ),
        )

    entry = cached(spec.original, ("sched", id(spec), fp), compute)
    return entry[1]


def baseline_block(spec, machine, original_length):
    """The statically-recovered baseline compilation of a transform."""
    from repro.core.baseline import build_baseline_block

    fp = machine_fingerprint(machine)
    entry = cached(
        spec.original,
        ("base", id(spec), fp),
        lambda: (
            spec,
            build_baseline_block(spec, machine, original_length=original_length),
        ),
    )
    return entry[1]


def schedule_validated(spec_schedule) -> bool:
    """Exhaustive outcome validation of a speculative schedule.

    ``True`` iff every correctness pattern simulates without engine
    deadlock.  The per-pattern runs produced by the validation sweep are
    seeded into the :func:`pattern_run` memo, so the dynamic simulation
    later reads them back instead of re-simulating.
    """
    from repro.core.cc_engine import SimulationDeadlock
    from repro.core.machine_sim import simulate_all_outcomes

    block = spec_schedule.spec.original

    def compute():
        try:
            runs = simulate_all_outcomes(spec_schedule)
        except SimulationDeadlock:
            return (spec_schedule, False)
        for pattern, run in runs.items():
            cached(
                block,
                ("prun", id(spec_schedule), pattern),
                lambda run=run: (spec_schedule, run),
            )
        return (spec_schedule, True)

    return cached(block, ("valid", id(spec_schedule)), compute)[1]


def pattern_run(spec_schedule, pattern: Tuple[bool, ...]):
    """Dual-engine timing of one correctness pattern (shared memo)."""
    from repro.core.machine_sim import simulate_block

    ldpreds = spec_schedule.spec.ldpred_ids
    entry = cached(
        spec_schedule.spec.original,
        ("prun", id(spec_schedule), pattern),
        lambda: (
            spec_schedule,
            simulate_block(spec_schedule, dict(zip(ldpreds, pattern))),
        ),
    )
    return entry[1]


def pattern_metrics(spec_schedule, pattern: Tuple[bool, ...]):
    """(BlockRun, MetricsSnapshot) of one pattern (shared memo)."""
    from repro.core.machine_sim import simulate_block
    from repro.obs.metrics import MetricsRegistry

    ldpreds = spec_schedule.spec.ldpred_ids

    def compute():
        registry = MetricsRegistry()
        run = simulate_block(
            spec_schedule, dict(zip(ldpreds, pattern)), metrics=registry
        )
        return (spec_schedule, run, registry.snapshot())

    entry = cached(
        spec_schedule.spec.original,
        ("pmet", id(spec_schedule), pattern),
        compute,
    )
    return entry[1], entry[2]


def pattern_cycles(spec_schedule, pattern: Tuple[bool, ...]):
    """(BlockRun, cause->cycles stack) of one pattern (shared memo)."""
    from repro.core.machine_sim import simulate_block

    ldpreds = spec_schedule.spec.ldpred_ids

    def compute():
        run = simulate_block(
            spec_schedule, dict(zip(ldpreds, pattern)), collect_cycles=True
        )
        return (spec_schedule, run, dict(run.cycle_stack))

    entry = cached(
        spec_schedule.spec.original,
        ("pcyc", id(spec_schedule), pattern),
        compute,
    )
    return entry[1], entry[2]


def stats() -> Dict[str, int]:
    """Hit/miss counters per product kind (for bench diagnostics)."""
    return dict(_STATS)


def reset() -> None:
    """Drop every memo (bench iterations and test isolation)."""
    _BLOCK_MEMOS.clear()
    _MACHINE_FPS.clear()
    _LATENCY_FPS.clear()
    _STATS.clear()
