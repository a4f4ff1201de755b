"""Whole-program dynamic simulation of the proposed architecture.

One profiled run drives all three machine models.  The run is a value
trace (:mod:`repro.trace`); :mod:`repro.batchsim` turns it into
per-static-op predictor outcome columns — the live hardware value
predictor scored against every predicted load's real value stream —
and reduces them to per-block correctness-pattern counts
(:class:`SimCounts`).  Each pattern is charged the dual-engine timing of
its block (memoised per pattern — a block with *n* predicted loads has
at most ``2^n`` distinct timings).

The same counts account the two comparison machines:

* **no prediction** — every block instance costs its original schedule
  length;
* **baseline recovery** ([4]) — the main speculative schedule plus serial
  compensation-block excursions, branch redirects and (optionally)
  instruction-cache pollution.

This mirrors the paper's methodology of combining profiled block
frequencies with per-block schedule lengths, except outcomes come from a
real predictor running over the real value stream rather than from the
profile alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.obs.cycles import attribute_schedule
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, NULL_METRICS
from repro.predict.base import ValuePredictor
from repro.predict.confidence import ConfidenceEstimator
from repro.core import compile_cache
from repro.core.baseline import simulate_baseline_block, simulate_squash_block
from repro.core.icache import CodeLayout, ICacheConfig, InstructionCache
from repro.core.metrics import (
    BlockCompilation,
    OutcomeClass,
    ProgramCompilation,
    classify_outcome,
)


class CycleAccountingError(RuntimeError):
    """Simulated cycles and their attribution disagree.

    Raised, not asserted, so the check survives ``python -O``.
    """


@dataclass
class ProgramSimResult:
    """Aggregate timing of one dynamic program run on all three machines."""

    program_name: str
    machine_name: str
    # Totals.
    cycles_nopred: int = 0
    cycles_proposed: int = 0
    cycles_baseline: int = 0
    #: Superscalar-style squash recovery: any misprediction restarts the
    #: whole block without prediction.
    cycles_squash: int = 0
    squashed_instances: int = 0
    # Baseline breakdown.
    baseline_compensation_cycles: int = 0
    baseline_branch_cycles: int = 0
    baseline_icache_cycles: int = 0
    proposed_icache_cycles: int = 0
    # Proposed-machine accounting by dynamic outcome class.
    cycles_by_class: Dict[OutcomeClass, int] = field(default_factory=dict)
    instances_by_class: Dict[OutcomeClass, int] = field(default_factory=dict)
    # Original-schedule cycles of the same instances (per class), for
    # schedule-length-ratio computations.
    original_cycles_by_class: Dict[OutcomeClass, int] = field(default_factory=dict)
    # Figure 8: per dynamic speculated instance, original minus effective
    # length (positive = improvement), bucketed later by the experiment.
    length_delta_histogram: Counter = field(default_factory=Counter)
    # Prediction accounting.
    predictions: int = 0
    mispredictions: int = 0
    stall_cycles: int = 0
    cc_executed: int = 0
    cc_flushed: int = 0
    dynamic_blocks: int = 0
    # Extensions: instances that fell back to the non-speculative block
    # version because prediction confidence was low (see simulate_program's
    # ``confidence`` option), and value-prediction-table tag misses.
    gated_instances: int = 0
    table_tag_misses: int = 0
    #: Aggregated observability snapshot; populated only when
    #: ``simulate_program`` ran with ``collect_metrics=True``.
    metrics: Optional[MetricsSnapshot] = None
    #: Per-machine CPI stacks (``"nopred"``/``"proposed"``/``"baseline"``
    #: -> cause -> cycles, causes from :data:`repro.obs.cycles.CAUSES`);
    #: populated only when ``simulate_program`` ran with
    #: ``collect_cycles=True``.  Each stack sums exactly to the matching
    #: ``cycles_*`` total — checked at the end of the run.
    cycle_stacks: Optional[Dict[str, Dict[str, int]]] = None

    @property
    def speedup_proposed(self) -> float:
        """No-prediction cycles over proposed-machine cycles."""
        return self.cycles_nopred / self.cycles_proposed if self.cycles_proposed else 1.0

    @property
    def speedup_baseline(self) -> float:
        return self.cycles_nopred / self.cycles_baseline if self.cycles_baseline else 1.0

    @property
    def speedup_squash(self) -> float:
        return self.cycles_nopred / self.cycles_squash if self.cycles_squash else 1.0

    @property
    def prediction_accuracy(self) -> float:
        if self.predictions == 0:
            return 0.0
        return 1.0 - self.mispredictions / self.predictions

    def time_fraction(self, outcome: OutcomeClass) -> float:
        """Fraction of proposed-machine time spent in instances of a class."""
        if self.cycles_proposed == 0:
            return 0.0
        return self.cycles_by_class.get(outcome, 0) / self.cycles_proposed

    def class_length_fraction(self, outcome: OutcomeClass) -> float:
        """Effective/original length ratio for instances of a class."""
        orig = self.original_cycles_by_class.get(outcome, 0)
        if orig == 0:
            return 1.0
        return self.cycles_by_class.get(outcome, 0) / orig

    @property
    def baseline_compensation_fraction(self) -> float:
        """Share of baseline time spent off the main schedule (recovery)."""
        if self.cycles_baseline == 0:
            return 0.0
        overhead = (
            self.baseline_compensation_cycles
            + self.baseline_branch_cycles
            + self.baseline_icache_cycles
        )
        return overhead / self.cycles_baseline


@dataclass
class SimCounts:
    """Sufficient statistics of one dynamic run.

    Everything :func:`simulate_program` reports is an exact,
    deterministic function of these counts plus the (memoised) per-block
    compiler products: per label, how many instances ran non-speculated
    / confidence-gated / under each correctness pattern, plus the raw
    predictor and table counters.  :mod:`repro.batchsim.engine` reduces
    a run to this record and :func:`_fold_counts` does the accounting.
    Icache modelling additionally needs the dynamic order:
    ``instance_codes`` then holds an int64 array with, per block
    instance of the trace, its pattern code (``-1`` gated, ``-2`` not
    speculated).
    """

    nonspec: Dict[str, int] = field(default_factory=dict)
    gated: Dict[str, int] = field(default_factory=dict)
    patterns: Dict[str, Dict[Tuple[bool, ...], int]] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    no_predictions: int = 0
    table_tag_misses: int = 0
    instance_codes: Optional[Any] = None


def _shared_original_attribution(
    compilation: ProgramCompilation, comp: BlockCompilation
) -> Dict[str, int]:
    """Per-cause attribution of the block's original schedule.

    The compiler records only the original schedule *length*; list
    scheduling is deterministic, so rebuilding the schedule here
    reproduces it exactly (checked against the recorded length).
    """
    block = compilation.program.main.block(comp.label)
    machine = compilation.machine
    fp = compile_cache.machine_fingerprint(machine)

    def compute() -> Dict[str, int]:
        schedule = compile_cache.original_schedule(block, machine)
        if schedule.length != comp.original_length:
            raise CycleAccountingError(
                f"block {comp.label!r}: rebuilt original schedule is "
                f"{schedule.length} cycles, compiler recorded "
                f"{comp.original_length}"
            )
        return attribute_schedule(schedule)

    return compile_cache.cached(block, ("oattr", fp), compute)


def _shared_baseline_attribution(comp: BlockCompilation) -> Dict[str, int]:
    """Static attribution of the baseline machine's main schedule."""
    baseline = comp.baseline
    block = baseline.spec.original

    def compute():
        counts = attribute_schedule(baseline.schedule.schedule)
        if sum(counts.values()) != baseline.main_length:
            raise CycleAccountingError(
                f"block {baseline.label!r}: baseline schedule attributes "
                f"{sum(counts.values())} cycles of {baseline.main_length}"
            )
        # The memo value pins the baseline object so the id in the key
        # stays valid for the entry's lifetime.
        return (baseline, counts)

    return compile_cache.cached(block, ("battr", id(baseline)), compute)[1]


def _shared_baseline_run(comp: BlockCompilation, ldpreds, pattern, machine):
    """Baseline recovery timing for one pattern (pure — no icache)."""
    baseline = comp.baseline
    block = baseline.spec.original
    fp = compile_cache.machine_fingerprint(machine)
    entry = compile_cache.cached(
        block,
        ("brun", id(baseline), fp, pattern),
        lambda: (
            baseline,
            simulate_baseline_block(
                baseline, dict(zip(ldpreds, pattern)), machine
            ),
        ),
    )
    return entry[1]


def _shared_squash_run(comp: BlockCompilation, ldpreds, pattern, machine):
    """Squash recovery timing for one pattern (memoised)."""
    schedule = comp.spec_schedule
    block = schedule.spec.original
    fp = compile_cache.machine_fingerprint(machine)
    entry = compile_cache.cached(
        block,
        ("srun", id(schedule), fp, pattern),
        lambda: (
            schedule,
            simulate_squash_block(
                schedule, dict(zip(ldpreds, pattern)), machine
            ),
        ),
    )
    return entry[1]


def _charge_scaled(stack: Dict[str, int], counts: Mapping[str, int], n: int) -> None:
    for cause, cycles in counts.items():
        stack[cause] = stack.get(cause, 0) + cycles * n


def _account_class_counts(
    res: ProgramSimResult,
    outcome: OutcomeClass,
    cycles: int,
    comp: BlockCompilation,
    n: int,
) -> None:
    res.cycles_by_class[outcome] = res.cycles_by_class.get(outcome, 0) + cycles * n
    res.instances_by_class[outcome] = res.instances_by_class.get(outcome, 0) + n
    res.original_cycles_by_class[outcome] = (
        res.original_cycles_by_class.get(outcome, 0) + comp.original_length * n
    )


def _fold_counts(
    compilation: ProgramCompilation,
    counts: SimCounts,
    result: ProgramSimResult,
    registry: MetricsRegistry,
    collect_cycles: bool,
    cycle_stacks: Dict[str, Dict[str, int]],
    predictor_label: str,
    merge_block_metrics: bool = True,
) -> None:
    """Deterministic accounting of a run from its sufficient statistics.

    Labels and patterns are folded in sorted order, each charged
    ``count`` times via multiplication, so every result container has a
    canonical layout independent of dynamic encounter order.  Per-pattern
    block timings, baseline and squash recovery runs are computed once
    per (block, pattern) and shared process-wide through
    :mod:`repro.core.compile_cache`.  ``merge_block_metrics=False``
    leaves the per-pattern dual-engine metrics to the caller.
    """
    machine = compilation.machine
    res = result
    if registry.enabled:
        if counts.hits:
            registry.inc("predict.hit", counts.hits, label=predictor_label)
        if counts.misses:
            registry.inc("predict.miss", counts.misses, label=predictor_label)
        if counts.no_predictions:
            registry.inc(
                "predict.no_prediction",
                counts.no_predictions,
                label=predictor_label,
            )
    labels = sorted(
        set(counts.nonspec) | set(counts.gated) | set(counts.patterns)
    )
    for label in labels:
        comp = compilation.blocks[label]
        n_nonspec = counts.nonspec.get(label, 0)
        n_gated = counts.gated.get(label, 0)
        per_pattern = counts.patterns.get(label)
        n_spec = sum(per_pattern.values()) if per_pattern else 0
        total = n_nonspec + n_gated + n_spec
        res.dynamic_blocks += total
        res.cycles_nopred += comp.original_length * total
        res.gated_instances += n_gated
        plain = n_nonspec + n_gated
        if plain:
            res.cycles_proposed += comp.original_length * plain
            res.cycles_baseline += comp.original_length * plain
            res.cycles_squash += comp.original_length * plain
            _account_class_counts(
                res, OutcomeClass.NOT_SPECULATED, comp.original_length, comp, plain
            )
        if collect_cycles and total:
            orig = _shared_original_attribution(compilation, comp)
            _charge_scaled(cycle_stacks["nopred"], orig, total)
            if plain:
                _charge_scaled(cycle_stacks["proposed"], orig, plain)
                _charge_scaled(cycle_stacks["baseline"], orig, plain)
        if not per_pattern:
            continue
        ldpreds = comp.spec_schedule.spec.ldpred_ids
        for pattern in sorted(per_pattern):
            n = per_pattern[pattern]
            run = comp.run_for(pattern)
            if registry.enabled and merge_block_metrics:
                registry.merge_snapshot(comp.metrics_for(pattern).scaled(n))
            res.cycles_proposed += run.effective_length * n
            res.predictions += run.predictions * n
            res.mispredictions += run.mispredictions * n
            res.stall_cycles += run.stall_cycles * n
            res.cc_executed += run.executed * n
            res.cc_flushed += run.flushed * n
            if collect_cycles:
                _charge_scaled(
                    cycle_stacks["proposed"], comp.cycles_for(pattern), n
                )
            outcome = classify_outcome(run.predictions, run.mispredictions)
            _account_class_counts(res, outcome, run.effective_length, comp, n)
            res.length_delta_histogram[
                comp.original_length - run.effective_length
            ] += n
            baseline_run = _shared_baseline_run(comp, ldpreds, pattern, machine)
            res.cycles_baseline += baseline_run.effective_length * n
            res.baseline_compensation_cycles += baseline_run.compensation_cycles * n
            res.baseline_branch_cycles += baseline_run.branch_cycles * n
            res.baseline_icache_cycles += baseline_run.icache_cycles * n
            if collect_cycles:
                stack = cycle_stacks["baseline"]
                _charge_scaled(stack, _shared_baseline_attribution(comp), n)
                for cause, cycles in (
                    ("reexec", baseline_run.compensation_cycles),
                    ("branch_penalty", baseline_run.branch_cycles),
                    ("icache_miss", baseline_run.icache_cycles),
                ):
                    if cycles:
                        stack[cause] = stack.get(cause, 0) + cycles * n
            squash_run = _shared_squash_run(comp, ldpreds, pattern, machine)
            res.cycles_squash += squash_run.effective_length * n
            if squash_run.squashed:
                res.squashed_instances += n


def _place_code(compilation: ProgramCompilation, layout: CodeLayout) -> None:
    """Lay out main code, then the baseline's compensation blocks."""
    for label, comp in compilation.blocks.items():
        if comp.spec_schedule is not None:
            op_count = len(comp.spec_schedule.spec.operations)
        else:
            op_count = len(compilation.program.main.block(label).operations)
        layout.place(f"main:{label}", op_count)
    for comp in compilation.blocks.values():
        if comp.baseline is None:
            continue
        for c in comp.baseline.compensation.values():
            if c.op_count:
                layout.place(c.code_id, c.op_count)


def _fold_icache(
    compilation: ProgramCompilation,
    trace,
    counts: SimCounts,
    result: ProgramSimResult,
    cycle_stacks: Dict[str, Dict[str, int]],
    config: Optional[ICacheConfig],
    registry: MetricsRegistry,
) -> Tuple[InstructionCache, InstructionCache]:
    """Charge instruction-cache miss penalties in one in-order pass.

    Cache state depends on the dynamic fetch sequence, so this walks
    ``block_seq``.  Every instance fetches ``main:<label>`` through the
    proposed machine's cache and through the baseline's; a speculated
    instance then fetches, through the baseline cache, the compensation
    blocks of its mispredicted loads, in ``ldpred_ids`` order.  The
    no-prediction and squash machines fetch the same block stream as
    the proposed machine, so they pay its penalty too (the squash
    machine's refetch on restart is folded into the same penalty).

    The pass also merges each speculated instance's dual-engine metrics
    in fetch order, so histogram reservoirs sample the dynamic instance
    stream.  Returns the two caches for their counters.
    """
    config = config or ICacheConfig()
    layout = CodeLayout(config)
    _place_code(compilation, layout)
    proposed = InstructionCache(config)
    baseline = InstructionCache(config)
    plans = []
    for label in trace.labels:
        comp = compilation.blocks.get(label)
        if comp is None:
            plans.append(None)
            continue
        recovery = ()
        if comp.speculated:
            compensation = comp.baseline.compensation
            recovery = tuple(
                (1 << j, compensation[ldpred].code_id)
                for j, ldpred in enumerate(comp.spec_schedule.spec.ldpred_ids)
                if compensation[ldpred].op_count
            )
        plans.append((f"main:{label}", recovery, comp))
    proposed_penalty = 0
    baseline_penalty = 0
    for block_id, code in zip(trace.block_seq, counts.instance_codes.tolist()):
        plan = plans[block_id]
        if plan is None:
            continue
        main, recovery, comp = plan
        proposed_penalty += layout.fetch(proposed, main)
        baseline_penalty += layout.fetch(baseline, main)
        if code < 0:
            continue
        for bit, code_id in recovery:
            if not code & bit:
                baseline_penalty += layout.fetch(baseline, code_id)
        if registry.enabled:
            k = len(comp.predicted_load_ids)
            pattern = tuple(bool(code >> j & 1) for j in range(k))
            registry.merge_snapshot(comp.metrics_for(pattern))
    result.proposed_icache_cycles += proposed_penalty
    result.cycles_proposed += proposed_penalty
    result.cycles_nopred += proposed_penalty
    result.cycles_squash += proposed_penalty
    result.baseline_icache_cycles += baseline_penalty
    result.cycles_baseline += baseline_penalty
    for model, penalty in (
        ("proposed", proposed_penalty),
        ("nopred", proposed_penalty),
        ("baseline", baseline_penalty),
    ):
        if penalty:
            stack = cycle_stacks[model]
            stack["icache_miss"] = stack.get("icache_miss", 0) + penalty
    return proposed, baseline


def simulate_program(
    compilation: ProgramCompilation,
    predictor: Optional[ValuePredictor] = None,
    model_icache: bool = False,
    icache_config: Optional[ICacheConfig] = None,
    max_operations: int = 5_000_000,
    table_capacity: Optional[int] = None,
    confidence: Optional[ConfidenceEstimator] = None,
    collect_metrics: bool = False,
    collect_cycles: bool = False,
    trace=None,
    batch=None,
) -> ProgramSimResult:
    """Time one run of the program on all three machines.

    Args:
        compilation: output of :func:`repro.core.metrics.compile_program`.
        predictor: live hardware value predictor; ``None`` builds the
            machine spec's declared predictor (the paper's machines
            declare the stride+FCM hybrid, so the default is unchanged).
        model_icache: charge instruction-cache miss penalties (used by
            the baseline-comparison experiment; off for Tables 2-4, which
            the paper computes from schedule lengths alone).
        table_capacity: model a finite, direct-mapped Value Prediction
            Table of this many entries; ``None`` falls back to the
            machine spec's ``predictor.table_entries`` (itself ``None``
            — unbounded, the paper's profile-based setting — on the
            registry machines); conflicting static loads then steal each
            other's entries.
        confidence: optional saturating-counter confidence estimator;
            when a block's predicted loads are not all confident, the
            instance runs the plain (non-speculative) version of the
            block — the classic dual-version gating extension.
        collect_metrics: aggregate an observability snapshot (predictor
            hit/miss counters, merged per-block dual-engine metrics,
            icache counters) into ``result.metrics``.  Off by default;
            timing results are identical either way.
        collect_cycles: attribute every cycle of all three machines to
            one cause (see :mod:`repro.obs.cycles`) into
            ``result.cycle_stacks``; each stack is checked to sum
            exactly to the matching ``cycles_*`` total.  Off by default;
            timing results are identical either way.
        trace: a :class:`~repro.trace.ValueTrace` captured from this
            compilation's program; ``None`` captures one (raising
            :class:`~repro.profiling.interpreter.ExecutionLimitExceeded`
            past ``max_operations``).  The trace must cover every
            predicted load of the compilation;
            :class:`~repro.trace.TraceMismatch` is raised otherwise.
        batch: the :class:`~repro.batchsim.context.BatchContext` whose
            trace decodes and predictor outcome columns this simulation
            shares with the other points of a sweep; ``None`` uses the
            process-wide default context.
    """
    from repro.batchsim.context import resolve_context
    from repro.batchsim.engine import batch_counts
    from repro.batchsim.outcomes import build_predictor
    from repro.trace.format import TRACED_OPCODES, TraceMismatch

    result = ProgramSimResult(
        program_name=compilation.program.name,
        machine_name=compilation.machine.name,
    )
    registry = MetricsRegistry() if collect_metrics else NULL_METRICS
    machine_predictor = getattr(compilation.machine, "predictor", None)
    if table_capacity is None and machine_predictor is not None:
        table_capacity = machine_predictor.table_entries
    if table_capacity is not None and table_capacity < 1:
        raise ValueError("capacity must be positive or None")
    if predictor is None:
        name = build_predictor(compilation.machine).name
    else:
        name = predictor.name
    predictor_label = f"table:{name}" if table_capacity is not None else name
    if trace is None:
        from repro.trace.capture import capture_trace

        trace = capture_trace(compilation.program, max_operations=max_operations)
    # Static coverage check: only traced ops have value columns, so
    # every load (or ALU op) the compilation predicts must be traced.
    function = compilation.program.main
    for label, comp in compilation.blocks.items():
        if not comp.speculated:
            continue
        traced_ids = {
            op.op_id
            for op in function.block(label).operations
            if op.opcode in TRACED_OPCODES
        }
        missing = set(comp.predicted_load_ids) - traced_ids
        if missing:
            raise TraceMismatch(
                f"block {label!r} of {compilation.program.name!r} "
                f"predicts untraced operation(s) {sorted(missing)}"
            )

    counts = batch_counts(
        compilation,
        trace,
        resolve_context(batch),
        max_operations,
        predictor=predictor,
        table_capacity=table_capacity,
        confidence=confidence,
        instance_codes=model_icache,
    )
    cycle_stacks: Dict[str, Dict[str, int]] = {
        "nopred": {},
        "proposed": {},
        "baseline": {},
    }
    _fold_counts(
        compilation,
        counts,
        result,
        registry,
        collect_cycles,
        cycle_stacks,
        predictor_label,
        merge_block_metrics=not model_icache,
    )
    result.table_tag_misses = counts.table_tag_misses
    if model_icache:
        caches = _fold_icache(
            compilation,
            trace,
            counts,
            result,
            cycle_stacks,
            icache_config,
            registry,
        )
    if collect_cycles:
        totals = {
            "nopred": result.cycles_nopred,
            "proposed": result.cycles_proposed,
            "baseline": result.cycles_baseline,
        }
        for model, stack in cycle_stacks.items():
            # The hard program-level invariant: every simulated cycle of
            # every machine is attributed to exactly one cause.
            attributed = sum(stack.values())
            if attributed != totals[model]:
                raise CycleAccountingError(
                    f"{result.program_name} on {result.machine_name}: "
                    f"{model} cycle stack sums to {attributed}, "
                    f"simulated {totals[model]} cycles"
                )
        result.cycle_stacks = {
            model: dict(sorted(stack.items()))
            for model, stack in cycle_stacks.items()
        }
    if registry.enabled:
        if result.cycle_stacks:
            for model, stack in result.cycle_stacks.items():
                for cause, cycles in stack.items():
                    registry.inc(
                        "sim.cycles", cycles, label=f"cause={cause},model={model}"
                    )
        registry.inc("sim.dynamic_blocks", result.dynamic_blocks)
        registry.inc("sim.gated_instances", result.gated_instances)
        if model_icache:
            for model, cache in zip(("proposed", "baseline"), caches):
                registry.inc("icache.access", cache.accesses, label=model)
                registry.inc("icache.miss", cache.misses, label=model)
        result.metrics = registry.snapshot()
    return result
