"""The column engine: trace columns -> per-point sim counts.

Every dynamic simulation reduces, given a
:class:`~repro.batchsim.context.BatchContext`, to

1. one predictor outcome column per predicted static op (the
   predictor kind's column kernel over the op's value column);
2. the run-time features as column operations on those columns — a
   finite prediction table masks them, confidence gating marks
   instances as gated;
3. a pattern-count histogram per speculated block (bitmask pack +
   ``bincount``), folded through the exact per-pattern block timings by
   :func:`repro.core.program_sim._fold_counts`.

Column forms of the run-time features:

* **Finite table.**  A direct-mapped table on ``hash(op_id) % capacity``
  still trains its predictor on every occurrence, so the base columns
  stand; a prediction is served only when the last op to train the slot
  is the same op.  Per slot, the stream positions of its ops are merged
  in trace order and each occurrence compared with the previous owner
  (the indexed LVPT of a hardware value predictor).
* **Confidence gating.**  Estimator state is per key, so each predicted
  op's ``correct`` column is walked on its own, asking ``confident``
  before ``record``; an instance is gated when any of its block's ops
  was not confident before it.
* **Explicit predictor instance.**  Run down each predicted op's column
  uncached: predictor state is per static op (:mod:`.outcomes`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.batchsim.context import BatchContext, pattern_code, pattern_histogram
from repro.batchsim.outcomes import compute_column
from repro.profiling.interpreter import ExecutionLimitExceeded

#: ``instance_codes`` entry of an instance the compiler did not speculate
#: (or did not cover); gated instances are ``-1``, the rest their code.
NOT_SPECULATED = -2


def unsupported_reason(
    predictor=None,
    table=None,
    confidence=None,
    model_icache: bool = False,
    trace=None,
) -> Optional[str]:
    """Why a simulation cannot run on trace columns: never (``None``).

    Every configuration has a column form; the function stays for
    callers that report which path a simulation took.
    """
    return None


def _table_masks(arrays, ops, capacity: int):
    """Per op: (served, tag_miss) boolean columns of a direct-mapped table.

    ``ops`` are ``(label, op_id)`` pairs — every op that trains the table
    at this point.  Occurrence *i* of an op is served when the previous
    op to train its slot, in trace order, is the same op; it is a tag
    miss when that previous owner exists and differs.
    """
    by_slot: Dict[int, List[Tuple[str, int]]] = {}
    for key in ops:
        by_slot.setdefault(hash(key[1]) % capacity, []).append(key)
    masks = {}
    for members in by_slot.values():
        positions = [arrays.positions(label, op_id) for label, op_id in members]
        sizes = [len(p) for p in positions]
        owner = np.repeat(np.arange(len(members)), sizes)
        order = np.argsort(np.concatenate(positions), kind="stable")
        owners = owner[order]
        previous = np.concatenate(([-1], owners[:-1]))[: owners.size]
        served = np.empty(owners.size, dtype=bool)
        served[order] = previous == owners
        missed = np.empty(owners.size, dtype=bool)
        missed[order] = (previous >= 0) & (previous != owners)
        bounds = np.cumsum(sizes)[:-1]
        for key, s, m in zip(
            members, np.split(served, bounds), np.split(missed, bounds)
        ):
            masks[key] = (s, m)
    return masks


def _confident_before(op_id: int, correct, confidence):
    """Whether ``confidence`` trusted ``op_id`` before each occurrence."""
    trusted = np.empty(correct.size, dtype=bool)
    for i, outcome in enumerate(correct.tolist()):
        trusted[i] = confidence.confident(op_id)
        confidence.record(op_id, outcome)
    return trusted


def batch_counts(
    compilation,
    trace,
    context: BatchContext,
    max_operations,
    predictor=None,
    table_capacity: Optional[int] = None,
    confidence=None,
    instance_codes: bool = False,
):
    """The :class:`~repro.core.program_sim.SimCounts` of one point.

    ``predictor`` (an explicit instance), ``table_capacity`` and
    ``confidence`` select the run-time features above.  With
    ``instance_codes`` the counts also carry, per dynamic block
    instance of the trace, its pattern code (``-1`` gated,
    :data:`NOT_SPECULATED` otherwise) — the input of the in-order icache
    pass.

    Raises :class:`ExecutionLimitExceeded` when the run exceeds
    ``max_operations``, and :class:`~repro.trace.format.TraceMismatch`
    or ``TraceError`` on a trace that does not match the program.
    """
    from repro.core.program_sim import SimCounts

    if max_operations is not None and trace.dynamic_operations > max_operations:
        raise ExecutionLimitExceeded(
            f"{trace.program_name}: exceeded {max_operations} operations"
        )
    arrays = context.arrays(trace, compilation.program)
    machine = compilation.machine
    counts = SimCounts()
    speculated = []
    for label in arrays.labels:
        n = arrays.instance_count(label)
        comp = compilation.blocks.get(label)
        if n == 0 or comp is None:
            # Blocks the compiler did not cover run no machine model.
            continue
        if comp.speculated:
            speculated.append((label, comp.predicted_load_ids))
        else:
            counts.nonspec[label] = n

    # Outcome columns: (correct, predicted) per predicted op.
    columns = {}
    for label, op_ids in speculated:
        for op_id in op_ids:
            if predictor is None:
                column = context.column(arrays, machine, label, op_id)
            else:
                column = compute_column(
                    op_id, arrays.op_values(label, op_id), lambda: predictor
                )
            columns[label, op_id] = (column.correct, column.predicted)
    if table_capacity is not None:
        masks = _table_masks(arrays, list(columns), table_capacity)
        for key, (served, missed) in masks.items():
            correct, predicted = columns[key]
            columns[key] = (correct & served, predicted & served)
            counts.table_tag_misses += int(missed.sum())
    for correct, predicted in columns.values():
        hits = int(correct.sum())
        counts.hits += hits
        counts.misses += correct.size - hits
        counts.no_predictions += correct.size - int(predicted.sum())

    shared = predictor is None and table_capacity is None and confidence is None
    codes = None
    if instance_codes:
        codes = np.full(arrays.dynamic_blocks, NOT_SPECULATED, dtype=np.int64)
    for label, op_ids in speculated:
        correct = [columns[label, op_id][0] for op_id in op_ids]
        if shared and codes is None:
            # The sweep common path: the histogram is shared across
            # every point predicting the same ops.
            counts.patterns[label] = dict(
                context.pattern_counts(arrays, machine, label, op_ids)
            )
            continue
        code = pattern_code(correct, arrays.instance_count(label))
        if confidence is not None:
            gated = np.zeros(code.size, dtype=bool)
            for op_id, column in zip(op_ids, correct):
                gated |= ~_confident_before(op_id, column, confidence)
            if gated.any():
                counts.gated[label] = int(gated.sum())
            code[gated] = -1
        histogram = pattern_histogram(code[code >= 0], len(op_ids))
        if histogram:
            counts.patterns[label] = histogram
        if codes is not None:
            codes[arrays.instances(label)] = code
    counts.instance_codes = codes
    return counts
