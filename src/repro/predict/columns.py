"""Predictor outcome columns: one NumPy kernel per predictor kind.

Every predictor in :mod:`repro.predict` keeps strictly per-key state, so
what it predicts for one static op depends only on that op's own value
sequence.  Each kernel here takes that sequence and returns two bool
arrays, ``(correct, predicted)``: for occurrence *j*, whether the
predictor offered a value before seeing ``values[j]``, and whether that
value matched.  The result is exactly what driving the predictor class
predict → score → update on one key produces
(``tests/predict/test_columns.py`` checks each kernel against its
class):

* **last-value** — a shift;
* **two-delta stride** — deltas, a "confirmed" mask (a delta equal to
  the one before it, the first candidate being 0) and a forward fill of
  the confirmed deltas;
* **FCM / DFCM** — a context hash per position, then, per position, the
  latest earlier position with the same context (a stable argsort): the
  second-level table entry the predictor would read;
* **hybrid** — the stride and FCM columns, combined by a short
  saturating-score loop over plain ints.

Exactness.  Arithmetic runs in int64 when every value is an int of
magnitude at most 2**61 (no sum or difference of two such values can
overflow), in float64 when every value is a float (the same IEEE
doubles Python uses), and on the Python objects otherwise.  Scoring
follows :func:`~repro.predict.base._values_equal`.  Contexts call
``hash()`` once per value and combine the hashes in wrapping int64:
multiplication and xor carry low bits upward only, so the low
``table_bits`` bits, taken with a mask, equal the predictor's
``% 2**table_bits`` of the unbounded Python int.

The module is imported only when :mod:`repro.batchsim` computes a
column, so the CLIs can start without NumPy.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.predict.base import _values_equal

#: Largest int magnitude the int64 path accepts (sums stay below 2**63).
_INT64_SAFE = 1 << 61

#: The multiplier of the (D)FCM context hash.
_CONTEXT_MULTIPLIER = 1000003

Column = Tuple[np.ndarray, np.ndarray]


def _numeric(values):
    """The values as an int64 or float64 array where that is exact,
    else as an object array of the Python values."""
    items = values.tolist() if isinstance(values, np.ndarray) else list(values)
    kinds = set(map(type, items))
    if kinds == {int}:
        try:
            array = np.array(items, dtype=np.int64)
        except OverflowError:
            pass
        else:
            if -_INT64_SAFE <= array.min() and array.max() <= _INT64_SAFE:
                return array
    elif kinds == {float}:
        return np.array(items, dtype=np.float64)
    array = np.empty(len(items), dtype=object)
    array[:] = items
    return array


def _score(predictions, actual, predicted) -> np.ndarray:
    """``correct``: where ``predicted``, whether the prediction equals
    the actual value under ``_values_equal``."""
    correct = np.zeros(predicted.size, dtype=bool)
    at = np.flatnonzero(predicted)
    if actual.dtype != object:
        correct[at] = predictions[at] == actual[at]
    else:
        correct[at] = np.fromiter(
            map(_values_equal, predictions[at].tolist(), actual[at].tolist()),
            dtype=bool,
            count=at.size,
        )
    return correct


def _check_fcm(order: int, table_bits: int) -> None:
    if order < 1:
        raise ValueError("FCM order must be >= 1")
    if table_bits < 1 or table_bits > 30:
        raise ValueError("table_bits must be in [1, 30]")


def _previous_same_context(stream, order: int, table_bits: int) -> np.ndarray:
    """Per position *t* of ``stream``: the latest *i* < *t* whose context
    (the ``order`` values before it, hashed into ``table_bits`` bits)
    equals *t*'s, or -1.  Positions before ``order`` have no context."""
    n = len(stream)
    previous = np.full(n, -1, dtype=np.int64)
    m = n - order
    if m < 2:
        return previous
    hashes = np.fromiter(map(hash, stream.tolist()), dtype=np.int64, count=n)
    context = np.zeros(m, dtype=np.int64)
    for k in range(order):
        context = context * _CONTEXT_MULTIPLIER ^ hashes[k : k + m]
    context &= (1 << table_bits) - 1
    by_context = np.argsort(context, kind="stable")
    grouped = context[by_context]
    repeat = np.flatnonzero(grouped[1:] == grouped[:-1])
    previous[order + by_context[repeat + 1]] = order + by_context[repeat]
    return previous


def last_value_column(values) -> Column:
    """:class:`~repro.predict.last_value.LastValuePredictor`."""
    v = _numeric(values)
    predicted = np.arange(v.size) >= 1
    predictions = np.empty_like(v)
    predictions[1:] = v[:-1]
    return _score(predictions, v, predicted), predicted


def stride_column(values) -> Column:
    """:class:`~repro.predict.stride.StridePredictor` (two-delta)."""
    v = _numeric(values)
    n = v.size
    predicted = np.arange(n) >= 1
    if n < 2:
        return np.zeros(n, dtype=bool), predicted
    # delta[k] = v[k] - v[k-1]; delta[0] stands for the initial candidate.
    delta = np.empty_like(v)
    delta[0] = 0
    delta[1:] = v[1:] - v[:-1]
    confirmed = np.zeros(n, dtype=bool)
    confirmed[1:] = delta[1:] == delta[:-1]
    # The committed stride after update k: the latest confirmed delta.
    stride = delta[
        np.maximum.accumulate(np.where(confirmed, np.arange(n), 0))
    ]
    predictions = np.empty_like(v)
    # One observation: no delta yet, so the predictor repeats the value.
    predictions[1] = v[0]
    predictions[2:] = v[1:-1] + stride[1:-1]
    return _score(predictions, v, predicted), predicted


def fcm_column(values, order: int = 2, table_bits: int = 16) -> Column:
    """:class:`~repro.predict.fcm.FCMPredictor`."""
    _check_fcm(order, table_bits)
    v = _numeric(values)
    previous = _previous_same_context(v, order, table_bits)
    predicted = previous >= 0
    return _score(v[previous], v, predicted), predicted


def dfcm_column(values, order: int = 2, table_bits: int = 16) -> Column:
    """:class:`~repro.predict.dfcm.DFCMPredictor`: FCM over the stride
    stream, whose position *t* is the stride into value *t* + 1."""
    _check_fcm(order, table_bits)
    v = _numeric(values)
    n = v.size
    predicted = np.zeros(n, dtype=bool)
    if n < 2:
        return np.zeros(n, dtype=bool), predicted
    strides = v[1:] - v[:-1]
    previous = _previous_same_context(strides, order, table_bits)
    predicted[1:] = previous >= 0
    predictions = np.empty_like(v)
    at = np.flatnonzero(predicted)
    predictions[at] = v[at - 1] + strides[previous[at - 1]]
    return _score(predictions, v, predicted), predicted


def hybrid_column(
    values, fcm_order: int = 2, table_bits: int = 16, counter_max: int = 8
) -> Column:
    """:class:`~repro.predict.hybrid.HybridPredictor` over a stride and
    an FCM component."""
    stride_correct, stride_predicted = stride_column(values)
    fcm_correct, fcm_predicted = fcm_column(values, fcm_order, table_bits)
    # Per occurrence, each component's score change: +1 hit, -1 miss,
    # 0 no prediction.
    stride_steps = (2 * stride_correct.view(np.int8) - stride_predicted).tolist()
    fcm_steps = (2 * fcm_correct.view(np.int8) - fcm_predicted).tolist()
    fcm_leads = []
    lead = fcm_leads.append
    high, low = counter_max, -counter_max
    s = f = 0
    for ds, df in zip(stride_steps, fcm_steps):
        # Stable descending sort of the scores: stride wins ties.
        lead(f > s)
        if ds:
            s += ds
            if s > high:
                s = high
            elif s < low:
                s = low
        if df:
            f += df
            if f > high:
                f = high
            elif f < low:
                f = low
    # The leader answers if it predicts; otherwise the other component.
    use_fcm = np.where(
        np.array(fcm_leads, dtype=bool), fcm_predicted, ~stride_predicted
    )
    correct = np.where(use_fcm, fcm_correct, stride_correct)
    return correct, stride_predicted | fcm_predicted
