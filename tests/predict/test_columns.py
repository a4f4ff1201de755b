"""Outcome-column kernels vs the predictor classes they stand for.

Each kernel in :mod:`repro.predict.columns` must return, for any value
stream, exactly the ``(correct, predicted)`` columns of its predictor
class driven predict → score → update on one key.  The streams mix the
cases where a vectorised shortcut could drift: small ints, ``-1`` and
``-2`` (equal ``hash``), ints above 2**53 and around the int64 path's
2**61 bound, negative ints and floats; small ``table_bits`` make
contexts collide.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.predictor import PREDICTOR_KINDS, PredictorSpec
from repro.predict.base import _values_equal
from repro.predict.columns import (
    dfcm_column,
    fcm_column,
    hybrid_column,
    last_value_column,
    stride_column,
)
from repro.predict.dfcm import DFCMPredictor
from repro.predict.fcm import FCMPredictor
from repro.predict.hybrid import HybridPredictor
from repro.predict.last_value import LastValuePredictor
from repro.predict.stride import StridePredictor

ATOMS = st.one_of(
    st.integers(min_value=-8, max_value=8),
    st.sampled_from([-1, -2]),
    st.integers(min_value=2**53 - 4, max_value=2**53 + 4),
    st.integers(min_value=2**61 - 2, max_value=2**64),
    st.integers(min_value=-(2**70), max_value=-(2**53)),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


@st.composite
def streams(draw):
    """Value streams that repeat (so FCM tables hit) and stride (so
    two-delta stride confirms), in any mix of the atoms above."""
    pool = draw(st.lists(ATOMS, min_size=1, max_size=5))
    shape = draw(st.sampled_from(["pool", "strided", "free"]))
    if shape == "pool":
        return draw(st.lists(st.sampled_from(pool), max_size=60))
    if shape == "strided":
        start = draw(st.sampled_from(pool))
        deltas = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        length = draw(st.integers(min_value=0, max_value=40))
        out, value = [], start
        for i in range(length):
            out.append(value)
            value = value + deltas[(i // 5) % len(deltas)]
        return out
    return draw(st.lists(ATOMS, max_size=40))


ORDERS = st.integers(min_value=1, max_value=3)
TABLE_BITS = st.sampled_from([1, 2, 16])
COUNTER_MAX = st.sampled_from([1, 8])


def reference(predictor, values):
    """The predictor class on one key: predict, score, then update."""
    correct, predicted = [], []
    for value in values:
        prediction = predictor.predict(0)
        predicted.append(prediction is not None)
        correct.append(
            prediction is not None and _values_equal(prediction, value)
        )
        predictor.update(0, value)
    return correct, predicted


def assert_column(column, predictor, values):
    correct, predicted = column
    want_correct, want_predicted = reference(predictor, values)
    assert correct.dtype == bool and predicted.dtype == bool
    assert predicted.tolist() == want_predicted
    assert correct.tolist() == want_correct


SETTINGS = settings(max_examples=150, deadline=None)


@SETTINGS
@given(values=streams())
def test_last_value_kernel(values):
    assert_column(last_value_column(values), LastValuePredictor(), values)


@SETTINGS
@given(values=streams())
def test_stride_kernel(values):
    assert_column(stride_column(values), StridePredictor(), values)


@SETTINGS
@given(values=streams(), order=ORDERS, bits=TABLE_BITS)
def test_fcm_kernel(values, order, bits):
    assert_column(
        fcm_column(values, order, bits),
        FCMPredictor(order=order, table_bits=bits),
        values,
    )


@SETTINGS
@given(values=streams(), order=ORDERS, bits=TABLE_BITS)
def test_dfcm_kernel(values, order, bits):
    assert_column(
        dfcm_column(values, order, bits),
        DFCMPredictor(order=order, table_bits=bits),
        values,
    )


@SETTINGS
@given(
    values=streams(), order=ORDERS, bits=TABLE_BITS, counter_max=COUNTER_MAX
)
def test_hybrid_kernel(values, order, bits, counter_max):
    predictor = HybridPredictor(
        [StridePredictor(), FCMPredictor(order=order, table_bits=bits)],
        counter_max=counter_max,
    )
    assert_column(
        hybrid_column(values, order, bits, counter_max), predictor, values
    )


@settings(max_examples=60, deadline=None)
@given(
    values=streams(),
    kind=st.sampled_from(PREDICTOR_KINDS),
    order=ORDERS,
    bits=TABLE_BITS,
    counter_max=COUNTER_MAX,
)
def test_spec_column_matches_spec_build(values, kind, order, bits, counter_max):
    spec = PredictorSpec(
        kind=kind, fcm_order=order, table_bits=bits, counter_max=counter_max
    )
    column = spec.column(np.array(values, dtype=object))
    assert_column(column, spec.build(), values)


def test_values_beyond_int64_keep_exact_semantics():
    big = 2**63 + 1
    values = [big, big + 2, big + 4, big + 6, big + 7, 2.0**63]
    assert_column(stride_column(values), StridePredictor(), values)
    # big + 7 misses the predicted big + 8 exactly; the float compares
    # after rounding the predicted big + 9 to 2.0**63, so it hits.
    assert stride_column(values)[0].tolist() == [
        False, False, False, True, False, True,
    ]


@pytest.mark.parametrize(
    "kernel", [lambda v: fcm_column(v, 2, 31), lambda v: dfcm_column(v, 0, 16)]
)
def test_invalid_geometry_raises_like_the_class(kernel):
    with pytest.raises(ValueError):
        kernel([1, 2, 3])
