"""The CSV value formatter against plain `'%.12g' % x`, value by value."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruinwalk.reporting import _value_cells


def reference(values, end):
    return ["%.12g" % x + end for x in np.asarray(values, dtype=np.float64).tolist()]


def ulps(x: float, k: int) -> list[float]:
    """x and its neighbours up to k ulp away on either side."""
    out = [x]
    lo = hi = x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [float(lo), float(hi)]
    return out


NEGATIVE_NAN = float(np.array([0xFFF8_0000_0000_0001], dtype=np.uint64).view(np.float64)[0])
# 13 significant digits ending in a 5, exact in binary: 12-digit rounding ties
TIES = [100000000000.5, 100000000001.5, 1.000732421875]

CASES = {
    "signed_zeros": [0.0, -0.0, 0.0, -0.0],
    "smallest_subnormal": [5e-324, -5e-324, 5e-324],
    "nan_with_sign_bit": [float("nan"), NEGATIVE_NAN, float("nan"), NEGATIVE_NAN],
    "infinities": [np.inf, -np.inf, np.inf],
    "one_ulps": ulps(1.0, 4),
    "rounding_ties": [y for t in TIES for y in ulps(t, 1)],
    "empty": [],
    "single": [0.480212345678901],
}


@pytest.mark.parametrize("end", [",", "\r\n"])
@pytest.mark.parametrize("case", list(CASES))
def test_edge_values(case, end):
    values = np.array(CASES[case], dtype=np.float64)
    assert _value_cells(values, end) == reference(values, end)


def test_negative_nan_has_its_sign_bit():
    assert np.signbit(NEGATIVE_NAN) and np.isnan(NEGATIVE_NAN)


def test_ties_sit_between_two_twelve_digit_strings():
    below, tie, above = ulps(TIES[0], 1)[1], TIES[0], ulps(TIES[0], 1)[2]
    assert ["%.12g" % x for x in (below, tie, above)] == [
        "100000000000", "100000000000", "100000000001"
    ]


@st.composite
def repeating_arrays(draw):
    """Arrays drawn from a small pool of floats, so most values repeat."""
    pool = draw(st.lists(st.floats(width=64), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=60))
    return np.array([pool[i] for i in picks], dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(values=repeating_arrays(), end=st.sampled_from([",", "\r\n"]))
def test_matches_percent_format(values, end):
    assert _value_cells(values, end) == reference(values, end)
