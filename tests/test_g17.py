"""``g17.cells`` against Python's ``'%.17g' % x``, byte for byte."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relaxdamp import g17


def _texts(cells: np.ndarray) -> list[str]:
    """The text of each NUL-padded row of ``cells``."""
    rows = cells.reshape(-1, g17.WIDTH)
    return [row.tobytes().rstrip(b"\0").decode() for row in rows]


def _assert_matches_percent(x: np.ndarray) -> None:
    got = _texts(g17.cells(x))
    want = ["%.17g" % v for v in np.ravel(x).tolist()]
    bad = [(v, g, w) for v, g, w in zip(np.ravel(x).tolist(), got, want) if g != w]
    assert not bad, bad[:5]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(arrays(np.uint64, st.integers(1, 64), elements=st.integers(0, 2 ** 64 - 1)))
def test_raw_bit_patterns_match_percent(bits):
    # every 64-bit pattern: subnormals, infinities and NaN payloads included
    _assert_matches_percent(bits.view(np.float64))


def test_random_bit_patterns_match_percent():
    bits = np.random.default_rng(17).integers(0, 2 ** 64, 50_000, dtype=np.uint64)
    _assert_matches_percent(bits.view(np.float64))


def test_exact_ties_take_their_rounding():
    # the 18th significant digit is an exact 5: Python rounds half to even
    ties = np.array([1234567890123456.75, 1234567890123456.25, 0.5 + 2.0 ** -52,
                     2.0 ** 60 + 2.0 ** 8, 9007199254740993.0 * 2.0 ** 3])
    _assert_matches_percent(np.concatenate([ties, -ties]))
    assert _texts(g17.cells(np.array([1234567890123456.75]))) == ["1234567890123456.8"]


def test_roundings_that_carry_into_the_next_power_of_ten():
    below = np.array([np.nextafter(10.0 ** p, 0.0) for p in range(-30, 31)])
    nines = np.array([float(f"9.99999999999999999{d}e{p}") for p in range(-12, 24)
                      for d in range(10)])
    _assert_matches_percent(np.concatenate([below, nines, -nines]))
    assert _texts(g17.cells(np.array([0.99999999999999999]))) == ["1"]


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{p}") for p in range(-300, 301)])
    x = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    _assert_matches_percent(np.concatenate([x, -x]))


def test_subnormals_zeros_infinities_and_nan():
    tiny = np.array([5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308])
    x = np.concatenate([tiny, -tiny, [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]])
    _assert_matches_percent(x)
    assert _texts(g17.cells(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))) == [
        "0", "-0", "inf", "-inf", "nan"]


@pytest.mark.parametrize("limit", [g17._FAST_MIN, g17._FAST_MAX])
def test_both_fast_range_limits(limit):
    x = np.array([limit, np.nextafter(limit, 0.0), np.nextafter(limit, np.inf)])
    _assert_matches_percent(np.concatenate([x, -x]))


def test_fixed_and_exponent_notation_at_every_digit_count():
    # every layout class: k from -6 to 18 and 1 to 17 significant digits
    digits = "12345678901234567"
    x = np.array([float(f"{digits[:nd]}e{p}") for nd in range(1, 18) for p in range(-40, 30)])
    _assert_matches_percent(np.concatenate([x, -x, x * 1e250, x * 1e-250]))


def test_cells_keep_the_shape_of_their_array():
    x = np.arange(6.0).reshape(2, 3) / 7.0
    cells = g17.cells(x)
    assert cells.shape == (2, 3, g17.WIDTH)
    assert _texts(cells) == ["%.17g" % v for v in x.ravel().tolist()]
