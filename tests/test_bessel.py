"""Miller-recurrence Bessel ladder against series, identity and scipy checks."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from conftest import (
    bessel_ladder_reference,
    bessel_ladder_reference_paired,
    bessel_series,
    peak_bytes,
)
from spinring.bessel import _LANE, _LANE_CHUNK, _lane_split, _start_order, bessel_j_ladder
from spinring.ring import MAX_GRID_POINTS


def test_j0_at_origin():
    assert bessel_j_ladder(0, 0.0)[0] == 1.0
    assert bessel_j_ladder(3, 0.0)[3] == 0.0


def test_small_argument_against_ascending_series():
    assert abs(bessel_j_ladder(5, 1.0)[5] - bessel_series(5, 1.0)) <= 1e-13
    for n in (0, 1, 2, 7):
        for x in (0.1, 0.5, 1.5, 2.0):
            assert abs(bessel_j_ladder(n, x)[n] - bessel_series(n, x)) <= 1e-13


def test_three_term_recurrence_residual():
    rng = np.random.default_rng(21)
    for _ in range(40):
        x = float(rng.uniform(0.05, 3000.0))
        n = int(rng.integers(1, int(x + 50 * x ** (1 / 3) + 100)))
        lad = bessel_j_ladder(n + 1, x)
        resid = abs(lad[n - 1] + lad[n + 1] - (2 * n / x) * lad[n])
        assert resid <= 1e-10


def test_wide_range_against_scipy():
    rng = np.random.default_rng(22)
    for _ in range(60):
        x = float(rng.uniform(0.0, 12000.0))
        n_cap = int(x + 50 * x ** (1 / 3) + 100)
        n = int(rng.integers(0, n_cap + 1))
        assert abs(bessel_j_ladder(n, x)[n] - jv(n, x)) <= 1e-12


def test_turning_point_region_at_contract_edge():
    x = 12000.0
    lad = bessel_j_ladder(int(x + 50 * x ** (1 / 3) + 100), x)
    ns = np.arange(len(lad))
    assert np.max(np.abs(lad - jv(ns, x))) <= 1e-12


def test_ladder_consistent_with_scalar():
    # sweeps of different lengths start at different trial orders, so the
    # results agree to rounding, not bit for bit
    lad = bessel_j_ladder(40, 17.25)
    for n in (0, 7, 40):
        assert abs(bessel_j_ladder(n, 17.25)[n] - lad[n]) <= 1e-13


def test_tiny_argument_series_branch():
    for n in (0, 1, 4):
        assert abs(bessel_j_ladder(n, 1e-8)[n] - bessel_series(n, 1e-8)) <= 1e-20


def test_deep_tail_underflows_to_zero():
    # true magnitude ~1e-1100; zero satisfies the absolute-error contract
    assert bessel_j_ladder(500, 1.0)[500] == 0.0


def bits(values):
    return np.asarray(values).view(np.int64)


def assert_is_the_sweep(n_max, x):
    # bit for bit the lane sweep restated one order at a time, and within
    # rounding of the former all-scalar sweep
    lad = bessel_j_ladder(n_max, x)
    assert np.array_equal(bits(lad), bits(bessel_ladder_reference(n_max, x)))
    assert np.max(np.abs(lad - bessel_ladder_reference_paired(n_max, x))) <= 1e-14


@settings(max_examples=150, deadline=None)
@given(
    log_x=st.floats(math.log(1e-6), math.log(12000.0)),
    reach=st.floats(0.0, 1.0),
    odd_top=st.booleans(),
)
def test_ladder_is_the_scalar_sweep_bit_for_bit(log_x, reach, odd_top):
    # orders up to ~2x + 2000 run far enough past the turning point that the
    # trial values pass 1e250 and the sweep rescales, often many times
    x = min(max(math.exp(log_x), 1e-6), 12000.0)
    n_max = int(reach * (2.0 * x + 2000.0))
    if (_start_order(n_max, x) - 1) % 2 != odd_top:
        # one order past max(n_max, x) moves the sweep's start by one
        n_max = max(n_max, math.ceil(x)) + 1
    assert (_start_order(n_max, x) - 1) % 2 == odd_top
    assert_is_the_sweep(n_max, x)


@pytest.mark.parametrize(
    "n_max, x",
    [(2000, 3.0), (2001, 3.0), (4000, 1.0), (4001, 1.0), (0, 1e-6), (30000, 1.5e-6),
     (0, 12000.0), (1, 12000.0), (12345, 11999.5), (40, 17.25),
     # no lane and one lane below the split; one chunk of lanes and one lane more
     (100, 21.0), (100, 22.5), (0, 4130.0), (0, 4150.0)],
)
def test_rescale_heavy_and_edge_ladders_are_bit_for_bit(n_max, x):
    assert_is_the_sweep(n_max, x)


def test_edge_ladders_reach_the_lane_and_chunk_boundaries():
    assert _lane_split(21.0) == 0
    assert _lane_split(22.5) == _LANE
    assert _lane_split(4130.0) == _LANE * _LANE_CHUNK
    assert _lane_split(4150.0) == _LANE * (_LANE_CHUNK + 1)


# (x, orders): each side of the split between the scalar sweep and the lanes,
# int(x) +- 1 and the turning point, and the Bessel route's series cut
# x + 20*max(x^(1/3), 2); at x = 12000 the order next to the turning point
# takes mpmath ~0.7 s, so it gets one
MPMATH_POINTS = [
    (8.1, (8, 48)),
    (100.5, (79, 80, 81, 101)),
    (2000.5, (1967, 1968, 1969, 1999, 2000, 2001, 2252)),
    (12000.0, (0, 12001)),
]


def test_ladder_against_forty_digits():
    for x, orders in MPMATH_POINTS:
        lad = bessel_j_ladder(max(orders), x)
        for n in orders:
            with mpmath.workdps(40):
                exact = mpmath.besselj(n, mpmath.mpf(x), maxprec=20000)
            assert abs(lad[n] - float(exact)) <= 1e-13, (n, x)
    # the points sit where they say
    assert _lane_split(100.5) == 80 and _lane_split(2000.5) == 1968
    assert int(2000.5 + 20.0 * 2000.5 ** (1.0 / 3.0)) == 2252


def test_ladder_stores_eight_bytes_per_order():
    # the returned ladder is a view of the sweep's own buffer; a list of
    # Python floats would take 32 bytes an order, a copy at the end 16.
    # Tracing slows every float operation ~10x, so the ladder is 10^5 orders
    # long; the peak per order is the same at 10^6 (about 1.0 x 8 bytes)
    orders = 100_000
    ladders = []
    peak = peak_bytes(lambda: ladders.append(bessel_j_ladder(orders - 1, 1e5)))
    assert ladders[0].shape == (orders,)
    assert peak < 1.5 * 8 * orders


def test_oversized_ladder_is_refused_before_allocation():
    with pytest.raises(ValueError, match="Bessel ladder"):
        bessel_j_ladder(10**12, 1.0)
    # the sweep starts above the argument, so a short ladder at a huge
    # argument is just as long
    with pytest.raises(ValueError, match="Bessel ladder"):
        bessel_j_ladder(0, float(MAX_GRID_POINTS))


def test_input_validation():
    with pytest.raises(ValueError):
        bessel_j_ladder(-1, 1.0)
    for n_max in (2.0, 2.5, True, "3"):
        with pytest.raises(ValueError, match="integer"):
            bessel_j_ladder(n_max, 1.0)
    with pytest.raises(ValueError):
        bessel_j_ladder(1, -1.0)
    with pytest.raises(ValueError):
        bessel_j_ladder(1, float("nan"))
