"""Miller-recurrence Bessel ladder against series, identity and scipy checks."""

import numpy as np
import pytest
from scipy.special import jv

from conftest import bessel_series
from spinring.bessel import bessel_j_ladder


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


def test_input_validation():
    with pytest.raises(ValueError):
        bessel_j_ladder(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_j_ladder(1, -1.0)
    with pytest.raises(ValueError):
        bessel_j_ladder(1, float("nan"))
