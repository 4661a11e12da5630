"""Half-flux diametric blocking: the theorem, its mechanism, and its limits."""

import math

import numpy as np
import pytest

from conftest import bessel_pair_coefficients, mode_energies
from spinring import blockage
from spinring.amplitude import xi, xi_profile
from spinring.blockage import BLOCKED_XI, verify_blockage
from spinring.ring import RingConfig, _mode_cosines

ROOT2 = math.sqrt(2.0)


def switch_contrast(quarter_rings, beta):
    """(xi with flux open, f = 0; xi with flux closed, f = 1/2) for the diametric receiver."""
    n, d = 4 * quarter_rings, 2 * quarter_rings
    return xi(RingConfig(n, f=0.0), d, beta), xi(RingConfig(n, f=0.5), d, beta)


def test_blocked_at_fixed_samples():
    for quarter in (1, 2):
        rep = verify_blockage(quarter, [math.pi, ROOT2 * math.pi, 17.3, 4999.0])
        assert rep.analytic_zero
        assert rep.max_xi_over_samples <= BLOCKED_XI
        assert rep.n == 4 * quarter and rep.d == 2 * quarter


def test_blocked_at_random_samples_all_sizes():
    rng = np.random.default_rng(41)
    for quarter in (1, 2, 3, 4):
        rep = verify_blockage(quarter, rng.uniform(0.0, 5000.0, 200))
        assert rep.analytic_zero
        assert rep.max_xi_over_samples <= BLOCKED_XI


def test_ladder_coefficients_cancel_term_by_term():
    for quarter in (1, 2, 3, 4, 9):
        assert np.max(np.abs(bessel_pair_coefficients(quarter, 32))) <= 1e-14


def unfolded_mode_cosines(n, f):
    """`_mode_cosines` without its fold: the rates of a degenerate pair, computed
    at x and N - x, may differ in their last bits."""
    x = np.mod(np.arange(1, n + 1) + math.remainder(f, n), n)
    return np.cos(2.0 * np.pi * x / n)


def test_analytic_check_reads_the_kernels_own_modes(monkeypatch):
    # without the fold some half-flux pairs are no longer bit-equal: the kernel
    # then sums distinct rates, the exact check refuses, and the samples,
    # whose rounding hides a difference of a few ulps, still pass
    rng = np.random.default_rng(44)
    monkeypatch.setattr(blockage, "_mode_cosines", unfolded_mode_cosines)
    for quarter in (1, 2, 3, 4):
        n = 4 * quarter
        assert len(np.unique(unfolded_mode_cosines(n, 0.5))) > n // 2
        rep = verify_blockage(quarter, rng.uniform(0.0, 5000.0, 50))
        assert not rep.analytic_zero
        assert rep.max_xi_over_samples <= BLOCKED_XI


@pytest.mark.parametrize("quarter", [1, 2, 3])
def test_analytic_check_fails_a_twist_off_half_flux(monkeypatch, quarter):
    # a negative control that can fail: 1e-10 off half flux no two rates are
    # equal, so no class pairs up, though a short time hides the leak
    monkeypatch.setattr(blockage, "_mode_cosines", lambda n, f: _mode_cosines(n, f + 1e-10))
    assert len(np.unique(blockage._mode_cosines(4 * quarter, 0.5))) == 4 * quarter
    rep = verify_blockage(quarter, [3.0])
    assert not rep.analytic_zero
    assert rep.max_xi_over_samples < 1e-9


def test_exact_rule_matches_the_sampled_profiles_on_every_small_channel():
    # every channel of N = 3..16, d = 1..N-1 and f in {k/16} and 0.3141: the
    # exact verdict is blocked exactly where xi stays <= 1e-6 over beta <= 200,
    # and that is the diametric channel of an even ring at half flux
    blocked, channels = [], 0
    for n in range(3, 17):
        for f in [k / 16 for k in range(16)] + [0.3141]:
            cfg = RingConfig(n, f=f)
            for d in range(1, n):
                quiet = float(xi_profile(cfg, d, 0.0, 0.05, 4001).max()) <= 1e-6
                assert blockage._blocked(n, d, f) == quiet, (n, d, f)
                blocked += [(n, d, f)] * quiet
                channels += 1
    assert channels == 2023
    assert blocked == [(n, n // 2, 0.5) for n in range(4, 17, 2)]


@pytest.mark.parametrize("n", [4, 6, 9, 16])
def test_return_channel_is_never_blocked(n):
    # d = 0 and its alias d = N: at half flux every pair of an even ring has
    # equal weights there, so the classes add up instead of cancelling
    for d in (0, n):
        assert not blockage._blocked(n, d, 0.5)
        assert xi(RingConfig(n, f=0.5), d, 0.0) == 1.0


def test_spectral_mechanism_degenerate_pairs():
    # at half flux the levels pair up (m with N-1-m) and the diametric DFT
    # weights of each pair sum to zero, at any time
    rng = np.random.default_rng(42)
    for quarter in (1, 2, 3):
        n, d = 4 * quarter, 2 * quarter
        cfg = RingConfig(n, f=0.5)
        energies = mode_energies(cfg)
        t = float(rng.uniform(0.0, 1000.0))
        m = np.arange(1, n + 1)
        summands = np.exp(-1j * energies * t) * np.exp(2j * np.pi * d * m / n)
        for level in np.unique(energies):
            group = summands[energies == level]
            assert len(group) == 2
            assert abs(group.sum()) <= 1e-14


def test_diametric_blocking_holds_for_every_even_ring():
    """The cancellation needs only N even, not N divisible by 4.

    For any even N at half flux, modes m and N-1-m are exactly degenerate
    while the diametric weights exp(i*pi*m) alternate sign, so the pair sums
    vanish for all times; N = 6 is as blocked as N = 4 or 8.
    """
    assert xi_profile(RingConfig(6, f=0.5), 3, 0.0, 0.01, 5001).max() <= 1e-12
    assert xi_profile(RingConfig(10, f=0.5), 5, 0.0, 0.01, 5001).max() <= 1e-12


def test_off_diameter_receiver_still_hears():
    # the pairing argument needs d = N/2; two sites short of the diameter the
    # channel stays loud even at half flux
    assert xi_profile(RingConfig(8, f=0.5), 2, 0.0, 0.01, 10001).max() > 0.1


def test_switch_contrast_perfect_at_pi():
    xi_open, xi_closed = switch_contrast(1, math.pi)
    assert xi_open == pytest.approx(1.0, abs=1e-12)
    assert xi_closed <= BLOCKED_XI


def test_switch_contrast_trivial_at_zero():
    xi_open, xi_closed = switch_contrast(1, 0.0)
    assert xi_open <= 1e-15
    assert xi_closed <= 1e-15


def test_switch_contrast_eight_ring_best_window():
    profile = xi_profile(RingConfig(8, f=0.0), 4, 0.0, 0.01, 20001)
    best = int(np.argmax(profile)) * 0.01
    xi_open, xi_closed = switch_contrast(2, best)
    assert xi_open > 0.5
    assert xi_closed <= BLOCKED_XI


def test_empty_sample_set_is_rejected():
    # a maximum over no samples would read 0 and pass the check vacuously
    with pytest.raises(ValueError):
        verify_blockage(1, [])


def test_validation():
    with pytest.raises(ValueError):
        verify_blockage(0, [1.0])
    with pytest.raises(ValueError):
        verify_blockage(2, [float("inf")])
    with pytest.raises(ValueError):
        verify_blockage(2, [1.0, -0.5])


def test_sampled_maximum_has_the_bits_of_the_per_sample_loop(monkeypatch):
    monkeypatch.setattr(blockage, "_SAMPLE_BLOCK", 7)  # samples span many blocks
    rng = np.random.default_rng(43)
    for quarter in (1, 2, 3, 4):
        samples = np.concatenate(([0.0, -0.0, math.pi], rng.uniform(0.0, 5000.0, 97)))
        cfg = RingConfig(4 * quarter, f=0.5)
        loop = max(xi(cfg, 2 * quarter, b) for b in samples)
        worst = verify_blockage(quarter, samples).max_xi_over_samples
        assert np.float64(worst).view(np.int64) == np.float64(loop).view(np.int64)
