"""Half-flux diametric blocking: the theorem, its mechanism, and its limits."""

import math

import numpy as np
import pytest

from conftest import mode_energies
from spinring import amplitude, blockage
from spinring.amplitude import AmplitudeQuery, amplitude_bessel, xi, xi_profile
from spinring.blockage import BLOCKED_XI, bessel_pair_coefficients, verify_blockage
from spinring.ring import RingConfig

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


def test_analytic_check_reads_the_routes_own_ladders(monkeypatch):
    # drop the second ladder's flux factor exp(2*pi*i*f) in the one place the
    # coefficients are written: the Bessel route and the analytic check both break
    ladders = amplitude.bessel_ladders

    def without_flux_factor(n, d, f):
        first, (base, _, turns) = ladders(n, d, f)
        return first, (base, (1j) ** (base % 4), turns)

    query = AmplitudeQuery(RingConfig(8, f=0.5), r=5, s=1, beta=3.0)
    assert amplitude_bessel(query).xi <= BLOCKED_XI
    monkeypatch.setattr(amplitude, "bessel_ladders", without_flux_factor)
    monkeypatch.setattr(blockage, "bessel_ladders", without_flux_factor)
    assert amplitude_bessel(query).xi > 0.1
    assert not verify_blockage(2, [3.0]).analytic_zero
    assert np.max(np.abs(bessel_pair_coefficients(2, 32))) > 1.0


@pytest.mark.parametrize("quarter", [1, 2, 3])
def test_analytic_check_fails_a_twist_off_half_flux(monkeypatch, quarter):
    # a negative control that can fail: 1e-10 off half flux the pair sums read
    # ~1.9e-8, far above the check's tolerance but far below any loose one
    ladders = amplitude.bessel_ladders
    monkeypatch.setattr(blockage, "bessel_ladders", lambda n, d, f: ladders(n, d, f + 1e-10))
    assert 1e-9 < np.max(np.abs(bessel_pair_coefficients(quarter))) < 1e-7
    assert not verify_blockage(quarter, [3.0]).analytic_zero


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
