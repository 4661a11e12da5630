"""Sector Hamiltonian, analytic spectrum, and the two propagation oracles."""

import math
import warnings

import numpy as np
import pytest

from conftest import full_space_oracle, mode_energies, single_bond_hamiltonian
from spinring.amplitude import AmplitudeQuery
from spinring.ring import (
    RingConfig,
    build_hamiltonian,
    propagate_oracle,
    site_state,
)

ROOT2 = math.sqrt(2.0)


def random_state(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def test_config_validation():
    with pytest.raises(ValueError):
        RingConfig(2)
    with pytest.raises(ValueError):
        RingConfig(5, j=0.0)
    with pytest.raises(ValueError):
        RingConfig(5, j=-1.0)
    with pytest.raises(ValueError):
        RingConfig(5, f=float("nan"))
    with pytest.raises(ValueError):
        RingConfig(5, b=float("inf"))
    with pytest.raises(ValueError):
        RingConfig(5.0)  # type: ignore[arg-type]


def test_square_ring_untwisted_matrix():
    h = build_hamiltonian(RingConfig(4))
    assert np.all(np.diag(h) == 0)
    assert h[1, 0] == -2.0
    assert h[0, 3] == -2.0
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(h)), [-4, 0, 0, 4], atol=1e-12)


def test_square_ring_half_flux_eigenvalues():
    # forced by the dispersion -4*cos(2*pi*(m+1/2)/4): two +-2*sqrt(2) pairs
    h = build_hamiltonian(RingConfig(4, f=0.5))
    expected = [-2 * ROOT2, -2 * ROOT2, 2 * ROOT2, 2 * ROOT2]
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(h)), expected, atol=1e-12)


def test_hermitian_exactly_as_built():
    rng = np.random.default_rng(3)
    for _ in range(8):
        cfg = RingConfig(int(rng.integers(3, 17)), f=float(rng.uniform(-1, 1)),
                         b=float(rng.uniform(-2, 2)))
        for h in (build_hamiltonian(cfg), single_bond_hamiltonian(cfg)):
            assert np.array_equal(h, h.conj().T)


def test_dense_spectrum_matches_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(10):
        cfg = RingConfig(int(rng.integers(3, 25)), j=float(rng.uniform(0.2, 3.0)),
                         b=float(rng.uniform(-2, 2)), f=float(rng.uniform(-1, 1)))
        dense = np.sort(np.linalg.eigvalsh(build_hamiltonian(cfg)))
        closed = np.sort(mode_energies(cfg))
        np.testing.assert_allclose(dense, closed, atol=1e-11)


def test_quarter_twist_pentagon_energies():
    cfg = RingConfig(5, f=-0.25)
    m = np.arange(1, 6)
    expected = -4 * np.cos(2 * np.pi * (m - 0.25) / 5) - 1.0
    np.testing.assert_allclose(np.sort(mode_energies(cfg)), np.sort(expected), atol=1e-12)
    # m = 4 mode of the untwisted square ring sits at the band bottom
    assert mode_energies(RingConfig(4))[3] == pytest.approx(-4.0, abs=1e-12)


def test_mode_vectors_orthonormal_flat_and_eigen():
    for cfg in (RingConfig(4, f=0.5), RingConfig(7, f=-0.25), RingConfig(12, f=0.3137)):
        # uniform gauge: the DFT columns exp(2*pi*i*m*site/N)/sqrt(N), m = 1..N
        sites = np.arange(1, cfg.n + 1)
        v = np.exp(2j * np.pi * np.outer(sites, sites) / cfg.n) / math.sqrt(cfg.n)
        gram = v.conj().T @ v
        assert np.max(np.abs(gram - np.eye(cfg.n))) <= 1e-12
        assert np.max(np.abs(np.abs(v) - 1 / math.sqrt(cfg.n))) <= 1e-12
        h = build_hamiltonian(cfg)
        resid = h @ v - v * mode_energies(cfg)
        assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-11


def test_twist_periodicity_of_spectrum():
    for f in (0.0, 0.3137, -0.25):
        e0 = np.sort(np.linalg.eigvalsh(build_hamiltonian(RingConfig(9, f=f))))
        e1 = np.sort(np.linalg.eigvalsh(build_hamiltonian(RingConfig(9, f=f + 1.0))))
        np.testing.assert_allclose(e0, e1, atol=1e-12)


def test_gauge_loop_phase_matches():
    # the product of the hops once around the ring, 1 -> 2 -> ... -> N -> 1,
    # is the gauge-invariant content of the twist: (-2J)^N exp(-2*pi*i*f)
    cfg = RingConfig(6, f=0.37)
    for h in (build_hamiltonian(cfg), single_bond_hamiltonian(cfg)):
        loop = np.prod([h[(k + 1) % cfg.n, k] for k in range(cfg.n)]) / (-2.0 * cfg.j) ** cfg.n
        assert loop == pytest.approx(np.exp(-2j * np.pi * 0.37), abs=1e-12)


def test_propagate_identity_at_beta_zero():
    psi0 = site_state(6, 2)
    out = propagate_oracle(RingConfig(6, f=0.2), psi0, 0.0)
    np.testing.assert_allclose(out, psi0, atol=1e-13)


def test_square_ring_transfer_and_revival():
    # beta = pi swaps the excitation to the diametric site at zero flux
    out = propagate_oracle(RingConfig(4), site_state(4, 1), math.pi)
    assert abs(out[2]) == pytest.approx(1.0, abs=1e-12)
    # at half flux the excitation refocuses on its start site at beta = sqrt(2)*pi
    out = propagate_oracle(RingConfig(4, f=0.5), site_state(4, 1), ROOT2 * math.pi)
    assert abs(out[0]) == pytest.approx(1.0, abs=1e-12)


def test_propagation_preserves_norm():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(3, 20))
        cfg = RingConfig(n, f=float(rng.uniform(-1, 1)), b=float(rng.uniform(-2, 2)))
        out = propagate_oracle(cfg, random_state(rng, n), float(rng.uniform(0, 500)))
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_gauge_invariance_of_propagator_magnitudes():
    # the two gauges differ by a diagonal unitary, so every |<r|U(t)|s>| must
    # coincide (localized starts; superpositions would need gauge transport)
    rng = np.random.default_rng(12)
    for _ in range(8):
        n = int(rng.integers(3, 13))
        cfg = RingConfig(n, f=float(rng.uniform(-1, 1)))
        beta = float(rng.uniform(0, 50))
        t = beta / (4 * cfg.j)
        mags = []
        for h in (build_hamiltonian(cfg), single_bond_hamiltonian(cfg)):
            w, v = np.linalg.eigh(h)
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            mags.append(np.abs(u))
        assert np.max(np.abs(mags[0] - mags[1])) <= 1e-12


def test_field_only_shifts_global_phase():
    rng = np.random.default_rng(13)
    psi0 = random_state(rng, 7)
    out0 = propagate_oracle(RingConfig(7, f=0.2, b=0.0), psi0, 33.0)
    out1 = propagate_oracle(RingConfig(7, f=0.2, b=7.3), psi0, 33.0)
    assert np.max(np.abs(np.abs(out0) - np.abs(out1))) <= 1e-12


def test_full_space_matches_sector_propagator():
    cases = [(4, 0.0, math.pi, 1), (5, 0.25, 10.0, 2), (6, -0.4, 31.0, 3)]
    rng = np.random.default_rng(14)
    for _ in range(3):
        cases.append((int(rng.integers(4, 9)), float(rng.uniform(-0.5, 0.5)),
                      float(rng.uniform(0, 50)), 1))
    for n, f, beta, s in cases:
        cfg = RingConfig(n, f=f)
        psi0 = site_state(n, s)
        sector = propagate_oracle(cfg, psi0, beta)
        full = full_space_oracle(cfg, psi0, beta)
        assert np.max(np.abs(np.abs(sector) - np.abs(full))) <= 1e-10
        # magnetization conservation: nothing leaks out of the sector
        assert abs(np.linalg.norm(full) ** 2 - 1.0) < 1e-12


def test_full_space_size_guard():
    with pytest.raises(ValueError):
        full_space_oracle(RingConfig(11), site_state(11, 1), 1.0)


def test_state_validation():
    with pytest.raises(ValueError):
        propagate_oracle(RingConfig(4), np.array([1.0, 1.0, 0, 0]), 1.0)
    with pytest.raises(ValueError):
        propagate_oracle(RingConfig(4), site_state(4, 1), -1.0)
    with pytest.raises(ValueError):
        propagate_oracle(RingConfig(4), site_state(4, 1), float("nan"))
    with pytest.raises(ValueError):
        site_state(4, 5)


@pytest.mark.parametrize(
    "config, beta",
    [
        (RingConfig(5, j=1e-320), 10.0),
        (RingConfig(5, b=1e308), 10.0),
        (RingConfig(5), -1.0),
        (RingConfig(5), math.nan),
        (RingConfig(5), math.inf),
    ],
    ids=["j", "b", "beta=-1", "beta=nan", "beta=inf"],
)
def test_oracle_refuses_a_time_or_phase_that_overflows(config, beta):
    # t = beta/(4J) overflows for a subnormal coupling, D*t for a huge field,
    # and a beta that is not finite and >= 0 is no time at all; every warning
    # is an error here, so a nan result cannot slip through.  The query and
    # the oracle refuse it with the same message.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite") as query:
            AmplitudeQuery(config, 1, 1, beta)
        with pytest.raises(ValueError, match="must be finite") as oracle:
            propagate_oracle(config, site_state(5, 1), beta)
    assert str(oracle.value) == str(query.value)
