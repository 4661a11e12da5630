"""Spectral vs Bessel vs matrix-propagator amplitudes and their symmetries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import single_bond_hamiltonian
from spinring.amplitude import (
    AmplitudeQuery,
    SpectralKernel,
    amplitude_bessel,
    amplitude_oracle,
    amplitude_spectral,
    _clip_xi,
    xi,
    xi_batch,
    xi_profile,
)
from spinring.bessel import bessel_j_ladder
from spinring.cli import PUBLISHED_WINDOWS
from spinring.ring import RingConfig, _mode_cosines, propagate_oracle, site_state


def query(n, d, f, beta, **cfg):
    return AmplitudeQuery(RingConfig(n, f=f, **cfg), r=(d % n) + 1, s=1, beta=beta)


def test_no_evolution_is_a_delta():
    rng = np.random.default_rng(31)
    for _ in range(6):
        n = int(rng.integers(3, 20))
        f = float(rng.uniform(-0.5, 0.5))
        assert xi(RingConfig(n, f=f), 0, 0.0) == pytest.approx(1.0, abs=1e-12)
        d = int(rng.integers(1, n))
        assert xi(RingConfig(n, f=f), d, 0.0) <= 1e-15


def test_published_window_values():
    # quoted optimum windows of the 5- and 7-site rings, xi to 4 decimals
    assert xi(RingConfig(5, f=-0.25), 1, 1214.3) == pytest.approx(0.9998, abs=2e-3)
    assert xi(RingConfig(5, f=0.25), 3, 162.51) == pytest.approx(0.9999, abs=2e-3)
    assert xi(RingConfig(7, f=0.25), 2, 1942.6) == pytest.approx(0.9994, abs=2e-3)
    assert xi(RingConfig(5, f=-0.25), 2, 162.51) == pytest.approx(0.9999, abs=2e-3)


def test_square_ring_perfect_transfer_time():
    assert xi(RingConfig(4), 2, math.pi) == pytest.approx(1.0, abs=1e-12)


def test_methods_agree_on_random_instances():
    rng = np.random.default_rng(32)
    for _ in range(120):
        n = int(rng.integers(3, 31))
        q = query(
            n,
            int(rng.integers(0, n)),
            float(rng.uniform(-0.5, 0.5)),
            float(rng.uniform(0.0, 5000.0)),
        )
        xs = amplitude_spectral(q).xi
        xb = amplitude_bessel(q).xi
        xo = amplitude_oracle(q).xi
        assert abs(xs - xb) <= 1e-8
        assert abs(xs - xo) <= 1e-8
        assert abs(xb - xo) <= 1e-8


def test_routes_agree_in_complex_value():
    # all three routes return the uniform-gauge amplitude, global phase included
    rng = np.random.default_rng(39)
    cases = [(n, d, f, beta, 1.0, 0.0) for n, d, f, beta, _ in PUBLISHED_WINDOWS]
    for _ in range(60):
        n = int(rng.integers(3, 21))
        cases.append((
            n,
            int(rng.integers(0, n)),
            float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(0.0, 5000.0)),
            float(rng.uniform(0.5, 2.0)),
            float(rng.uniform(-2.0, 2.0)),
        ))
    for n, d, f, beta, j, b in cases:
        q = query(n, d, f, beta, j=j, b=b)
        oracle = amplitude_oracle(q).value
        assert abs(amplitude_spectral(q).value - oracle) <= 1e-10
        assert abs(amplitude_bessel(q).value - oracle) <= 1e-10


def test_bessel_route_blocked_square_ring():
    for beta in (1.0, 10.0, 100.0, 1000.0):
        assert amplitude_bessel(query(4, 2, 0.5, beta)).xi <= 1e-12


def test_bessel_matches_spectral_at_published_window():
    q = query(5, 2, -0.25, 162.51)
    assert abs(amplitude_bessel(q).xi - amplitude_spectral(q).xi) <= 1e-9


def test_large_ring_reduces_to_single_bessel_order():
    # for N = 200 the ladder's higher rungs are beyond reach within beta <= 20
    for beta in (0.5, 10.0, 20.0):
        q = query(200, 3, 0.3, beta)
        ref = abs(bessel_j_ladder(3, beta)[3])
        assert abs(amplitude_bessel(q).xi - ref) <= 1e-6
        assert abs(amplitude_spectral(q).xi - ref) <= 1e-6


def test_unitarity_column_sums():
    rng = np.random.default_rng(33)
    for _ in range(8):
        n = int(rng.integers(3, 25))
        cfg = RingConfig(n, f=float(rng.uniform(-0.5, 0.5)))
        beta = float(rng.uniform(0.0, 3000.0))
        total = sum(
            amplitude_spectral(AmplitudeQuery(cfg, r=r, s=1, beta=beta)).xi ** 2
            for r in range(1, n + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


def test_translation_invariance():
    rng = np.random.default_rng(34)
    cfg = RingConfig(9, f=0.31)
    for _ in range(6):
        r, s = (int(v) for v in rng.integers(1, 10, size=2))
        beta = float(rng.uniform(0.0, 300.0))
        a = amplitude_spectral(AmplitudeQuery(cfg, r=r, s=s, beta=beta))
        b = amplitude_spectral(
            AmplitudeQuery(cfg, r=r % 9 + 1, s=s % 9 + 1, beta=beta)
        )
        assert abs(a.xi - b.xi) <= 1e-12


def test_reflection_twist_symmetry():
    rng = np.random.default_rng(35)
    for _ in range(20):
        n = int(rng.integers(3, 21))
        d = int(rng.integers(0, n))
        f = float(rng.uniform(-0.5, 0.5))
        beta = float(rng.uniform(0.0, 100.0))
        lhs = xi(RingConfig(n, f=f), d, beta)
        rhs = xi(RingConfig(n, f=-f), n - d, beta)
        assert abs(lhs - rhs) <= 1e-12


def test_untwisted_ring_is_direction_blind():
    rng = np.random.default_rng(36)
    for _ in range(12):
        n = int(rng.integers(3, 15))
        d = int(rng.integers(1, n))
        beta = float(rng.uniform(0.0, 100.0))
        assert abs(xi(RingConfig(n), d, beta) - xi(RingConfig(n), n - d, beta)) <= 1e-12


def test_quarter_twist_breaks_direction_symmetry():
    # the twist gives the excitation net momentum: on the 5-ring at f = 0.25
    # the two equidistant receivers see very different amplitudes
    cfg = RingConfig(5, f=0.25)
    betas = np.arange(0.0, 50.0001, 0.01)
    gap = np.abs(xi_profile(cfg, 1, betas) - xi_profile(cfg, 4, betas))
    assert gap.max() > 0.1


def test_twist_periodicity():
    rng = np.random.default_rng(37)
    for _ in range(12):
        n = int(rng.integers(3, 18))
        d = int(rng.integers(0, n))
        f = float(rng.uniform(-0.5, 0.5))
        beta = float(rng.uniform(0.0, 100.0))
        assert abs(xi(RingConfig(n, f=f), d, beta) - xi(RingConfig(n, f=f + 1.0), d, beta)) <= 1e-12


def test_field_independence_of_xi():
    rng = np.random.default_rng(38)
    for _ in range(10):
        n = int(rng.integers(3, 18))
        d = int(rng.integers(0, n))
        beta = float(rng.uniform(0.0, 5000.0))
        a = xi(RingConfig(n, f=0.2, b=0.0), d, beta)
        b = xi(RingConfig(n, f=0.2, b=7.3), d, beta)
        assert abs(a - b) <= 1e-12


def test_displacement_reduced_mod_n():
    cfg = RingConfig(6, f=0.1)
    assert xi(cfg, 2, 17.0) == xi(cfg, 8, 17.0)
    assert xi(cfg, -4, 17.0) == xi(cfg, 2, 17.0)


def test_profile_matches_scalar_route():
    cfg = RingConfig(7, f=-0.25)
    betas = np.linspace(0.0, 80.0, 257)
    prof = xi_profile(cfg, 3, betas)
    for k in (0, 100, 256):
        assert prof[k] == pytest.approx(xi(cfg, 3, float(betas[k])), abs=1e-14)


def test_magnitude_clipping_rule():
    assert _clip_xi(1.0 + 5e-13) == 1.0
    with pytest.raises(ValueError):
        _clip_xi(1.0 + 1e-11)


def test_query_validation():
    cfg = RingConfig(5)
    with pytest.raises(ValueError):
        AmplitudeQuery(cfg, r=0, s=1, beta=1.0)
    with pytest.raises(ValueError):
        AmplitudeQuery(cfg, r=1, s=6, beta=1.0)
    with pytest.raises(ValueError):
        AmplitudeQuery(cfg, r=1, s=1, beta=-2.0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 16),
    f=st.floats(-1.0, 1.0),
    b0=st.floats(0.0, 1000.0),
    h=st.floats(1e-3, 0.5),
    count=st.one_of(st.sampled_from([1, 2, 3, 1009, 1999]), st.integers(1, 2000)),
)
def test_kernel_grid_matches_pointwise_sums(n, f, b0, h, count):
    # beta <= 2000 keeps the phase rounding of either route under 1e-12
    kernel = SpectralKernel(_mode_cosines(n, f), range(n))
    betas = b0 + h * np.arange(count)
    pointwise = np.array([kernel.xi(float(b)) for b in betas]).T
    assert np.max(np.abs(kernel.xi_grid(b0, h, count) - pointwise)) <= 1e-12
    # shuffled, the same times leave the grid and are summed point by point
    order = np.random.default_rng(count).permutation(count)
    profile = xi_profile(RingConfig(n, f=f), 1, betas[order])
    assert np.max(np.abs(profile - pointwise[1, order])) <= 1e-12


@pytest.mark.parametrize(
    "n, betas",
    [
        # 1e14 times in rows of 1e7: the 1e5 x 1e7 baby-step block would be 16 TB
        (100_000, {"b0": 0.0, "h": 1.0, "count": 10**14}),
        # 65,536 scattered times at once over 2e6 modes would be 2 TB
        (2_000_000, np.random.default_rng(1).uniform(0.0, 10.0, 65_536)),
    ],
    ids=["baby-steps", "point-block"],
)
def test_kernel_refuses_a_phase_block_before_allocating(n, betas):
    kernel = SpectralKernel(np.zeros(n), (1,))
    with pytest.raises(ValueError, match="a block of mode phases of .* exceeds the limit"):
        kernel.xi_grid(**betas) if isinstance(betas, dict) else kernel.xi_points(betas)


@settings(max_examples=40, deadline=None)
@given(
    half=st.integers(2, 20),
    b0=st.floats(0.0, 5000.0),
    h=st.floats(1e-3, 1.0),
    count=st.integers(1, 5000),
)
def test_half_flux_diametric_channel_stays_blocked_on_the_grid(half, b0, h, count):
    kernel = SpectralKernel(_mode_cosines(2 * half, 0.5), (half,))
    assert kernel.xi_grid(b0, h, count).max() <= 1e-12


# Properties the optimizer's bound-pruned coarse pass rests on, drawn over
# ring sizes 3..16 and times up to 5000.  Mode-phase rounding grows with beta
# (measured up to 3.6e-16*beta between equal sums written two ways), so the
# symmetry checks allow 1e-12 plus 1e-15*beta.
RINGS = st.integers(3, 16)
TWISTS = st.floats(-1.0, 1.0)
TIMES = st.floats(0.0, 5000.0)


def all_displacements(n, f, beta, ds=None):
    return np.array(SpectralKernel(_mode_cosines(n, f), range(n) if ds is None else ds).xi(beta))


@settings(max_examples=100, deadline=None)
@given(
    n=RINGS,
    f=TWISTS,
    beta=TIMES,
    delta=st.one_of(st.floats(-10.0, 10.0), st.floats(-1e-6, 1e-6)),
)
def test_xi_is_lipschitz_in_time(n, f, beta, delta):
    # |a_d(b + delta) - a_d(b)| <= (1/N) sum_m |exp(i*delta*c_m) - 1| <= mean|c_m|*|delta|
    lip = float(np.mean(np.abs(_mode_cosines(n, f))))
    assert lip <= 1.0
    step = np.abs(all_displacements(n, f, beta + delta) - all_displacements(n, f, beta))
    assert step.max() <= lip * abs(delta) + 1e-12


@settings(max_examples=100, deadline=None)
@given(n=RINGS, f=TWISTS, beta=TIMES)
def test_unitarity_over_all_displacements(n, f, beta):
    assert abs(float(np.sum(all_displacements(n, f, beta) ** 2)) - 1.0) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(n=RINGS, f=TWISTS, beta=TIMES)
def test_mirror_symmetry(n, f, beta):
    # xi(d, f) = xi(N - d, -f): reflecting the ring reverses the twist
    mirrored = all_displacements(n, -f, beta, [(n - d) % n for d in range(n)])
    assert np.max(np.abs(all_displacements(n, f, beta) - mirrored)) <= 1e-12 + 1e-15 * beta


@settings(max_examples=100, deadline=None)
@given(n=RINGS, f=TWISTS, beta=TIMES)
def test_twist_period_is_one_flux_quantum(n, f, beta):
    shifted = all_displacements(n, f + 1.0, beta)
    assert np.max(np.abs(all_displacements(n, f, beta) - shifted)) <= 1e-12 + 1e-15 * beta


# Under a coupling J and a field B every route also carries the global phase
# exp(-i*D*t), D = -J*(N-4) - B*(N-2), t = beta/(4*J).  At N = 16, J = 0.5,
# B = 2 and beta = 5000 it turns 9e4 radians, and its rounding alone exceeds
# 1e-12 + 1e-15*beta (measured up to 1.8 times that), so these checks allow
# 1e-15 per radian of mode phase (beta) and of global phase (|D|*t).  With
# D = 0 that is 1e-12 + 1e-15*beta, and it never exceeds 1e-10.
COUPLINGS = st.floats(0.5, 2.0)
FIELDS = st.floats(-2.0, 2.0)


def phase_tolerance(cfg, beta):
    return 1e-12 + 1e-15 * (beta + abs(cfg.diagonal) * beta / (4.0 * cfg.j))


@settings(max_examples=100, deadline=None)
@given(n=RINGS, beta=TIMES)
def test_property_draws_stay_in_the_contract(n, beta):
    # the tolerances above were measured over these bounds only
    assert 3 <= n <= 16
    assert 0.0 <= beta <= 5000.0
    assert phase_tolerance(RingConfig(n, j=0.5, b=2.0), beta) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(n=RINGS, f=TWISTS, beta=TIMES, j=COUPLINGS, b=FIELDS)
def test_magnitudes_do_not_depend_on_the_gauge(n, f, beta, j, b):
    # the uniform and single-bond gauges differ by a diagonal unitary
    cfg = RingConfig(n, f=f, j=j, b=b)
    uniform = np.abs(propagate_oracle(cfg, site_state(n, 1), beta))
    w, v = np.linalg.eigh(single_bond_hamiltonian(cfg))
    single_bond = np.abs(v @ (np.exp(-1j * w * beta / (4.0 * j)) * v[0].conj()))
    assert np.max(np.abs(uniform - single_bond)) <= phase_tolerance(cfg, beta)


@settings(max_examples=100, deadline=None)
@given(n=RINGS, d=st.integers(0, 15), f=TWISTS, beta=TIMES, j=COUPLINGS, b=FIELDS)
def test_routes_agree_in_complex_value_under_any_coupling_and_field(n, d, f, beta, j, b):
    q = query(n, d, f, beta, j=j, b=b)
    oracle = amplitude_oracle(q).value
    assert abs(amplitude_spectral(q).value - oracle) <= phase_tolerance(q.config, beta)
    assert abs(amplitude_bessel(q).value - oracle) <= phase_tolerance(q.config, beta)


@settings(max_examples=100, deadline=None)
@given(
    n=RINGS,
    points=st.lists(
        st.tuples(
            st.integers(-40, 40),
            st.one_of(TWISTS, st.sampled_from([0.0, 0.25, 0.5, -0.5])),
            st.one_of(TIMES, st.sampled_from([0.0, 5000.0])),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_batched_xi_is_the_scalar_kernel_bit_for_bit(n, points):
    # mixed twists and displacements in one batch, and batches of one: the
    # refinements' values must be the scalar route's to the last bit
    kernels = [SpectralKernel(_mode_cosines(n, f), (d,)) for d, f, _ in points]
    betas = [beta for *_, beta in points]
    expected = [kernel.xi(beta)[0].hex() for kernel, beta in zip(kernels, betas)]
    assert [v.hex() for v in xi_batch(kernels, betas)] == expected
    assert [xi_batch([k], [b])[0].hex() for k, b in zip(kernels, betas)] == expected


def test_batched_xi_refuses_mixed_kernels():
    ring, other = _mode_cosines(5, 0.1), _mode_cosines(6, 0.1)
    assert xi_batch([], []) == []
    with pytest.raises(ValueError, match="single-displacement"):
        xi_batch([SpectralKernel(ring, (1, 2))], [1.0])
    with pytest.raises(ValueError, match="single-displacement"):
        xi_batch([SpectralKernel(ring, (1,)), SpectralKernel(other, (1,))], [1.0, 2.0])
    with pytest.raises(ValueError, match="one beta per kernel"):
        xi_batch([SpectralKernel(ring, (1,))], [1.0, 2.0])


def test_batched_xi_over_more_points_than_one_block():
    # 65,536 mode phases a block: at n = 16 the batch spans two blocks
    rng = np.random.default_rng(5)
    twists, ds = rng.uniform(-0.5, 0.5, 4100), rng.integers(0, 16, 4100)
    kernels = [SpectralKernel(_mode_cosines(16, f), (d,)) for f, d in zip(twists, ds)]
    betas = rng.uniform(0.0, 5000.0, 4100)
    assert xi_batch(kernels, betas) == [k.xi(b)[0] for k, b in zip(kernels, betas)]
