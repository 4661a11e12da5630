"""Spectral vs Bessel vs matrix-propagator amplitudes and their symmetries."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import point_sum_reference, ring_twist_derivatives, single_bond_hamiltonian
from spinring import amplitude
from spinring.amplitude import (
    AmplitudeQuery,
    SpectralKernel,
    amplitude_bessel,
    amplitude_oracle,
    amplitude_spectral,
    _clip_xi,
    _giant_steps,
    xi,
    xi_profile,
)
from spinring.bessel import bessel_j_ladder
from spinring.cli import PUBLISHED_WINDOWS
from spinring.entangle import _entropy_from_overlap, _overlap_rates, entanglement_curve
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


@pytest.mark.parametrize("beta", [0.0, 1e-7, 0.5, 1.0, 30.0, 700.0, amplitude.BESSEL_BETA_MAX])
def test_orders_past_the_underflow_cap_sweep_to_zero(beta):
    # the Bessel route reads every order from the cap on as 0 without sweeping it
    cap = amplitude._underflow_order(beta, 10**9)
    assert not bessel_j_ladder(cap + 40, beta)[cap:].any()
    assert amplitude._underflow_order(beta, cap - 1) == cap  # a shorter ladder is swept whole


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
    gap = np.abs(xi_profile(cfg, 1, 0.0, 0.01, 5001) - xi_profile(cfg, 4, 0.0, 0.01, 5001))
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
    prof = xi_profile(cfg, 3, 0.0, 0.3125, 257)
    for k in (0, 100, 256):
        assert prof[k] == pytest.approx(xi(cfg, 3, k * 0.3125), abs=1e-14)


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


def point_xi(n, f, ds, betas):
    """|a_d(beta)| from `SpectralKernel.xi` at every (d, beta) pair, shape (len(ds), len(betas))."""
    ds, betas = list(ds), np.asarray(betas, dtype=float)
    kernel = SpectralKernel(_mode_cosines(n, f), ds)
    rows = np.repeat(np.arange(len(ds)), len(betas))
    return np.reshape(kernel.xi(rows, np.tile(betas, len(ds))), (len(ds), len(betas)))


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
    pointwise = point_xi(n, f, range(n), betas)
    assert np.max(np.abs(kernel.xi_grid(b0, h, count) - pointwise)) <= 1e-12
    # shuffled, the same times summed in one call over a single rate row
    order = np.random.default_rng(count).permutation(count)
    profile = SpectralKernel(_mode_cosines(n, f), (1,)).xi(np.zeros(count, int), betas[order])
    assert np.max(np.abs(np.subtract(profile, pointwise[1, order]))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 16),
    d=st.integers(-20, 20),
    f=st.floats(-1.0, 1.0),
    b0=st.floats(0.0, 1000.0),
    h=st.floats(1e-3, 10.0),
    count=st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 2000)),
)
def test_profiles_are_the_kernel_grid_bit_for_bit(n, d, f, b0, h, count):
    # the time grids of `sweep` and `entangle` reach the kernel as grids,
    # whatever their length
    grid = SpectralKernel(_mode_cosines(n, f), (d,)).xi_grid(b0, h, count)[0]
    assert np.array_equal(xi_profile(RingConfig(n, f=f), d, b0, h, count), grid)
    grid = SpectralKernel(_overlap_rates(n, 1), (0,)).xi_grid(0.0, h, count)[0]
    entropy, overlap = entanglement_curve(h, count, n=n)
    assert np.array_equal(overlap, grid)
    assert np.array_equal(entropy, _entropy_from_overlap(grid))


def test_kernel_refuses_a_phase_block_before_allocating():
    # 1e14 times in rows of 1e7: the 1e5 x 1e7 baby-step block would be 16 TB
    kernel = SpectralKernel(np.zeros(100_000), (1,))
    with pytest.raises(ValueError, match="a block of mode phases of .* exceeds the limit"):
        kernel.xi_grid(0.0, 1.0, 10**14)


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


def mirrored_rates(rates):
    """The rates under m -> N - m: those of the reversed twist, up to rounding."""
    return np.roll(rates[::-1], -1)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(3, 12),
    f=st.floats(-1.0, 1.0),
    b0=st.floats(0.0, 1000.0),
    # past h ~ 0.7 the bound's levels collapse to the grid itself (stride 1)
    h=st.one_of(st.floats(1e-3, 0.1), st.floats(0.1, 1000.0)),
    count=st.one_of(st.sampled_from([1, 2, 3, 21, 400, 401]), st.integers(1, 3000)),
    offsets=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=4),
    nudge=st.sampled_from([None, 0.0, 1e-13, -3e-13]),
    # the floor's distance below each displacement's grid maximum
    depth=st.one_of(st.sampled_from([0.0, 1e-3]), st.floats(-0.05, 0.5)),
)
def test_row_bounds_hold_on_and_between_grid_points(n, f, b0, h, count, offsets, nudge, depth):
    # rows(floor) keeps every giant row of displacement d that holds a value at
    # or above floor[d] anywhere on its stretch, up to the next row's first
    # point, and low[d] is at most the grid's maximum.  With a nudge, the bounds
    # of f with the mirror's spread stand for the twist -f + nudge at the
    # mirrored displacements, as the coarse pass reads them.
    rates = _mode_cosines(n, f)
    kernel = SpectralKernel(rates, range(n))
    if nudge is None:
        target, target_f, rows, spread = kernel, f, np.arange(n), 0.0
    else:
        target_f = -f + nudge
        other = _mode_cosines(n, target_f)
        target = SpectralKernel(other, range(n))
        rows = (n - np.arange(n)) % n
        spread = float(np.max(np.abs(other - mirrored_rates(rates))))
    low, rows_above = kernel.row_bounds(b0, h, count, spread)
    starts, stride = _giant_steps(b0, h, count)
    grid = target.xi_grid(b0, h, count)
    assert np.all(low[rows] <= grid.max(axis=1))
    floor = np.empty(n)
    floor[rows] = grid.max(axis=1) - depth
    keep = rows_above(floor)
    assert keep.shape == (n, len(starts)) and keep.dtype == bool
    k = np.arange(count)
    fractions = np.concatenate([k + t for t in [0.0, *offsets]])
    dense = point_xi(n, target_f, range(n), b0 + h * fractions)
    # k + t may round up to k + 1, which for the last k lies past the grid but
    # still on the last row's stretch
    row = np.minimum(fractions.astype(int), count - 1) // stride
    dropped = ~keep[rows][:, row]
    assert np.all(dense[dropped] < np.broadcast_to(floor[rows][:, None], dense.shape)[dropped])


# Properties the optimizer's bound-pruned coarse pass rests on, drawn over
# ring sizes 3..16 and times up to 5000.  Mode-phase rounding grows with beta
# (measured up to 3.6e-16*beta between equal sums written two ways), so the
# symmetry checks allow 1e-12 plus 1e-15*beta.
RINGS = st.integers(3, 16)
TWISTS = st.floats(-1.0, 1.0)
TIMES = st.floats(0.0, 5000.0)


def all_displacements(n, f, beta, ds=None):
    return point_xi(n, f, range(n) if ds is None else ds, [beta])[:, 0]


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
@example(n=3, d=0, f=0.0, beta=5e-324, j=1.0, b=0.0)  # beta / 2 rounds to 0
def test_routes_agree_in_complex_value_under_any_coupling_and_field(n, d, f, beta, j, b):
    q = query(n, d, f, beta, j=j, b=b)
    oracle = amplitude_oracle(q).value
    assert abs(amplitude_spectral(q).value - oracle) <= phase_tolerance(q.config, beta)
    assert abs(amplitude_bessel(q).value - oracle) <= phase_tolerance(q.config, beta)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


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
    block=st.integers(1, 5),
)
def test_point_sums_are_the_scalar_dot_bit_for_bit(n, points, block):
    # mixed twists and displacements in one batch, split into blocks of
    # `block` points, and batches of one: the searches' values must be the
    # scalar dot's to the last bit, whatever points share a call
    rates = [_mode_cosines(n, f) for _, f, _ in points]
    betas = [beta for *_, beta in points]
    expected = [point_sum_reference(r, d, b) for r, (d, _, b) in zip(rates, points)]
    # point i is rate row i at its displacement, of all n a kernel holds
    kernel = SpectralKernel(rates, range(n))
    rows = np.arange(len(points)) * n + [d % n for d, *_ in points]
    with mock.patch.object(amplitude, "_CHUNK", block * n):
        assert same_bits(kernel.values(rows, betas), expected)
    assert same_bits(kernel.values(rows, betas), expected)
    assert same_bits([kernel.values([i], [b])[0] for i, b in zip(rows, betas)], expected)
    # rows in any order and repeated, and the magnitudes
    assert same_bits(kernel.values(rows[::-1], betas[::-1]), expected[::-1])
    assert kernel.xi(np.repeat(rows, 2), np.repeat(betas, 2)) == [
        min(abs(a), 1.0) for a in expected for _ in range(2)
    ]


def test_point_sums_share_one_displacement_or_refuse():
    # displacement 7 = 2 mod 5 shared by three rate rows, alone or beside displacement 1
    rates = np.array([_mode_cosines(5, f) for f in (0.1, -0.3, 0.25)])
    shared = SpectralKernel(rates, (7,)).values([2, 0, 1], [3.0, 1.0, 2.0])
    crossed = SpectralKernel(rates, (1, 2)).values([5, 1, 3], [3.0, 1.0, 2.0])
    assert same_bits(shared, crossed)
    points = ((2, 3.0), (0, 1.0), (1, 2.0))
    assert same_bits(shared, [point_sum_reference(rates[i], 2, b) for i, b in points])
    assert SpectralKernel(rates, (1,)).xi([], []) == []
    with pytest.raises(ValueError, match="one beta per row"):
        SpectralKernel(rates, (1,)).values([0, 1], [1.0])


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 12),
    d=st.integers(-12, 12),
    f=st.floats(-0.5, 0.5),
    beta=st.one_of(st.floats(0.0, 500.0), st.sampled_from([0.0, 500.0])),
)
def test_point_jet_is_the_central_differences_of_the_squared_values(n, d, f, beta):
    def g(df, db):
        return abs(SpectralKernel(_mode_cosines(n, f + df), (d,)).values([0], [beta + db])[0]) ** 2

    # a twist step moves each mode phase by up to beta*2*pi/N, so it is scaled down
    hb = 1e-4
    hf = hb / (1.0 + beta)
    g0 = g(0.0, 0.0)
    diffs = [
        g0,
        (g(0.0, hb) - g(0.0, -hb)) / (2 * hb),
        (g(hf, 0.0) - g(-hf, 0.0)) / (2 * hf),
        (g(0.0, hb) - 2 * g0 + g(0.0, -hb)) / hb**2,
        (g(hf, hb) - g(hf, -hb) - g(-hf, hb) + g(-hf, -hb)) / (4 * hf * hb),
        (g(hf, 0.0) - 2 * g0 + g(-hf, 0.0)) / hf**2,
    ]
    scale = np.array([1.0, 1.0, 1.0 + beta, 1.0, 1.0 + beta, (1.0 + beta) ** 2])
    slopes, bends = ring_twist_derivatives(n, f)
    # three equal rate rows at d + 1 and d: kernel rows 1, 3 and 5 are at d
    kernel = SpectralKernel([_mode_cosines(n, f)] * 3, (d + 1, d))
    jet = kernel.jet([3], [beta], [slopes] * 3, [bends] * 3)
    assert jet.shape == (6, 1)
    assert np.all(np.abs(jet[:, 0] - diffs) <= 2e-4 * scale)
    # a point's jet does not depend on its batch or on the block it falls in
    with mock.patch.object(amplitude, "_CHUNK", n):
        batch = kernel.jet([0, 3, 5, 1], [beta + 1.0, beta, beta, beta], [slopes] * 3, [bends] * 3)
    assert np.array_equal(batch[:, 1:], np.repeat(jet, 3, axis=1))


def test_point_sums_over_more_points_than_one_block():
    # 65,536 mode phases a block: at n = 16 the batch spans two blocks
    rng = np.random.default_rng(5)
    twists, ds = rng.uniform(-0.5, 0.5, 4100), rng.integers(0, 16, 4100)
    rates = [_mode_cosines(16, f) for f in twists]
    betas = rng.uniform(0.0, 5000.0, 4100)
    assert 4100 > amplitude._CHUNK // 16
    expected = [point_sum_reference(r, d, b) for r, d, b in zip(rates, ds, betas)]
    # one kernel row per (twist, displacement 0..15): 65,600 rows, 16 weight rows
    kernel = SpectralKernel(rates, range(16))
    assert same_bits(kernel.values(np.arange(4100) * 16 + ds, betas), expected)


@settings(max_examples=60, deadline=None)
@given(
    n=RINGS,
    twists=st.lists(TWISTS, min_size=1, max_size=4),
    ds=st.lists(st.integers(-20, 20), min_size=1, max_size=4),
    data=st.data(),
)
def test_point_values_ignore_the_rest_of_the_stack(n, twists, ds, data):
    # kernel row (i, d) has the bits of a kernel of rate row i at d alone,
    # whatever other rate rows and displacements the kernel stacks
    rates = [_mode_cosines(n, f) for f in twists]
    slopes, bends = zip(*(ring_twist_derivatives(n, f) for f in twists))
    kernel = SpectralKernel(rates, ds)
    rows = data.draw(st.lists(st.integers(0, len(twists) * len(ds) - 1), min_size=1, max_size=6))
    betas = data.draw(st.lists(TIMES, min_size=len(rows), max_size=len(rows)))
    values, jet = kernel.values(rows, betas), kernel.jet(rows, betas, slopes, bends)
    for k, (row, beta) in enumerate(zip(rows, betas)):
        i, j = divmod(row, len(ds))
        alone = SpectralKernel(rates[i], (ds[j],))
        assert same_bits(values[[k]], alone.values([0], [beta]))
        assert same_bits(jet[:, [k]], alone.jet([0], [beta], [slopes[i]], [bends[i]]))
    # a kernel of no rate rows has no rows, and its empty reads keep their shapes
    empty = SpectralKernel(np.zeros((0, n)), ds)
    assert empty.values([], []).shape == (0,) and empty.xi([], []) == []
    assert empty.jet([], [], np.zeros((0, n)), np.zeros((0, n))).shape == (6, 0)
