"""Flux-conditioned evolution and the flux-ring entanglement scan."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    JointFluxRingState,
    binary_entropy,
    entropy_from_overlap_reference,
    evolve_joint,
    flux_ring_entanglement,
    golden_entangling_scan_reference,
    peak_bytes,
    square_ring_entropy,
    square_ring_overlap,
)
from spinring.amplitude import SpectralKernel
from spinring.entangle import (
    EntanglementReading,
    REFERENCE_BETA,
    _ENTROPY_BLOCK,
    _entropy_from_overlap,
    _overlap_rates,
    _reading,
    entanglement_curve,
    find_entangling_time,
    scan_times,
)
from spinring.ring import site_state

ROOT2 = math.sqrt(2.0)
W = 1.0 / ROOT2


def joint(b0, b1):
    return JointFluxRingState(
        branch_f0=np.asarray(b0, dtype=complex),
        branch_f1=np.asarray(b1, dtype=complex),
        branch_weights=(W + 0j, W + 0j),
        beta=0.0,
    )


def test_no_evolution_is_separable():
    state = evolve_joint(site_state(4, 1), 0.0)
    reading = flux_ring_entanglement(state)
    assert reading.branch_overlap >= 1.0 - 1e-12
    assert reading.entropy_ebits <= 1e-9


def test_zero_flux_branch_transfers_at_pi():
    state = evolve_joint(site_state(4, 1), math.pi)
    assert abs(state.branch_f0[2]) == pytest.approx(1.0, abs=1e-12)


def test_half_flux_branch_revives_at_root2_pi():
    state = evolve_joint(site_state(4, 1), ROOT2 * math.pi)
    assert abs(state.branch_f1[0]) == pytest.approx(1.0, abs=1e-12)


def test_identical_branches_carry_no_entanglement():
    reading = flux_ring_entanglement(joint(site_state(4, 2), site_state(4, 2)))
    assert reading.entropy_ebits == pytest.approx(0.0, abs=1e-12)
    assert reading.branch_overlap == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_branches_give_one_ebit():
    reading = flux_ring_entanglement(joint(site_state(4, 1), site_state(4, 3)))
    assert reading.entropy_ebits == pytest.approx(1.0, abs=1e-12)
    assert reading.branch_overlap <= 1e-12


def test_high_entanglement_near_five_revivals():
    beta = 5 * ROOT2 * math.pi
    reading = flux_ring_entanglement(evolve_joint(site_state(4, 1), beta))
    assert reading.entropy_ebits >= 0.95
    assert abs(reading.entropy_ebits - square_ring_entropy(beta)) <= 1e-9


def test_matches_closed_form_along_the_curve():
    entropy, overlap = entanglement_curve(0.1, 601)
    for k in range(0, 601, 40):
        assert abs(overlap[k] - square_ring_overlap(k * 0.1)) <= 1e-9
        assert abs(entropy[k] - square_ring_entropy(k * 0.1)) <= 1e-9


@pytest.mark.parametrize("n", range(3, 13))
def test_curve_and_scan_match_the_dense_reference(n):
    # the scan's grid is factored into giant x baby steps; scattered betas
    # are summed point by point
    grid = scan_times(500.0, 12.5)
    scattered = np.random.default_rng(n).uniform(0.0, 500.0, 40)
    for start in range(1, n + 1):
        scan = find_entangling_time(20.0, step=0.01, n=n, start_site=start)
        entropy, overlap = entanglement_curve(12.5, len(grid), n=n, start_site=start)
        kernel = SpectralKernel(_overlap_rates(n, start), (0,))
        readings = [scan.best, scan.reference, *map(EntanglementReading, grid, entropy, overlap)]
        readings += [_reading(kernel, beta) for beta in scattered]
        for got in readings:
            ref = flux_ring_entanglement(evolve_joint(site_state(n, start), got.beta))
            assert abs(got.entropy_ebits - ref.entropy_ebits) <= 1e-12
            assert abs(got.branch_overlap - ref.branch_overlap) <= 1e-12


def test_entropy_decreases_as_overlap_grows():
    readings = []
    for angle in np.linspace(0.0, math.pi / 2, 25):
        b1 = math.cos(angle) * site_state(4, 1) + math.sin(angle) * site_state(4, 3)
        readings.append(flux_ring_entanglement(joint(site_state(4, 1), b1)))
    pairs = sorted((r.branch_overlap, r.entropy_ebits) for r in readings)
    assert all(a[1] >= b[1] - 1e-12 for a, b in zip(pairs, pairs[1:]))
    # and the analytic relation for balanced weights holds pointwise
    for ov, ent in pairs:
        assert ent == pytest.approx(binary_entropy((1 + ov) / 2), abs=1e-12)


def test_branches_stay_normalized():
    rng = np.random.default_rng(51)
    for _ in range(5):
        beta = float(rng.uniform(0.0, 200.0))
        state = evolve_joint(site_state(4, 1), beta)
        assert abs(np.linalg.norm(state.branch_f0) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(state.branch_f1) - 1.0) <= 1e-12


def test_global_branch_phase_is_invisible():
    state = evolve_joint(site_state(4, 1), 11.3)
    rotated = JointFluxRingState(
        branch_f0=state.branch_f0 * np.exp(0.77j),
        branch_f1=state.branch_f1,
        branch_weights=state.branch_weights,
        beta=state.beta,
    )
    a = flux_ring_entanglement(state)
    b = flux_ring_entanglement(rotated)
    assert abs(a.entropy_ebits - b.entropy_ebits) <= 1e-12


def test_scan_finds_full_ebit_at_pi():
    scan = find_entangling_time(50.0, step=0.005)
    assert scan.best.entropy_ebits >= 0.99
    # earliest perfect point: the transferred branch is orthogonal to the
    # blocked branch exactly at the transfer time
    assert abs(scan.best.beta - math.pi) <= 0.01
    ref = scan.reference
    assert ref.beta == REFERENCE_BETA
    assert abs(ref.entropy_ebits - square_ring_entropy(REFERENCE_BETA)) <= 1e-9
    # the quoted operating point is distinctly short of maximal
    assert ref.entropy_ebits < 0.85


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 9),
    site=st.integers(1, 9),
    beta_max=st.floats(1e-3, 300.0),
    step=st.floats(1e-3, 1.0),
)
def test_polished_scan_never_falls_below_golden_section(n, site, beta_max, step):
    # the polish must find at least what the former golden-section scan found,
    # and a best inside the window is a local maximum to well below 1e-6
    start = (site - 1) % n + 1
    best = find_entangling_time(beta_max, step=step, n=n, start_site=start).best
    _, golden = golden_entangling_scan_reference(beta_max, step, n, start)
    assert best.entropy_ebits >= golden - 1e-12
    assert 0.0 <= best.beta <= beta_max
    if 0.0 < best.beta < beta_max:
        kernel = SpectralKernel(_overlap_rates(n, start), (0,))
        for delta in (1e-6, 1e-4, -1e-6, -1e-4):
            if 0.0 <= best.beta + delta <= beta_max:
                nearby = _reading(kernel, best.beta + delta).entropy_ebits
                assert nearby <= best.entropy_ebits + 1e-12, delta


def test_scan_polish_takes_a_few_jet_rounds(monkeypatch):
    # a cost check without a clock: the protocol-shaped scan polishes its
    # 113 grid survivors in lockstep, one `SpectralKernel.jet` call a round; a
    # bracketing search would take ~25 steps to its 1e-7 bracket, and no jet
    calls, jet = [], SpectralKernel.jet

    def counted(kernel, rows, betas, slopes, bends):
        calls.append(len(rows))
        return jet(kernel, rows, betas, slopes, bends)

    monkeypatch.setattr(SpectralKernel, "jet", counted)
    scan = find_entangling_time(500.0, step=0.005)
    assert 0 < len(calls) <= 8 and calls[0] == 113
    assert abs(scan.best.beta - math.pi) <= 1e-11


def test_scan_tiny_window_cannot_entangle():
    scan = find_entangling_time(0.1, step=0.001)
    assert scan.best.entropy_ebits < 0.05


def test_unnormalized_joint_state_rejected():
    bad = JointFluxRingState(
        branch_f0=2.0 * site_state(4, 1),
        branch_f1=site_state(4, 2),
        branch_weights=(W + 0j, W + 0j),
        beta=0.0,
    )
    with pytest.raises(ValueError):
        flux_ring_entanglement(bad)
    with pytest.raises(ValueError):
        find_entangling_time(-1.0)


def test_reading_fields():
    reading = flux_ring_entanglement(evolve_joint(site_state(4, 1), 2.0))
    assert isinstance(reading, EntanglementReading)
    assert reading.beta == 2.0
    assert 0.0 <= reading.entropy_ebits <= 1.0
    assert 0.0 <= reading.branch_overlap <= 1.0


# overlaps at the ends of the entropy's domain: signed zeros, +-1 and their
# neighbours, values past 1 by rounding, nan and subnormals
EDGE_OVERLAPS = [
    0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
    math.nextafter(-1.0, -2.0), math.nextafter(-1.0, 0.0), 1.0 + 4e-16, 1.0 + 1e-12,
    -1.0 - 1e-12, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
]


@settings(max_examples=80, deadline=None)
@given(
    length=st.sampled_from([None, 0, 1, _ENTROPY_BLOCK - 1, _ENTROPY_BLOCK, _ENTROPY_BLOCK + 1,
                            2 * _ENTROPY_BLOCK - 1, 2 * _ENTROPY_BLOCK + 1]),
    seed=st.integers(0, 2**32 - 1),
    drawn=st.lists(st.one_of(st.sampled_from(EDGE_OVERLAPS), st.floats(-1.5, 1.5)), max_size=40),
)
def test_blockwise_entropy_is_the_one_shot_formula_bit_for_bit(length, seed, drawn):
    # compared as bits, so a -0.0 or a nan payload cannot hide; None is a 0-d overlap
    if length is None:
        overlap = np.array(drawn[0] if drawn else 0.5)
    else:
        rng = np.random.default_rng(seed)
        overlap = rng.uniform(-1.0, 1.0, length)
        if length:
            overlap[rng.integers(0, length, len(drawn))] = drawn
    got = _entropy_from_overlap(overlap)
    want = entropy_from_overlap_reference(overlap)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_entropy_of_a_long_curve_holds_block_sized_temporaries():
    # the one-shot formula holds ~5 output-sized arrays at once (40 MB here)
    overlap = np.linspace(0.0, 1.0, 10**6)
    assert peak_bytes(lambda: _entropy_from_overlap(overlap)) <= overlap.nbytes + (1 << 20)
