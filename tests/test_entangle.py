"""Flux-conditioned evolution and the flux-ring entanglement scan."""

import dataclasses
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
    scan_times,
    square_ring_entropy,
    square_ring_overlap,
)
from spinring.amplitude import NEAR_BEST, NearBestMaxima, SpectralKernel, local_maxima
from spinring.entangle import (
    EntanglementReading,
    EntanglingScan,
    REFERENCE_BETA,
    _curve_blocks,
    _entropy_from_overlap,
    _overlap_rates,
    _reading,
    entanglement_curve,
    find_entangling_time,
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
    length=st.sampled_from([None, 0, 1, 8191, 8192, 8193, 16383, 16385]),
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


def near_best_maxima_reference(betas, values):
    """The betas of `local_maxima` over the whole curve within the scan's window of
    its best, and the best: what the scan polishes, read off the curve held whole."""
    idx = local_maxima(values)
    best = float(values.max())
    return betas[idx[values[idx] >= best - NEAR_BEST]], best


def streamed_maxima(blocks):
    """`NearBestMaxima` read over (betas, values) blocks of one curve: the betas of
    the positions it keeps, and its best."""
    maxima, read, count = NearBestMaxima(), 0, sum(len(b) for b, _ in blocks)
    for _, values in blocks:
        read += len(values)
        maxima.read(values, np.arange(read - len(values), read) == count - 1)
    betas = np.concatenate([b for b, _ in blocks])
    return betas[maxima.kept[0]], maxima.best[0]


@st.composite
def cut_curves(draw):
    """A curve of few distinct values, so plateaus of equal neighbours and maxima
    within the window abound, read in blocks of 1 to 3 lines of 1 to 5 points
    (a block of one line maybe as a 1-D array): blocks of one point, edges on a
    maximum, on a plateau and next to either window end.  Each line is of group
    0 or 1, and runs end at drawn points (none, some or many) and at the last."""
    level = st.sampled_from([0.0, 0.5, 0.9995, 0.9999, 1.0])
    end = st.sampled_from(draw(st.sampled_from([[False], [False] * 4 + [True], [False, True]])))
    blocks = []
    for _ in range(draw(st.integers(1, 12))):
        lines, width = draw(st.integers(1, 3)), draw(st.integers(1, 5))
        values, ends = (
            np.reshape(draw(st.lists(each, min_size=lines * width, max_size=lines * width)), (lines, width))
            for each in (level, end)
        )
        groups = np.array(draw(st.lists(st.integers(0, 1), min_size=lines, max_size=lines)))
        blocks.append([values, ends, groups, lines == 1 and draw(st.booleans())])
    blocks[-1][1][-1, -1] = True
    return blocks


@settings(max_examples=300, deadline=None)
@given(blocks=cut_curves())
def test_block_edges_keep_the_whole_curves_maxima(blocks):
    maxima = NearBestMaxima(2)
    for values, ends, groups, flat in blocks:
        maxima.read(*((values[0], ends[0], groups[0]) if flat else (values, ends, groups)))
    values, ends = (np.concatenate([b[i].ravel() for b in blocks]) for i in (0, 1))
    group = np.concatenate([np.repeat(b[2], b[0].shape[1]) for b in blocks])
    # the whole curve's maxima within the window of their group's best
    idx = local_maxima(values, ends[:-1])
    best = np.array([values[group == g].max(initial=-np.inf) for g in (0, 1)])
    want = idx[values[idx] >= best[group[idx]] - NEAR_BEST]
    at, kept, _ = maxima.kept
    assert np.array_equal(at, want) and np.array_equal(kept, values[want])
    assert np.array_equal(maxima.best, best)


@pytest.mark.parametrize(
    "values, cut",
    [
        ([0.1, 0.9, 0.2, 0.3], 2),  # a maximum ends a block
        ([0.1, 0.9, 0.2, 0.3], 1),  # a maximum starts a block
        ([0.1, 0.9, 0.9, 0.9, 0.2], 2),  # a plateau spans the edge: its first point counts
        ([0.1, 0.9, 0.9, 0.9, 0.2], 3),
        ([0.9, 0.9, 0.2], 1),  # the plateau starts the window
        ([0.2, 0.9, 0.9], 2),  # and ends it: no point of it falls after a rise and before a fall
        ([0.9, 0.2, 0.3], 1),  # the window's first point is a maximum of its own
        ([0.2, 0.3, 0.9], 2),  # and the last
        ([0.2, 0.9], 1),
        ([0.9], 1),
    ],
)
def test_named_block_edges_keep_the_whole_curves_maxima(values, cut):
    values = np.array(values)
    betas = np.arange(len(values), dtype=float)
    blocks = [(betas[:cut], values[:cut]), (betas[cut:], values[cut:])]
    want = near_best_maxima_reference(betas, values)
    got = streamed_maxima([b for b in blocks if len(b[0])])
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def scanned_curve(n, start, step, count):
    """The streamed scan's maxima and best over the curve's own blocks, and the
    curve's blocks laid end to end."""
    kernel = SpectralKernel(_overlap_rates(n, start), (0,))
    blocks = [(b, e) for b, e, _ in _curve_blocks(kernel, step, count)]
    return streamed_maxima(blocks), np.concatenate([e for _, e in blocks])


@pytest.mark.parametrize("count", [1, 2, 8191, 8192, 8193])
@pytest.mark.parametrize("n", range(3, 9))
def test_streamed_scan_keeps_the_whole_curves_maxima(n, count):
    # 8,191 to 8,193 points take two blocks: 90 giant rows of 91, then 1 to 3 points
    for start in range(1, n + 1):
        (got, best), blocked = scanned_curve(n, start, 0.037, count)
        entropy, _ = entanglement_curve(0.037, count, n=n, start_site=start)
        assert np.array_equal(blocked, entropy)
        want, want_best = near_best_maxima_reference(0.037 * np.arange(count), entropy)
        assert np.array_equal(got, want) and best == want_best


def test_the_curves_last_grid_point_is_a_candidate():
    # the last grid point, 3.142, is the grid maximum and ends the one run; only
    # its polish in [3.140, 3.142] reaches the full ebit at pi
    best = find_entangling_time(3.142, step=0.002).best
    assert best.beta == pytest.approx(math.pi, abs=1e-9) and best.entropy_ebits == 1.0


def test_scan_no_longer_carries_its_curve():
    # the scan hands its curve to `write` a block at a time and keeps only its readings
    assert [f.name for f in dataclasses.fields(EntanglingScan)] == ["best", "reference"]
    assert find_entangling_time(50.0, write=list) == find_entangling_time(50.0)


def test_blocks_a_writer_keeps_uncopied_are_the_curve():
    # every block is fresh arrays, so blocks kept as they come stay the curve
    kept = []
    find_entangling_time(50.0, write=kept.extend)
    betas, entropy, overlap = (np.concatenate(column) for column in zip(*kept))
    assert len(kept) == 2 and np.array_equal(betas, scan_times(50.0, 0.005))
    want_entropy, want_overlap = entanglement_curve(0.005, len(betas))
    assert np.array_equal(entropy, want_entropy) and np.array_equal(overlap, want_overlap)
