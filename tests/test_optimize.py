"""Grid-plus-refinement optimizer, multiparty plans, and the fidelity map."""

import ast
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    coarse_pass,
    coarse_pass_reference,
    golden_max_lockstep,
    golden_max_reference,
    golden_search_reference,
    ring_twist_derivatives,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from spinring import amplitude, entangle, optimize
from spinring.amplitude import SpectralKernel, _giant_steps, xi, xi_profile
from spinring.optimize import (
    SearchSpec,
    default_twist_grid,
    fidelity_from_xi,
    multiparty_plan,
    optimize_transfers,
)
from spinring.ring import RingConfig, _mode_cosines

RESTRICTED = (-0.25, 0.25)


def twist_grid(resolution):
    """Twists k/resolution - 1/2, exact in binary when resolution divides a power of two."""
    return tuple(float(Fraction(k, resolution) - Fraction(1, 2)) for k in range(resolution))


def test_fidelity_map_endpoints_and_monotonicity():
    assert fidelity_from_xi(1.0) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_from_xi(0.0) == pytest.approx(0.5, abs=1e-12)
    grid = np.linspace(0.0, 1.0, 101)
    vals = [fidelity_from_xi(float(v)) for v in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        fidelity_from_xi(1.5)
    with pytest.raises(ValueError):
        fidelity_from_xi(-0.1)


def test_search_spec_defaults_and_validation():
    spec = SearchSpec()
    assert spec.beta_min == 0.0 and spec.beta_max == 5000.0 and spec.beta_step == 0.02
    assert len(spec.f_candidates) == 400
    assert -0.25 in spec.f_candidates and 0.25 in spec.f_candidates
    assert spec.f_candidates == tuple(sorted(spec.f_candidates))
    assert len(default_twist_grid()) == 400
    with pytest.raises(ValueError):
        SearchSpec(beta_min=10.0, beta_max=10.0)
    with pytest.raises(ValueError):
        SearchSpec(beta_step=0.0)
    with pytest.raises(ValueError):
        SearchSpec(refine_tol=-1.0)
    with pytest.raises(ValueError):
        SearchSpec(f_candidates=())
    with pytest.raises(ValueError):
        SearchSpec(beta_min=-1.0)


@pytest.mark.parametrize("field", ["beta_step", "refine_tol"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_search_spec_rejects_non_finite_steps(field, value):
    with pytest.raises(ValueError, match="finite"):
        SearchSpec(**{field: value})


def test_beta_grid_is_bounded_before_allocation():
    # 1e13 points would be 80 TB: numpy could not even try, so a missing
    # bound fails at once instead of filling memory
    spec = SearchSpec(beta_max=1e6, beta_step=1e-7)
    with pytest.raises(ValueError, match="exceeds the limit"):
        spec.beta_grid()
    with pytest.raises(ValueError, match="exceeds the limit"):
        optimize_transfers(5, [1], spec)


# (n, ds, spec) cases where the pruned coarse pass must keep exactly what the
# full grid keeps
EQUIVALENCE_CASES = {
    **{
        f"n{n}-grid{res}": (n, tuple(range(1, n)), SearchSpec(f_candidates=twist_grid(res)))
        for res in (8, 40)
        for n in (5, 7, 9)
    },
    # fully blocked: nothing can be pruned
    "blocked-hexagon": (6, (3,), SearchSpec(beta_max=500.0, f_candidates=(0.5,))),
    # one displacement, and the full grid hands BLAS its last giant row alone
    "blocked-hexagon-lone-row": (6, (3,), SearchSpec(beta_max=490.0, f_candidates=(0.5,))),
    "pentagon-lone-row": (5, (2,), SearchSpec(beta_max=490.0, f_candidates=twist_grid(8))),
    "one-point-window": (5, (1, 2), SearchSpec(beta_max=1.0, beta_step=2.0, f_candidates=RESTRICTED)),
    "window-under-first-stride": (5, (2, 3), SearchSpec(beta_max=0.1, f_candidates=twist_grid(8))),
    "offset-window": (7, (1, 3), SearchSpec(beta_min=3.7, beta_max=1003.76, f_candidates=twist_grid(8))),
    # the bound's levels collapse to the grid itself, or run from a wide first stride
    "coarse-step": (5, (1, 2, 3, 4), SearchSpec(beta_max=2000.0, beta_step=1.0, f_candidates=twist_grid(8))),
    "fine-step": (7, (1, 3), SearchSpec(beta_max=1500.0, beta_step=0.005, f_candidates=twist_grid(8))),
    # a step so small that both strides stop at one stretch over the grid (128 >= count)
    "tiny-step": (5, (1, 2), SearchSpec(beta_max=1e-290, beta_step=1e-292, f_candidates=RESTRICTED)),
    "nonagon-pair": (9, (3,), SearchSpec(beta_max=9000.0, f_candidates=RESTRICTED)),
    # the mirror a_d(beta, -f) = a_{N-d}(beta, f) bounds +-0.25 together;
    # -0.5 and 0.1 have no partner and are bounded alone
    "unpaired-twists": (5, (1, 2, 3, 4), SearchSpec(f_candidates=(-0.5, -0.25, 0.1, 0.25))),
    # paired twists whose mirrored displacements are not all searched
    "open-mirror-displacements": (
        7, (1, 2, 4), SearchSpec(beta_max=2000.0, f_candidates=(-0.375, -0.25, 0.25, 0.375))
    ),
    # the pre-grid's point past the window end would overflow, so nothing is pruned
    "window-at-the-float-limit": (
        5, (1, 4), SearchSpec(beta_max=1.7e308, beta_step=1e307, f_candidates=RESTRICTED)
    ),
    # a pair that is mirrored only up to the rounding of the twists
    "rounded-mirror": (5, (2, 3), SearchSpec(f_candidates=(-0.3, 0.1 + 0.2))),
    # a step whose square overflows: the bound reaches everywhere and prunes nothing
    "step-squared-overflows": (
        5, (1, 2), SearchSpec(beta_max=1e300, beta_step=1e299, f_candidates=RESTRICTED)
    ),
    # one bounding kernel stacks a mirror pair, a rounded mirror and an unpaired
    # twist over mirrored displacements that are not all searched
    "mixed-stack": (
        7, (1, 2, 4), SearchSpec(beta_max=2000.0, f_candidates=(-0.5, -0.3, -0.25, 0.25, 0.1 + 0.2))
    ),
}


def mirror_pairs(n, twists):
    """The twist pairs whose rate rows `SpectralKernel.row_bounds` bounds as one."""
    partner = amplitude._mirror_partners(np.array([_mode_cosines(n, f) for f in twists]))
    return [(twists[i], twists[j]) for i, j in enumerate(partner.tolist()) if i < j]


def strides(h, count):
    """The first and last level strides of `SpectralKernel.row_bounds` on a ring (M = 1)."""
    return (amplitude._level_stride(h, count, reach, 1.0)
            for reach in (amplitude._FIRST_REACH, amplitude._LAST_REACH))


@pytest.mark.parametrize("case", EQUIVALENCE_CASES)
def test_pruned_coarse_pass_keeps_what_the_full_grid_keeps(case):
    n, ds, spec = EQUIVALENCE_CASES[case]
    count = len(spec.beta_grid())
    if case == "one-point-window":
        assert count == 1
    first, last = strides(spec.beta_step, count)
    if case == "window-under-first-stride":
        assert 1 < count < first
    if case == "offset-window":
        assert spec.beta_min > 0 and (count - 1) % first != 0
    if case == "coarse-step":
        assert first == last == 1
    if case == "fine-step":
        assert (first, last) == (256, 16)
    if case == "tiny-step":
        assert count == 101 and first == last == 128
    if case == "window-at-the-float-limit":
        kernel = SpectralKernel(_mode_cosines(n, 0.25), ds)
        low, rows = kernel.row_bounds(0.0, spec.beta_step, count)
        assert np.all(low == -np.inf) and np.all(rows(np.full(len(ds), 2.0)))
    pairs = mirror_pairs(n, spec.f_candidates)
    if case == "unpaired-twists":
        assert pairs == [(-0.25, 0.25)]
    if case == "open-mirror-displacements":
        assert len(pairs) == 2 and not {n - d for d in ds} <= set(ds)
    if case == "rounded-mirror":
        ((f, g),) = pairs
        mirrored = np.roll(_mode_cosines(n, f)[::-1], -1)
        assert g != -f and not np.array_equal(_mode_cosines(n, g), mirrored)
    if case == "step-squared-overflows":
        assert count == 11 and math.isinf(spec.beta_step * spec.beta_step)
    if case == "mixed-stack":
        assert pairs == [(-0.3, 0.1 + 0.2), (-0.25, 0.25)] and not {n - d for d in ds} <= set(ds)
    if case.endswith("lone-row"):
        starts, stride = _giant_steps(spec.beta_min, spec.beta_step, count)
        assert len(starts) % (amplitude._BLOCK // stride) == 1
    kept = coarse_pass(n, ds, spec)
    assert kept == coarse_pass_reference(n, ds, spec)
    assert all(kept[d] for d in ds)


@pytest.mark.parametrize("case", EQUIVALENCE_CASES)
def test_coarse_pass_keeps_rows_in_order_best_first_and_capped(case):
    # optimize_transfers groups the candidates by kernel row in this order;
    # each displacement's best itself is pinned by the equivalence test above
    n, ds, spec = EQUIVALENCE_CASES[case]
    kernel = SpectralKernel([_mode_cosines(n, f) for f in spec.f_candidates], ds)
    row, beta, value = optimize._coarse_pass(kernel, ds, spec)
    assert len(row) and np.all(np.diff(row) >= 0)
    same = np.diff(row) == 0
    assert np.all(np.diff(value)[same] <= 0)
    assert np.all(np.diff(beta)[same & (np.diff(value) == 0)] > 0)
    assert np.bincount(row).max() <= 64
    best = np.full(len(ds), -np.inf)
    np.maximum.at(best, row % len(ds), value)
    assert np.all(value >= best[row % len(ds)] - 1e-3)


def kernel_calls(monkeypatch):
    """Patch the kernel's evaluations `xi_grid`, `xi_rows` and `values` to log
    (name, arguments) of each call, but not the `xi_rows` call that `xi_grid`
    makes inside itself: one evaluation, one entry."""
    calls, in_grid = [], [False]
    for name in ("xi_grid", "xi_rows", "values"):
        def logged(self, *args, _method=getattr(SpectralKernel, name), _name=name):
            if not in_grid[0]:
                calls.append((_name, args))
            outer, in_grid[0] = in_grid[0], in_grid[0] or _name == "xi_grid"
            try:
                return _method(self, *args)
            finally:
                in_grid[0] = outer

        monkeypatch.setattr(SpectralKernel, name, logged)
    return calls


def evaluated_share(monkeypatch, n, ds, spec):
    """Share of the (twist, displacement, giant row) triples the coarse pass evaluates."""
    with monkeypatch.context() as patch:
        calls = kernel_calls(patch)
        coarse_pass(n, ds, spec)
    kept = [len(args[3]) for name, args in calls if name == "xi_rows"]
    assert len(kept) == 1  # the kept rows of every twist in one stacked call
    starts, _ = _giant_steps(spec.beta_min, spec.beta_step, len(spec.beta_grid()))
    return sum(kept) / (len(spec.f_candidates) * len(ds) * len(starts))


def test_coarse_pass_prunes_the_quarter_twist_landscapes(monkeypatch):
    spec = SearchSpec(f_candidates=twist_grid(8))
    assert evaluated_share(monkeypatch, 5, (1, 2, 3, 4), spec) < 0.015
    assert evaluated_share(monkeypatch, 7, tuple(range(1, 7)), spec) < 0.002
    blocked = SearchSpec(beta_max=500.0, f_candidates=(0.5,))
    assert evaluated_share(monkeypatch, 6, (3,), blocked) == 1.0


@pytest.mark.parametrize(
    "n, twists, bounding",
    [
        pytest.param(n, twists, bounding, id=f"{n}{grid}")
        for grid, twists, bounding in [
            ("", twist_grid(8), 5), ("-grid40", twist_grid(40), 21), ("-default", default_twist_grid(), 201)
        ]
        for n in (5, 7)
    ],
)
def test_bound_evaluates_a_third_of_a_stride_twenty_pre_grid(monkeypatch, n, twists, bounding):
    # a cost check without a clock: the (displacement, time) values the bound
    # reads on the 1/8, 1/40 and default 1/400 twist grids, its first level on
    # every bounding row and the midpoints of the stretches it halves, against
    # the 12,502 per bounding row of one pre-grid at every 20th fine point
    spec = SearchSpec(f_candidates=twists)
    count = len(spec.beta_grid())
    points, rows = [], []
    xi_grid, values = SpectralKernel.xi_grid, SpectralKernel.values

    def grid(kernel, b0, h, count):
        out = xi_grid(kernel, b0, h, count)
        points.append(out.size)
        rows.append(len(out))
        return out

    def scattered(kernel, at, betas):
        points.append(len(at))
        return values(kernel, at, betas)

    monkeypatch.setattr(SpectralKernel, "xi_grid", grid)
    monkeypatch.setattr(SpectralKernel, "values", scattered)
    coarse_pass(n, tuple(range(1, n)), spec)
    # one stacked first level: a bounding rate row for each mirrored pair of
    # twists, and for -1/2 and 0 alone (5 of 8, 21 of 40 and 201 of 400 twists)
    assert rows == [bounding * (n - 1)]
    assert sum(points) <= sum(rows) * ((count - 1) // 20 + 2) / 3


@pytest.mark.parametrize("n", [5, 7])
def test_coarse_pass_calls_do_not_grow_with_the_twist_grid(monkeypatch, n):
    # a cost check without a clock: the stacked kernels take every twist at
    # once, so five times the twists adds rows to the kernels' calls, not calls
    calls = kernel_calls(monkeypatch)
    counts = []
    for resolution in (8, 40):
        calls.clear()
        coarse_pass(n, tuple(range(1, n)), SearchSpec(f_candidates=twist_grid(resolution)))
        counts.append(Counter(name for name, _ in calls))
    first, last = strides(0.02, len(SearchSpec().beta_grid()))
    halvings = (first // last).bit_length() - 1  # 64 -> 4
    assert counts[0] == counts[1] == {"xi_grid": 1, "xi_rows": 1, "values": halvings}


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize(
    "twists", [twist_grid(8), RESTRICTED, twist_grid(40)], ids=["8", "quarter", "40"]
)
def test_candidate_cap_does_not_bind_on_the_table_grids(n, twists):
    # both references select from one full-grid pass, shared with the equivalence cases
    spec = SearchSpec(f_candidates=twists)
    ds = tuple(range(1, n))
    uncapped = coarse_pass_reference(n, ds, spec, cap=10**9)
    assert uncapped == coarse_pass_reference(n, ds, spec)
    assert max(len(kept) for kept in uncapped.values()) == (40 if n == 5 else 3)


def test_candidate_cap_binds_on_the_blocked_hexagon():
    # every rounding-noise ripple is an in-window maximum of a blocked landscape
    spec = SearchSpec(beta_max=500.0, f_candidates=(0.5,))
    assert len(coarse_pass_reference(6, (3,), spec, cap=10**9)[3]) == 8127
    assert len(coarse_pass_reference(6, (3,), spec)[3]) == 64
    rec = optimize_transfers(6, [3], spec)[3]
    # the unrefined window-start anchor ties the refined noise and wins on time
    assert (rec.f, rec.beta) == (0.5, spec.beta_min)
    assert len(rec.near_optima) == 65


def test_bound_halves_nothing_on_the_blocked_hexagon(monkeypatch):
    # a cost check without a clock: nothing prunes a blocked landscape, so the
    # bound keeps every giant row without reading a midpoint (halving every
    # stretch to the last level reads 5,862); its candidates are pinned by the
    # "blocked-hexagon" equivalence case
    midpoints, values = [], SpectralKernel.values

    def counted(kernel, at, betas):
        midpoints.append(len(at))
        return values(kernel, at, betas)

    monkeypatch.setattr(SpectralKernel, "values", counted)
    coarse_pass(*EQUIVALENCE_CASES["blocked-hexagon"])
    assert sum(midpoints) == 0


@pytest.mark.parametrize(
    "n, ds, count",
    [(5, (2,), 65537), (7, (1, 2, 3), 250001), (6, (3,), 65537), (4, (1, 2), 2), (5, (1, 2), 1)],
)
def test_fine_rows_match_the_full_grid_bit_for_bit(n, ds, count):
    # a kernel stacked from three twists, one the rounding mirror 0.1 + 0.2 of
    # -0.3, gives each (twist, displacement) the bits of that twist's kernel
    # alone, on the full grid and on a few giant rows (the pruned pass's
    # request): twist 0.2 keeps the picked rows of one displacement, -0.3 one
    # row alone in its product, and 0.1 + 0.2 none
    rng = np.random.default_rng(count)
    twists = (0.2, -0.3, 0.1 + 0.2)
    full = [SpectralKernel(_mode_cosines(n, f), ds).xi_grid(1.5, 0.02, count) for f in twists]
    stacked = SpectralKernel([_mode_cosines(n, f) for f in twists], ds)
    assert np.array_equal(stacked.xi_grid(1.5, 0.02, count), np.concatenate(full))
    starts, stride = _giant_steps(1.5, 0.02, count)
    last = len(starts) - 1
    some = sorted(rng.choice(len(starts), min(7, len(starts)), replace=False))
    picks = [[0], [last], sorted({0, last}), some]
    for rows in map(np.array, picks):
        for i in range(len(ds)):
            keep = np.zeros((len(twists) * len(ds), len(starts)), dtype=bool)
            keep[i, rows] = True
            keep[len(ds) + i, rows[-1]] = True
            pairs, giants = np.nonzero(keep)
            values = stacked.xi_rows(1.5, 0.02, count, pairs, giants)
            assert values.shape == (len(rows) + 1, stride)
            for pair, g, got in zip(pairs, giants, values):
                twist, d = divmod(pair, len(ds))
                want = full[twist][d, g * stride : (g + 1) * stride]
                assert np.array_equal(got[: len(want)], want), (rows, i, pair, g)
                assert np.all(got[len(want) :] == -np.inf), (rows, i, pair, g)


def test_optimize_uses_only_the_public_kernel():
    # how a grid is factored into BLAS products is the kernel's business alone;
    # the entangling scan's refinement goes through the same public evaluator
    for module in (optimize, entangle):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        private = [
            node.name
            for imp in ast.walk(tree)
            if isinstance(imp, ast.ImportFrom) and imp.module in ("amplitude", "spinring.amplitude")
            for node in imp.names
            if node.name.startswith("_")
        ]
        private += [
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not (node.attr.startswith("__") and node.attr.endswith("__"))
        ]
        assert private == [], module.__name__


def landscape(kind, k, phase):
    """A smooth test function of x, or ripples of rounding-noise size on a plateau."""
    if kind == "smooth":
        return lambda x: math.cos(k * x + phase)
    return lambda x: 1e-16 * math.sin(1e6 * k * x + phase)


def scalar_searches(fns, brackets, tol):
    """`golden_max_reference` per bracket; returns the results and the points each asked for."""
    results, asked = [], []
    for fn, (lo, hi) in zip(fns, brackets):
        points = []
        results.append(golden_max_reference(lambda x: points.append(x) or fn(x), lo, hi, tol))
        asked.append(points)
    return results, asked


@settings(max_examples=100, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(
            st.sampled_from(["smooth", "noisy"]),
            st.floats(0.1, 50.0),
            st.floats(0.0, 6.3),
            st.floats(0.0, 1.0),
            st.floats(1e-6, 10.0),
        ),
        max_size=6,
    ),
    edge=st.floats(0.5, 100.0),
    tol=st.sampled_from([1e-7, 1e-4, 1e-2]),
)
def test_lockstep_golden_is_the_scalar_search_bit_for_bit(shapes, edge, tol):
    # brackets of different widths, clipped at the window edges [0, edge] as the
    # golden-section references clip theirs, finish after different numbers of steps
    fns = [landscape(kind, k, phase) for kind, k, phase, _, _ in shapes]
    brackets = [
        (max(0.0, at * edge - width), min(edge, at * edge + width)) for *_, at, width in shapes
    ]
    expected, asked = scalar_searches(fns, brackets, tol)
    calls = []

    def batched(points):
        calls.append(points)
        return [fns[i](x) for i, x in points]

    assert golden_max_lockstep(batched, brackets, tol) == expected
    # the first call asks for lo, hi and the two interior points of every
    # bracket, each later one for one new point of each unfinished bracket
    got = [[x for call in calls for i, x in call if i == j] for j in range(len(brackets))]
    assert got == asked
    assert len(calls) == (1 + max(len(points) - 4 for points in asked) if asked else 0)
    for call in calls[1:]:
        indices = [i for i, _ in call]
        assert len(set(indices)) == len(indices)


def test_lockstep_golden_of_one_and_of_no_bracket():
    fn = landscape("smooth", 3.0, 0.5)
    expected, _ = scalar_searches([fn], [(0.0, 2.0)], 1e-7)

    def batched(points):
        return [fn(x) for _, x in points]

    assert golden_max_lockstep(batched, [(0.0, 2.0)], 1e-7) == expected

    def unreachable(points):
        raise AssertionError("called with no brackets")

    assert golden_max_lockstep(unreachable, [], 1e-7) == []


@pytest.mark.parametrize("lo, hi, tol", [(8e8, 1e9, 1e-7), (0.0, 1e13, 1e-4)])
def test_golden_search_stops_below_the_float_spacing(lo, hi, tol):
    # the spacing of floats at hi exceeds tol, so the bracket can never shrink
    # to tol; a search without a floor there would run forever
    assert math.ulp(hi) > tol
    peak, calls = lo + 0.3 * (hi - lo), []

    def fn(points):
        calls.append(points)
        assert len(calls) < 1000, "the golden search does not stop"
        return [-((x - peak) ** 2) for _, x in points]

    [(x, _)] = golden_max_lockstep(fn, [(lo, hi)], tol)
    assert abs(x - peak) <= 8 * math.ulp(hi)


def test_pentagon_next_nearest_window():
    # published row: d=2 optimum at f=-0.25, beta=162.51, xi=0.9999
    rec = optimize_transfers(5, [2], SearchSpec(beta_max=200.0, f_candidates=RESTRICTED))[2]
    assert rec.f == -0.25
    assert abs(rec.beta - 162.51) <= 0.5
    assert rec.xi >= 0.9998


def test_full_twist_grid_confirms_quarter_twist():
    # the 1/400 grid plus twist refinement lands back on f = -0.25
    rec = optimize_transfers(5, [2], SearchSpec(beta_max=170.0))[2]
    assert abs(rec.f + 0.25) <= 1 / 800
    assert abs(rec.beta - 162.51) <= 0.5
    assert rec.xi >= 0.99992


def test_twist_refinement_moves_an_off_grid_winner():
    # the twist list misses the optimum near f = -0.19967; the coarse grid's
    # best, 0.99255 at f = -0.2, is beaten by the refined twist
    spec = SearchSpec(beta_max=2000.0, f_candidates=(-0.2, 0.2))
    rec = optimize_transfers(5, [1], spec)[1]
    count = len(spec.beta_grid())
    grid_best = max(
        float(xi_profile(RingConfig(5, f=f), 1, spec.beta_min, spec.beta_step, count).max())
        for f in spec.f_candidates
    )
    assert grid_best == pytest.approx(0.99255, abs=1e-5)
    assert rec.f == pytest.approx(-0.19967, abs=1e-5)
    assert rec.xi == pytest.approx(0.99463, abs=1e-5)
    assert rec.xi > grid_best + 1e-3


@pytest.mark.parametrize("n", [5, 7])
def test_table_records_are_strict_two_dimensional_local_maxima(n):
    # every record of the benchmark's 1/8 twist grid is polished; there g = |a|^2
    # has a negative definite Hessian in (beta, f), and the Newton step still to
    # take is far below the polish tolerance in beta and in twist phase
    spec = SearchSpec(f_candidates=twist_grid(8))
    k = 2.0 * math.pi / n
    for d, rec in optimize_transfers(n, range(1, n), spec).items():
        slopes, bends = ring_twist_derivatives(n, rec.f)
        kernel = SpectralKernel(_mode_cosines(n, rec.f), (d,))
        _, g_b, g_f, h_bb, h_bf, h_ff = kernel.jet([0], [rec.beta], [slopes], [bends])[:, 0]
        assert h_bb < 0 and h_bb * h_ff - h_bf**2 > 0, (n, d)
        step_b, step_f = np.linalg.solve([[h_bb, h_bf], [h_bf, h_ff]], [g_b, g_f])
        assert abs(step_b) <= 1e-6 and abs(step_f) * k * rec.beta <= 1e-6, (n, d)
        assert abs(g_b) <= 1e-6 and abs(g_f) <= 1e-9 * k * rec.beta, (n, d)


def test_polish_never_falls_below_the_golden_searches():
    # seeded random searches: every ring size 3..11, 1-5 uniform twists,
    # windows to 50..2000 and all displacements, where the former nested
    # golden searches often stopped on the edge of their twist window
    rng = np.random.default_rng(17)
    lower, higher, total = [], 0, 0
    for n in [m for m in range(3, 12) for _ in range(4)]:
        twists = tuple(float(f) for f in rng.uniform(-0.5, 0.5, int(rng.integers(1, 6))))
        spec = SearchSpec(beta_max=float(rng.uniform(50.0, 2000.0)), f_candidates=twists)
        ds = tuple(range(1, n))
        records = optimize_transfers(n, ds, spec)
        reference = golden_search_reference(n, ds, spec)
        for d in ds:
            rec, total = records[d], total + 1
            assert all(spec.beta_min <= p.beta <= spec.beta_max for p in rec.near_optima)
            if rec.xi < reference[d][2] - 1e-12:
                lower.append((n, d, twists, spec.beta_max, rec.xi - reference[d][2]))
            higher += rec.xi > reference[d][2] + 1e-12
    assert lower == []
    assert total > 200 and higher > total // 2


def test_blocked_task_reports_window_start():
    rec = optimize_transfers(4, [2], SearchSpec(beta_max=100.0, f_candidates=(0.5,)))[2]
    assert rec.xi <= 1e-12
    assert rec.beta == 0.0
    assert rec.f == 0.5


def test_mirrored_tasks_produce_mirrored_optima():
    spec = SearchSpec(beta_max=200.0, f_candidates=RESTRICTED)
    fwd = optimize_transfers(5, [2], spec)[2]
    bwd = optimize_transfers(5, [3], spec)[3]
    assert fwd.f == -bwd.f
    assert abs(fwd.beta - bwd.beta) <= spec.refine_tol
    assert abs(fwd.xi - bwd.xi) <= 1e-9


def test_wider_window_never_hurts():
    narrow = optimize_transfers(5, [2], SearchSpec(beta_max=170.0, f_candidates=RESTRICTED))[2]
    wide = optimize_transfers(5, [2], SearchSpec(beta_max=400.0, f_candidates=RESTRICTED))[2]
    assert wide.xi >= narrow.xi - 1e-12


def test_halving_the_grid_step_is_converged():
    coarse = optimize_transfers(5, [2], SearchSpec(beta_max=200.0, f_candidates=RESTRICTED))[2]
    fine = optimize_transfers(
        5, [2], SearchSpec(beta_max=200.0, beta_step=0.01, f_candidates=RESTRICTED)
    )[2]
    assert abs(coarse.xi - fine.xi) < 1e-4


def test_records_reevaluate_identically():
    spec = SearchSpec(beta_max=300.0, f_candidates=RESTRICTED)
    for d in (1, 2):
        rec = optimize_transfers(5, [d], spec)[d]
        again = xi(RingConfig(5, f=rec.f), d, rec.beta)
        assert abs(rec.xi - again) <= 1e-10


def test_three_party_nonagon_plan():
    spec = SearchSpec(beta_max=9000.0, f_candidates=RESTRICTED)
    plan = multiparty_plan(9, [1, 4, 7], spec)
    by_pair = {(p.site_a, p.site_b): p.record for p in plan}
    assert set(by_pair) == {(1, 4), (1, 7), (4, 7)}

    rec = by_pair[(1, 4)]
    assert rec.f == -0.25
    assert abs(rec.beta - 8481.4) <= 0.5
    assert abs(rec.xi - 0.9988) <= 2e-3

    mirror = by_pair[(1, 7)]
    assert mirror.f == 0.25
    assert abs(mirror.beta - rec.beta) <= spec.refine_tol
    assert abs(mirror.xi - rec.xi) <= 1e-9

    # same displacement -> rotationally equivalent -> shared record
    assert by_pair[(4, 7)] is rec


def test_three_party_pentadecagon_plan():
    spec = SearchSpec(beta_max=12000.0, f_candidates=RESTRICTED)
    plan = multiparty_plan(15, [1, 6, 11], spec)
    by_pair = {(p.site_a, p.site_b): p.record for p in plan}
    rec = by_pair[(1, 6)]
    assert rec.f == 0.25
    assert abs(rec.beta - 11502.1) <= 0.5
    assert 0.934 <= rec.xi <= 0.937
    assert by_pair[(1, 11)].f == -0.25


def test_pentagon_all_pairs_match_published_rows():
    spec = SearchSpec(beta_max=1300.0, f_candidates=RESTRICTED)
    plan = multiparty_plan(5, [1, 2, 3, 4, 5], spec)
    published = {1: (-0.25, 1214.3), 2: (-0.25, 162.51), 3: (0.25, 162.51), 4: (0.25, 1214.3)}
    for p in plan:
        f_pub, beta_pub = published[p.record.d]
        match = [
            q
            for q in p.record.near_optima
            if abs(q.beta - beta_pub) <= 0.5 and q.f == f_pub
        ]
        assert match, f"no window near beta={beta_pub} for d={p.record.d}"
        assert max(q.xi for q in match) >= 0.9997


def test_fidelity_always_follows_xi():
    spec = SearchSpec(beta_max=200.0, f_candidates=RESTRICTED)
    records = [optimize_transfers(5, [2], spec)[2]]
    records += [p.record for p in multiparty_plan(5, [1, 2, 4], spec)]
    for rec in records:
        assert rec.fidelity == fidelity_from_xi(rec.xi)


def test_validation_errors():
    with pytest.raises(ValueError):
        optimize_transfers(5, [0])
    with pytest.raises(ValueError):
        optimize_transfers(5, [5])
    with pytest.raises(ValueError):
        multiparty_plan(9, [1])
    with pytest.raises(ValueError):
        multiparty_plan(9, [1, 4, 4])
    with pytest.raises(ValueError):
        multiparty_plan(9, [1, 40])
    with pytest.raises(ValueError):
        optimize_transfers(5, (1, 2, 9))


def test_an_empty_displacement_list_is_refused_by_name():
    with pytest.raises(ValueError, match="at least one displacement"):
        optimize_transfers(5, [])
