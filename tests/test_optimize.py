"""Grid-plus-refinement optimizer, multiparty plans, and the fidelity map."""

import numpy as np
import pytest

from spinring.amplitude import xi, xi_profile
from spinring.optimize import (
    SearchSpec,
    default_twist_grid,
    fidelity_from_xi,
    multiparty_plan,
    optimize_transfer,
    optimize_transfers,
)
from spinring.ring import RingConfig

RESTRICTED = (-0.25, 0.25)


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


def test_pentagon_next_nearest_window():
    # published row: d=2 optimum at f=-0.25, beta=162.51, xi=0.9999
    rec = optimize_transfer(5, 2, SearchSpec(beta_max=200.0, f_candidates=RESTRICTED))
    assert rec.f == -0.25
    assert abs(rec.beta - 162.51) <= 0.5
    assert rec.xi >= 0.9998


def test_full_twist_grid_confirms_quarter_twist():
    # the 1/400 grid plus twist refinement lands back on f = -0.25
    rec = optimize_transfer(5, 2, SearchSpec(beta_max=170.0))
    assert abs(rec.f + 0.25) <= 1 / 800
    assert abs(rec.beta - 162.51) <= 0.5
    assert rec.xi >= 0.99992


def test_twist_refinement_moves_an_off_grid_winner():
    # the twist list misses the optimum near f = -0.19967; the coarse grid's
    # best, 0.99255 at f = -0.2, is beaten by the refined twist
    spec = SearchSpec(beta_max=2000.0, f_candidates=(-0.2, 0.2))
    rec = optimize_transfer(5, 1, spec)
    grid_best = max(
        float(xi_profile(RingConfig(5, f=f), 1, spec.beta_grid()).max()) for f in spec.f_candidates
    )
    assert grid_best == pytest.approx(0.99255, abs=1e-5)
    assert rec.f == pytest.approx(-0.19967, abs=1e-5)
    assert rec.xi == pytest.approx(0.99463, abs=1e-5)
    assert rec.xi > grid_best + 1e-3


def test_blocked_task_reports_window_start():
    rec = optimize_transfer(4, 2, SearchSpec(beta_max=100.0, f_candidates=(0.5,)))
    assert rec.xi <= 1e-12
    assert rec.beta == 0.0
    assert rec.f == 0.5


def test_mirrored_tasks_produce_mirrored_optima():
    spec = SearchSpec(beta_max=200.0, f_candidates=RESTRICTED)
    fwd = optimize_transfer(5, 2, spec)
    bwd = optimize_transfer(5, 3, spec)
    assert fwd.f == -bwd.f
    assert abs(fwd.beta - bwd.beta) <= spec.refine_tol
    assert abs(fwd.xi - bwd.xi) <= 1e-9


def test_wider_window_never_hurts():
    narrow = optimize_transfer(5, 2, SearchSpec(beta_max=170.0, f_candidates=RESTRICTED))
    wide = optimize_transfer(5, 2, SearchSpec(beta_max=400.0, f_candidates=RESTRICTED))
    assert wide.xi >= narrow.xi - 1e-12


def test_halving_the_grid_step_is_converged():
    coarse = optimize_transfer(5, 2, SearchSpec(beta_max=200.0, f_candidates=RESTRICTED))
    fine = optimize_transfer(
        5, 2, SearchSpec(beta_max=200.0, beta_step=0.01, f_candidates=RESTRICTED)
    )
    assert abs(coarse.xi - fine.xi) < 1e-4


def test_records_reevaluate_identically():
    spec = SearchSpec(beta_max=300.0, f_candidates=RESTRICTED)
    for d in (1, 2):
        rec = optimize_transfer(5, d, spec)
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
    records = [optimize_transfer(5, 2, spec)]
    records += [p.record for p in multiparty_plan(5, [1, 2, 4], spec)]
    for rec in records:
        assert rec.fidelity == fidelity_from_xi(rec.xi)


def test_validation_errors():
    with pytest.raises(ValueError):
        optimize_transfer(5, 0)
    with pytest.raises(ValueError):
        optimize_transfer(5, 5)
    with pytest.raises(ValueError):
        multiparty_plan(9, [1])
    with pytest.raises(ValueError):
        multiparty_plan(9, [1, 4, 4])
    with pytest.raises(ValueError):
        multiparty_plan(9, [1, 40])
    with pytest.raises(ValueError):
        optimize_transfers(5, (1, 2, 9))
