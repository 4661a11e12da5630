"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 3's hexagon control is expected to fail; see its docstring.
"""

import math

import numpy as np
from scipy.special import jv

from conftest import (
    evolve_joint,
    flux_ring_entanglement,
    full_space_oracle,
    single_bond_hamiltonian,
    square_ring_entropy,
)
from spinring.amplitude import (
    AmplitudeQuery,
    amplitude_bessel,
    amplitude_oracle,
    amplitude_spectral,
    xi,
    xi_profile,
)
from spinring.blockage import bessel_pair_coefficients, verify_blockage
from spinring.cli import PUBLISHED_WINDOWS
from spinring.entangle import REFERENCE_BETA, find_entangling_time
from spinring.optimize import SearchSpec, optimize_transfers
from spinring.ring import RingConfig, build_hamiltonian, propagate_oracle, site_state

ROOT2 = math.sqrt(2.0)


def report(label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {label}: {status}{suffix}")
    return ok


def test_criterion_1_table_reproduction():
    """Published 5/7-ring optima: direct evaluation and restricted search."""
    spec = SearchSpec(f_candidates=(-0.25, 0.25))
    records = {}
    records.update({(5, d): r for d, r in optimize_transfers(5, (1, 2, 3, 4), spec).items()})
    records.update({(7, d): r for d, r in optimize_transfers(7, (1, 2, 3, 4, 5, 6), spec).items()})

    ok = True
    worst_eval = 0.0
    for n, d, f_pub, beta_pub, xi_pub in PUBLISHED_WINDOWS:
        xi_eval = xi(RingConfig(n, f=f_pub), d, beta_pub)
        worst_eval = max(worst_eval, abs(xi_eval - xi_pub))
        ok &= abs(xi_eval - xi_pub) <= 2e-3

        rec = records[(n, d)]
        ok &= rec.xi >= xi_pub - 1e-3
        matched = any(
            abs(p.beta - beta_pub) <= 0.5 and p.xi >= xi_pub - 1e-3
            for p in rec.near_optima
        )
        ok &= matched
    assert report(
        "criterion 1 (table reproduction)",
        ok,
        f"worst |xi_eval - xi_table| = {worst_eval:.2e}; optimizer matched all 10 windows",
    )


def test_criterion_2_multiparty_points():
    """Three-party operating points on the 9- and 15-site rings."""
    xi_9 = xi(RingConfig(9, f=-0.25), 3, 8481.4)
    xi_15 = xi(RingConfig(15, f=0.25), 5, 11502.0)
    ok = abs(xi_9 - 0.9988) <= 2e-3 and abs(xi_15 - 0.9333) <= 2e-3
    assert report(
        "criterion 2 (multi-party points)",
        ok,
        f"xi(9,3) = {xi_9:.6f} vs 0.9988; xi(15,5) = {xi_15:.6f} vs 0.9333",
    )


def test_criterion_3_blockage_theorem():
    """Half-flux diametric blocking on 4C rings, plus the off-diameter control."""
    rng = np.random.default_rng(2026)
    ok = True
    worst = 0.0
    for quarter in (1, 2, 3, 4):
        rep = verify_blockage(quarter, rng.uniform(0.0, 5000.0, 200))
        worst = max(worst, rep.max_xi_over_samples)
        ok &= rep.analytic_zero and rep.max_xi_over_samples <= 1e-12
        ok &= float(np.max(np.abs(bessel_pair_coefficients(quarter)))) <= 1e-14
    leak_8_2 = float(xi_profile(RingConfig(8, f=0.5), 2, 0.0, 0.01, 10001).max())
    ok &= leak_8_2 > 0.1
    assert report(
        "criterion 3 (blockage theorem + N=8 d=2 control)",
        ok,
        f"max blocked xi = {worst:.2e}; off-diameter leak = {leak_8_2:.3f}",
    )


def test_criterion_3_hexagon_negative_control():
    """Stated control: the 6-ring at half flux should leak to the diametric site.

    It cannot: at f = 1/2 the levels -4*cos(2*pi*(m+1/2)/N) pair up between m
    and N-1-m for EVERY even N, while the diametric weights exp(i*pi*m)
    alternate sign, so each degenerate pair cancels identically and the
    diametric amplitude is exactly zero for all times - on N = 6 just as on
    N = 4 or 8 (the quarter-ring proof is sufficient, not necessary).  The
    assertion below encodes the stated control faithfully and therefore
    fails; the truthful characterization is test_blockage.py::
    test_diametric_blocking_holds_for_every_even_ring.
    """
    leak_6_3 = float(xi_profile(RingConfig(6, f=0.5), 3, 0.0, 0.01, 10001).max())
    assert report(
        "criterion 3 (N=6 d=3 control)",
        leak_6_3 > 0.1,
        f"max xi over beta <= 100 is {leak_6_3:.2e}; the hexagon is blocked too",
    )


def test_criterion_4_method_equivalence():
    """Spectral, Bessel-ladder and matrix propagator agree on 500 random draws."""
    rng = np.random.default_rng(404)
    worst_pair = 0.0
    for _ in range(500):
        n = int(rng.integers(3, 31))
        cfg = RingConfig(n, f=float(rng.uniform(-0.5, 0.5)))
        q = AmplitudeQuery(
            cfg,
            r=int(rng.integers(1, n + 1)),
            s=int(rng.integers(1, n + 1)),
            beta=float(rng.uniform(0.0, 5000.0)),
        )
        xs = amplitude_spectral(q).xi
        xb = amplitude_bessel(q).xi
        xo = amplitude_oracle(q).xi
        worst_pair = max(worst_pair, abs(xs - xb), abs(xs - xo), abs(xb - xo))
    worst_unitarity = 0.0
    for _ in range(40):
        n = int(rng.integers(3, 31))
        cfg = RingConfig(n, f=float(rng.uniform(-0.5, 0.5)))
        beta = float(rng.uniform(0.0, 5000.0))
        total = sum(
            amplitude_spectral(AmplitudeQuery(cfg, r=r, s=1, beta=beta)).xi ** 2
            for r in range(1, n + 1)
        )
        worst_unitarity = max(worst_unitarity, abs(total - 1.0))
    ok = worst_pair <= 1e-8 and worst_unitarity <= 1e-10
    assert report(
        "criterion 4 (method equivalence)",
        ok,
        f"worst pairwise = {worst_pair:.2e}; worst column sum dev = {worst_unitarity:.2e}",
    )


def test_criterion_5_full_space_validation():
    """2^N exchange dynamics projected to one excitation matches the sector."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for n in (4, 5, 6, 7, 8):
        for _ in range(4):
            cfg = RingConfig(n, f=float(rng.uniform(-0.5, 0.5)))
            s = int(rng.integers(1, n + 1))
            beta = float(rng.uniform(0.0, 50.0))
            psi0 = site_state(n, s)
            sector = propagate_oracle(cfg, psi0, beta)
            full = full_space_oracle(cfg, psi0, beta)
            worst = max(worst, float(np.max(np.abs(np.abs(sector) - np.abs(full)))))
    assert report(
        "criterion 5 (full-space validation)", worst <= 1e-10, f"worst mismatch = {worst:.2e}"
    )


def test_criterion_6_large_ring_limit():
    """On a 200-site ring the amplitude collapses to a single Bessel order."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for d in range(6):
        for _ in range(6):
            beta = float(rng.uniform(0.0, 20.0))
            f = float(rng.uniform(-0.5, 0.5))
            ref = abs(jv(d, beta))
            cfg = RingConfig(200, f=f)
            q = AmplitudeQuery(cfg, r=d + 1, s=1, beta=beta)
            worst = max(
                worst,
                abs(amplitude_spectral(q).xi - ref),
                abs(amplitude_bessel(q).xi - ref),
            )
    assert report(
        "criterion 6 (large-ring Bessel limit)", worst <= 1e-6, f"worst |xi - |J_d|| = {worst:.2e}"
    )


def test_criterion_7_entangling_protocol():
    """Square-ring protocol facts, the entropy scan, and the 8.5*pi reading."""
    transfer = abs(propagate_oracle(RingConfig(4), site_state(4, 1), math.pi)[2])
    revival = abs(
        propagate_oracle(RingConfig(4, f=0.5), site_state(4, 1), ROOT2 * math.pi)[0]
    )
    ok = abs(transfer - 1.0) <= 1e-12 and abs(revival - 1.0) <= 1e-12

    scan = find_entangling_time(50.0, step=0.005)
    ok &= scan.best.entropy_ebits >= 0.99

    reading = flux_ring_entanglement(evolve_joint(site_state(4, 1), REFERENCE_BETA))
    oracle_entropy = square_ring_entropy(REFERENCE_BETA)
    ok &= abs(reading.entropy_ebits - oracle_entropy) <= 1e-9
    assert report(
        "criterion 7 (entangling protocol)",
        ok,
        f"best entropy {scan.best.entropy_ebits:.6f} at beta = {scan.best.beta:.4f}; "
        f"at 8.5*pi entropy = {reading.entropy_ebits:.6f} (claimed maximal; "
        f"shortfall {1 - reading.entropy_ebits:.4f} ebits, matches closed form)",
    )


def test_criterion_8_symmetry_suite():
    """Reflection-twist, twist periodicity, field independence, gauge freedom."""
    rng = np.random.default_rng(808)
    worst = {"reflection": 0.0, "periodicity": 0.0, "field": 0.0, "gauge": 0.0}

    for _ in range(40):
        n = int(rng.integers(3, 21))
        d = int(rng.integers(0, n))
        f = float(rng.uniform(-0.5, 0.5))
        beta = float(rng.uniform(0.0, 100.0))
        worst["reflection"] = max(
            worst["reflection"],
            abs(xi(RingConfig(n, f=f), d, beta) - xi(RingConfig(n, f=-f), n - d, beta)),
        )
        worst["periodicity"] = max(
            worst["periodicity"],
            abs(xi(RingConfig(n, f=f), d, beta) - xi(RingConfig(n, f=f + 1.0), d, beta)),
        )

    for _ in range(40):
        n = int(rng.integers(3, 21))
        d = int(rng.integers(0, n))
        f = float(rng.uniform(-0.5, 0.5))
        beta = float(rng.uniform(0.0, 5000.0))
        worst["field"] = max(
            worst["field"],
            abs(xi(RingConfig(n, f=f, b=0.0), d, beta) - xi(RingConfig(n, f=f, b=7.3), d, beta)),
        )

    for _ in range(20):
        n = int(rng.integers(3, 13))
        cfg = RingConfig(n, f=float(rng.uniform(-0.5, 0.5)))
        t = float(rng.uniform(0.0, 50.0)) / (4.0 * cfg.j)
        mags = []
        for h in (build_hamiltonian(cfg), single_bond_hamiltonian(cfg)):
            w, v = np.linalg.eigh(h)
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            mags.append(np.abs(u))
        worst["gauge"] = max(worst["gauge"], float(np.max(np.abs(mags[0] - mags[1]))))

    ok = all(v <= 1e-12 for v in worst.values())
    assert report(
        "criterion 8 (symmetry suite)",
        ok,
        "; ".join(f"{k} {v:.2e}" for k, v in worst.items()),
    )
