"""Flux-controlled blocking of transmission to the diametric site.

On a ring of N = 4*C sites with half flux (f = 1/2), the amplitude from any
site to the site diametrically opposite (displacement d = 2*C) vanishes
identically, for all times.  In the Bessel-ladder form the two sums run over
the same orders (d' = N - d = d) and their coefficients cancel term by term;
in the spectral form, modes m and N-1-m are degenerate while their DFT
weights exp(i*pi*m) have opposite signs.  Opening the flux (f = 0) restores
transmission, so the twist acts as an information switch for the diametric
receiver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitude import bessel_ladders, unit_phase, xi
from .ring import RingConfig

__all__ = ["BlockageReport", "verify_blockage", "bessel_pair_coefficients"]

BLOCKED_XI = 1e-12
_PAIR_CANCEL_TOL = 1e-14


@dataclass(frozen=True)
class BlockageReport:
    """Outcome of one blocking check on an N = 4*C ring."""

    n: int
    d: int
    f: float
    samples: int
    max_xi_over_samples: float
    analytic_zero: bool


def bessel_pair_coefficients(quarter_rings: int, k_terms: int = 16) -> np.ndarray:
    """Paired ladder coefficients c1_k + c2_k of the half-flux diametric amplitude.

    Both Bessel sums run over the same orders d + k*N, so the amplitude is
    sum_k (c1_k + c2_k) * J_{d+kN}(beta); the theorem is that each bracket is
    zero regardless of beta.  The coefficients are the route's (`bessel_ladders`).
    """
    (_, pre, turns), (_, pre_p, turns_p) = bessel_ladders(4 * quarter_rings, 2 * quarter_rings, 0.5)
    ks = np.arange(k_terms)
    return pre * unit_phase(turns, ks) + pre_p * unit_phase(turns_p, ks)


def verify_blockage(quarter_rings: int, beta_samples) -> BlockageReport:
    """Check half-flux diametric blocking both analytically and on beta samples."""
    if not isinstance(quarter_rings, (int, np.integer)) or quarter_rings < 1:
        raise ValueError(f"quarter_rings must be a positive integer, got {quarter_rings!r}")
    samples = [float(b) for b in beta_samples]
    if not samples:
        raise ValueError("need at least one beta sample")
    if any(not math.isfinite(b) for b in samples):
        raise ValueError("beta samples must be finite")

    n, d = 4 * quarter_rings, 2 * quarter_rings
    analytic_zero = bool(
        np.max(np.abs(bessel_pair_coefficients(quarter_rings))) <= _PAIR_CANCEL_TOL
    )
    cfg = RingConfig(n, f=0.5)
    worst = max(xi(cfg, d, b) for b in samples)
    return BlockageReport(
        n=n,
        d=d,
        f=0.5,
        samples=len(samples),
        max_xi_over_samples=worst,
        analytic_zero=analytic_zero,
    )

