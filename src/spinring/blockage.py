"""Flux-controlled blocking of transmission to the diametric site.

The kernel's amplitude a_d(beta) = (1/N) sum_m w_m exp(i*beta*c_m), w_m =
exp(2*pi*i*d*m/N), is zero at every beta iff the weights of each class of
modes with one rate c_m sum to zero (distinct frequencies are independent).
c_m = cos(2*pi*(m+f)/N) repeats only where m + m' + 2f = 0 mod N, so a class
is a mode or a pair, which cancels iff 2d(m' - m) = N mod 2N.  Every mode
pairs only on an even ring at f = 1/2 mod 1 (m' = N-1-m, m' - m odd), so the
blocked channels are exactly: N even, f = 1/2 mod 1, d = N/2.  At f = 0 every
channel hears, so the twist switches the diametric receiver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amplitude import SpectralKernel
from .ring import RingConfig, _mode_cosines

# unused here, but benchmarks/spans.py patches `spinring.blockage.xi` in its
# traced mode, so the name must stay a module attribute
from .amplitude import xi  # noqa: F401

__all__ = ["BlockageReport", "verify_blockage"]

BLOCKED_XI = 1e-12
_SAMPLE_BLOCK = 65536


@dataclass(frozen=True)
class BlockageReport:
    """Outcome of one blocking check on an N = 4*C ring."""

    n: int
    d: int
    f: float
    samples: int
    max_xi_over_samples: float
    analytic_zero: bool


def _blocked(n: int, d: int, f: float) -> bool:
    """Whether a_d is zero at every beta, in integers: the modes m = 1..N grouped by
    bit-equal `_mode_cosines(n, f)` (its fold makes degenerate pairs bit-equal),
    each class a pair {m, m'} with 2d(m' - m) = N mod 2N."""
    _, level, size = np.unique(_mode_cosines(n, f), return_inverse=True, return_counts=True)
    if np.any(size != 2):
        return False
    m, m_prime = np.argsort(level, kind="stable").reshape(-1, 2).T
    return bool(np.all(2 * (d % n) * (m_prime - m) % (2 * n) == n))


def verify_blockage(quarter_rings: int, beta_samples) -> BlockageReport:
    """Half-flux blocking to d = 2*C on the N = 4*C ring: `analytic_zero` is whether
    a_d is exactly zero at every beta (`_blocked`), `max_xi_over_samples` the
    largest xi the spectral route reads on the beta samples."""
    if not isinstance(quarter_rings, (int, np.integer)) or quarter_rings < 1:
        raise ValueError(f"quarter_rings must be a positive integer, got {quarter_rings!r}")
    samples = np.asarray(beta_samples, dtype=float).ravel()
    if not samples.size:
        raise ValueError("need at least one beta sample")
    if not np.all(np.isfinite(samples) & (samples >= 0.0)):
        raise ValueError("beta samples must be finite and >= 0")

    n, d = 4 * quarter_rings, 2 * quarter_rings
    cfg = RingConfig(n, f=0.5)  # refuses a ring too large to build its modes
    # one point sum per sample, each with the bits of `xi(cfg, d, b)`; a block
    # of samples at a time bounds the list of xi values `.xi` returns
    kernel = SpectralKernel(_mode_cosines(cfg.n, cfg.f), (d,))
    blocks = (samples[lo : lo + _SAMPLE_BLOCK] for lo in range(0, len(samples), _SAMPLE_BLOCK))
    worst = max(max(kernel.xi(np.zeros(len(block), np.intp), block)) for block in blocks)
    return BlockageReport(
        n=n,
        d=d,
        f=0.5,
        samples=len(samples),
        max_xi_over_samples=worst,
        analytic_zero=_blocked(n, d, cfg.f),
    )
