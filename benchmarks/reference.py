"""Independent physics used to check spinring's outputs.

Nothing here imports spinring.  The sector Hamiltonian is rebuilt from the
model (uniform gauge: hopping -2J*exp(-2*pi*i*f/N) from site j to j+1, diagonal
-J(N-4) - B(N-2)) and propagated with a Pade matrix exponential, the 4-ring
flux-qubit protocol uses its closed form, and the published optimum table is
kept here as its own copy.
"""

from __future__ import annotations

import math

import numpy as np

# Published optimum windows of the 5- and 7-site rings: (n, d, f, beta, xi),
# beta quoted to 5 significant figures and xi to 4 decimals.
PUBLISHED_WINDOWS = (
    (5, 1, -0.25, 1214.3, 0.9998),
    (5, 2, -0.25, 162.51, 0.9999),
    (5, 3, 0.25, 162.51, 0.9999),
    (5, 4, 0.25, 1214.3, 0.9998),
    (7, 1, -0.25, 4365.0, 0.9997),
    (7, 2, 0.25, 1942.6, 0.9994),
    (7, 3, 0.25, 3500.4, 0.9996),
    (7, 4, -0.25, 3500.4, 0.9996),
    (7, 5, -0.25, 1942.6, 0.9994),
    (7, 6, 0.25, 4365.0, 0.9997),
)
# A window is matched when xi at the quoted point is within 2e-3 of the quoted
# xi (4 decimals plus the 5-figure beta rounding) and a reported optimum lies
# within 0.5 of the quoted beta, no more than 1e-3 below the quoted xi.
WINDOW_XI_TOL = 2e-3
WINDOW_XI_SLACK = 1e-3
WINDOW_BETA_TOL = 0.5


def sector_hamiltonian(n: int, f: float, j: float = 1.0, b: float = 0.0) -> np.ndarray:
    h = np.diag(np.full(n, -j * (n - 4) - b * (n - 2), dtype=complex))
    hop = -2.0 * j * np.exp(-2j * np.pi * f / n)
    for site in range(n):
        nxt = (site + 1) % n
        h[nxt, site] += hop
        h[site, nxt] += np.conj(hop)
    return h


def propagator(n: int, f: float, beta: float, j: float = 1.0, b: float = 0.0) -> np.ndarray:
    """exp(-i H t) at scaled time beta = 4 J t."""
    # imported here so that a process which only reads the table stays light
    from scipy.linalg import expm

    return expm(-1j * sector_hamiltonian(n, f, j, b) * (beta / (4.0 * j)))


def amplitude(n: int, d: int, f: float, beta: float) -> complex:
    """Amplitude from site 1 to site 1 + d (J = 1, B = 0)."""
    return complex(propagator(n, f, beta)[d % n, 0])


def square_ring_overlap(beta: np.ndarray) -> np.ndarray:
    """Branch overlap of the 4-ring flux-qubit protocol, f = 0 against f = 1/2."""
    r2 = math.sqrt(2.0)
    return (1.0 + np.cos(beta)) * np.cos(beta / r2) / 2.0 + np.sin(beta) * np.sin(beta / r2) / 2.0


def entropy_from_overlap(overlap: np.ndarray) -> np.ndarray:
    """Flux-ring entanglement in ebits: binary entropy of (1 + |ov|)/2."""
    p = (1.0 + np.abs(np.asarray(overlap, dtype=float))) / 2.0
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = -p * np.log2(p) - np.where(q > 0.0, q * np.log2(q), 0.0)
    return np.where(q > 0.0, terms, 0.0)
