"""Single-excitation dynamics of a ferromagnetic XXX spin ring with a boundary twist.

The ring is a closed chain of N spin-1/2 sites with isotropic nearest-neighbor
exchange J > 0 and a uniform field B.  Threading an Aharonov-Bohm flux through
the ring twists the boundary condition: going once around the loop multiplies
the wavefunction by exp(2*pi*i*f), where f is the flux in units of the flux
quantum.  Total magnetization is conserved, so the dynamics of one flipped
spin over the aligned background closes on an N-dimensional sector.  There the
Hamiltonian is a circulant hopping matrix with a constant diagonal

    D = -J*(N-4) - B*(N-2)

and hopping amplitude -2*J between neighbors, carrying the twist as a phase on
each bond.  The package works in the uniform gauge, which spreads the loop
phase evenly over all N bonds, so the eigenvectors are plain DFT plane waves.
Any other layout of the same loop phase (the tests also use the single-bond
gauge, full phase on the closing bond) is related to it by a diagonal unitary
and gives the same per-site amplitude magnitudes.

Mode m = 1..N has energy

    E_m = -4*J*cos(2*pi*(m + f)/N) + D,

which is what fixes the direction the twist biases: in the convention used
throughout this package the uniform-gauge bond phase is exp(-2*pi*i*f/N) for a
hop from site j to site j+1.  The sign is pinned by golden tests on the known
near-perfect transfer windows of the 5- and 7-site rings.

Scaled time beta = 4*J*t is used on every public surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_GRID_POINTS",
    "RingConfig",
    "site_state",
    "build_hamiltonian",
    "mode_energies",
    "propagate_oracle",
    "require_grid_points",
]

# Largest array any command lays down (betas, rows of a sweep, ring sites, the
# entries of a dense matrix, a Bessel ladder or a block of mode phases); a
# larger one is refused before anything is allocated.  The biggest documented
# run, a 1,010,001-row sweep, fits five times over.
MAX_GRID_POINTS = 5_000_000


def require_grid_points(points: float, what: str = "a grid") -> None:
    """ValueError unless points <= MAX_GRID_POINTS (nan and inf refused)."""
    if not points <= MAX_GRID_POINTS:
        raise ValueError(f"{what} of {points:.4g} points exceeds the limit of {MAX_GRID_POINTS:,}")


@dataclass(frozen=True)
class RingConfig:
    """Ring size, coupling, field and twist.

    n: number of sites, at least 3.
    j: exchange coupling, strictly positive (ferromagnetic convention).
    b: uniform field.  In the one-excitation sector it only shifts the
       constant diagonal, i.e. a global phase of the evolution.
    f: boundary twist as a fraction of a full winding; physics is periodic
       in f with period 1, and f is kept as given (no reduction).
    """

    n: int
    j: float = 1.0
    b: float = 0.0
    f: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValueError(f"site count must be an integer, got {self.n!r}")
        if self.n < 3:
            raise ValueError(f"ring needs at least 3 sites, got n={self.n}")
        require_grid_points(self.n, "a ring's mode array")
        for name in ("j", "b", "f"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.j <= 0:
            raise ValueError(f"coupling j must be positive, got {self.j}")

    @property
    def diagonal(self) -> float:
        """Constant sector diagonal -J*(N-4) - B*(N-2)."""
        return -self.j * (self.n - 4) - self.b * (self.n - 2)


def site_state(n: int, site: int) -> np.ndarray:
    """Basis vector for the excitation localized at `site` (1-based)."""
    if not 1 <= site <= n:
        raise ValueError(f"site must be in 1..{n}, got {site}")
    psi = np.zeros(n, dtype=complex)
    psi[site - 1] = 1.0
    return psi


def _check_state(psi: np.ndarray, n: int) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (n,):
        raise ValueError(f"state must have shape ({n},), got {psi.shape}")
    if not np.all(np.isfinite(psi.view(float))):
        raise ValueError("state has non-finite amplitudes")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state must be normalized, |psi| = {norm}")
    return psi


def build_hamiltonian(config: RingConfig) -> np.ndarray:
    """One-excitation sector Hamiltonian as an explicit N x N Hermitian matrix.

    Uniform gauge: the hop from site k+1 to k+2 (1-based, the last bond
    closing the ring) carries the phase exp(-2*pi*i*f/N).
    """
    n = config.n
    require_grid_points(n * n, "a dense N x N matrix")
    hop = -2.0 * config.j * np.exp(1j * (-2.0 * np.pi * config.f / n))
    h = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(h, config.diagonal)
    k = np.arange(n)
    h[(k + 1) % n, k] = hop
    h[k, (k + 1) % n] = hop.conjugate()
    return h


def _mode_cosines(n: int, f: float) -> np.ndarray:
    """cos(2*pi*(m+f)/N) for m = 1..N.

    The argument is folded onto [0, N/2] before the cosine so that modes
    related by m+f -> N-(m+f) evaluate the cosine at the bit-identical float
    and degenerate pairs come out exactly equal.  That exactness is what the
    half-flux blocking cancellation rests on numerically.
    """
    x = np.mod(np.arange(1, n + 1) + f, n)
    folded = np.minimum(x, n - x)
    return np.cos(2.0 * np.pi * folded / n)


def mode_energies(config: RingConfig) -> np.ndarray:
    """Closed-form sector energies E_m, m = 1..N."""
    return -4.0 * config.j * _mode_cosines(config.n, config.f) + config.diagonal


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    return beta


def _scaled_time(config: RingConfig, beta: float) -> float:
    """The time t = beta/(4J) of a scaled time beta; ValueError where t or the
    global phase D*t is not finite (a subnormal coupling can make t overflow,
    a huge field D*t)."""
    t = beta / (4.0 * config.j)
    if not math.isfinite(t) or not math.isfinite(config.diagonal * t):
        raise ValueError(
            f"time beta/(4J) and global phase D*t must be finite, got t={t!r} "
            f"for beta={beta!r}, j={config.j!r}, b={config.b!r}"
        )
    return t


def propagate_oracle(config: RingConfig, psi0: np.ndarray, beta: float) -> np.ndarray:
    """Evolve psi0 for scaled time beta by dense eigendecomposition.

    Deliberately ignores the closed-form spectrum: the matrix from
    build_hamiltonian is diagonalized numerically, so this is an independent
    check of every analytic path.  Degenerate spectra are fine; any
    orthonormal eigenbasis gives the same propagator.
    """
    beta = _check_beta(beta)
    psi0 = _check_state(psi0, config.n)
    t = _scaled_time(config, beta)
    w, v = np.linalg.eigh(build_hamiltonian(config))
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0))
