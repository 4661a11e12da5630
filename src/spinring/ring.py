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
each bond.  Two gauges are provided: the uniform gauge spreads the loop phase
evenly over all N bonds (so the eigenvectors are plain DFT plane waves), while
the single-bond gauge puts the full phase on the closing bond.  Per-site
amplitude magnitudes are gauge-independent; both gauges carry the same loop
phase and are related by a diagonal unitary.

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
    "RingConfig",
    "ModeSpectrum",
    "site_state",
    "hop_phases",
    "build_hamiltonian",
    "mode_energies",
    "mode_spectrum",
    "propagate_oracle",
    "full_space_oracle",
]

GAUGES = ("uniform", "single-bond")

# Full-space validation is exponential in N; anything past this is a mistake.
FULL_SPACE_MAX_SITES = 10


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


def hop_phases(config: RingConfig, gauge: str = "uniform") -> np.ndarray:
    """Phase (radians) picked up hopping from site k to site k+1, per bond.

    Bond index k = 0..N-1 is the bond from site k+1 to site k+2 (1-based);
    the last bond closes the ring.  The loop sum is -2*pi*f in both gauges,
    which is the gauge-invariant content of the twist.
    """
    if gauge not in GAUGES:
        raise ValueError(f"gauge must be one of {GAUGES}, got {gauge!r}")
    phases = np.zeros(config.n)
    if gauge == "uniform":
        phases[:] = -2.0 * np.pi * config.f / config.n
    else:
        phases[-1] = -2.0 * np.pi * config.f
    return phases


def build_hamiltonian(config: RingConfig, gauge: str = "uniform") -> np.ndarray:
    """One-excitation sector Hamiltonian as an explicit N x N Hermitian matrix."""
    n = config.n
    phases = hop_phases(config, gauge)
    h = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(h, config.diagonal)
    for k in range(n):
        a, b = k, (k + 1) % n
        hop = -2.0 * config.j * np.exp(1j * phases[k])
        h[b, a] = hop
        h[a, b] = hop.conjugate()
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


@dataclass(frozen=True)
class ModeSpectrum:
    """All N plane-wave modes of a ring configuration.

    vectors[:, i] is the (uniform-gauge) eigenvector of mode m[i]; every
    component has magnitude 1/sqrt(N).
    """

    m: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray


def mode_spectrum(config: RingConfig) -> ModeSpectrum:
    """Analytic eigensystem in the uniform gauge.

    The uniform gauge leaves the matrix circulant, so the eigenvectors are
    the DFT columns exp(2*pi*i*m*site/N)/sqrt(N) independent of the twist;
    the twist only slides the band cos(2*pi*(m+f)/N).
    """
    n = config.n
    m = np.arange(1, n + 1)
    sites = np.arange(1, n + 1)
    vectors = np.exp(2j * np.pi * np.outer(sites, m) / n) / math.sqrt(n)
    return ModeSpectrum(m=m, energies=mode_energies(config), vectors=vectors)


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    return beta


def propagate_oracle(config: RingConfig, psi0: np.ndarray, beta: float) -> np.ndarray:
    """Evolve psi0 for scaled time beta by dense eigendecomposition.

    Deliberately ignores the closed-form spectrum: the matrix from
    build_hamiltonian is diagonalized numerically, so this is an independent
    check of every analytic path.  Degenerate spectra are fine; any
    orthonormal eigenbasis gives the same propagator.
    """
    beta = _check_beta(beta)
    psi0 = _check_state(psi0, config.n)
    w, v = np.linalg.eigh(build_hamiltonian(config))
    t = beta / (4.0 * config.j)
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0))


def full_space_oracle(config: RingConfig, psi0: np.ndarray, beta: float) -> np.ndarray:
    """Evolve under the full 2^N spin Hamiltonian and project back.

    The one-excitation state is embedded as a single flipped spin over the
    aligned background, evolved with the complete exchange + field matrix
    (twist carried as per-bond phases on the spin-exchange hopping), and the
    single-excitation amplitudes are read back out.  Magnetization
    conservation makes the projection lossless up to rounding.
    """
    n = config.n
    if n > FULL_SPACE_MAX_SITES:
        raise ValueError(
            f"full-space oracle is limited to n <= {FULL_SPACE_MAX_SITES} "
            f"(2^n state space), got n={n}"
        )
    beta = _check_beta(beta)
    psi0 = _check_state(psi0, n)

    h = _full_hamiltonian(config)
    dim = 1 << n
    full = np.zeros(dim, dtype=complex)
    for site in range(n):
        full[1 << site] = psi0[site]
    w, v = np.linalg.eigh(h)
    t = beta / (4.0 * config.j)
    evolved = v @ (np.exp(-1j * w * t) * (v.conj().T @ full))
    return np.array([evolved[1 << site] for site in range(n)])


def _full_hamiltonian(config: RingConfig) -> np.ndarray:
    """Full 2^N XXX Hamiltonian; bit k set = spin flipped at site k+1."""
    n = config.n
    j, b = config.j, config.b
    phases = hop_phases(config)
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for state in range(dim):
        z = 1 - 2 * ((state >> np.arange(n)) & 1)
        diag = -b * float(z.sum())
        for k in range(n):
            ka, kb = k, (k + 1) % n
            diag += -j * z[ka] * z[kb]
            if z[ka] != z[kb]:
                # exchange moves the flipped spin across the bond; the hop
                # from site ka+1 to kb+1 carries phase[k], the reverse its
                # conjugate
                target = state ^ ((1 << ka) | (1 << kb))
                if (state >> ka) & 1:
                    h[target, state] += -2.0 * j * np.exp(1j * phases[k])
                else:
                    h[target, state] += -2.0 * j * np.exp(-1j * phases[k])
        h[state, state] = diag
    return h
