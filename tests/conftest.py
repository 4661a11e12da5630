"""Shared independent oracles for the test suite.

Everything here is deliberately computed by a different route than the
package code: ascending power series for Bessel functions, hand-derived
closed forms for the 4-site ring, plain binary entropy, the full 2^N spin
Hamiltonian, the flux-ring entanglement from dense propagators and a 2 x N
Schmidt decomposition, the sector Hamiltonian in the single-bond gauge, the
optimizer's coarse pass over the whole twist x time grid, unpruned, and a
scalar golden-section search, one bracket and one point at a time.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from spinring.amplitude import SpectralKernel
from spinring.entangle import EntanglementReading
from spinring.optimize import _INV_PHI, _local_maxima
from spinring.ring import RingConfig, _mode_cosines, build_hamiltonian, propagate_oracle

# Full-space validation is exponential in N; anything past this is a mistake.
FULL_SPACE_MAX_SITES = 10


def bessel_series(n: int, x: float, terms: int = 30) -> float:
    """Ascending power series sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!).

    Converges fast for small x; independent of any recurrence.
    """
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * (x / 2.0) ** (n + 2 * k) / (
            math.factorial(k) * math.factorial(n + k)
        )
    return total


def binary_entropy(p: float) -> float:
    out = 0.0
    for v in (p, 1.0 - p):
        if v > 0.0:
            out -= v * math.log2(v)
    return out


def square_ring_overlap(beta: float) -> float:
    """|<psi_f0|psi_f1>| for the 4-site flux protocol, site-1 start, by hand.

    Uniform-gauge propagators worked out from the two spectra:
    zero flux has levels {0, +4, 0, -4} (site amplitudes (1+cos b)/2,
    i sin(b)/2, (cos b - 1)/2, i sin(b)/2), half flux has levels
    {+2r2, +2r2, -2r2, -2r2} (site amplitudes cos t, e^{-i pi/4} i sin(t)/r2,
    0, -e^{-3i pi/4} i sin(t)/r2 with t = b/r2, r2 = sqrt(2)).  The site-2/4
    cross terms add instead of cancel, giving

        ov(b) = (1 + cos b) cos(b/r2)/2 + sin(b) sin(b/r2)/2.
    """
    theta = beta / math.sqrt(2.0)
    return abs(
        (1.0 + math.cos(beta)) * math.cos(theta) / 2.0
        + math.sin(beta) * math.sin(theta) / 2.0
    )


def square_ring_entropy(beta: float) -> float:
    """Closed-form flux-ring entanglement (ebits) for the 4-site protocol."""
    return binary_entropy((1.0 + square_ring_overlap(beta)) / 2.0)


def single_bond_hamiltonian(config: RingConfig) -> np.ndarray:
    """Sector Hamiltonian in the single-bond gauge: the whole loop phase on the closing bond.

    It carries the same loop phase exp(-2*pi*i*f) as the package's uniform
    gauge and is related to it by a diagonal unitary.
    """
    n = config.n
    h = build_hamiltonian(dataclasses.replace(config, f=0.0))
    hop = -2.0 * config.j * np.exp(-2j * np.pi * config.f)  # from site N to site 1
    h[0, n - 1] = hop
    h[n - 1, 0] = hop.conjugate()
    return h


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
    h = _full_hamiltonian(config)
    full = np.zeros(1 << n, dtype=complex)
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
    phase = -2.0 * np.pi * config.f / n  # uniform gauge, per bond
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
                # from site ka+1 to kb+1 carries the phase, the reverse its
                # conjugate
                target = state ^ ((1 << ka) | (1 << kb))
                if (state >> ka) & 1:
                    h[target, state] += -2.0 * j * np.exp(1j * phase)
                else:
                    h[target, state] += -2.0 * j * np.exp(-1j * phase)
        h[state, state] = diag
    return h


@dataclasses.dataclass(frozen=True)
class JointFluxRingState:
    """Flux-conditioned ring branches of the reference path; weights carry the split."""

    branch_f0: np.ndarray
    branch_f1: np.ndarray
    branch_weights: tuple[complex, complex]
    beta: float

    def amplitude_matrix(self) -> np.ndarray:
        """2 x N joint amplitude matrix (flux index first)."""
        w0, w1 = self.branch_weights
        return np.vstack([w0 * self.branch_f0, w1 * self.branch_f1])


def evolve_joint(ring_initial: np.ndarray, beta: float) -> JointFluxRingState:
    """Evolve the balanced flux superposition for scaled time beta.

    The flux states are decoherence-free labels: weights stay (1, 1)/sqrt(2)
    while each branch evolves under its own twist (dense reference propagator).
    """
    psi0 = np.asarray(ring_initial, dtype=complex)
    n = len(psi0)
    b0 = propagate_oracle(RingConfig(n, f=0.0), psi0, beta)
    b1 = propagate_oracle(RingConfig(n, f=0.5), psi0, beta)
    w = 1.0 / math.sqrt(2.0)
    return JointFluxRingState(
        branch_f0=b0, branch_f1=b1, branch_weights=(w + 0j, w + 0j), beta=float(beta)
    )


def _entropy_from_schmidt(weights: np.ndarray) -> float:
    probs = weights[weights > 1e-300]
    return float(-np.sum(probs * np.log2(probs)))


def flux_ring_entanglement(state: JointFluxRingState) -> EntanglementReading:
    """Reference flux-ring entanglement in ebits via the 2 x N Schmidt decomposition."""
    matrix = state.amplitude_matrix()
    total = float(np.linalg.norm(matrix))
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"joint state must be normalized, got norm {total}")
    schmidt = np.linalg.svd(matrix, compute_uv=False) ** 2
    overlap = abs(np.vdot(state.branch_f0, state.branch_f1))
    return EntanglementReading(
        beta=state.beta,
        entropy_ebits=_entropy_from_schmidt(schmidt),
        branch_overlap=float(min(overlap, 1.0)),
    )


def coarse_pass_reference(n, ds, spec, window=1e-3, cap=64):
    """`optimize._coarse_pass` without pruning: every twist on the whole beta grid.

    Returns per-d lists of (f, beta, xi): the local maxima of each twist
    within `window` of its maximum, at most `cap` of them best-first, then
    those within `window` of the best over all twists.
    """
    betas = spec.beta_grid()
    kept = {d: [] for d in ds}
    best = {d: -1.0 for d in ds}
    for f in spec.f_candidates:
        kernel = SpectralKernel(_mode_cosines(n, f), ds)
        profiles = kernel.xi_grid(spec.beta_min, spec.beta_step, len(betas))
        for d, g in zip(ds, profiles):
            best[d] = max(best[d], float(g.max()))
            cand = _local_maxima(g)
            cand = cand[g[cand] >= g.max() - window]
            order = np.lexsort((betas[cand], -g[cand]))
            for i in cand[order][:cap]:
                kept[d].append((f, float(betas[i]), float(g[i])))
    for d in ds:
        kept[d] = [p for p in kept[d] if p[2] >= best[d] - window]
    return kept


def golden_max_reference(fn, lo, hi, tol):
    """Scalar golden-section maximization on [lo, hi]: one `fn(x)` call per point.

    Returns the best (x, fn(x)) seen.  It never stops if `tol` is below the
    float spacing at the bracket's ends, so callers keep `tol` well above it.
    """
    best_x, best_y = lo, fn(lo)
    y_hi = fn(hi)
    if y_hi > best_y:
        best_x, best_y = hi, y_hi
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    yc, yd = fn(c), fn(d)
    while b - a > tol:
        if yc >= yd:
            b, d, yd = d, c, yc
            c = b - _INV_PHI * (b - a)
            yc = fn(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * (b - a)
            yd = fn(d)
        for x, y in ((c, yc), (d, yd)):
            if y > best_y:
                best_x, best_y = x, y
    return best_x, best_y
