"""Entangling a flux qubit with the ring through conditional evolution.

The flux qubit is an abstract two-level label: its basis states select the
ring's boundary twist, f = 0 or f = 1/2.  Starting from

    (|f=0> + |f=1/2>)/sqrt(2)  (x)  |excitation at the start site>,

each flux branch evolves under its own ring Hamiltonian while the flux label
is untouched.  The joint state is a balanced superposition of two normalized
branches b0, b1, with Schmidt weights (1 +- |<b0|b1>|)/2, so the flux-ring
entanglement is their binary entropy.  In the uniform gauge of `ring` both
branches share the DFT eigenvectors and a site-localized start puts weight
1/N on every mode, so the overlap is one mode sum, the d = 0 sum of a
`SpectralKernel` with rates c_m(1/2) - c_m(0):

    <b0|b1> = (1/N) sum_m exp(i*beta*(c_m(1/2) - c_m(0))).

The sector diagonal cancels and the start site drops out.  The overlap
compares states evolved under different Hamiltonians, so it depends on how
the flux phases are laid out on the bonds (here: uniformly, for both
branches); the 4-site overlap works out to

    ov(beta) = (1 + cos(beta)) cos(beta/r2)/2 + sin(beta) sin(beta/r2)/2,

with r2 = sqrt(2).  At beta = pi the zero-flux branch has fully transferred
to the diametric site, which the half-flux branch can never reach (it is
blocked), so the branches are exactly orthogonal and the scan finds a full
ebit there regardless of gauge.

The scan also reports the reading at beta = 8.5*pi, a previously suggested
operating point: the zero-flux branch is only halfway through its transfer
there (perfect transfer needs an odd multiple of pi), so the entanglement
tops out near 0.80 ebits rather than 1.  The independent reference (dense
propagator and 2 x N Schmidt decomposition) lives with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitude import SpectralKernel, grid_count, xi_batch
from .optimize import _golden_max, _local_maxima
from .ring import RingConfig, _mode_cosines, site_state

# unused here, but benchmarks/spans.py patches `spinring.entangle.propagate_oracle`
# in its traced mode, so the name must stay a module attribute
from .ring import propagate_oracle  # noqa: F401

__all__ = [
    "EntanglementReading",
    "EntanglingScan",
    "REFERENCE_BETA",
    "entanglement_curve",
    "scan_times",
    "find_entangling_time",
]

# Operating point quoted for the original protocol: 8.5 transfer half-periods,
# which is close to (but not exactly) 6 half-flux revival periods.
REFERENCE_BETA = 8.5 * math.pi

_ENTROPY_TIE = 1e-12
_NEAR_BEST_WINDOW = 1e-3


@dataclass(frozen=True)
class EntanglementReading:
    beta: float
    entropy_ebits: float
    branch_overlap: float


@dataclass(frozen=True)
class EntanglingScan:
    """Result of an entangling-time scan: the argmax, the 8.5*pi reference
    reading and the `entanglement_curve` over the scan grid `betas`."""

    best: EntanglementReading
    reference: EntanglementReading
    betas: np.ndarray
    entropy: np.ndarray
    overlap: np.ndarray


def _overlap_kernel(n: int, start_site: int) -> SpectralKernel:
    """Kernel whose d = 0 mode sum is the branch overlap <b0|b1> (module docstring)."""
    RingConfig(n)  # validates the ring size
    site_state(n, start_site)  # the start site drops out, but it must be on the ring
    return SpectralKernel(_mode_cosines(n, 0.5) - _mode_cosines(n, 0.0), (0,))


def _entropy_from_overlap(overlap):
    """Binary entropy (ebits) of the Schmidt weights (1 +- overlap)/2, elementwise."""
    weights = np.stack([1.0 + overlap, 1.0 - overlap]) / 2.0
    return -np.sum(weights * np.log2(np.where(weights > 0.0, weights, 1.0)), axis=0)


def entanglement_curve(
    betas: np.ndarray, n: int = 4, start_site: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """(entropy, overlap) arrays over the given betas, from one mode sum per point.

    Same readings as the dense reference propagator and Schmidt decomposition.
    """
    overlap = _overlap_kernel(n, start_site).xi_points(betas)[0]
    return _entropy_from_overlap(overlap), overlap


def _reading(kernel: SpectralKernel, beta: float) -> EntanglementReading:
    overlap = kernel.xi(beta)[0]
    return EntanglementReading(float(beta), float(_entropy_from_overlap(overlap)), overlap)


def scan_times(beta_max: float, step: float) -> np.ndarray:
    """The scan grid 0, step, 2*step, ... up to beta_max; at most `MAX_GRID_POINTS`."""
    if not (beta_max > 0 and step > 0):
        raise ValueError("beta_max and step must be positive")
    return step * np.arange(grid_count(beta_max, step))


def find_entangling_time(
    beta_max: float, step: float = 0.005, n: int = 4, start_site: int = 1
) -> EntanglingScan:
    """Scan [0, beta_max] for the most entangling evolution time.

    Every grid local maximum within 1e-3 of the best is refined by golden
    section, all of them in lockstep with one batched overlap evaluation per
    step; exact ties (within 1e-12 ebits) resolve to the smallest beta.
    The reading at the 8.5*pi reference point rides along for comparison.
    """
    betas = scan_times(beta_max, step)
    kernel = _overlap_kernel(n, start_site)
    entropy, overlap = entanglement_curve(betas, n=n, start_site=start_site)

    idx = _local_maxima(entropy)
    survivors = idx[entropy[idx] >= float(entropy.max()) - _NEAR_BEST_WINDOW]

    def entropy_at(points):
        overlaps = xi_batch([kernel] * len(points), [beta for _, beta in points])
        return _entropy_from_overlap(np.array(overlaps)).tolist()

    brackets = [(max(0.0, betas[i] - step), min(beta_max, betas[i] + step)) for i in survivors]
    refined = [(float(betas[0]), float(entropy[0])), *_golden_max(entropy_at, brackets, tol=1e-7)]
    best_ent = max(e for _, e in refined)
    group = [(b, e) for b, e in refined if e >= best_ent - _ENTROPY_TIE]
    beta_best = min(group)[0]
    return EntanglingScan(
        best=_reading(kernel, beta_best),
        reference=_reading(kernel, REFERENCE_BETA),
        betas=betas,
        entropy=entropy,
        overlap=overlap,
    )
