"""Entangling a flux qubit with the ring through conditional evolution.

The flux qubit is an abstract two-level label: its basis states select the
ring's boundary twist, f = 0 or f = 1/2.  Starting from

    (|f=0> + |f=1/2>)/sqrt(2)  (x)  |excitation at the start site>,

each flux branch evolves under its own ring Hamiltonian while the flux label
is untouched.  The joint state is a balanced superposition of two normalized
branches b0, b1, with Schmidt weights (1 +- |<b0|b1>|)/2, so the flux-ring
entanglement is their binary entropy.  In the uniform gauge of `ring` both
branches share the DFT eigenvectors and a site-localized start puts weight
1/N on every mode, so the overlap is one mode sum, the d = 0 sum with rates
c_m(1/2) - c_m(0) (`SpectralKernel`, on the scan grid and at points):

    <b0|b1> = (1/N) sum_m exp(i*beta*(c_m(1/2) - c_m(0))).

The sector diagonal cancels and the start site drops out.  The overlap
compares states evolved under different Hamiltonians, so it depends on how
the flux phases are laid out on the bonds (here: uniformly, for both
branches); the 4-site overlap works out to

    ov(beta) = (1 + cos(beta)) cos(beta/r2)/2 + sin(beta) sin(beta/r2)/2,

with r2 = sqrt(2).  At beta = pi the zero-flux branch has fully transferred
to the diametric site, which the half-flux branch can never reach (it is
blocked), so the branches are exactly orthogonal and the scan finds a full
ebit there regardless of gauge: its Newton polish down |<b0|b1>|^2 lands
on pi itself (`find_entangling_time`).

The scan never holds its curve whole.  It makes the curve a block of whole
giant rows at a time (`SpectralKernel.xi_blocks`, so every value has the bits
of one `xi_grid` over the grid), reads its maxima as it comes through the
reader the transfer search shares (`NearBestMaxima`), and hands the block
on, to the CSV under `entangle --out`.  So its memory does not grow with
the points; `entanglement_curve` lays the same blocks end to end.

The scan also reports the reading at beta = 8.5*pi, a previously suggested
operating point: the zero-flux branch is only halfway through its transfer
there (perfect transfer needs an odd multiple of pi), so the entanglement
tops out near 0.80 ebits rather than 1.  The independent reference (dense
propagator and 2 x N Schmidt decomposition) lives with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .amplitude import NearBestMaxima, SpectralKernel, grid_count, polish
from .ring import RingConfig, _mode_cosines, site_state

# unused here, but benchmarks/spans.py patches `spinring.entangle.propagate_oracle`
# in its traced mode, so the name must stay a module attribute
from .ring import propagate_oracle  # noqa: F401

__all__ = [
    "EntanglementReading",
    "EntanglingScan",
    "REFERENCE_BETA",
    "entanglement_curve",
    "find_entangling_time",
]

# Operating point quoted for the original protocol: 8.5 transfer half-periods,
# which is close to (but not exactly) 6 half-flux revival periods.
REFERENCE_BETA = 8.5 * math.pi

_ENTROPY_TIE = 1e-12


@dataclass(frozen=True)
class EntanglementReading:
    beta: float
    entropy_ebits: float
    branch_overlap: float


@dataclass(frozen=True)
class EntanglingScan:
    """Result of an entangling-time scan: the argmax and the 8.5*pi reference reading."""

    best: EntanglementReading
    reference: EntanglementReading


def _overlap_rates(n: int, start_site: int) -> np.ndarray:
    """Rates whose d = 0 mode sum is the branch overlap <b0|b1> (module docstring)."""
    RingConfig(n)  # validates the ring size
    site_state(n, start_site)  # the start site drops out, but it must be on the ring
    return _mode_cosines(n, 0.5) - _mode_cosines(n, 0.0)


def _entropy_from_overlap(overlap) -> np.ndarray:
    """Binary entropy (ebits) of the Schmidt weights (1 +- overlap)/2, elementwise."""
    overlap = np.asarray(overlap, dtype=float)
    weights = np.stack([1.0 + overlap, 1.0 - overlap])
    weights /= 2.0
    logs = np.log2(np.where(weights > 0.0, weights, 1.0))
    logs *= weights
    return np.negative(np.sum(logs, axis=0))


def _curve_blocks(kernel: SpectralKernel, step: float, count: int) -> Iterator[tuple]:
    """(betas, entropy, overlap) on the scan grid k*step, k < count, a block of whole
    giant rows, at most 8,192 points, at a time: the overlap of `kernel.xi_blocks`,
    so every value has the bits of one `xi_grid` over the whole grid.  Each block's
    three arrays are fresh, so a caller may keep them."""
    lo = 0
    for overlap in kernel.xi_blocks(0.0, step, count):
        yield step * np.arange(lo, lo + len(overlap)), _entropy_from_overlap(overlap), overlap
        lo += len(overlap)


def entanglement_curve(
    step: float, count: int, n: int = 4, start_site: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """(entropy, overlap) arrays on the scan grid k*step, k < count, one mode sum a point:
    the blocks `find_entangling_time` scans and writes, laid end to end.

    Same readings as the dense reference propagator and Schmidt decomposition.
    """
    entropy, overlap = np.empty(count), np.empty(count)
    lo = 0
    for _, block_entropy, block_overlap in _curve_blocks(
        SpectralKernel(_overlap_rates(n, start_site), (0,)), step, count
    ):
        hi = lo + len(block_entropy)
        entropy[lo:hi], overlap[lo:hi], lo = block_entropy, block_overlap, hi
    return entropy, overlap


def _reading(kernel: SpectralKernel, beta: float) -> EntanglementReading:
    (overlap,) = kernel.xi([0], [beta])
    return EntanglementReading(float(beta), float(_entropy_from_overlap(overlap)), overlap)


def _scan_count(beta_max: float, step: float) -> int:
    """The number of points of the scan grid 0, step, 2*step, ... up to beta_max, checked."""
    if not beta_max > 0:
        raise ValueError(f"--beta-max must be positive, got {beta_max!r}")
    if not 0.0 < step < math.inf:
        raise ValueError(f"--step must be positive and finite, got {step!r}")
    return grid_count(beta_max, step)


def find_entangling_time(
    beta_max: float,
    step: float = 0.005,
    n: int = 4,
    start_site: int = 1,
    write: Callable[[Iterator[tuple]], None] | None = None,
) -> EntanglingScan:
    """Scan [0, beta_max] for the most entangling evolution time.

    The curve on the scan grid is made, scanned and handed on a block at a
    time: `write`, when given, is called once with an iterator of its
    (betas, entropy, overlap) column blocks, as `serialize.write_csv_chunks`
    takes them.  Each block's arrays are fresh, so `write` may keep them, and
    the blocks `write` leaves unread are still made and scanned.

    Entropy falls strictly as |overlap| grows, so every grid local maximum
    within 1e-3 of the best is polished by Newton steps down g = |overlap|^2
    in its +-step bracket (`polish` on `SpectralKernel.jet`), all of them in
    lockstep, until a step moves beta by at most 1e-7.  The window ends 0 and
    beta_max are read unpolished: the overlap's slope is 0 at beta = 0, where
    a polish never moves.  Exact ties (within 1e-12 ebits) resolve to the
    smallest beta.  The reading at the 8.5*pi reference point rides along for
    comparison.
    """
    count = _scan_count(beta_max, step)
    kernel = SpectralKernel(_overlap_rates(n, start_site), (0,))
    maxima = NearBestMaxima()
    last = step * (count - 1)  # the curve is one run, ending at its last beta

    def scanned() -> Iterator[tuple]:
        for block in _curve_blocks(kernel, step, count):
            maxima.read(block[1], block[0] == last)
            yield block

    blocks = scanned()
    if write is not None:
        write(blocks)
    for _ in blocks:  # what `write` left of the curve, or all of it
        pass
    start = step * maxima.kept[0]
    flat = np.zeros((1, n))
    _, polished = polish(
        lambda index, _, at: -kernel.jet(np.zeros(len(index), dtype=np.intp), at, flat, flat),
        np.zeros(len(start)), start, np.maximum(0.0, start - step),
        np.minimum(beta_max, start + step), 1e-7, n,
    )
    points = [0.0, float(beta_max), *polished.tolist()]
    values = _entropy_from_overlap(np.array(kernel.xi([0] * len(points), points))).tolist()
    best_ent = max(values)
    beta_best = min(b for b, e in zip(points, values) if e >= best_ent - _ENTROPY_TIE)
    return EntanglingScan(
        best=_reading(kernel, beta_best), reference=_reading(kernel, REFERENCE_BETA)
    )
