"""Twist/time search for high-quality transfer windows.

The landscape xi(beta) is a quasi-periodic superposition of N mode phases, so
the search is a dense coarse grid (step 0.02 oversamples the fastest ~pi
oscillation by more than a hundredfold) followed by golden-section refinement
of every coarse local maximum that comes within 1e-3 of the coarse best, and
finally a confirmation pass over the twist near the winner.  Near-perfect
windows at different times can tie to within fractions of 1e-3; all surviving
refined optima are kept on the record (`near_optima`) so callers can match a
specific reported window as well as the in-range global best.

Ties are resolved toward the earliest usable time: smallest beta, then
smallest |f|, then negative f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .amplitude import SpectralKernel, xi
from .ring import RingConfig, _mode_cosines

__all__ = [
    "SearchSpec",
    "TransferPoint",
    "TransferRecord",
    "PairTransfer",
    "default_twist_grid",
    "optimize_transfer",
    "optimize_transfers",
    "multiparty_plan",
    "fidelity_from_xi",
]

_XI_TIE = 1e-12
_NEAR_OPTIMUM_WINDOW = 1e-3
_MAX_REFINE_PER_TWIST = 64
# below this the landscape is blocked/noise and searching off the candidate
# twists would only chase rounding, so the record keeps the candidate twist
_TWIST_REFINE_FLOOR = 1e-9
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def default_twist_grid(resolution: int = 400) -> tuple[float, ...]:
    """Uniform twist grid of spacing 1/resolution over [-0.5, 0.5); contains +-0.25."""
    return tuple(k / resolution - 0.5 for k in range(resolution))


@dataclass(frozen=True)
class SearchSpec:
    """Search window and grids for the transfer optimizer."""

    beta_min: float = 0.0
    beta_max: float = 5000.0
    beta_step: float = 0.02
    f_candidates: tuple[float, ...] = field(default_factory=default_twist_grid)
    refine_tol: float = 1e-4

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta_min) and math.isfinite(self.beta_max)):
            raise ValueError("beta window must be finite")
        if self.beta_min < 0:
            raise ValueError(f"beta_min must be >= 0, got {self.beta_min}")
        if not self.beta_min < self.beta_max:
            raise ValueError(
                f"empty search window: beta_min={self.beta_min} beta_max={self.beta_max}"
            )
        if not (self.beta_step > 0 and self.refine_tol > 0):
            raise ValueError("beta_step and refine_tol must be positive")
        cands = tuple(sorted(set(float(f) for f in self.f_candidates)))
        if not cands:
            raise ValueError("need at least one twist candidate")
        object.__setattr__(self, "f_candidates", cands)

    def beta_grid(self) -> np.ndarray:
        steps = int(math.floor((self.beta_max - self.beta_min) / self.beta_step + 1e-9))
        return self.beta_min + self.beta_step * np.arange(steps + 1)


@dataclass(frozen=True)
class TransferPoint:
    """One refined optimum in the (twist, time) plane."""

    f: float
    beta: float
    xi: float


@dataclass(frozen=True)
class TransferRecord:
    """Best transfer found for one (ring size, displacement) task.

    `near_optima` lists every refined local optimum within 1e-3 of the best,
    the primary included, ordered best-first.
    """

    n: int
    d: int
    f: float
    beta: float
    xi: float
    near_optima: tuple[TransferPoint, ...] = ()

    @property
    def fidelity(self) -> float:
        """The adopted monotone map F(xi) = 1/2 + xi/3 + xi^2/6 (`fidelity_from_xi`)."""
        return fidelity_from_xi(self.xi)


@dataclass(frozen=True)
class PairTransfer:
    """Transfer plan for one unordered pair of party sites."""

    site_a: int
    site_b: int
    record: TransferRecord


def fidelity_from_xi(value: float) -> float:
    """Average transfer fidelity for a two-level state sent through the channel.

    F(xi) = 1/2 + xi/3 + xi^2/6, the standard map for an unmodulated-chain
    channel, adopted here purely as a reporting convenience; it is strictly
    increasing, F(0) = 1/2, F(1) = 1.
    """
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"xi must lie in [0, 1], got {value!r}")
    return 0.5 + value / 3.0 + value * value / 6.0


def _golden_max(fn, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns the best point seen."""
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


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of strict local maxima, endpoints included when they dominate."""
    if len(values) == 1:
        return np.array([0])
    rising = np.concatenate(([True], values[1:] > values[:-1]))
    falling = np.concatenate((values[:-1] >= values[1:], [True]))
    return np.nonzero(rising & falling)[0]


def _coarse_pass(
    n: int, ds: tuple[int, ...], spec: SearchSpec
) -> dict[int, list[tuple[float, float, float]]]:
    """Coarse grid sweep; returns per-d lists of (f, beta, xi) keep-worthy points.

    One factored kernel per twist candidate evaluates every displacement on
    the whole beta grid, so a full 400-twist, 250k-point table sweep takes
    seconds.
    """
    betas = spec.beta_grid()
    kept: dict[int, list[tuple[float, float, float]]] = {d: [] for d in ds}
    best: dict[int, float] = {d: -1.0 for d in ds}

    for f in spec.f_candidates:
        kernel = SpectralKernel(_mode_cosines(n, f), ds)
        profiles = kernel.xi_grid(spec.beta_min, spec.beta_step, len(betas))
        for d, g in zip(ds, profiles):
            best[d] = max(best[d], float(g.max()))
            cand = _local_maxima(g)
            cand = cand[g[cand] >= g.max() - _NEAR_OPTIMUM_WINDOW]
            order = np.lexsort((betas[cand], -g[cand]))
            for i in cand[order][:_MAX_REFINE_PER_TWIST]:
                kept[d].append((f, float(betas[i]), float(g[i])))
    for d in ds:
        kept[d] = [p for p in kept[d] if p[2] >= best[d] - _NEAR_OPTIMUM_WINDOW]
    return kept


def _select(points: list[TransferPoint]) -> TransferPoint:
    top = max(p.xi for p in points)
    group = [p for p in points if p.xi >= top - _XI_TIE]
    return min(group, key=lambda p: (p.beta, abs(p.f), p.f))


def _twist_spacing(candidates: tuple[float, ...]) -> float:
    if len(candidates) < 2:
        return 1.0 / 800.0
    gaps = np.diff(np.asarray(candidates))
    return min(float(gaps.min()) / 2.0, 1.0 / 800.0)


def _refine_twist(
    n: int, d: int, winner: TransferPoint, spec: SearchSpec
) -> TransferPoint:
    """Confirmation search over f near the winner; kept only if it improves."""
    df = _twist_spacing(spec.f_candidates)
    # a twist shift df slides each mode phase by at most beta*2*pi*df/n
    half_window = max(1.0, winner.beta * (2.0 * np.pi / n) * df * 3.0)
    lo = max(spec.beta_min, winner.beta - half_window)
    hi = min(spec.beta_max, winner.beta + half_window)
    seen: list[TransferPoint] = []

    def objective(fv: float) -> float:
        xi_of = SpectralKernel(_mode_cosines(n, fv), (d,)).xi
        beta_best, xi_best = _golden_max(lambda b: xi_of(b)[0], lo, hi, spec.refine_tol)
        seen.append(TransferPoint(f=fv, beta=beta_best, xi=xi_best))
        return xi_best

    _golden_max(objective, winner.f - df, winner.f + df, max(df * 1e-3, 1e-7))
    improved = max(seen, key=lambda p: p.xi)
    if improved.xi > winner.xi + _XI_TIE:
        return improved
    return winner


def optimize_transfers(
    n: int, ds: tuple[int, ...] | list[int], spec: SearchSpec | None = None
) -> dict[int, TransferRecord]:
    """Run the coarse+refine search for several displacements of one ring at once."""
    spec = spec or SearchSpec()
    ds = tuple(dict.fromkeys(int(d) for d in ds))
    for d in ds:
        if not 1 <= d <= n - 1:
            raise ValueError(f"displacement must be in 1..{n - 1}, got {d}")
    RingConfig(n)  # validates the ring size early
    coarse = _coarse_pass(n, ds, spec)

    records: dict[int, TransferRecord] = {}
    for d in ds:
        refined: list[TransferPoint] = []
        for f, beta_c, xi_c in coarse[d]:
            xi_of = SpectralKernel(_mode_cosines(n, f), (d,)).xi  # built once per refinement
            lo = max(spec.beta_min, beta_c - spec.beta_step)
            hi = min(spec.beta_max, beta_c + spec.beta_step)
            if hi > lo:
                beta_r, xi_r = _golden_max(lambda b: xi_of(b)[0], lo, hi, spec.refine_tol)
            else:
                beta_r, xi_r = beta_c, xi_c
            refined.append(TransferPoint(f=f, beta=beta_r, xi=xi_r))
        # unrefined window-start anchors make flat (fully blocked) landscapes
        # resolve deterministically to beta_min instead of refinement noise
        for f in spec.f_candidates:
            refined.append(
                TransferPoint(
                    f=f, beta=spec.beta_min, xi=xi(RingConfig(n, f=f), d, spec.beta_min)
                )
            )
        winner = _select(refined)
        if winner.xi >= _TWIST_REFINE_FLOOR:
            winner = _refine_twist(n, d, winner, spec)
        keep = sorted(
            (p for p in refined if p.xi >= winner.xi - _NEAR_OPTIMUM_WINDOW),
            key=lambda p: (-p.xi, p.beta, abs(p.f), p.f),
        )
        if winner not in keep:
            keep.insert(0, winner)
        records[d] = TransferRecord(
            n=n,
            d=d,
            f=winner.f,
            beta=winner.beta,
            xi=winner.xi,
            near_optima=tuple(keep),
        )
    return records


def optimize_transfer(n: int, d: int, spec: SearchSpec | None = None) -> TransferRecord:
    """Best (twist, time) for sending over displacement d on an n-site ring."""
    return optimize_transfers(n, (d,), spec)[d]


def multiparty_plan(
    n: int,
    party_sites: list[int] | tuple[int, ...],
    spec: SearchSpec | None = None,
) -> list[PairTransfer]:
    """One optimized record per unordered pair of party sites.

    Pairs at the same ring displacement are rotationally equivalent and share
    a single record.
    """
    sites = [int(s) for s in party_sites]
    if len(sites) < 2:
        raise ValueError("need at least two party sites")
    if len(set(sites)) != len(sites):
        raise ValueError(f"duplicate sites in {sites}")
    for s in sites:
        if not 1 <= s <= n:
            raise ValueError(f"site {s} outside 1..{n}")

    pairs = list(combinations(sorted(sites), 2))
    distances = sorted({(b - a) % n for a, b in pairs})
    records = optimize_transfers(n, distances, spec)
    return [PairTransfer(a, b, records[(b - a) % n]) for a, b in pairs]
