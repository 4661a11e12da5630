"""Twist/time search for high-quality transfer windows.

The landscape xi(beta) is a quasi-periodic superposition of N mode phases, so
the search is a dense coarse grid (step 0.02 oversamples the fastest ~pi
oscillation by more than a hundredfold), then a Newton polish in beta, at its
grid twist, of every coarse local maximum within 1e-3 of the coarse best, and
last a joint (twist, time) polish of each displacement's winner: `polish` on
the exact derivatives of `SpectralKernel.jet`, all points of a ring in lockstep.

The coarse grid is pruned by the kernel's curvature bound
(`SpectralKernel.row_bounds`): only the stretches of the grid that can come
within 1e-3 of the best are evaluated, and the kernel gives them the full
grid's values bit for bit, so the coarse candidates are the full grid's (see
`_coarse_pass`).  A ring's twists are stacked as the rate rows of one kernel,
so each stage is one call over all of them; from the coarse pass to the
records a point is a (kernel row, beta) of that kernel.
Near-perfect windows at different times can tie to within fractions of
1e-3; the polished optima within 1e-3, at most 64 a grid twist, are kept on
the record (`near_optima`) so callers can match a specific reported window
as well as the in-range global best.

Ties are resolved toward the earliest usable time: smallest beta, then
smallest |f|, then negative f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .amplitude import NEAR_BEST, NearBestMaxima, SpectralKernel, grid_count, polish

# unused here, but benchmarks/spans.py patches `spinring.optimize.xi` in its
# traced mode, so the name must stay a module attribute
from .amplitude import xi  # noqa: F401
from .ring import RingConfig, _mode_cosines, require_grid_points

__all__ = [
    "SearchSpec",
    "TransferPoint",
    "TransferRecord",
    "PairTransfer",
    "default_twist_grid",
    "optimize_transfers",
    "multiparty_plan",
    "fidelity_from_xi",
]

_XI_TIE = 1e-12
_MAX_CANDIDATES_PER_ROW = 64
# giant rows the coarse pass evaluates and scans at once
_SCAN_ROWS = 256
# below this the landscape is blocked/noise and searching off the candidate
# twists would only chase rounding, so the record keeps the candidate twist
_TWIST_REFINE_FLOOR = 1e-9


def default_twist_grid() -> tuple[float, ...]:
    """Uniform twist grid of spacing 1/400 over [-0.5, 0.5); contains +-0.25."""
    return tuple(k / 400 - 0.5 for k in range(400))


@dataclass(frozen=True)
class SearchSpec:
    """Search window and grids for the transfer optimizer.

    `refine_tol` bounds the last step of the Newton polish: it stops once a
    step moves beta, and each mode phase beta*c_m through the twist, by at
    most `refine_tol` (or by less than an ulp).
    """

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
        if not (0 < self.beta_step < math.inf and 0 < self.refine_tol < math.inf):
            raise ValueError(
                f"beta_step and refine_tol must be positive and finite, "
                f"got {self.beta_step!r} and {self.refine_tol!r}"
            )
        cands = tuple(sorted(set(float(f) for f in self.f_candidates)))
        if not cands:
            raise ValueError("need at least one twist candidate")
        if not all(math.isfinite(f) for f in cands):
            raise ValueError(f"twist candidates must be finite, got {cands!r}")
        object.__setattr__(self, "f_candidates", cands)

    def beta_grid(self) -> np.ndarray:
        """beta_min, beta_min + beta_step, ... up to beta_max; at most `MAX_GRID_POINTS`."""
        count = grid_count(self.beta_max - self.beta_min, self.beta_step)
        return self.beta_min + self.beta_step * np.arange(count)


@dataclass(frozen=True)
class TransferPoint:
    """One polished optimum in the (twist, time) plane."""

    f: float
    beta: float
    xi: float


@dataclass(frozen=True)
class TransferRecord:
    """Best transfer found for one (ring size, displacement) task.

    `near_optima` lists, best first, the primary and the points within 1e-3 of it:
    the coarse local maxima, at most the 64 best a grid twist, polished in beta
    unless blocked (xi < 1e-9), and each twist's unpolished window start beta_min.
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


def _coarse_pass(
    evaluating: SpectralKernel, ds: tuple[int, ...], spec: SearchSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coarse grid sweep; returns the keep-worthy points as (kernel row, beta, xi)
    arrays, by kernel row, best first within a row (ties by beta), at most 64 a row.

    `evaluating` stacks each twist's `_mode_cosines(n, f)`, in the order of
    `spec.f_candidates`, over ds: kernel row t*len(ds) + j is twist t at ds[j].

    The landscapes are the rows of that one kernel: `xi_grid` on beta_min +
    k*h, k < B, in giant rows of S = ceil(sqrt(B)) points.  Only the giant
    rows that can hold a point within 1e-3 of the best are evaluated
    (`_near_best_rows`, on the kernel's own bound `SpectralKernel.row_bounds`),
    each with the bits of its twist's full grid, `_SCAN_ROWS` at a time, and
    `NearBestMaxima` reads their runs for the local maxima within 1e-3 of
    each displacement's best; the cap of 64 a row comes after.

    The points equal the full grid's.  Every value of a skipped row lies
    below best - 1e-3, so (i) a point at or above best - 1e-3 keeps its
    local-maximum status, its neighbours being below it either way; (ii) the
    best is unchanged; (iii) the window and the cap each keep a best-first
    prefix of a row's local maxima, so they commute.

    The cap binds on blocked landscapes, whose rounding noise is all in the
    window, and not on the table's twist grids (both pinned by tests).
    """
    b0, h = spec.beta_min, spec.beta_step
    count = grid_count(spec.beta_max - b0, h)
    # the kept giant rows of one kernel row per (twist, displacement), in order
    rows, giants = np.nonzero(_near_best_rows(evaluating, len(ds), b0, h, count))
    # a run ends where the next line is not the next giant row of the same kernel row
    ends = np.append((np.diff(rows) != 0) | (np.diff(giants) != 1), True)
    maxima = NearBestMaxima(len(ds))
    for lo in range(0, len(rows), _SCAN_ROWS):
        at, g = rows[lo : lo + _SCAN_ROWS], giants[lo : lo + _SCAN_ROWS]
        values = evaluating.xi_rows(b0, h, count, at, g)
        line_ends = np.zeros(values.shape, dtype=bool)
        line_ends[:, -1] = ends[lo : lo + _SCAN_ROWS]  # a run ends on a line's last point
        maxima.read(values, line_ends, at % len(ds))
    position, value, _ = maxima.kept
    stride = values.shape[1]  # S points a giant row; the bound keeps at least one row
    line, j = np.divmod(position, stride)
    row, beta = rows[line], b0 + h * (giants[line] * stride + j)
    order = np.lexsort((beta, -value, row))
    row, beta, value = row[order], beta[order], value[order]
    capped = np.arange(len(row)) - np.searchsorted(row, row) < _MAX_CANDIDATES_PER_ROW
    return row[capped], beta[capped], value[capped]


def _near_best_rows(kernel: SpectralKernel, displacements: int, b0: float, h: float, count: int):
    """The giant rows that may hold a point within `NEAR_BEST` of the best of their
    displacement over every twist, on the bound of `SpectralKernel.row_bounds`."""
    low, rows = kernel.row_bounds(b0, h, count)
    best = low.reshape(-1, displacements).max(axis=0)
    return rows(np.tile(best - NEAR_BEST, len(low) // displacements))


def _select(points: list[TransferPoint]) -> TransferPoint:
    top = max(p.xi for p in points)
    group = [p for p in points if p.xi >= top - _XI_TIE]
    return min(group, key=lambda p: (p.beta, abs(p.f), p.f))


def optimize_transfers(
    n: int, ds: tuple[int, ...] | list[int], spec: SearchSpec | None = None
) -> dict[int, TransferRecord]:
    """Run the coarse search and Newton polish for several displacements of one ring at once."""
    spec = spec or SearchSpec()
    ds = tuple(dict.fromkeys(int(d) for d in ds))
    if not ds:
        raise ValueError("need at least one displacement to optimize, got an empty list")
    for d in ds:
        if not 1 <= d <= n - 1:
            raise ValueError(f"displacement must be in 1..{n - 1}, got {d}")
    RingConfig(n)  # validates the ring size early
    twists = spec.f_candidates
    require_grid_points(len(twists) * n, "a stack of twist rates")
    # one kernel row per (twist, displacement), twist first
    kernel = SpectralKernel([_mode_cosines(n, f) for f in twists], ds)
    rows, betas, values = _coarse_pass(kernel, ds, spec)

    # each coarse candidate at or above the refine floor (below it is blocked
    # noise) in beta alone, in +-beta_step: zero twist slopes keep its twist
    live = values >= _TWIST_REFINE_FLOOR
    polished, start = rows[live], betas[live]
    lo = np.maximum(spec.beta_min, start - spec.beta_step)
    hi = np.minimum(spec.beta_max, start + spec.beta_step)
    flat = np.zeros((len(twists), n))
    _, betas[live] = polish(
        lambda index, _, betas: kernel.jet(polished[index], betas, flat, flat),
        np.zeros(len(start)), start, lo, hi, spec.refine_tol, n,
    )
    # and an unpolished window-start anchor a kernel row, so that flat (fully
    # blocked) landscapes resolve deterministically to beta_min, not polish noise
    every = len(twists) * len(ds)
    rows = np.concatenate((rows, np.arange(every)))
    betas = np.concatenate((betas, np.full(every, spec.beta_min)))
    candidates: dict[int, list[TransferPoint]] = {d: [] for d in ds}
    for row, beta, value in zip(rows.tolist(), betas.tolist(), kernel.xi(rows, betas)):
        t, j = divmod(row, len(ds))
        candidates[ds[j]].append(TransferPoint(f=twists[t], beta=beta, xi=value))

    # each winner jointly in (f, beta); it moves only if xi rises by more than a tie
    winners = {d: _select(points) for d, points in candidates.items()}
    jointly = [d for d in ds if winners[d].xi >= _TWIST_REFINE_FLOOR]
    k = 2.0 * np.pi / n

    def joint(index, fs, betas):
        rates = np.array([_mode_cosines(n, f) for f in fs]).reshape(-1, n)
        # the phases are N-periodic in the twist: reduce it exactly first
        turns = np.reshape([math.remainder(f, n) for f in fs], (-1, 1))
        slopes = -k * np.sin(k * (np.arange(1, n + 1) + turns))
        rows = np.arange(len(fs)) * len(jointly) + index  # point i at jointly[index[i]]
        return SpectralKernel(rates, jointly).jet(rows, betas, slopes, -k * k * rates)

    start = np.reshape([(winners[d].f, winners[d].beta) for d in jointly], (-1, 2)).T
    f, beta = polish(joint, *start, spec.beta_min, spec.beta_max, spec.refine_tol, n)
    for d, f_p, beta_p in zip(jointly, f.tolist(), beta.tolist()):
        (xi_p,) = SpectralKernel(_mode_cosines(n, f_p), (d,)).xi([0], [beta_p])
        if xi_p > winners[d].xi + _XI_TIE:
            winners[d] = TransferPoint(f=f_p, beta=beta_p, xi=xi_p)
    records: dict[int, TransferRecord] = {}
    for d, refined in candidates.items():
        winner = winners[d]
        keep = sorted(
            (p for p in refined if p.xi >= winner.xi - NEAR_BEST),
            key=lambda p: (-p.xi, p.beta, abs(p.f), p.f),
        )
        if winner not in keep:
            keep.insert(0, winner)
        records[d] = TransferRecord(n, d, winner.f, winner.beta, winner.xi, tuple(keep))
    return records


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

    require_grid_points(len(sites) * (len(sites) - 1) / 2, "a list of site pairs")
    pairs = list(combinations(sorted(sites), 2))
    distances = sorted({(b - a) % n for a, b in pairs})
    records = optimize_transfers(n, distances, spec)
    return [PairTransfer(a, b, records[(b - a) % n]) for a, b in pairs]
