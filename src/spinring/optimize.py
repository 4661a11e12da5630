"""Twist/time search for high-quality transfer windows.

The landscape xi(beta) is a quasi-periodic superposition of N mode phases, so
the search is a dense coarse grid (step 0.02 oversamples the fastest ~pi
oscillation by more than a hundredfold), then a Newton polish in beta, at its
grid twist, of every coarse local maximum within 1e-3 of the coarse best, and
last a joint (twist, time) polish of each displacement's winner: `polish` on
the exact derivatives of `SpectralKernel.jet`, all points of a ring in lockstep.

The coarse grid is pruned by a bound: |a|^2, a = (1/N) sum_m w_m
exp(i*beta*c_m) with |w_m| = 1, curves down no faster than 2 mean_m c_m^2
(= 1 on a ring), so a coarse level of points, halved where it can still
reach, shows which stretches of the fine grid cannot come within 1e-3 of the
best (`SpectralKernel.row_bounds`).  Only the others are evaluated, and the
kernel gives them the full grid's values bit for bit, so the coarse
candidates are the full grid's (see `_coarse_pass`).  A ring's twists are
stacked as rate rows of two kernels, one that bounds and one that evaluates,
so each stage is one call over all of them; the beta polish and the anchors
read the evaluating kernel's rows too.  Near-perfect windows at different
times can tie to within fractions of 1e-3; all surviving polished optima are
kept on the record (`near_optima`) so callers can match a specific reported
window as well as the in-range global best.

Ties are resolved toward the earliest usable time: smallest beta, then
smallest |f|, then negative f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .amplitude import SpectralKernel, grid_count, local_maxima, polish

# unused here, but benchmarks/spans.py patches `spinring.optimize.xi` in its
# traced mode, so the name must stay a module attribute
from .amplitude import xi  # noqa: F401
from .ring import RingConfig, _mode_cosines

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
_NEAR_OPTIMUM_WINDOW = 1e-3
_MAX_REFINE_PER_TWIST = 64
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

    `near_optima` lists every coarse local maximum within 1e-3 of the best,
    the primary included, best-first, each polished in beta unless blocked (xi < 1e-9).
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


def _mirror_pairs(twists: tuple[float, ...]) -> list[tuple[float, float]]:
    """Pairs (f, g) of distinct twists with g = -f to within 1e-12, one pair per twist at most."""
    by_size = {round(f, 12): f for f in twists}
    pairs, paired = [], set()
    for f in twists:
        g = by_size.get(round(-f, 12))
        if g is not None and g != f and not {f, g} & paired:
            pairs.append((f, g))
            paired |= {f, g}
    return pairs


def _coarse_pass(
    evaluating: SpectralKernel,
    ds: tuple[int, ...],
    spec: SearchSpec,
    rates: dict[float, np.ndarray],
) -> dict[int, list[tuple[float, float, float]]]:
    """Coarse grid sweep; returns per-d lists of (f, beta, xi) keep-worthy points.

    `rates` holds each candidate twist's mode cosines, `_mode_cosines(n, f)`,
    and `evaluating` stacks them in the order of `spec.f_candidates` over ds.

    The landscapes are the rows of that kernel: `xi_grid` on beta_min + k*h,
    k < B, which the kernel factors into giant rows of S = ceil(sqrt(B))
    points.  Only the giant rows that can hold a point within 1e-3 of the best
    are evaluated (`_bounded_rows`).  A bounding kernel stacks one rate row
    per bound: its first level, one `xi_grid` over all of them, gives a lower
    bound on each displacement's best at every twist, and the floor is the
    largest over all twists minus 1e-3; its rows(floor) then halves, a level
    at a time over all rows, the stretches whose curvature bound still
    reaches the floor, and keeps the giant rows the last ones touch
    (`row_bounds`).  The evaluating kernel evaluates those rows in one
    `xi_rows` call, bit for bit each twist's full grid, and `_run_maxima`
    scans the runs of evaluated points for local maxima, about `_SCAN_ROWS`
    giant rows at a time.

    The kept lists equal the full grid's.  Every value of a skipped row lies
    below best - 1e-3, so (i) a point at or above best - 1e-3 keeps its
    local-maximum status, its neighbours being below it either way; (ii) a
    twist holding such a point has its maximum in an evaluated row, so its
    `g.max()` filter threshold is unchanged, and the best is too; (iii) the
    per-twist cap of 64 takes candidates best-first, so the ones at or above
    best - 1e-3 come first in the same order in both, and the cap keeps the
    same number of them.  Candidates below best - 1e-3 may differ, but the
    final filter drops them all.

    The cap binds on blocked landscapes, whose rounding noise is all in the
    window, and not on the table's twist grids (both pinned by tests).
    """
    b0, h = spec.beta_min, spec.beta_step
    count = grid_count(spec.beta_max - b0, h)
    twists = spec.f_candidates
    # the kept giant rows of one kernel row per (twist, displacement), in order
    rows, giants = np.nonzero(_bounded_rows(evaluating.n, ds, spec, rates, count))
    top = np.full(len(twists) * len(ds), -np.inf)  # each kernel row's maximum
    # whole kernel rows at a time, about _SCAN_ROWS giant rows each, bound the memory
    firsts = np.flatnonzero(np.diff(rows, prepend=-1))
    cuts = firsts[np.flatnonzero(np.diff(firsts // _SCAN_ROWS)) + 1]
    found = []
    for at, g in zip(np.split(rows, cuts), np.split(giants, cuts)):
        found.append(_run_maxima(at, g, evaluating.xi_rows(b0, h, count, at, g), b0, h, top))
    row, beta, value = (np.concatenate(x) for x in zip(*found))
    twist, place = np.divmod(row, len(ds))
    best = top.reshape(len(twists), len(ds)).max(axis=0)
    near = value >= best[place] - _NEAR_OPTIMUM_WINDOW
    kept: dict[int, list[tuple[float, float, float]]] = {d: [] for d in ds}
    for t, j, b, v in zip(*(x[near].tolist() for x in (twist, place, beta, value))):
        kept[ds[j]].append((twists[t], b, v))
    return kept


def _bounded_rows(
    n: int, ds: tuple[int, ...], spec: SearchSpec, rates: dict[float, np.ndarray], count: int
) -> np.ndarray:
    """The giant rows `_coarse_pass` evaluates, as a boolean array with one row per
    (twist, displacement), twist first: those that can hold a point within 1e-3
    of the best (`SpectralKernel.row_bounds`, `count` grid points).

    Twists f and -f share one bounding rate row where both are candidates.
    Reflecting the ring reverses the twist, a_d(beta, -f) = a_{N-d}(beta, f),
    as the rates of -f are those of f under m -> N - m.  So the bounds of f's
    rates over the displacements ds and N - ds bound both twists, a kernel row
    standing for one of each taking the lower floor, and one that stands for
    neither a floor of +inf; the rates of a pair whose twists are opposite
    only up to rounding differ by a spread that widens that row's slack
    (`row_bounds`).  An unpaired twist has a rate row of its own, over the
    same displacements.  The bound need not match any twist's bits, but the
    evaluating kernel gives each twist's rows the bits of its own grid.
    """
    twists = spec.f_candidates
    mirrored = tuple(n - d for d in ds)
    union = ds + tuple(d for d in mirrored if d not in ds)
    pairs = _mirror_pairs(twists)
    paired = {f for pair in pairs for f in pair}
    alone = [f for f in twists if f not in paired]
    # a_d(beta, -f) = a_{N-d}(beta, f): the rates of g are those of f under
    # m -> N - m, up to the rounding of the two twists
    spread = [float(np.max(np.abs(rates[g] - np.roll(rates[f][::-1], -1)))) for f, g in pairs]
    bounding = SpectralKernel([rates[f] for f, _ in pairs] + [rates[f] for f in alone], union)
    spread += [0.0] * len(alone)
    low, rows_above = bounding.row_bounds(spec.beta_min, spec.beta_step, count, spread)
    # the bounding kernel rows of each twist's displacements ds
    own, other = (np.array([union.index(d) for d in side]) for side in (ds, mirrored))
    reads = {f: i * len(union) + own for i, f in enumerate([f for f, _ in pairs] + alone)}
    reads.update({g: i * len(union) + other for i, (_, g) in enumerate(pairs)})
    source = np.array([reads[f] for f in twists])
    floor = low[source].max(axis=0) - _NEAR_OPTIMUM_WINDOW
    floors = np.full(len(low), np.inf)
    np.minimum.at(floors, source, np.broadcast_to(floor, source.shape))
    return rows_above(floors)[source.ravel()]


def _run_maxima(rows, giants, values, b0: float, h: float, top: np.ndarray):
    """The candidates of evaluated giant rows: (kernel row, beta, value) arrays of
    the local maxima within 1e-3 of their kernel row's maximum, by kernel row and
    best first, at most 64 a row.

    Line i of `values` holds the S points of giant row giants[i] of kernel row
    rows[i] (`SpectralKernel.xi_rows`), and each kernel row's lines are all
    here; top[r] is set to kernel row r's maximum.  A run of grid points ends
    where the next line is not the next giant row of the same kernel row.
    """
    stride = values.shape[1]
    breaks = np.zeros(values.shape, dtype=bool)
    breaks[:-1, -1] = (np.diff(rows) != 0) | (np.diff(giants) != 1)
    values = values.ravel()
    firsts = np.flatnonzero(np.diff(rows, prepend=-1))
    top[rows[firsts]] = np.maximum.reduceat(values, firsts * stride)
    cand = local_maxima(values, breaks.ravel()[:-1])
    line, j = np.divmod(cand, stride)
    near = values[cand] >= top[rows[line]] - _NEAR_OPTIMUM_WINDOW
    line, j, cand = line[near], j[near], cand[near]
    row, value, beta = rows[line], values[cand], b0 + h * (giants[line] * stride + j)
    order = np.lexsort((beta, -value, row))
    row, beta, value = row[order], beta[order], value[order]
    capped = np.arange(len(row)) - np.searchsorted(row, row) < _MAX_REFINE_PER_TWIST
    return row[capped], beta[capped], value[capped]


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
    for d in ds:
        if not 1 <= d <= n - 1:
            raise ValueError(f"displacement must be in 1..{n - 1}, got {d}")
    RingConfig(n)  # validates the ring size early
    twists = spec.f_candidates
    rates = {f: _mode_cosines(n, f) for f in twists}
    # one kernel row per (twist, displacement), twist first: twist f's rows start at first[f]
    kernel = SpectralKernel([rates[f] for f in twists], ds)
    first = {f: t * len(ds) for t, f in enumerate(twists)}
    coarse = _coarse_pass(kernel, ds, spec, rates)

    # each coarse candidate at or above the refine floor (below it is blocked
    # noise) in beta alone, in +-beta_step: zero twist slopes keep its twist
    kept = [(d, f, beta) for d in ds for f, beta, _ in coarse[d]]
    rows = np.array([first[f] + ds.index(d) for d, f, _ in kept], dtype=np.intp)
    betas = np.array([beta for _, _, beta in kept])
    live = np.array([value >= _TWIST_REFINE_FLOOR for d in ds for *_, value in coarse[d]], bool)
    start, polished = betas[live], rows[live]
    lo = np.maximum(spec.beta_min, start - spec.beta_step)
    hi = np.minimum(spec.beta_max, start + spec.beta_step)
    flat = np.zeros((len(twists), n))
    _, betas[live] = polish(
        lambda index, _, betas: kernel.jet(polished[index], betas, flat, flat),
        np.zeros(len(start)), start, lo, hi, spec.refine_tol, n,
    )
    candidates: dict[int, list[TransferPoint]] = {d: [] for d in ds}
    for (d, f, _), beta, value in zip(kept, betas.tolist(), kernel.xi(rows, betas)):
        candidates[d].append(TransferPoint(f=f, beta=beta, xi=value))
    # unpolished window-start anchors make flat (fully blocked) landscapes
    # resolve deterministically to beta_min instead of polish noise
    every = len(twists) * len(ds)
    anchors = kernel.xi(range(every), [spec.beta_min] * every)
    for j, d in enumerate(ds):
        candidates[d] += [TransferPoint(f, spec.beta_min, anchors[first[f] + j]) for f in twists]

    # each winner jointly in (f, beta); it moves only if xi rises by more than a tie
    winners = {d: _select(points) for d, points in candidates.items()}
    jointly = [d for d in ds if winners[d].xi >= _TWIST_REFINE_FLOOR]
    k = 2.0 * np.pi / n

    def joint(index, fs, betas):
        rates = np.array([_mode_cosines(n, f) for f in fs]).reshape(-1, n)
        slopes = -k * np.sin(k * (np.arange(1, n + 1) + np.reshape(fs, (-1, 1))))
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
            (p for p in refined if p.xi >= winner.xi - _NEAR_OPTIMUM_WINDOW),
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

    pairs = list(combinations(sorted(sites), 2))
    distances = sorted({(b - a) % n for a, b in pairs})
    records = optimize_transfers(n, distances, spec)
    return [PairTransfer(a, b, records[(b - a) % n]) for a, b in pairs]
