"""Twist/time search for high-quality transfer windows.

The landscape xi(beta) is a quasi-periodic superposition of N mode phases, so
the search is a dense coarse grid (step 0.02 oversamples the fastest ~pi
oscillation by more than a hundredfold) followed by golden-section refinement
of every coarse local maximum that comes within 1e-3 of the coarse best, and
finally a confirmation pass over the twist near the winner.

The coarse grid is pruned by a bound: xi = |(1/N) sum_m w_m exp(i*beta*c_m)|
with |w_m| = 1 moves by at most mean_m |c_m| (<= 1) times the change in beta,
so a pre-grid at every tenth step shows which stretches of the fine grid
cannot come within 1e-3 of the best.  Only the others are evaluated, and the
kernel gives them the full grid's values bit for bit, so the coarse
candidates are the full grid's (see `_coarse_pass`).  Near-perfect
windows at different times can tie to within fractions of 1e-3; all surviving
refined optima are kept on the record (`near_optima`) so callers can match a
specific reported window as well as the in-range global best.

Every golden-section search runs its brackets in lockstep (`_golden_max`):
the refinements of all coarse candidates of a displacement take each step
together, and so do the twist confirmations of all displacements of a ring,
each step being one `xi_batch` call that is bit for bit the scalar kernel.

Ties are resolved toward the earliest usable time: smallest beta, then
smallest |f|, then negative f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .amplitude import SpectralKernel, grid_count, xi_batch

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
# below this the landscape is blocked/noise and searching off the candidate
# twists would only chase rounding, so the record keeps the candidate twist
_TWIST_REFINE_FLOOR = 1e-9
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def default_twist_grid() -> tuple[float, ...]:
    """Uniform twist grid of spacing 1/400 over [-0.5, 0.5); contains +-0.25."""
    return tuple(k / 400 - 0.5 for k in range(400))


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


def _golden_search(lo: float, hi: float, tol: float):
    """Golden-section maximization on [lo, hi], one bracket of `_golden_max`.

    A generator: it yields the points it needs, first lo, hi and the two
    interior points, then one point a step; it is sent their values and
    returns the best (x, value) seen.  It stops once the bracket is within
    `tol`, or within 4 ulps of its larger end where that is wider: below the
    float spacing the interior points cannot move, and the bracket would
    never shrink to `tol`.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    y_lo, y_hi, yc, yd = yield (lo, hi, c, d)
    best_x, best_y = lo, y_lo
    if y_hi > best_y:
        best_x, best_y = hi, y_hi
    tol = max(tol, 4.0 * math.ulp(max(abs(lo), abs(hi))))
    while b - a > tol:
        if yc >= yd:
            b, d, yd = d, c, yc
            c = b - _INV_PHI * (b - a)
            (yc,) = yield (c,)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * (b - a)
            (yd,) = yield (d,)
        for x, y in ((c, yc), (d, yd)):
            if y > best_y:
                best_x, best_y = x, y
    return best_x, best_y


def _golden_max(fn, brackets, tol: float) -> list[tuple[float, float]]:
    """Golden-section maximization of every bracket (lo, hi), all in lockstep.

    Each step makes one call `fn(points)` with the points every unfinished
    bracket needs next, as (bracket index, x) pairs, and `fn` returns one
    value per point.  Each bracket does the arithmetic of a scalar search
    (`_golden_search`), so a batched `fn` that is bit for bit the scalar one
    gives the same results.  Returns the best (x, value) per bracket.
    """
    searches = [_golden_search(float(lo), float(hi), tol) for lo, hi in brackets]
    wanted = {i: next(search) for i, search in enumerate(searches)}
    best: list = [None] * len(searches)
    while wanted:
        values = iter(fn([(i, x) for i, xs in wanted.items() for x in xs]))
        for i, xs in list(wanted.items()):
            try:
                wanted[i] = searches[i].send([next(values) for _ in xs])
            except StopIteration as done:
                best[i] = done.value
                del wanted[i]
    return best


def _golden_xi(kernels: list[SpectralKernel], brackets, tol: float) -> list[tuple[float, float]]:
    """Best (beta, xi) of kernels[i] on brackets[i] by golden section, all in lockstep."""

    def xi_at(points):
        return xi_batch([kernels[i] for i, _ in points], [beta for _, beta in points])

    return _golden_max(xi_at, brackets, tol)


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

    Each twist's landscape is `SpectralKernel.xi_grid` on beta_min + k*h,
    k < B, which the kernel factors into giant rows of S = ceil(sqrt(B))
    points.  Only the giant rows that can hold a point within 1e-3 of the
    best are evaluated, in two stages.  Stage one reads, for every twist, an
    upper bound on each row and a lower bound on each displacement's best
    (`row_bounds`).  Stage two evaluates, per twist, the rows whose bound
    reaches the best lower bound over all twists minus 1e-3 (`xi_rows`,
    bit for bit the full grid's values).  The runs of evaluated rows are
    joined with -inf separators and scanned for local maxima once.

    The kept lists equal the full grid's.  Every value of a skipped row lies
    below best - 1e-3, so (i) a point at or above best - 1e-3 keeps its
    local-maximum status, its neighbours being below it either way; (ii) a
    twist holding such a point has its maximum in an evaluated row, so its
    `g.max()` filter threshold is unchanged, and the best is too; (iii) the
    per-twist cap of 64 takes candidates best-first, so the ones at or above
    best - 1e-3 come first in the same order in both, and the cap keeps the
    same number of them.  Candidates below best - 1e-3 may differ, but the
    final filter drops them all.

    The cap leaves the table's searches alone: on the 1/8, quarter-twist and
    1/40 twist grids at n = 5 and 7 the kept lists are the uncapped ones, at
    most 40 per displacement.  It binds on a blocked landscape, whose
    rounding noise is all in the window: the 6-ring at half flux to beta 500
    has 8,127 such maxima, 64 are kept, and the unrefined window-start anchor
    decides the record.
    """
    betas = spec.beta_grid()
    count, h = len(betas), spec.beta_step
    kernels = [SpectralKernel(_mode_cosines(n, f), ds) for f in spec.f_candidates]
    bounds = [kernel.row_bounds(spec.beta_min, h, count) for kernel in kernels]
    floor = np.max([low for low, _ in bounds], axis=0) - _NEAR_OPTIMUM_WINDOW
    kept: dict[int, list[tuple[float, float, float]]] = {d: [] for d in ds}
    best: dict[int, float] = {d: -1.0 for d in ds}
    for f, kernel, (_, high) in zip(spec.f_candidates, kernels, bounds):
        rows = kernel.xi_rows(spec.beta_min, h, count, high >= floor[:, None])
        for d, (index, values) in zip(ds, rows):
            if not len(index):
                continue
            # -inf stands in for each skipped run and beyond the window edges
            at = np.concatenate(([0], np.flatnonzero(np.diff(index) != 1) + 1, [len(index)]))
            g = np.insert(values, at, -np.inf)
            index = np.insert(index, at, -1)
            best[d] = max(best[d], float(g.max()))
            cand = _local_maxima(g)
            cand = cand[g[cand] >= g.max() - _NEAR_OPTIMUM_WINDOW]
            order = np.lexsort((betas[index[cand]], -g[cand]))
            for i in cand[order][:_MAX_REFINE_PER_TWIST]:
                kept[d].append((f, float(betas[index[i]]), float(g[i])))
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


def _refine_twists(
    n: int, winners: dict[int, TransferPoint], spec: SearchSpec
) -> dict[int, TransferPoint]:
    """Confirmation search over f near each displacement's winner, all in lockstep.

    The outer golden search runs over f, and each of its points runs an inner
    one over beta; a displacement's result is kept only if it improves.
    """
    ds = list(winners)
    df = _twist_spacing(spec.f_candidates)
    windows = []
    for d in ds:
        beta = winners[d].beta
        # a twist shift df slides each mode phase by at most beta*2*pi*df/n
        half_window = max(1.0, beta * (2.0 * np.pi / n) * df * 3.0)
        windows.append(
            (max(spec.beta_min, beta - half_window), min(spec.beta_max, beta + half_window))
        )
    seen: list[list[TransferPoint]] = [[] for _ in ds]

    def objective(points):
        kernels = [SpectralKernel(_mode_cosines(n, fv), (ds[j],)) for j, fv in points]
        found = _golden_xi(kernels, [windows[j] for j, _ in points], spec.refine_tol)
        for (j, fv), (beta, value) in zip(points, found):
            seen[j].append(TransferPoint(f=fv, beta=beta, xi=value))
        return [value for _, value in found]

    twists = [(winners[d].f - df, winners[d].f + df) for d in ds]
    _golden_max(objective, twists, max(df * 1e-3, 1e-7))
    confirmed = {}
    for d, points in zip(ds, seen):
        improved = max(points, key=lambda p: p.xi)
        confirmed[d] = improved if improved.xi > winners[d].xi + _XI_TIE else winners[d]
    return confirmed


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

    candidates: dict[int, list[TransferPoint]] = {}
    for d in ds:
        kernels = {f: SpectralKernel(_mode_cosines(n, f), (d,)) for f in spec.f_candidates}
        refined: list[TransferPoint] = []
        moving, brackets = [], []
        for f, beta_c, xi_c in coarse[d]:
            lo = max(spec.beta_min, beta_c - spec.beta_step)
            hi = min(spec.beta_max, beta_c + spec.beta_step)
            if hi > lo:
                moving.append(len(refined))
                brackets.append((lo, hi))
            refined.append(TransferPoint(f=f, beta=beta_c, xi=xi_c))
        found = _golden_xi([kernels[refined[i].f] for i in moving], brackets, spec.refine_tol)
        for i, (beta_r, xi_r) in zip(moving, found):
            refined[i] = TransferPoint(f=refined[i].f, beta=beta_r, xi=xi_r)
        # unrefined window-start anchors make flat (fully blocked) landscapes
        # resolve deterministically to beta_min instead of refinement noise
        anchors = xi_batch(list(kernels.values()), [spec.beta_min] * len(kernels))
        refined += [TransferPoint(f=f, beta=spec.beta_min, xi=v) for f, v in zip(kernels, anchors)]
        candidates[d] = refined

    winners = {d: _select(points) for d, points in candidates.items()}
    confirmed = _refine_twists(
        n, {d: w for d, w in winners.items() if w.xi >= _TWIST_REFINE_FLOOR}, spec
    )
    records: dict[int, TransferRecord] = {}
    for d, refined in candidates.items():
        winner = confirmed.get(d, winners[d])
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
