"""Site-to-site transition amplitudes on the twisted ring.

Three independent routes give the same complex amplitude (uniform gauge):

* the spectral route sums the N plane-wave modes, O(N) per point
  (`SpectralKernel`, on time grids and at scattered points),
* the Bessel route expands each mode phase with the Jacobi-Anger identity
  and resums into two ladders of Bessel functions J_{d+kN}(beta) and
  J_{d'+kN}(beta), d' = N - d, and
* the oracle reads the amplitude off the dense matrix propagator in `ring`.

The communication figure of merit is xi = |amplitude|: it is both the
entanglement transmittable through the ring and a monotone proxy for the
state-transfer fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_j_ladder
from .ring import MAX_GRID_POINTS, RingConfig, _mode_cosines, propagate_oracle, site_state
from .ring import _scaled_time, require_grid_points

__all__ = [
    "AmplitudeQuery",
    "AmplitudeResult",
    "BESSEL_BETA_MAX",
    "BesselTruncationError",
    "MAX_GRID_POINTS",
    "SpectralKernel",
    "amplitude_spectral",
    "amplitude_bessel",
    "amplitude_oracle",
    "grid_count",
    "local_maxima",
    "polish",
    "require_grid_points",
    "xi",
    "xi_profile",
]

# Magnitudes may poke past 1 by accumulated rounding; anything above this is
# a real bug, not noise.
XI_EXCESS = 1e-12

# Ladder terms whose order exceeds beta by this many cube-root widths
# max(beta^(1/3), 2) are far past the turning point and decay
# super-exponentially.  |J_o(beta)| stays below _TERM_FLOOR from at most 13.4
# widths past beta on (at beta ~8.1; 11.5 at 12000), so 20 keeps a 1.5x margin.
_ORDER_MARGIN = 20.0
_TERM_FLOOR = 1e-18
_TAIL_RUN = 3
# log of half the least subnormal double: a positive value below it rounds to 0
_LOG_UNDERFLOW = -1075.0 * math.log(2.0)
# Largest beta the Bessel route accepts: the ladder's 1e-12 accuracy is tested
# out to this argument.  The ladder's sweep starts past beta + 20 cube-root
# widths and runs in numpy lanes below the turning point, so its cost grows
# with beta: ~12,700 orders and ~1.5 ms at this bound (2 vCPUs, Python 3.11,
# numpy 2.4).
BESSEL_BETA_MAX = 12000.0

# Points per displacement evaluated at once; bounds the live phase block.
_CHUNK = 65536
# Values per block of a grid's BLAS products: at 128 KiB of complex values
# the allocator reuses a block's memory instead of mapping (and faulting in)
# fresh pages for every block.
_BLOCK = 8192
# Largest curvature reach M*(K*h)^2/8, in |a|^2, of the first and of the last
# level of `SpectralKernel.row_bounds` (strides K = 64 and 4 at h = 0.02 on a
# ring): the first still prunes most stretches of a landscape, the last
# decides which giant rows are evaluated.
_FIRST_REACH = 0.25
_LAST_REACH = 1e-3
# polish rounds: real maxima take 2-6, blocked landscapes' rounding noise all
_MAX_POLISH_ROUNDS = 64


class BesselTruncationError(RuntimeError):
    """Raised when the series tail refuses to drop below the term floor."""


@dataclass(frozen=True)
class AmplitudeQuery:
    """One transition-amplitude evaluation: sender s, receiver r, scaled time beta."""

    config: RingConfig
    r: int
    s: int
    beta: float

    def __post_init__(self) -> None:
        n = self.config.n
        for name in ("r", "s"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 1 <= v <= n:
                raise ValueError(f"{name} must be an integer site in 1..{n}, got {v!r}")
        if not math.isfinite(self.beta) or self.beta < 0:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")
        _scaled_time(self.config, self.beta)

    @property
    def d(self) -> int:
        """Sender-to-receiver displacement reduced to 0..N-1."""
        return (self.r - self.s) % self.config.n


@dataclass(frozen=True)
class AmplitudeResult:
    value: complex
    xi: float
    method: str


def grid_count(span: float, step: float) -> int:
    """Number of points 0, step, 2*step, ... up to span (1e-9 steps of slack), checked.

    A step outside (0, inf) is refused: an infinite one would give one point
    whose coordinate inf * 0 is nan.
    """
    if not 0.0 < step < math.inf:
        raise ValueError(f"grid step must be positive and finite, got {step!r}")
    steps = span / step + 1e-9
    require_grid_points(steps + 1.0)
    return math.floor(steps) + 1


def _clip_xi(mag: float) -> float:
    if mag > 1.0 + XI_EXCESS:
        raise ValueError(f"|amplitude| = {mag} exceeds 1 beyond rounding tolerance")
    return min(mag, 1.0)


def _mode_weights(n: int, ds) -> np.ndarray:
    """Weights exp(2*pi*i*d*m/N), m = 1..N, one row per displacement d in `ds`."""
    return np.exp(1j * np.outer([2.0 * np.pi * d / n for d in ds], np.arange(1, n + 1)))


def _giant_steps(b0: float, h: float, count: int) -> tuple[np.ndarray, int]:
    """The giant-step starts b0 + g*S*h and the stride S = ceil(sqrt(count)) of `xi_grid`."""
    stride = math.isqrt(count - 1) + 1 if count > 1 else 1
    return b0 + h * (stride * np.arange(-(-count // stride))), stride


def _level_stride(h: float, count: int, reach: float, curvature: float) -> int:
    """The largest power of two K <= 2^ceil(log2(count)) with curvature*(K*h)^2/8 <= reach, or 1."""
    widest = min(math.sqrt(8.0 * reach / curvature) / h, 1 << (count - 1).bit_length())
    return 1 << max(math.frexp(widest)[1] - 1, 0)  # floor(log2(widest)), exactly


class SpectralKernel:
    """Mode sums a_d(beta) = (1/N) sum_m exp(2*pi*i*d*m/N) exp(i*beta*c_m), m = 1..N.

    Built from K rate rows of N per-mode rates c_m, shape (K, N) or (N,), and
    the displacements ds that every rate row is summed at.  The kernel's rows
    are the pairs (rate row, displacement), rate row first: row i is rate row
    i // len(ds) at ds[i % len(ds)], so one rate row gives one kernel row per
    displacement.  For a ring, c_m = cos(2*pi*(m+f)/N) from `_mode_cosines`,
    so the half-flux pair cancellation holds on every path, and a_d is the
    uniform-gauge amplitude without the global phase exp(-i*D*t), so J and B
    drop out.  Time grids are BLAS products of giant and baby steps (`xi_grid`,
    `xi_rows`), scattered points (kernel row, beta) one product each (`values`,
    `jet`); on both, every kernel row has the bits of a kernel of its rate row
    and displacement alone.
    """

    def __init__(self, rates: np.ndarray, ds) -> None:
        self._irates = 1j * np.atleast_2d(np.asarray(rates, dtype=float))
        self.n = self._irates.shape[1]
        self._ds = [int(d) % self.n for d in ds]
        self._weights = _mode_weights(self.n, self._ds)  # one weight row per displacement

    def xi_grid(self, b0: float, h: float, count: int) -> np.ndarray:
        """|a_d| at b0 + k*h for k < count, shape (kernel rows, count).

        With k = g*S + j and S = ceil(sqrt(count)), each mode phase is a giant
        step exp(i*c_m*(b0 + g*S*h)) times a baby step exp(i*c_m*j*h): about
        2*sqrt(count)*N exponentials per rate row and one matrix product per
        rate row and block of giant rows.
        """
        starts, stride = _giant_steps(b0, h, count)
        require_grid_points(self.n * stride, "a block of mode phases")
        rows, giants = len(self._irates) * len(self._ds), len(starts)
        values = self._xi_giant(
            np.repeat(np.arange(rows), giants), np.tile(np.arange(giants), rows), starts, h, stride
        )
        return values.reshape(rows, giants * stride)[:, :count]

    def row_bounds(self, b0: float, h: float, count: int, spread=0.0):
        """Bounds on `xi_grid(b0, h, count)`: (low, rows) with low[r] <= its maximum
        on kernel row r, and rows(floor) a boolean array of shape (kernel rows,
        giant rows) that holds wherever giant row g of kernel row r may hold a
        value >= floor[r].

        The bound is on the curvature of g = |a_d|^2.  With a = (1/N) sum_m
        w_m exp(i*beta*c_m) and |w_m| = 1, |a| <= 1 and |a''| <= mean_m c_m^2, so

            -g'' = -2|a'|^2 - 2 Re(a'' conj(a)) <= 2 mean_m c_m^2,

        and M, the largest of these over the rate rows, is 1 on a ring.  Then
        g + (M/2)(beta - u)(beta - v) is convex on a stretch [u, v], so it stays
        below its larger end value, and as (beta - u)(v - beta) <= (v - u)^2/4,
        g <= max(g(u), g(v)) + M*(v - u)^2/8 there, between the grid points too.

        A level of stride K, a power of two (`_level_stride`), has stretches
        between the fine indices p*K.  low is read off the first level, reach
        M*(K*h)^2/8 at most `_FIRST_REACH`, with one point past the grid so
        every grid point lies on a stretch: one `xi_grid` over every kernel
        row.  rows(floor) halves each stretch whose bound still reaches
        floor[r], evaluating the midpoints of all kernel rows by one
        `values` call a level, down to reach `_LAST_REACH`, and keeps the giant
        rows the stretches left there touch.  A kernel row whose floor the last
        reach brings down to 0 (a blocked landscape) keeps all its giant rows
        unhalved, and one whose floor is +inf keeps none.  Both bounds carry a
        slack for the levels' different rounding.

        `spread`, one value or one per rate row, widens that slack by
        spread * beta: the bounds then also hold for a kernel whose weights
        match these to rounding and whose rates are within `spread` of these,
        as |a_d| moves by at most beta * max_m |c_m - c'_m| between them.
        """
        starts, stride = _giant_steps(b0, h, count)
        shape = (len(self._irates) * len(self._ds), len(starts))
        curvature = 2.0 * float(np.max(np.mean(np.abs(self._irates) ** 2, axis=1)))
        first = _level_stride(h, count, _FIRST_REACH, curvature)
        last = _level_stride(h, count, _LAST_REACH, curvature)
        points = (count - 1) // first + 2
        beta_end = b0 + (points - 1) * first * h
        if not math.isfinite(beta_end):
            # the first level would run past the largest float: bound nothing
            return np.full(shape[0], -np.inf), lambda floor: np.ones(shape, dtype=bool)
        level = self.xi_grid(b0, first * h, points)
        spread = np.repeat(np.broadcast_to(spread, len(self._irates)), len(self._ds))
        slack = 1e-9 + (16.0 * np.finfo(float).eps + spread) * beta_end

        def rows(floor: np.ndarray) -> np.ndarray:
            def least(width: int) -> np.ndarray:
                # sqrt((max(ends) + slack)^2 + M*(width*h)^2/8) + slack >= floor;
                # a step whose square overflows reaches every floor but +inf
                step = width * h
                lift = np.maximum(floor - slack, 0.0) ** 2
                np.subtract(lift, curvature * (step * step) / 8.0, out=lift, where=lift < np.inf)
                return np.sqrt(np.maximum(lift, 0.0)) - slack

            # where even the last level's threshold is <= 0, every stretch stays
            # alive at every level: keep all the rows and halve none
            everywhere = least(last) <= 0.0
            keep = np.zeros(shape, dtype=bool)
            for r, p in stretches(np.where(everywhere, np.inf, least(first))):
                k, ends, width = p * first, (level[r, p], level[r, p + 1]), first
                while width > last and len(k):
                    width //= 2
                    mid = np.abs(self.values(r, b0 + h * (k + width)))
                    r, k = np.concatenate((r, r)), np.concatenate((k, k + width))
                    ends = (np.concatenate((ends[0], mid)), np.concatenate((mid, ends[1])))
                    # a half that starts past the grid covers none of it
                    alive = (k < count) & (np.maximum(*ends) >= least(width)[r])
                    r, k, ends = r[alive], k[alive], (ends[0][alive], ends[1][alive])
                # stretch [k, k + width] touches the giant rows k // S .. (k + width - 1) // S
                g, end = k // stride, np.minimum((k + width - 1) // stride, shape[1] - 1)
                while len(g):
                    keep[r, g] = True
                    on = g < end
                    r, g, end = r[on], g[on] + 1, end[on]
            return keep | everywhere[:, None]

        def stretches(threshold: np.ndarray):
            """The first level's stretches with an end at or above threshold[r]:
            (kernel rows r, stretches p) in chunks that each halve into at most
            16 * `_CHUNK` // 4 stretches."""
            per = max(16 * _CHUNK // points, 1)  # kernel rows scanned at once
            for top in range(0, shape[0], per):
                high = (level[top : top + per] >= threshold[top : top + per, None]).ravel()
                at = np.flatnonzero(high[:-1] | high[1:])  # flat: 2-D nonzero is slower
                at = at[at % points < points - 1]  # a stretch ends on its own row
                for lo in range(0, len(at), _CHUNK // 4):
                    r, p = np.divmod(at[lo : lo + _CHUNK // 4], points)
                    yield r + top, p

        return level[:, :-1].max(axis=1) - slack, rows

    def xi_rows(
        self, b0: float, h: float, count: int, rows: np.ndarray, giants: np.ndarray
    ) -> np.ndarray:
        """`xi_grid(b0, h, count)` on giant row giants[i] of kernel row rows[i], bit for bit.

        The pairs come in order of kernel row, as `np.nonzero` reads the array
        `row_bounds`' rows(floor) returns.  Returns their values, shape (pairs,
        S): giant row g holds the grid points g*S + j, j < S, and a point past
        the grid, on the last giant row, reads -inf.  The pairs of one rate
        row, over all its displacements, share its matrix products.
        """
        starts, stride = _giant_steps(b0, h, count)
        require_grid_points(self.n * stride, "a block of mode phases")
        values = self._xi_giant(rows, giants, starts, h, stride)
        last = len(starts) - 1
        values[giants == last, count - last * stride :] = -np.inf
        return values

    def _xi_giant(
        self, rows: np.ndarray, giants: np.ndarray, starts: np.ndarray, h: float, stride: int
    ) -> np.ndarray:
        """|a| at starts[giants[i]] + j*h, j < stride, on kernel row rows[i], shape
        (len(rows), stride); `rows` is in order.

        Every grid and every set of kept rows is evaluated here, one rate row
        at a time: its giant steps exp(i*c_m*starts[g]) (over all g once it
        has more pairs than giant rows), weighted per kernel row, are BLAS
        products with its baby steps exp(i*c_m*j*h), a block of pairs each.
        BLAS gives a row of a product the same bits whatever rows share it,
        except in a one-row product (gemv or a dot, which may round
        differently).  So a lone row is sent twice: a row's bits never depend
        on its batch, and `xi_rows` and a stacked kernel match a one-rate-row
        kernel's full grid by construction.
        """
        per = max(_BLOCK // stride, 1)
        require_grid_points(self.n * min(len(rows), per), "a block of mode phases")
        out = np.empty((len(rows), stride))
        block = np.empty((min(per, len(rows)) + 1, stride), dtype=complex)  # for every product
        # the pairs of rate row k are a = cuts[k] <= i < cuts[k + 1] = b
        cuts = np.searchsorted(rows, len(self._ds) * np.arange(len(self._irates) + 1))
        for rates, a, b in zip(self._irates, cuts.tolist(), cuts[1:].tolist()):
            if a == b:
                continue
            baby = np.exp(np.outer(rates, h * np.arange(stride)))
            every = np.exp(np.outer(starts, rates)) if b - a > len(starts) else None
            for lo in range(a, b, per):
                hi = min(lo + per, b)
                at = giants[lo:hi]
                giant = every[at] if every is not None else np.exp(np.outer(starts[at], rates))
                phases = self._weights[rows[lo:hi] % len(self._ds)] * giant
                pair = np.repeat(phases, 2, axis=0) if hi - lo == 1 else phases
                np.abs(np.matmul(pair, baby, out=block[: len(pair)])[: hi - lo], out=out[lo:hi])
        out /= self.n
        _clip_xi(out.max(initial=0.0))  # the over-unity check of every other path
        return np.minimum(out, 1.0, out=out)

    def values(self, rows, betas) -> np.ndarray:
        """Complex a_d(betas[i]) on kernel row rows[i], for every i.

        One `exp` covers a block of points and one stacked `np.matmul` a 1 x N
        by N x 1 product per point (N x 7 in `jet`), which rounds alike
        whatever points share the call.  A 2-D product, `einsum` or a sum
        rounds differently, and so does `np.abs` in place of `abs`.
        """
        return self._sums(rows, betas, lambda of, weights: weights)[:, 0]

    def xi(self, rows, betas) -> list[float]:
        """|a_d(betas[i])| on kernel row rows[i], for every i."""
        return [_clip_xi(abs(a)) for a in self.values(rows, betas).tolist()]

    def jet(self, rows, betas, slopes, bends) -> np.ndarray:
        """g = |a_d|^2, its gradient and its Hessian in (beta, f) at points (kernel row,
        beta): rows g, g_beta, g_f, g_beta_beta, g_beta_f, g_ff of a (6, points) array.

        `slopes` and `bends`, shaped like the rates, hold d c_m/d f and d^2 c_m/d f^2.
        With phi_m = beta*c_m, a_x = (1/N) sum_m w_m exp(i*phi_m) i*phi_x and a_xy is
        the same sum of i*phi_xy - phi_x*phi_y: phi_beta = c_m, phi_f = beta*c_m',
        phi_{beta f} = c_m', phi_ff = beta*c_m''.  Seven weight columns of one product.
        Past beta ~ 1e154 the twist terms overflow, quietly: `polish` steps around them.
        """
        slopes, bends = np.asarray(slopes, dtype=float), np.asarray(bends, dtype=float)

        def columns(of, weights):
            c, s = self._irates[of].imag, slopes[of]
            return weights * np.stack((c**0, c, c * c, s, c * s, s * s, bends[of]), axis=2)

        a, s_c, s_cc, s_s, s_cs, s_ss, s_b = self._sums(rows, betas, columns).T
        t = np.asarray(betas, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            a_b, a_f = 1j * s_c, 1j * t * s_s
            a_bb, a_bf, a_ff = -s_cc, 1j * s_s - t * s_cs, 1j * t * s_b - t * t * s_ss
            g_x = [2.0 * np.real(a.conj() * x) for x in (a_b, a_f)]
            g_xy = [2.0 * np.real(x.conj() * y + a.conj() * xy)
                    for x, y, xy in ((a_b, a_b, a_bb), (a_b, a_f, a_bf), (a_f, a_f, a_ff))]
        return np.array([abs(a) ** 2, *g_x, *g_xy])

    def _sums(self, rows, betas, columns) -> np.ndarray:
        """(1/N) sum_m exp(i*betas[i]*c_m) x_m on kernel row rows[i], shape (points, K):
        `columns(of, weights)` gives a block's K weighted columns x, shape (., N, K),
        from its points' rate rows and weight columns (shape (., N, 1))."""
        rows = np.asarray(rows, dtype=np.intp)
        betas = np.asarray(betas, dtype=float)
        if betas.shape != rows.shape or rows.ndim != 1:
            raise ValueError(f"need one beta per row, got {betas.shape} for {rows.shape}")
        sums = []
        per = max(_CHUNK // self.n, 1)
        for lo in range(0, max(len(rows), 1), per):  # an empty call still has its shape
            of, at = np.divmod(rows[lo : lo + per], len(self._ds))
            phases = np.exp(betas[lo : lo + per, None] * self._irates[of])
            weighted = columns(of, self._weights[at, :, None])
            sums.append(np.matmul(phases[:, None, :], weighted)[:, 0])
        return (sums[0] if len(sums) == 1 else np.concatenate(sums)) / self.n


def local_maxima(values: np.ndarray, breaks=False) -> np.ndarray:
    """Indices of strict local maxima of each run, its endpoints included when they
    dominate; breaks[i] ends a run at values[i] (default: one run)."""
    rising = np.concatenate(([True], (values[1:] > values[:-1]) | breaks))
    falling = np.concatenate(((values[:-1] >= values[1:]) | breaks, [True]))
    return np.nonzero(rising & falling)[0]


def polish(jet_at, f, beta, lo, hi, tol: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Safeguarded Newton ascent of g = |a_d|^2 from each (f[i], beta[i]), all in lockstep.

    `jet_at(index, f, beta)` is `SpectralKernel.jet` at the points `index` moved
    to (f, beta), one call a round (negated, it descends g instead).  A point
    takes a Newton step where the Hessian is negative definite, else a
    gradient step scaled by the absolute diagonal (Newton's in beta alone if
    the twist slopes are zero), halved until g rises; a step that is not finite
    is none, and beta stays in [lo[i], hi[i]].  It stops once a step, taken or
    refused, moves beta by at most `tol` and each mode phase beta*c_m by at
    most `tol` through the twist (|c_m'| <= 2*pi/N), or moves nothing.
    """
    f, beta = np.array(f, dtype=float), np.array(beta, dtype=float)
    lo, hi = np.broadcast_to(lo, beta.shape), np.broadcast_to(hi, beta.shape)
    moving, scale = np.arange(len(beta)), np.ones(len(beta))
    here = jet_at(moving, f, beta)
    for _ in range(_MAX_POLISH_ROUNDS):
        g, g_b, g_f, h_bb, h_bf, h_ff = here[:, moving]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            det = h_bb * h_ff - h_bf * h_bf
            newton = (h_bb < 0) & (det > 0)
            step_b = np.where(newton, (h_bf * g_f - h_ff * g_b) / det, g_b / abs(h_bb))
            step_f = np.where(newton, (h_bf * g_b - h_bb * g_f) / det, g_f / abs(h_ff))
        trial_b = beta[moving] + np.nan_to_num(step_b, posinf=0.0, neginf=0.0) * scale[moving]
        trial_b = np.clip(trial_b, lo[moving], hi[moving])
        trial_f = f[moving] + np.nan_to_num(step_f, posinf=0.0, neginf=0.0) * scale[moving]
        there = jet_at(moving, trial_f, trial_b)
        rose = there[0] > g
        done = (abs(trial_b - beta[moving]) <= tol) & (
            abs(trial_f - f[moving]) * beta[moving] * (2.0 * np.pi / n) <= tol
        )
        taken, scale[moving] = moving[rose], np.where(rose, 1.0, 0.5 * scale[moving])
        f[taken], beta[taken], here[:, taken] = trial_f[rose], trial_b[rose], there[:, rose]
        moving = moving[~done]
        if not len(moving):
            break
    return f, beta


def amplitude_spectral(query: AmplitudeQuery) -> AmplitudeResult:
    """Mode-sum amplitude exp(-i*D*t) * a_d(beta) (see `SpectralKernel`).

    xi is read off a_d(beta) before the global phase is applied, so it is
    exactly field-independent.
    """
    cfg = query.config
    kernel = SpectralKernel(_mode_cosines(cfg.n, cfg.f), (query.d,))
    reduced = complex(kernel.values([0], [query.beta])[0])
    t = query.beta / (4.0 * cfg.j)
    value = complex(np.exp(-1j * cfg.diagonal * t) * reduced)
    return AmplitudeResult(value=value, xi=_clip_xi(abs(reduced)), method="spectral")


def _ladder_orders(base: int, n: int, cutoff: float) -> np.ndarray:
    """Orders base, base+N, ... up to the cutoff plus a short verification tail."""
    k_last = max(int(math.floor((cutoff - base) / n)), 0)
    return base + n * np.arange(k_last + 1 + _TAIL_RUN)


def _underflow_order(beta: float, top: int) -> int:
    """The first order o <= top from which |J_o(beta)| <= (beta/2)^o / o! underflows
    to 0, else top + 1.  Past o = beta/2 the bound falls with o, so every higher
    order underflows too."""
    if beta == 0.0:
        return min(1, top + 1)
    log_half = math.log(beta) - math.log(2.0)  # beta / 2 rounds to 0 at the least subnormal

    def underflows(o: int) -> bool:
        return o * log_half - math.lgamma(o + 1) < _LOG_UNDERFLOW

    if not underflows(top):
        return top + 1
    lo, hi = int(beta / 2.0), top  # the bound is near its peak at lo and underflows at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if underflows(mid) else (mid, hi)
    return hi


def unit_phase(multiplier: float, k: np.ndarray) -> np.ndarray:
    """exp(2*pi*i*multiplier*k) with the turn count reduced mod 1 first.

    The reduction is an exact identity on the unit circle and keeps the
    phases accurate for large k; for half-integer multipliers (the blocked
    configurations) the result is exactly +-1.
    """
    return np.exp(2j * np.pi * np.mod(multiplier * np.asarray(k, dtype=float), 1.0))


def bessel_ladders(n: int, d: int, f: float) -> tuple[tuple[int, complex, float], ...]:
    """The Bessel ladders (first order b, prefactor p, multiplier u) of the amplitude
    for displacement d in 0..N-1, each adding p * sum_k unit_phase(u, k) * J_{b+kN}(beta)."""
    dprime = n - d if d else n
    return (
        (d, (1j) ** (d % 4), n / 4.0 - f),
        (dprime, (1j) ** (dprime % 4) * np.exp(1j * 2.0 * np.pi * f), n / 4.0 + f),
    )


def amplitude_bessel(query: AmplitudeQuery) -> AmplitudeResult:
    """Bessel-ladder amplitude; same complex value as amplitude_spectral.

    The two infinite k-sums are truncated once the order passes
    beta + 20*max(beta^(1/3), 2) and the last three computed terms of each
    ladder sit below 1e-18.  The sweep stops where the bound (beta/2)^o / o!
    on |J_o(beta)| underflows, and higher orders read 0, so a large ring's
    tail rungs cost nothing.  A beta outside [0, `BESSEL_BETA_MAX`] is
    rejected with a ValueError before any ladder is sized.
    """
    cfg = query.config
    n, d, beta = cfg.n, query.d, query.beta
    if not 0.0 <= beta <= BESSEL_BETA_MAX:
        raise ValueError(f"Bessel route needs 0 <= beta <= {BESSEL_BETA_MAX:g}, got {beta!r}")
    (base, pre, turns), (base_p, pre_p, turns_p) = bessel_ladders(n, d, cfg.f)
    cutoff = beta + _ORDER_MARGIN * max(beta ** (1.0 / 3.0), 2.0)

    orders_d, orders_dp = (_ladder_orders(first, n, cutoff) for first in (base, base_p))
    cap = _underflow_order(beta, int(max(orders_d[-1], orders_dp[-1])))
    ladder = bessel_j_ladder(cap - 1, beta)

    def ladder_sum(orders: np.ndarray, multiplier: float) -> complex:
        rungs = ladder.take(orders, mode="clip")
        rungs[orders >= cap] = 0.0  # these underflow, so the sweep stopped below them
        terms = unit_phase(multiplier, np.arange(len(orders))) * rungs
        if np.any(np.abs(terms[-_TAIL_RUN:]) >= _TERM_FLOOR):
            raise BesselTruncationError(
                f"series tail above {_TERM_FLOOR} after order {orders[-1]} "
                f"(n={n}, d={d}, beta={beta})"
            )
        return complex(np.sum(terms))

    total = pre * ladder_sum(orders_d, turns)
    total += pre_p * ladder_sum(orders_dp, turns_p)
    # the ladders carry the single-bond gauge factor exp(2*pi*i*d*f/N); divide it out
    t = beta / (4.0 * cfg.j)
    value = complex(np.exp(-1j * (cfg.diagonal * t + 2.0 * np.pi * d * cfg.f / n)) * total)
    return AmplitudeResult(value=value, xi=_clip_xi(abs(value)), method="bessel")


def amplitude_oracle(query: AmplitudeQuery) -> AmplitudeResult:
    """Amplitude read off the dense matrix propagator (independent route)."""
    psi = propagate_oracle(query.config, site_state(query.config.n, query.s), query.beta)
    value = complex(psi[query.r - 1])
    return AmplitudeResult(value=value, xi=_clip_xi(abs(value)), method="oracle")


def xi(config: RingConfig, d: int, beta: float) -> float:
    """xi = |amplitude| for displacement d (any integer; reduced mod N)."""
    d = int(d) % config.n
    return amplitude_spectral(AmplitudeQuery(config, r=d + 1, s=1, beta=beta)).xi


def xi_profile(config: RingConfig, d: int, b0: float, h: float, count: int) -> np.ndarray:
    """xi on the time grid b0 + k*h, k < count (spectral route, `SpectralKernel.xi_grid`)."""
    return SpectralKernel(_mode_cosines(config.n, config.f), (d,)).xi_grid(b0, h, count)[0]
