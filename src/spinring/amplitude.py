"""Site-to-site transition amplitudes on the twisted ring.

Three independent routes give the same complex amplitude (uniform gauge):

* the spectral route sums the N plane-wave modes (`SpectralKernel`, an
  inverse DFT of the mode phases, O(N) per point),
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
from .ring import require_grid_points

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
    "require_grid_points",
    "xi",
    "xi_batch",
    "xi_profile",
]

# Magnitudes may poke past 1 by accumulated rounding; anything above this is
# a real bug, not noise.
XI_EXCESS = 1e-12

# Ladder terms whose order exceeds beta by this many cube-root widths are far
# past the turning point and decay super-exponentially.
_ORDER_MARGIN = 40.0
_TERM_FLOOR = 1e-18
_TAIL_RUN = 3
# Largest beta the Bessel route accepts: the ladder's 1e-12 accuracy is tested
# out to this argument, and its length (a pure-Python loop) grows with beta.
BESSEL_BETA_MAX = 12000.0

# Grid points per displacement evaluated at once; bounds the live phase block.
_CHUNK = 65536
# Fine steps between the points of the pre-grid `SpectralKernel.row_bounds` reads.
_PRE_STRIDE = 10


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
    """Number of points 0, step, 2*step, ... up to span (1e-9 steps of slack), checked."""
    steps = span / step + 1e-9
    require_grid_points(steps + 1.0)
    return math.floor(steps) + 1


def _clip_xi(mag: float) -> float:
    if mag > 1.0 + XI_EXCESS:
        raise ValueError(f"|amplitude| = {mag} exceeds 1 beyond rounding tolerance")
    return min(mag, 1.0)


def _giant_steps(b0: float, h: float, count: int) -> tuple[np.ndarray, int]:
    """The giant-step starts b0 + g*S*h and the stride S = ceil(sqrt(count)) of `xi_grid`."""
    stride = math.isqrt(count - 1) + 1 if count > 1 else 1
    return b0 + h * (stride * np.arange(-(-count // stride))), stride


class SpectralKernel:
    """Mode sums a_d(beta) = (1/N) sum_m exp(2*pi*i*d*m/N) exp(i*beta*c_m), m = 1..N.

    Built from the N per-mode rates c_m.  For a ring, c_m = cos(2*pi*(m+f)/N)
    from `_mode_cosines`, so the half-flux pair cancellation holds on every
    path, and a_d is the uniform-gauge amplitude without the global phase
    exp(-i*D*t), so J and B drop out.
    """

    def __init__(self, rates: np.ndarray, ds) -> None:
        n = self.n = len(rates)
        self._irates = 1j * np.asarray(rates, dtype=float)
        m = np.arange(1, n + 1)
        self._weights = np.exp(1j * np.outer(m, [2.0 * np.pi * (int(d) % n) / n for d in ds]))
        self._columns = np.ascontiguousarray(self._weights.T)  # one row per displacement

    def amplitudes(self, beta: float) -> np.ndarray:
        """Complex a_d(beta), one per displacement: one exp and one dot."""
        return np.dot(np.exp(beta * self._irates), self._weights) / self.n

    def xi(self, beta: float) -> list[float]:
        """|a_d(beta)| at one beta, one per displacement."""
        return [_clip_xi(abs(a)) for a in self.amplitudes(beta).tolist()]

    def xi_points(self, betas: np.ndarray) -> np.ndarray:
        """|a_d| at the given betas, shape (displacements, len(betas)).

        Betas on an arithmetic progression to within 4 ulps of the largest go
        through `xi_grid` (|a_d| is max|c_m|-Lipschitz in beta, so it moves by
        as little); other point sets are summed point by point.
        """
        betas = np.asarray(betas, dtype=float)
        count = betas.shape[0]
        if count > 2:
            h = (betas[-1] - betas[0]) / (count - 1)
            drift = np.max(np.abs(betas[0] + h * np.arange(count) - betas))
            if drift <= 4.0 * np.spacing(np.max(np.abs(betas))):
                return self.xi_grid(float(betas[0]), float(h), count)
        return self._xi_giant(self._columns, betas, self._baby(0.0, 1))

    def xi_grid(self, b0: float, h: float, count: int) -> np.ndarray:
        """|a_d| at b0 + k*h for k < count, shape (displacements, count).

        With k = g*S + j and S = ceil(sqrt(count)), each mode phase is a giant
        step exp(i*c_m*(b0 + g*S*h)) times a baby step exp(i*c_m*j*h): about
        2*sqrt(count)*N exponentials and one matrix product per block of rows.
        """
        starts, stride = _giant_steps(b0, h, count)
        return self._xi_giant(self._columns, starts, self._baby(h, stride))[:, :count]

    def row_bounds(self, b0: float, h: float, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Bounds (low, high) on `xi_grid(b0, h, count)`: low[d] <= its maximum for
        displacement d, and high[d, g] >= its every value on giant row g.

        Read off a pre-grid at fine index p*K, K = 10, with one point past the
        grid so every fine point lies between two.  As |w_m| = 1 in
        a_d = (1/N) sum_m w_m exp(i*beta*c_m), xi is L-Lipschitz, L = mean_m |c_m|,
        so a fine value is at most the larger pre value around it plus L*K*h/2.
        Both bounds carry a slack for the pre-grid's different rounding.
        """
        starts, stride = _giant_steps(b0, h, count)
        first = stride * np.arange(len(starts))
        last = np.minimum(first + stride - 1, count - 1)
        pre_count = (count - 1) // _PRE_STRIDE + 2
        pre = self.xi_grid(b0, _PRE_STRIDE * h, pre_count)
        slack = 1e-9 + 16.0 * np.finfo(float).eps * (b0 + (pre_count - 1) * _PRE_STRIDE * h)
        # pair[p] bounds the fine points between pre points p and p + 1
        pair = np.maximum(pre[:, :-1], pre[:, 1:])
        high = np.maximum(
            np.maximum.reduceat(pair, first // _PRE_STRIDE, axis=1), pair[:, last // _PRE_STRIDE]
        )
        reach = float(np.mean(np.abs(self._irates))) * _PRE_STRIDE * h / 2
        return pre[:, :-1].max(axis=1) - slack, high + (reach + slack)

    def xi_rows(
        self, b0: float, h: float, count: int, keep: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """`xi_grid(b0, h, count)` on the giant rows where keep[d, g] holds, bit for bit.

        `keep` has the shape of `row_bounds`' `high`.  Returns, per
        displacement, the grid indices k < count of its kept rows in order and
        the values there.
        """
        starts, stride = _giant_steps(b0, h, count)
        baby, out = self._baby(h, stride), []
        for column, rows in zip(self._columns, keep):
            rows = np.flatnonzero(rows)
            index = (rows[:, None] * stride + np.arange(stride)).ravel()
            index = index[: np.searchsorted(index, count)]  # the last row may run past the grid
            values = self._xi_giant(column[None], starts[rows], baby)[0, : len(index)]
            out.append((index, values))
        return out

    def _baby(self, h: float, stride: int) -> np.ndarray:
        """Baby-step phases exp(i*c_m*j*h), j < stride, shape (N, stride)."""
        require_grid_points(self.n * stride, "a block of mode phases")
        return np.exp(np.outer(self._irates, h * np.arange(stride)))

    def _xi_giant(self, columns: np.ndarray, starts: np.ndarray, baby: np.ndarray) -> np.ndarray:
        """|a| at starts[g] + j*h per weight row in `columns`; `baby` is `_baby(h, stride)`.

        Every grid and point set is evaluated here.  Each block of giant rows
        is one BLAS product of their weighted phases with the baby steps
        exp(i*c_m*j*h).  BLAS gives a row of a product the same bits whatever
        rows share it, except in a one-row product (gemv or a dot, which may
        round differently).  So a lone row is sent twice: a row's bits never
        depend on its batch, and `xi_rows` matches the full grid by construction.
        """
        stride = baby.shape[1]
        per = max(_CHUNK // stride, 1)
        phases = self.n * len(columns) * min(len(starts), per)
        require_grid_points(phases, "a block of mode phases")
        out = np.empty((len(columns), len(starts), stride))
        for lo in range(0, len(starts), per):
            giant = np.exp(np.outer(starts[lo : lo + per], self._irates))
            rows = (columns[:, None, :] * giant).reshape(-1, self.n)
            pair = np.repeat(rows, 2, axis=0) if len(rows) == 1 else rows
            block = (pair @ baby)[: len(rows)].reshape(len(columns), -1, stride)
            np.abs(block, out=out[:, lo : lo + per])
        out = out.reshape(len(columns), -1)
        out /= self.n
        _clip_xi(out.max(initial=0.0))  # the over-unity check of every other path
        return np.minimum(out, 1.0, out=out)


def xi_batch(kernels: list[SpectralKernel], betas) -> list[float]:
    """`kernels[i].xi(betas[i])[0]` for every i, bit for bit, batched.

    The kernels share a ring size and hold one displacement each.  One `exp`
    covers a block of points and one stacked `np.matmul` makes a 1 x N by
    N x 1 product per point, which rounds like the dot of `amplitudes`; a
    2-D product, `einsum` or a sum rounds differently, and so does `np.abs`
    in place of Python's `abs` on the complex sums.
    """
    betas = np.asarray(betas, dtype=float)
    if betas.shape != (len(kernels),):
        raise ValueError(f"need one beta per kernel, got {betas.shape} for {len(kernels)}")
    if not kernels:
        return []
    n = kernels[0].n
    if any(kernel.n != n or kernel._weights.shape[1] != 1 for kernel in kernels):
        raise ValueError("xi_batch needs single-displacement kernels of one ring size")
    per = max(_CHUNK // n, 1)
    out: list[float] = []
    for lo in range(0, len(kernels), per):
        block = kernels[lo : lo + per]
        irates = np.array([kernel._irates for kernel in block])
        weights = np.array([kernel._weights for kernel in block])
        phases = np.exp(betas[lo : lo + per, None] * irates)
        sums = np.matmul(phases[:, None, :], weights)[:, 0, 0] / n
        out += [_clip_xi(abs(a)) for a in sums.tolist()]
    return out


def amplitude_spectral(query: AmplitudeQuery) -> AmplitudeResult:
    """Mode-sum amplitude exp(-i*D*t) * a_d(beta) (see `SpectralKernel`).

    xi is read off a_d(beta) before the global phase is applied, so it is
    exactly field-independent.
    """
    cfg = query.config
    kernel = SpectralKernel(_mode_cosines(cfg.n, cfg.f), (query.d,))
    reduced = complex(kernel.amplitudes(query.beta)[0])
    t = query.beta / (4.0 * cfg.j)
    value = complex(np.exp(-1j * cfg.diagonal * t) * reduced)
    return AmplitudeResult(value=value, xi=_clip_xi(abs(reduced)), method="spectral")


def _ladder_orders(base: int, n: int, cutoff: float) -> np.ndarray:
    """Orders base, base+N, ... up to the cutoff plus a short verification tail."""
    k_last = max(int(math.floor((cutoff - base) / n)), 0)
    return base + n * np.arange(k_last + 1 + _TAIL_RUN)


def unit_phase(multiplier: float, k: np.ndarray) -> np.ndarray:
    """exp(2*pi*i*multiplier*k) with the turn count reduced mod 1 first.

    The reduction is an exact identity on the unit circle and keeps the
    phases accurate for large k; for half-integer multipliers (the blocked
    configurations) the result is exactly +-1.
    """
    return np.exp(2j * np.pi * np.mod(multiplier * np.asarray(k, dtype=float), 1.0))


def amplitude_bessel(query: AmplitudeQuery) -> AmplitudeResult:
    """Bessel-ladder amplitude; same complex value as amplitude_spectral.

    The two infinite k-sums are truncated once the order passes
    beta + 40*max(beta^(1/3), 2) and the last three computed terms of each
    ladder sit below 1e-18.  A beta outside [0, `BESSEL_BETA_MAX`] is rejected
    with a ValueError before any ladder is sized.
    """
    cfg = query.config
    n, d, beta = cfg.n, query.d, query.beta
    if not 0.0 <= beta <= BESSEL_BETA_MAX:
        raise ValueError(f"Bessel route needs 0 <= beta <= {BESSEL_BETA_MAX:g}, got {beta!r}")
    dprime = n - d if d else n
    cutoff = beta + _ORDER_MARGIN * max(beta ** (1.0 / 3.0), 2.0)

    orders_d = _ladder_orders(d, n, cutoff)
    orders_dp = _ladder_orders(dprime, n, cutoff)
    top = int(max(orders_d[-1], orders_dp[-1]))
    require_grid_points(top + 1, "a Bessel ladder")
    ladder = bessel_j_ladder(top, beta)

    def ladder_sum(orders: np.ndarray, twist_sign: float) -> complex:
        ks = np.arange(len(orders))
        coeff = unit_phase(n / 4.0 + twist_sign * cfg.f, ks)
        terms = coeff * ladder[orders]
        if np.any(np.abs(terms[-_TAIL_RUN:]) >= _TERM_FLOOR):
            raise BesselTruncationError(
                f"series tail above {_TERM_FLOOR} after order {orders[-1]} "
                f"(n={n}, d={d}, beta={beta})"
            )
        return complex(np.sum(terms))

    total = (1j) ** (d % 4) * ladder_sum(orders_d, -1.0)
    total += (1j) ** (dprime % 4) * np.exp(1j * 2.0 * np.pi * cfg.f) * ladder_sum(orders_dp, +1.0)
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


def xi_profile(config: RingConfig, d: int, betas: np.ndarray) -> np.ndarray:
    """Vectorized xi over many betas (spectral route, `SpectralKernel.xi_points`)."""
    return SpectralKernel(_mode_cosines(config.n, config.f), (d,)).xi_points(betas)[0]
