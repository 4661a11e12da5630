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
from .ring import RingConfig, _mode_cosines, propagate_oracle, site_state

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
# Largest sample grid any command lays down (betas, or rows of a sweep); a
# larger one is refused before anything is allocated.  The biggest documented
# run, a 1,010,001-row sweep, fits five times over.
MAX_GRID_POINTS = 5_000_000


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


def require_grid_points(points: float) -> None:
    """ValueError unless points <= MAX_GRID_POINTS (nan and inf refused)."""
    if not points <= MAX_GRID_POINTS:
        raise ValueError(f"a grid of {points:.4g} points exceeds the limit of {MAX_GRID_POINTS:,}")


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
        self.weights = np.exp(1j * np.outer(m, [2.0 * np.pi * (int(d) % n) / n for d in ds]))

    def amplitudes(self, beta: float) -> np.ndarray:
        """Complex a_d(beta), one per displacement: one exp and one dot."""
        return np.dot(np.exp(beta * self._irates), self.weights) / self.n

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
        return self._xi_blocks(betas, 0.0, 1, count)

    def xi_grid(self, b0: float, h: float, count: int) -> np.ndarray:
        """|a_d| at b0 + k*h for k < count, shape (displacements, count).

        With k = g*S + j and S = ceil(sqrt(count)), each mode phase is a giant
        step exp(i*c_m*(b0 + g*S*h)) times a baby step exp(i*c_m*j*h): about
        2*sqrt(count)*N exponentials and one matrix product per chunk.
        """
        starts, stride = _giant_steps(b0, h, count)
        return self._xi_blocks(starts, h, stride, count)

    def _xi_blocks(self, starts: np.ndarray, h: float, stride: int, count: int) -> np.ndarray:
        """|a_d| at starts[g] + j*h, j < stride; arbitrary points are stride 1, h = 0."""
        return self._xi_giant(self.weights, starts, self._baby(h, stride), count)

    def _baby(self, h: float, stride: int) -> np.ndarray:
        """Baby-step phases exp(i*c_m*j*h), shape (N, stride)."""
        return np.exp(np.outer(self._irates, h * np.arange(stride)))

    def _xi_giant(
        self, weights: np.ndarray, starts: np.ndarray, baby: np.ndarray, count: int
    ) -> np.ndarray:
        """|a| at starts[g] + j*h for the displacement columns `weights`.

        `baby` holds exp(i*c_m*j*h); one BLAS product per chunk of giant rows.
        """
        nd, stride = weights.shape[1], baby.shape[1]
        per = max(_CHUNK // stride, 1)
        out = np.empty((nd, starts.shape[0], stride))
        for lo in range(0, starts.shape[0], per):
            giant = np.exp(np.outer(starts[lo : lo + per], self._irates))
            rows = (weights.T[:, None, :] * giant).reshape(-1, self.n)
            np.abs((rows @ baby).reshape(nd, -1, stride), out=out[:, lo : lo + per])
        out = out.reshape(nd, starts.shape[0] * stride)[:, :count]
        out /= self.n
        _clip_xi(out.max(initial=0.0))  # the over-unity check of every other path
        return np.minimum(out, 1.0, out=out)


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
    ladder = bessel_j_ladder(int(max(orders_d[-1], orders_dp[-1])), beta)

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
