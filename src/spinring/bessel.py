"""First-kind Bessel functions J_n(x) of integer order by Miller's method.

The propagator series needs whole ladders J_d, J_{d+N}, J_{d+2N}, ... at a
single argument, with orders running well past the argument itself.  Forward
recurrence is violently unstable once n > x, so the ladder is generated by
the downward three-term recurrence

    J_{n-1}(x) = (2n/x) J_n(x) - J_{n+1}(x)

started from a tiny trial value far enough above max(n_max, x) that the
contaminating (growing) solution has decayed away, then normalized with

    J_0(x) + 2 * sum_k J_{2k}(x) = 1.

One sweep yields every order 0..n_max at once, in two regimes split near
the turning point n = x.

Above it the trial values grow by up to hundreds of decades, so one scalar
loop walks the orders in pairs, the two trial values taking turns in two
variables.  The coefficients 2n/x are made by numpy a short block of orders
at a time, and every trial value is written by position into a buffer of
all the sweep's orders, 8 bytes per order, which the returned ladder views.
The running pair is rescaled by 1e-250 whenever it grows past 1e250.  The
sweep only records where each rescale happened; afterwards the stored values
are scaled as if each rescale had been applied to them at once, by the same
repeated multiplication (one factor of 1e-500 would underflow), so the
buffer is bit for bit that of a sweep that rescales its whole output in the
loop.

Below it |2n/x| <= 2 and the recurrence is neutrally stable (Gautschi, SIAM
Rev. 9 (1967)), so the orders below the split (`_lane_split`, about two
cube-root widths under x) need not run one at a time.  They are cut into
lanes of `_LANE` orders.  Numpy advances two fundamental solutions of each
lane, U (1 at the lane's top T, 0 at T + 1) and W (0 and 1), for every lane
of a chunk together; one 2 x 2 step a lane then carries the two values above
a lane, a = J_T and p = J_{T+1}, down to the next, and a*U + p*W fills every
order of the lane.  Chunks of `_LANE_CHUNK` lanes keep the lane arrays
small next to the buffer.

The norm is one `math.fsum` over the finished buffer's even orders.  Orders
whose true magnitude underflows come out as 0, which is well inside the
absolute-accuracy contract (1e-12) for such entries.
"""

from __future__ import annotations

import math

import numpy as np

from .ring import require_grid_points

__all__ = ["bessel_j_ladder"]

_RESCALE_LIMIT = 1e250
_RESCALE_FACTOR = 1e-250
# Any finite double times _RESCALE_FACTOR three times rounds to a signed zero,
# which further factors leave as it is: replaying this many rescales is enough.
_REPLAYS = 3
# Orders whose recurrence coefficients numpy makes at once.  A block takes 16
# bytes an order while it is made, so a much longer one would outweigh the
# sweep's own buffer on the short ladders of a point query.
_BLOCK = 256
# Orders a lane below the turning point, and lanes numpy advances at once.
# A lane's fundamental solutions grow at most linearly there, so filling a
# lane of 16 orders from them costs a few units in the last place; a chunk's
# arrays take ~220 KiB at the most, ~2 bytes an order of a 10^5-order ladder.
_LANE = 16
_LANE_CHUNK = 256


def _start_order(n_max: int, x: float) -> int:
    # Starting the sweep ~11 Airy widths (x/2)^(1/3) above the turning point
    # suppresses the growing solution by ~1e-18 relative; the +30 floor
    # covers small arguments where the width estimate degenerates.
    margin = int(11.0 * (max(x, 1.0) / 2.0) ** (1.0 / 3.0)) + 30
    return max(n_max, int(math.ceil(x))) + margin


def _lane_split(x: float) -> int:
    """The lowest order of the scalar sweep: the last multiple of `_LANE` at or below
    x - 2*x^(1/3), or 0.  Closer to x the lanes' solutions grow nearly 16-fold, and
    a ladder moves by up to ~6e-15 from the scalar sweep's instead of ~1e-15."""
    return max(int(x - 2.0 * x ** (1.0 / 3.0)), 0) // _LANE * _LANE


def _sweep_lanes(buf: np.ndarray, split: int, two_over_x: float, a: float, p: float) -> None:
    """Fill buf[0:split] below the trial values a = J_split and p = J_{split+1},
    `_LANE_CHUNK` lanes at a time; a chunk's arrays are freed before the next's."""
    for top in range(split, 0, -_LANE * _LANE_CHUNK):
        lo = max(top - _LANE * _LANE_CHUNK, 0)
        a, p = _lane_chunk(buf[lo:top][::-1].reshape(-1, _LANE), top, two_over_x, a, p)


def _lane_chunk(lanes: np.ndarray, top: int, two_over_x: float, a: float, p: float):
    """Fill the lanes below order `top`, whose values are a = J_top and p = J_{top+1};
    returns the values at the last lane's lowest order and the one above it.

    With L = `_LANE`, row k of `lanes`, a view into the buffer, holds the
    orders T - 1 .. T - L of the lane of top T = top - k*L.
    """
    width = len(lanes)
    sol = _lane_solutions(top, width, two_over_x)
    # lane k's (a, p) carry to the next lane down as its rows L + 1 and L
    lane_a, lane_p = [], []
    lows, highs = sol[_LANE + 1].reshape(2, -1).tolist(), sol[_LANE].reshape(2, -1).tolist()
    for u_lo, w_lo, u_hi, w_hi in zip(*lows, *highs):
        lane_a.append(a)
        lane_p.append(p)
        a, p = a * u_lo + p * w_lo, a * u_hi + p * w_hi
    sol[2:] *= np.array(lane_a + lane_p)
    lanes[...] = np.add(sol[2:, :width], sol[2:, width:]).T
    return a, p


def _lane_solutions(top: int, width: int, two_over_x: float) -> np.ndarray:
    """The fundamental solutions of the `width` lanes below order `top`, shape
    (L + 2, 2*width): the U of every lane, top lane first, then their W.

    Row r holds order T + 1 - r of the lane of top T: rows 0 and 1 the
    starting values at T + 1 and T, rows 2 .. L + 1 the lane's orders.  The
    coefficients are freed on return, before the lanes are filled.
    """
    # row r is made with 2n/x, n = T + 2 - r: the lanes' n run down from top
    n = np.arange(float(top), float(top - width * _LANE), -1.0).reshape(width, _LANE).T
    coeffs = np.concatenate((n, n), axis=1)
    coeffs *= two_over_x
    sol = np.empty((_LANE + 2, 2 * width))
    sol[0, :width] = 0.0
    sol[0, width:] = 1.0
    sol[1, :width] = 1.0
    sol[1, width:] = 0.0
    prev2, prev = sol[0], sol[1]
    for c, cur in zip(coeffs, sol[2:]):
        np.multiply(c, prev, out=cur)
        np.subtract(cur, prev2, out=cur)
        prev2, prev = prev, cur
    return sol


def bessel_j_ladder(n_max: int, x: float) -> np.ndarray:
    """All of J_0(x) .. J_{n_max}(x) from one downward sweep.

    A sweep longer than `ring.MAX_GRID_POINTS` orders is refused with a
    ValueError before anything is allocated.
    """
    if not isinstance(n_max, (int, np.integer)) or isinstance(n_max, bool):
        raise ValueError(f"highest order must be an integer, got {n_max!r}")
    if n_max < 0:
        raise ValueError(f"highest order must be >= 0, got {n_max}")
    if not math.isfinite(x) or x < 0:
        raise ValueError(f"argument must be finite and >= 0, got {x!r}")
    n_max = int(n_max)
    start = _start_order(n_max, x)
    require_grid_points(start, "a Bessel ladder's sweep")
    if x < 1e-6:
        # the recurrence step ratio 2n/x becomes so steep that rescaling can't
        # keep up; three series terms are already accurate to ~1e-40 here
        out = np.zeros(n_max + 1)
        half = 0.5 * x
        hh = half * half
        for n in range(n_max + 1):
            lead = half**n / math.factorial(n)
            if lead == 0.0:
                break
            out[n] = lead * (1.0 - hh / (n + 1) + hh * hh / (2.0 * (n + 1) * (n + 2)))
        return out

    two_over_x = 2.0 / x
    limit, low, factor = _RESCALE_LIMIT, -_RESCALE_LIMIT, _RESCALE_FACTOR
    # trial[order], orders 0..start-1; a float64 view of a bytearray, which,
    # unlike the `array` module, loads no extension module into every process
    trial = memoryview(bytearray(8 * start)).cast("d")
    rescaled = []  # the order stored last before each rescale
    jp = 0.0       # trial J_{nu+1}
    jc = 1e-30     # trial J_{nu}
    split = _lane_split(x)
    top = start - 1
    if (top - split) % 2 == 0:
        jp, jc = jc, start * two_over_x * jc - jp
        trial[top] = jc
        if jc > limit or jc < low:
            jc, jp = jc * factor, jp * factor
            rescaled.append(top)
        top -= 1
    # the pairs (o, o - 1) from top down to split; the two trial values take
    # turns in jp and jc, so a step is one assignment
    for hi in range(top, split, -_BLOCK):
        lo = max(hi - _BLOCK + 2, split + 1)
        coeffs = iter(memoryview(np.arange(hi + 1, lo - 1, -1) * two_over_x))
        for o, c_first, c_second in zip(range(hi, lo - 1, -2), coeffs, coeffs):
            jp = c_first * jc - jp
            trial[o] = jp
            if jp > limit or jp < low:
                jp, jc = jp * factor, jc * factor
                rescaled.append(o)
            jc = c_second * jp - jc
            trial[o - 1] = jc
            if jc > limit or jc < low:
                jc, jp = jc * factor, jp * factor
                rescaled.append(o - 1)

    # a rescale after storing order o scales every stored order >= o; the
    # rescales come at falling orders, so the last _REPLAYS of them scale
    # every order as often as it can still feel
    buf = np.frombuffer(trial)
    for order in rescaled[-_REPLAYS:]:
        buf[order:] *= factor
    _sweep_lanes(buf, split, two_over_x, jc, jp)
    norm = 2.0 * math.fsum(trial[::2]) - trial[0]  # J_0 counts once
    out = buf[: n_max + 1]
    out /= norm
    return out
