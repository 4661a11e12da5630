"""First-kind Bessel functions J_n(x) of integer order by Miller's method.

The propagator series needs whole ladders J_d, J_{d+N}, J_{d+2N}, ... at a
single argument, with orders running well past the argument itself.  Forward
recurrence is violently unstable once n > x, so the ladder is generated by
the downward three-term recurrence

    J_{n-1}(x) = (2n/x) J_n(x) - J_{n+1}(x)

started from a tiny trial value far enough above max(n_max, x) that the
contaminating (growing) solution has decayed away, then normalized with

    J_0(x) + 2 * sum_k J_{2k}(x) = 1.

One sweep yields every order 0..n_max at once.  It walks the orders in
(odd, even) pairs, so the norm's parity test leaves the loop: a first even
order is peeled off, and the closing order-1/order-0 pair is written out
because J_0 counts once in the norm.  The coefficients 2n/x are made by numpy
a short block of orders at a time, and every trial value is written by
position into a buffer of all the sweep's orders, 8 bytes per order, which
the returned ladder views.

Intermediate trial values can span hundreds of decades, so the running pair
is rescaled by 1e-250 whenever it grows past 1e250.  The sweep only records
where each rescale happened; afterwards the stored values are scaled as if
each rescale had been applied to them at once, by the same repeated
multiplication (one factor of 1e-500 would underflow), so the ladder is bit
for bit that of a sweep that rescales its whole output in the loop.  Orders
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


def _start_order(n_max: int, x: float) -> int:
    # Starting the sweep ~11 Airy widths (x/2)^(1/3) above the turning point
    # suppresses the growing solution by ~1e-18 relative; the +30 floor
    # covers small arguments where the width estimate degenerates.
    margin = int(11.0 * (max(x, 1.0) / 2.0) ** (1.0 / 3.0)) + 30
    return max(n_max, int(math.ceil(x))) + margin


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
    if x == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
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
    norm = 0.0     # accumulates trial J_0 + 2*sum J_{2k}, Kahan-compensated
    comp = 0.0
    top = start - 1
    if top % 2 == 0:
        jp, jc = jc, start * two_over_x * jc - jp
        trial[top] = jc
        y = 2.0 * jc - comp
        t = norm + y
        comp = (t - norm) - y
        norm = t
        if jc > limit or jc < low:
            jc, jp, norm, comp = jc * factor, jp * factor, norm * factor, comp * factor
            rescaled.append(top)
        top -= 1
    # the pairs (o, o - 1) for odd o from top down to 3; the two trial
    # values take turns in jp and jc, so a step is one assignment
    for hi in range(top, 2, -_BLOCK):
        lo = max(hi - _BLOCK + 2, 3)
        coeffs = iter(memoryview(np.arange(hi + 1, lo - 1, -1) * two_over_x))
        for o, c_odd, c_even in zip(range(hi, lo - 1, -2), coeffs, coeffs):
            jp = c_odd * jc - jp
            trial[o] = jp
            if jp > limit or jp < low:
                jp, jc, norm, comp = jp * factor, jc * factor, norm * factor, comp * factor
                rescaled.append(o)
            jc = c_even * jp - jc
            trial[o - 1] = jc
            y = 2.0 * jc - comp
            t = norm + y
            comp = (t - norm) - y
            norm = t
            if jc > limit or jc < low:
                jc, jp, norm, comp = jc * factor, jp * factor, norm * factor, comp * factor
                rescaled.append(o - 1)
    jp = 2 * two_over_x * jc - jp
    trial[1] = jp
    if jp > limit or jp < low:
        jp, jc, norm, comp = jp * factor, jc * factor, norm * factor, comp * factor
        rescaled.append(1)
    jc = 1 * two_over_x * jp - jc
    trial[0] = jc
    norm += jc - comp  # J_0 counts once
    if jc > limit or jc < low:
        norm *= factor
        rescaled.append(0)

    # a rescale after storing order o scales every stored order >= o; the
    # rescales come at falling orders, so the last _REPLAYS of them scale
    # every order as often as it can still feel
    out = np.frombuffer(trial, count=n_max + 1)
    for order in rescaled[-_REPLAYS:]:
        out[order:] *= factor
    out /= norm
    return out
