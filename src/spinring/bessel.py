"""First-kind Bessel functions J_n(x) of integer order by Miller's method.

The propagator series needs whole ladders J_d, J_{d+N}, J_{d+2N}, ... at a
single argument, with orders running well past the argument itself.  Forward
recurrence is violently unstable once n > x, so the ladder is generated by
the downward three-term recurrence

    J_{n-1}(x) = (2n/x) J_n(x) - J_{n+1}(x)

started from a tiny trial value far enough above max(n_max, x) that the
contaminating (growing) solution has decayed away, then normalized with

    J_0(x) + 2 * sum_k J_{2k}(x) = 1.

One sweep yields every order 0..n_max at once.  Intermediate trial values can
span hundreds of decades, so the running pair is rescaled whenever it grows
past 1e250; orders whose true magnitude underflows come out as 0, which is
well inside the absolute-accuracy contract (1e-12) for such entries.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["bessel_j_ladder"]

_RESCALE_LIMIT = 1e250
_RESCALE_FACTOR = 1e-250


def _start_order(n_max: int, x: float) -> int:
    # Starting the sweep ~11 Airy widths (x/2)^(1/3) above the turning point
    # suppresses the growing solution by ~1e-18 relative; the +30 floor
    # covers small arguments where the width estimate degenerates.
    margin = int(11.0 * (max(x, 1.0) / 2.0) ** (1.0 / 3.0)) + 30
    return max(n_max, int(math.ceil(x))) + margin


def bessel_j_ladder(n_max: int, x: float) -> np.ndarray:
    """All of J_0(x) .. J_{n_max}(x) from one downward sweep."""
    if n_max < 0:
        raise ValueError(f"highest order must be >= 0, got {n_max}")
    if not math.isfinite(x) or x < 0:
        raise ValueError(f"argument must be finite and >= 0, got {x!r}")
    out = np.zeros(n_max + 1)
    if x == 0.0:
        out[0] = 1.0
        return out
    if x < 1e-6:
        # the recurrence step ratio 2n/x becomes so steep that rescaling can't
        # keep up; three series terms are already accurate to ~1e-40 here
        half = 0.5 * x
        hh = half * half
        for n in range(n_max + 1):
            lead = half**n / math.factorial(n)
            if lead == 0.0:
                break
            out[n] = lead * (1.0 - hh / (n + 1) + hh * hh / (2.0 * (n + 1) * (n + 2)))
        return out

    start = _start_order(n_max, x)
    two_over_x = 2.0 / x
    jp = 0.0          # trial J_{nu+1}
    jc = 1e-30        # trial J_{nu}
    norm = 0.0        # accumulates trial J_0 + 2*sum J_{2k}, Kahan-compensated
    comp = 0.0
    for nu in range(start, 0, -1):
        jm = nu * two_over_x * jc - jp
        jp, jc = jc, jm
        order = nu - 1
        if order <= n_max:
            out[order] = jc
        if order % 2 == 0:
            term = jc if order == 0 else 2.0 * jc
            y = term - comp
            t = norm + y
            comp = (t - norm) - y
            norm = t
        if abs(jc) > _RESCALE_LIMIT:
            jc *= _RESCALE_FACTOR
            jp *= _RESCALE_FACTOR
            norm *= _RESCALE_FACTOR
            comp *= _RESCALE_FACTOR
            out *= _RESCALE_FACTOR
    out /= norm
    return out

