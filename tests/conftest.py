"""Shared independent oracles for the test suite.

Everything here is deliberately computed by a different route than the
package code: ascending power series for Bessel functions, the Miller
sweep the Bessel ladder must reproduce bit for bit, one order at a time,
and the former all-scalar sweep it must stay within rounding of,
hand-derived closed forms for the 4-site ring, plain binary entropy, the full 2^N spin
Hamiltonian, the flux-ring entanglement from dense propagators and a 2 x N
Schmidt decomposition, the sector Hamiltonian in the single-bond gauge, the
optimizer's coarse pass over the whole twist x time grid, unpruned, a
scalar golden-section search, one bracket and one point at a time, and its
lockstep form, the optimizer's and the entangling scan's former
golden-section refinements, which the Newton polish must never fall below,
the twist derivatives of the mode cosines, a one-point mode sum, one
`exp` and one `np.dot`, and the entropy of an overlap in one shot.  Also the
paired Bessel-ladder coefficients of the half-flux diametric amplitude, the
closed-form mode energies, the entangling scan's time grid, and a
`tracemalloc` reading of the peak memory of a call.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import tracemalloc

import numpy as np

from spinring.amplitude import SpectralKernel, bessel_ladders, local_maxima, unit_phase
from spinring.bessel import _LANE, _lane_split, _start_order
from spinring.entangle import (
    EntanglementReading,
    _entropy_from_overlap,
    _overlap_rates,
    _scan_count,
    entanglement_curve,
)
from spinring.optimize import _coarse_pass
from spinring.ring import RingConfig, _mode_cosines, build_hamiltonian, propagate_oracle

# Full-space validation is exponential in N; anything past this is a mistake.
FULL_SPACE_MAX_SITES = 10

# the golden-section searches shrink their bracket by this factor a step
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def bessel_series(n: int, x: float, terms: int = 30) -> float:
    """Ascending power series sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!).

    Converges fast for small x; independent of any recurrence.
    """
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * (x / 2.0) ** (n + 2 * k) / (
            math.factorial(k) * math.factorial(n + k)
        )
    return total


def bessel_ladder_reference(n_max: int, x: float) -> np.ndarray:
    """The sweep of `spinring.bessel.bessel_j_ladder`, one order at a time.

    For x >= 1e-6 (below, the ladder takes a series branch instead).  Above
    the split, every step stores its trial value and rescales the whole
    output in place when the value passes 1e250.  Below it, each lane of 16
    orders runs its fundamental solutions U (0 then 1) and W (1 then 0) one
    order at a time, fills its orders with a*u + p*w from the two values
    above it, and hands its lowest two on.  The norm is 2*fsum(even orders)
    - J_0 over every order of the sweep.  So it shows what the lane sweep
    must equal bit for bit.
    """
    start = _start_order(n_max, x)
    split = _lane_split(x)
    out = np.zeros(start)
    two_over_x = 2.0 / x
    jp = 0.0
    jc = 1e-30
    for nu in range(start, split, -1):
        jm = nu * two_over_x * jc - jp
        jp, jc = jc, jm
        out[nu - 1] = jc
        if abs(jc) > 1e250:
            jc *= 1e-250
            jp *= 1e-250
            out *= 1e-250
    a, p = jc, jp
    for top in range(split, 0, -_LANE):
        u_prev, u, w_prev, w = 0.0, 1.0, 1.0, 0.0
        us, ws = [], []
        for nu in range(top, top - _LANE, -1):
            c = nu * two_over_x
            u_prev, u = u, c * u - u_prev
            w_prev, w = w, c * w - w_prev
            us.append(u)
            ws.append(w)
        for order, u, w in zip(range(top - 1, top - _LANE - 1, -1), us, ws):
            out[order] = a * u + p * w
        a, p = a * us[-1] + p * ws[-1], a * us[-2] + p * ws[-2]
    norm = 2.0 * math.fsum(out[::2]) - out[0]
    return out[: n_max + 1] / norm


def bessel_ladder_reference_paired(n_max: int, x: float) -> np.ndarray:
    """The former scalar Miller sweep of the ladder, one order at a time.

    For x >= 1e-6.  Every step stores its trial value, adds it to the
    Kahan-compensated norm when the order is even and rescales the whole
    output in place when the value passes 1e250, all the way down to order
    0; the ladder's lanes and `fsum` norm must stay within rounding of it.
    """
    out = np.zeros(n_max + 1)
    start = _start_order(n_max, x)
    two_over_x = 2.0 / x
    jp = 0.0
    jc = 1e-30
    norm = 0.0
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
        if abs(jc) > 1e250:
            jc *= 1e-250
            jp *= 1e-250
            norm *= 1e-250
            comp *= 1e-250
            out *= 1e-250
    out /= norm
    return out


def binary_entropy(p: float) -> float:
    out = 0.0
    for v in (p, 1.0 - p):
        if v > 0.0:
            out -= v * math.log2(v)
    return out


def square_ring_overlap(beta: float) -> float:
    """|<psi_f0|psi_f1>| for the 4-site flux protocol, site-1 start, by hand.

    Uniform-gauge propagators worked out from the two spectra:
    zero flux has levels {0, +4, 0, -4} (site amplitudes (1+cos b)/2,
    i sin(b)/2, (cos b - 1)/2, i sin(b)/2), half flux has levels
    {+2r2, +2r2, -2r2, -2r2} (site amplitudes cos t, e^{-i pi/4} i sin(t)/r2,
    0, -e^{-3i pi/4} i sin(t)/r2 with t = b/r2, r2 = sqrt(2)).  The site-2/4
    cross terms add instead of cancel, giving

        ov(b) = (1 + cos b) cos(b/r2)/2 + sin(b) sin(b/r2)/2.
    """
    theta = beta / math.sqrt(2.0)
    return abs(
        (1.0 + math.cos(beta)) * math.cos(theta) / 2.0
        + math.sin(beta) * math.sin(theta) / 2.0
    )


def square_ring_entropy(beta: float) -> float:
    """Closed-form flux-ring entanglement (ebits) for the 4-site protocol."""
    return binary_entropy((1.0 + square_ring_overlap(beta)) / 2.0)


def single_bond_hamiltonian(config: RingConfig) -> np.ndarray:
    """Sector Hamiltonian in the single-bond gauge: the whole loop phase on the closing bond.

    It carries the same loop phase exp(-2*pi*i*f) as the package's uniform
    gauge and is related to it by a diagonal unitary.
    """
    n = config.n
    h = build_hamiltonian(dataclasses.replace(config, f=0.0))
    hop = -2.0 * config.j * np.exp(-2j * np.pi * config.f)  # from site N to site 1
    h[0, n - 1] = hop
    h[n - 1, 0] = hop.conjugate()
    return h


def full_space_oracle(config: RingConfig, psi0: np.ndarray, beta: float) -> np.ndarray:
    """Evolve under the full 2^N spin Hamiltonian and project back.

    The one-excitation state is embedded as a single flipped spin over the
    aligned background, evolved with the complete exchange + field matrix
    (twist carried as per-bond phases on the spin-exchange hopping), and the
    single-excitation amplitudes are read back out.  Magnetization
    conservation makes the projection lossless up to rounding.
    """
    n = config.n
    if n > FULL_SPACE_MAX_SITES:
        raise ValueError(
            f"full-space oracle is limited to n <= {FULL_SPACE_MAX_SITES} "
            f"(2^n state space), got n={n}"
        )
    h = _full_hamiltonian(config)
    full = np.zeros(1 << n, dtype=complex)
    for site in range(n):
        full[1 << site] = psi0[site]
    w, v = np.linalg.eigh(h)
    t = beta / (4.0 * config.j)
    evolved = v @ (np.exp(-1j * w * t) * (v.conj().T @ full))
    return np.array([evolved[1 << site] for site in range(n)])


def _full_hamiltonian(config: RingConfig) -> np.ndarray:
    """Full 2^N XXX Hamiltonian; bit k set = spin flipped at site k+1."""
    n = config.n
    j, b = config.j, config.b
    phase = -2.0 * np.pi * config.f / n  # uniform gauge, per bond
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for state in range(dim):
        z = 1 - 2 * ((state >> np.arange(n)) & 1)
        diag = -b * float(z.sum())
        for k in range(n):
            ka, kb = k, (k + 1) % n
            diag += -j * z[ka] * z[kb]
            if z[ka] != z[kb]:
                # exchange moves the flipped spin across the bond; the hop
                # from site ka+1 to kb+1 carries the phase, the reverse its
                # conjugate
                target = state ^ ((1 << ka) | (1 << kb))
                if (state >> ka) & 1:
                    h[target, state] += -2.0 * j * np.exp(1j * phase)
                else:
                    h[target, state] += -2.0 * j * np.exp(-1j * phase)
        h[state, state] = diag
    return h


@dataclasses.dataclass(frozen=True)
class JointFluxRingState:
    """Flux-conditioned ring branches of the reference path; weights carry the split."""

    branch_f0: np.ndarray
    branch_f1: np.ndarray
    branch_weights: tuple[complex, complex]
    beta: float

    def amplitude_matrix(self) -> np.ndarray:
        """2 x N joint amplitude matrix (flux index first)."""
        w0, w1 = self.branch_weights
        return np.vstack([w0 * self.branch_f0, w1 * self.branch_f1])


def evolve_joint(ring_initial: np.ndarray, beta: float) -> JointFluxRingState:
    """Evolve the balanced flux superposition for scaled time beta.

    The flux states are decoherence-free labels: weights stay (1, 1)/sqrt(2)
    while each branch evolves under its own twist (dense reference propagator).
    """
    psi0 = np.asarray(ring_initial, dtype=complex)
    n = len(psi0)
    b0 = propagate_oracle(RingConfig(n, f=0.0), psi0, beta)
    b1 = propagate_oracle(RingConfig(n, f=0.5), psi0, beta)
    w = 1.0 / math.sqrt(2.0)
    return JointFluxRingState(
        branch_f0=b0, branch_f1=b1, branch_weights=(w + 0j, w + 0j), beta=float(beta)
    )


def _entropy_from_schmidt(weights: np.ndarray) -> float:
    probs = weights[weights > 1e-300]
    return float(-np.sum(probs * np.log2(probs)))


def flux_ring_entanglement(state: JointFluxRingState) -> EntanglementReading:
    """Reference flux-ring entanglement in ebits via the 2 x N Schmidt decomposition."""
    matrix = state.amplitude_matrix()
    total = float(np.linalg.norm(matrix))
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"joint state must be normalized, got norm {total}")
    schmidt = np.linalg.svd(matrix, compute_uv=False) ** 2
    overlap = abs(np.vdot(state.branch_f0, state.branch_f1))
    return EntanglementReading(
        beta=state.beta,
        entropy_ebits=_entropy_from_schmidt(schmidt),
        branch_overlap=float(min(overlap, 1.0)),
    )


def coarse_pass_reference(n, ds, spec, window=1e-3, cap=64):
    """`optimize._coarse_pass` without pruning: every twist on the whole beta grid.

    Returns per-d lists of (f, beta, xi): the local maxima of each twist
    within `window` of its maximum, at most `cap` of them best-first, then
    those within `window` of the best over all twists.
    """
    best, ranked = _full_grid_maxima(n, tuple(ds), spec, window)
    return {d: [p for maxima in ranked[d] for p in maxima[:cap] if p[2] >= best[d] - window] for d in ds}


@functools.cache  # each full grid is evaluated once a session, whatever the cap
def _full_grid_maxima(n, ds, spec, window):
    """Per d, the best xi over every twist and time, and per twist the local maxima
    within `window` of the twist's maximum as (f, beta, xi), best first."""
    betas = spec.beta_grid()
    ranked = {d: [] for d in ds}
    best = {d: -1.0 for d in ds}
    for f in spec.f_candidates:
        kernel = SpectralKernel(_mode_cosines(n, f), ds)
        profiles = kernel.xi_grid(spec.beta_min, spec.beta_step, len(betas))
        for d, g in zip(ds, profiles):
            best[d] = max(best[d], float(g.max()))
            cand = local_maxima(g)
            cand = cand[g[cand] >= g.max() - window]
            order = np.lexsort((betas[cand], -g[cand]))
            ranked[d].append(tuple((f, float(betas[i]), float(g[i])) for i in cand[order]))
    return best, ranked


def coarse_pass(n, ds, spec):
    """`optimize._coarse_pass` on the kernel `optimize_transfers` builds, turned back
    from (kernel row, beta, xi) arrays into the per-d lists of `coarse_pass_reference`."""
    kernel = SpectralKernel([_mode_cosines(n, f) for f in spec.f_candidates], ds)
    kept = {d: [] for d in ds}
    for row, beta, value in zip(*(x.tolist() for x in _coarse_pass(kernel, spec))):
        twist, j = divmod(row, len(ds))
        kept[ds[j]].append((spec.f_candidates[twist], beta, value))
    return kept


def golden_max_reference(fn, lo, hi, tol):
    """Scalar golden-section maximization on [lo, hi]: one `fn(x)` call per point.

    Returns the best (x, fn(x)) seen.  It never stops if `tol` is below the
    float spacing at the bracket's ends, so callers keep `tol` well above it.
    """
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


def _golden_search(lo: float, hi: float, tol: float):
    """Golden-section maximization on [lo, hi], one bracket of `golden_max_lockstep`.

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


def golden_max_lockstep(fn, brackets, tol: float) -> list[tuple[float, float]]:
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


def golden_search_reference(n, ds, spec):
    """Best (f, beta, xi) per displacement by the optimizer's former golden searches.

    Every coarse candidate is refined by golden section in beta on its
    +-beta_step bracket, the window-start anchors join, and each winner at or
    above 1e-9 then gets a nested confirmation: an outer golden search over
    the twist in +-df, df = min(half the twist spacing, 1/800), whose every
    point runs an inner one over beta in +-max(1, 6*pi*beta*df/N).  The
    confirmed point replaces the winner only if its xi is higher by more
    than 1e-12.  Brackets step in lockstep (`golden_max_lockstep`).
    """
    rates = {f: _mode_cosines(n, f) for f in spec.f_candidates}

    def golden_xi(twists, displacements, brackets):
        # point i sums rate row i at displacements[i]: kernel row i*n + displacements[i]
        rows = [rates[f] if f in rates else _mode_cosines(n, f) for f in twists]
        kernel = SpectralKernel(np.reshape(rows, (-1, n)), range(n))

        def xi_at(points):
            at = [i * n + displacements[i] for i, _ in points]
            return kernel.xi(at, [beta for _, beta in points])

        return golden_max_lockstep(xi_at, brackets, spec.refine_tol)

    best = {}
    for d, points in coarse_pass(n, ds, spec).items():
        brackets = [
            (max(spec.beta_min, b - spec.beta_step), min(spec.beta_max, b + spec.beta_step))
            for _, b, _ in points
        ]
        moving = [i for i, (lo, hi) in enumerate(brackets) if hi > lo]
        found = golden_xi(
            [points[i][0] for i in moving], [d] * len(moving), [brackets[i] for i in moving]
        )
        for i, (beta, value) in zip(moving, found):
            points[i] = (points[i][0], beta, value)
        anchors = SpectralKernel([rates[f] for f in spec.f_candidates], (d,))
        starts = anchors.xi(range(len(rates)), [spec.beta_min] * len(rates))
        points += [(f, spec.beta_min, value) for f, value in zip(spec.f_candidates, starts)]
        top = max(p[2] for p in points)
        tied = [p for p in points if p[2] >= top - 1e-12]
        best[d] = min(tied, key=lambda p: (p[1], abs(p[0]), p[0]))
    gaps = np.diff(spec.f_candidates)
    df = min(float(gaps.min()) / 2.0, 1.0 / 800.0) if len(gaps) else 1.0 / 800.0
    confirm = [d for d in ds if best[d][2] >= 1e-9]
    windows = []
    for d in confirm:
        half = max(1.0, best[d][1] * (2.0 * np.pi / n) * df * 3.0)
        beta = best[d][1]
        windows.append((max(spec.beta_min, beta - half), min(spec.beta_max, beta + half)))
    seen = [[] for _ in confirm]

    def objective(points):
        found = golden_xi(
            [f for _, f in points], [confirm[j] for j, _ in points], [windows[j] for j, _ in points]
        )
        for (j, f), (beta, value) in zip(points, found):
            seen[j].append((f, beta, value))
        return [value for _, value in found]

    twists = [(best[d][0] - df, best[d][0] + df) for d in confirm]
    golden_max_lockstep(objective, twists, max(df * 1e-3, 1e-7))
    for d, tried in zip(confirm, seen):
        top = max(tried, key=lambda p: p[2])
        if top[2] > best[d][2] + 1e-12:
            best[d] = top
    return best


def bessel_pair_coefficients(quarter_rings: int, k_terms: int = 16) -> np.ndarray:
    """Paired ladder coefficients c1_k + c2_k of the half-flux diametric amplitude.

    Both Bessel sums run over the same orders d + k*N, so the amplitude is
    sum_k (c1_k + c2_k) * J_{d+kN}(beta); the theorem is that each bracket is
    zero regardless of beta.  The coefficients are the route's (`bessel_ladders`).
    """
    (_, pre, turns), (_, pre_p, turns_p) = bessel_ladders(4 * quarter_rings, 2 * quarter_rings, 0.5)
    ks = np.arange(k_terms)
    return pre * unit_phase(turns, ks) + pre_p * unit_phase(turns_p, ks)


def mode_energies(config: RingConfig) -> np.ndarray:
    """Closed-form sector energies E_m = -4*J*c_m + D, m = 1..N, from the mode cosines."""
    return -4.0 * config.j * _mode_cosines(config.n, config.f) + config.diagonal


def scan_times(beta_max: float, step: float) -> np.ndarray:
    """The entangling scan's grid 0, step, 2*step, ... up to beta_max, checked as
    `find_entangling_time` checks it."""
    return step * np.arange(_scan_count(beta_max, step))


def golden_entangling_scan_reference(beta_max, step, n, start_site):
    """Best (beta, entropy) of `find_entangling_time`'s former golden-section scan.

    Every grid local maximum of the entropy within 1e-3 of the grid's best is
    refined by golden section in its +-step bracket, clipped to [0, beta_max],
    down to 1e-7; the grid's first point joins, and ties within 1e-12 ebits
    go to the smallest beta.
    """
    betas = scan_times(beta_max, step)
    kernel = SpectralKernel(_overlap_rates(n, start_site), (0,))
    entropy, _ = entanglement_curve(step, len(betas), n=n, start_site=start_site)
    idx = local_maxima(entropy)
    survivors = idx[entropy[idx] >= float(entropy.max()) - 1e-3]

    def entropy_at(points):
        overlaps = kernel.xi([0] * len(points), [beta for _, beta in points])
        return _entropy_from_overlap(np.array(overlaps)).tolist()

    brackets = [(max(0.0, betas[i] - step), min(beta_max, betas[i] + step)) for i in survivors]
    found = [(0.0, float(entropy[0])), *golden_max_lockstep(entropy_at, brackets, 1e-7)]
    top = max(value for _, value in found)
    return min((beta, value) for beta, value in found if value >= top - 1e-12)


def ring_twist_derivatives(n, f):
    """d c_m/d f and d^2 c_m/d f^2 of c_m(f) = cos(2*pi*(m+f)/N), from the unfolded angle."""
    k = 2.0 * np.pi / n
    angle = k * (np.arange(1, n + 1) + f)
    return -k * np.sin(angle), -k * k * np.cos(angle)


def point_sum_reference(rates, d, beta) -> complex:
    """Mode sum a_d(beta) = (1/N) sum_m exp(2*pi*i*d*m/N) exp(i*beta*c_m), one point.

    The package's former scalar route: one `exp` and one `np.dot` of the
    phases with an N x 1 weight column.  `SpectralKernel.values` must round
    exactly like it, point by point.
    """
    n = len(rates)
    weights = np.exp(1j * np.outer(np.arange(1, n + 1), [2.0 * np.pi * (int(d) % n) / n]))
    phases = np.exp(beta * (1j * np.asarray(rates, dtype=float)))
    return complex((np.dot(phases, weights) / n)[0])


def entropy_from_overlap_reference(overlap) -> np.ndarray:
    """Binary entropy (ebits) of the Schmidt weights (1 +- overlap)/2 over the whole
    array at once: the formula `entangle._entropy_from_overlap` evaluates a block
    at a time, which must give the same bits, signed zeros and nan included."""
    overlap = np.asarray(overlap, dtype=float)
    weights = np.stack([1.0 + overlap, 1.0 - overlap]) / 2.0
    return -np.sum(weights * np.log2(np.where(weights > 0.0, weights, 1.0)), axis=0)


def peak_bytes(fn) -> int:
    """The peak of the memory `tracemalloc` traces while fn() runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
