"""The four benchmark workloads: seeded inputs, one pass of program calls, checks.

A pass calls only spinring.  Checks run after the pass, outside the timed
region, and compare against `reference` (which does not import spinring) or
against a property the method must have.  scipy is loaded only when a check
first needs the reference propagator, so the memory a process has after its
first pass is spinring's own.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

import spinring.cli as cli
from spinring.amplitude import AmplitudeQuery, amplitude_bessel, amplitude_oracle, amplitude_spectral
from spinring.blockage import verify_blockage
from spinring.ring import RingConfig

# Agreement asked of every program value against the reference.
TOL = 1e-9
ROUTE_TOL = 1e-8
BLOCKED_XI = 1e-12


class CheckFailed(Exception):
    """A program output disagrees with the reference: the run is incorrect."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@dataclass
class Pass:
    """Outcome of one pass: its wall time, per-operation latencies and outputs."""

    seconds: float
    latencies: list[float]
    attempted: int
    outputs: Any


class CommandWorkload:
    """One spinring command per pass; the operation is the whole command.

    The first pass's results file, exit code and stdout are checked in full;
    every later pass must reproduce them byte for byte.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / f"{self.name}.csv"
        self.argv = self.make_argv(np.random.default_rng(seed))
        self.main = cli.main
        self._verified = None

    def make_argv(self, rng: np.random.Generator) -> list[str]:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        stdout = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = self.main(self.argv)
        seconds = time.perf_counter() - start
        return Pass(seconds, [seconds], 1, (code, stdout.getvalue()))

    def check(self, result: Pass) -> int:
        code, stdout = result.outputs
        digest = hashlib.sha256(self.out.read_bytes()).hexdigest()
        if self._verified is None:
            _require(code == 0, f"{self.name}: exit code {code}")
            self.verify(stdout)
            self._verified = (code, stdout, digest)
        else:
            _require((code, stdout, digest) == self._verified, f"{self.name}: output changed between passes")
        return 0

    def verify(self, stdout: str) -> None:
        raise NotImplementedError


class Table1(CommandWorkload):
    """`table1` on a 1/8 twist grid (spacing divides 1/4, so +-1/4 stay on it).

    The inputs are fixed by the published table; the seed does not change them.
    """

    name = "table1"
    TWIST_RESOLUTION = 8

    def make_argv(self, rng):
        res = self.TWIST_RESOLUTION
        twists = ",".join(repr(float(Fraction(k, res) - Fraction(1, 2))) for k in range(res))
        return ["table1", f"--twists={twists}", "--out", str(self.out)]

    def verify(self, stdout):
        import reference as ref

        with open(self.out, encoding="utf-8", newline="") as fh:
            table = list(csv.DictReader(fh))
        _require(len(table) == len(ref.PUBLISHED_WINDOWS), f"table1: {len(table)} rows")
        rows = {}
        for row, (n, d, f_pub, beta_pub, xi_pub) in zip(table, ref.PUBLISHED_WINDOWS):
            _require(row.pop("passed") == "true", f"table1: row {row} not passed")
            got = {name: float(value) for name, value in row.items()}
            _require(
                (got["n"], got["d"], got["f_published"], got["beta_published"], got["xi_published"])
                == (n, d, f_pub, beta_pub, xi_pub),
                f"table1: row {row} is not the published window {(n, d, f_pub, beta_pub, xi_pub)}",
            )
            xi_at_pub = abs(ref.amplitude(n, d, f_pub, beta_pub))
            _require(abs(got["xi_at_published"] - xi_at_pub) <= TOL, f"table1 ({n},{d}): xi at published point")
            _require(abs(xi_at_pub - xi_pub) <= ref.WINDOW_XI_TOL, f"table1 ({n},{d}): published xi not reproduced")
            for kind in ("best", "match"):
                f, beta, value = got[f"f_{kind}"], got[f"beta_{kind}"], got[f"xi_{kind}"]
                _require(
                    abs(value - abs(ref.amplitude(n, d, f, beta))) <= TOL,
                    f"table1 ({n},{d}): reported {kind} ({f}, {beta}, {value}) disagrees with the reference",
                )
            _require(
                abs(got["beta_match"] - beta_pub) <= ref.WINDOW_BETA_TOL
                and got["xi_match"] >= xi_pub - ref.WINDOW_XI_SLACK,
                f"table1 ({n},{d}): window not matched",
            )
            rows[(n, d)] = got
        # xi(d, f) = xi(N - d, -f): mirrored rows report the same optimum
        for (n, d), got in rows.items():
            twin = rows[(n, n - d)]
            _require(
                abs(got["xi_best"] - twin["xi_best"]) <= TOL
                and abs(got["beta_best"] - twin["beta_best"]) <= TOL * max(1.0, got["beta_best"])
                and abs((got["f_best"] + twin["f_best"] + 0.5) % 1.0 - 0.5) <= TOL,
                f"table1: rows ({n},{d}) and ({n},{n - d}) break mirror symmetry",
            )


class Protocol(CommandWorkload):
    """`entangle --out` on the 4-ring over beta in [0, 500] at step 0.005.

    The seed picks the start site; by the ring's translation symmetry every
    start site gives the same curve.
    """

    name = "protocol"
    BETA_MAX = 500.0
    STEP = 0.005

    def make_argv(self, rng):
        self.start_site = int(rng.integers(1, 5))
        return [
            "entangle", "--n", "4", "--beta-max", repr(self.BETA_MAX), "--step", repr(self.STEP),
            "--start-site", str(self.start_site), "--out", str(self.out),
        ]

    def verify(self, stdout):
        import reference as ref

        header, data = _read_csv(self.out)
        _require(header == ["beta", "entropy_ebits", "branch_overlap"], f"protocol: header {header}")
        points = int(round(self.BETA_MAX / self.STEP)) + 1
        _require(data.shape == (points, 3), f"protocol: curve shape {data.shape}")
        beta = data[:, 0]
        _require(np.max(np.abs(beta - self.STEP * np.arange(points))) <= TOL, "protocol: beta grid")
        overlap = np.abs(ref.square_ring_overlap(beta))
        _require(np.max(np.abs(data[:, 2] - overlap)) <= TOL, "protocol: overlap curve")
        _require(np.max(np.abs(data[:, 1] - ref.entropy_from_overlap(overlap))) <= TOL, "protocol: entropy curve")

        summary = json.loads(stdout)
        best, point = summary["best"], summary["reference_point"]
        # the golden refinement stops at a 1e-7 bracket; 1 ebit is reached exactly at pi
        _require(abs(best["beta"] - math.pi) <= 1e-6, f"protocol: best beta {best['beta']}")
        _require(abs(best["entropy_ebits"] - 1.0) <= TOL, f"protocol: best entropy {best['entropy_ebits']}")
        ov = float(ref.square_ring_overlap(np.array(8.5 * math.pi)))
        _require(
            abs(point["entropy_ebits"] - float(ref.entropy_from_overlap(np.array(ov)))) <= TOL
            and abs(point["branch_overlap"] - abs(ov)) <= TOL,
            "protocol: 8.5*pi reading",
        )


class Landscape(CommandWorkload):
    """`sweep --out` over 26 twists x 9,901 times = 257,426 rows.

    The seed picks the ring (6, 7 or 8 sites), the displacement and sub-step
    offsets of the grid origin, so every value is printed at full width.
    """

    name = "landscape"
    TWISTS = 26
    BETAS = 9901
    F_STEP = 0.04
    BETA_STEP = 0.01
    SAMPLES = 200

    def make_argv(self, rng):
        self.n = int(rng.integers(6, 9))
        self.d = int(rng.integers(1, self.n))
        self.f_min = -0.5 + 0.01 * float(rng.uniform(0.1, 0.9))
        self.beta_min = self.BETA_STEP * float(rng.uniform(0.1, 0.9))
        self.sample_seed = int(rng.integers(2**32))
        f_max = self.f_min + self.F_STEP * (self.TWISTS - 1)
        beta_max = self.beta_min + self.BETA_STEP * (self.BETAS - 1)
        return [
            "sweep", "--n", str(self.n), "--d", str(self.d),
            f"--f-min={self.f_min!r}", f"--f-max={f_max!r}", f"--f-step={self.F_STEP!r}",
            f"--beta-min={self.beta_min!r}", f"--beta-max={beta_max!r}", f"--beta-step={self.BETA_STEP!r}",
            "--out", str(self.out),
        ]

    def verify(self, stdout):
        import reference as ref

        header, data = _read_csv(self.out)
        _require(header == ["f", "beta", "xi"], f"landscape: header {header}")
        _require(data.shape == (self.TWISTS * self.BETAS, 3), f"landscape: {data.shape[0]} rows")
        f_grid = np.repeat(self.f_min + self.F_STEP * np.arange(self.TWISTS), self.BETAS)
        beta_grid = np.tile(self.beta_min + self.BETA_STEP * np.arange(self.BETAS), self.TWISTS)
        _require(np.max(np.abs(data[:, 0] - f_grid)) <= TOL, "landscape: twist grid")
        _require(np.max(np.abs(data[:, 1] - beta_grid)) <= TOL, "landscape: beta grid")
        _require(bool(np.all((data[:, 2] >= 0.0) & (data[:, 2] <= 1.0))), "landscape: xi outside [0, 1]")
        rows = np.random.default_rng(self.sample_seed).choice(data.shape[0], self.SAMPLES, replace=False)
        for f, beta, value in data[rows]:
            _require(
                abs(value - abs(ref.amplitude(self.n, self.d, f, beta))) <= TOL,
                f"landscape: row ({f}, {beta}, {value}) disagrees with the reference",
            )


class Crosscheck:
    """Point queries through all three amplitude routes, plus blockage checks.

    Each route evaluation is one operation.  On the seeded queries the
    magnitudes must agree with the reference to 1e-8 (else the run is
    incorrect) and the complex value may differ from it only by the two
    documented phase-convention factors.  The ten published windows are the
    seed-independent probes of that convention: there a route evaluation
    fails when its complex value is more than 1e-8 from the reference, so the
    failed share is the same in every run.
    """

    name = "crosscheck"
    ROUTES = (("spectral", amplitude_spectral), ("bessel", amplitude_bessel), ("oracle", amplitude_oracle))
    SIZES = range(3, 17)
    PER_SIZE = 10
    BETA_MAX = 5000.0
    QUARTER_RINGS = (1, 2, 3, 4)
    BLOCKAGE_SAMPLES = 25

    def __init__(self, seed: int, workdir: Path):
        import reference as ref

        rng = np.random.default_rng(seed)
        count = len(self.SIZES) * self.PER_SIZE
        # stratified times keep the ladder lengths, hence the cost, alike across seeds
        betas = self.BETA_MAX * (rng.permutation(count) + rng.uniform(0.0, 1.0, count)) / count
        queries = []
        for i, n in enumerate(np.repeat(np.array(self.SIZES), self.PER_SIZE)):
            n = int(n)
            queries.append((n, int(rng.integers(0, n)), float(rng.uniform(-0.5, 0.5)), float(betas[i])))
        self.probes = [(n, d, f, beta) for n, d, f, beta, _ in ref.PUBLISHED_WINDOWS]
        self.queries = self.probes + queries
        self.blockage_times = [
            rng.uniform(0.0, self.BETA_MAX, self.BLOCKAGE_SAMPLES).tolist() for _ in self.QUARTER_RINGS
        ]
        self.routes = dict(self.ROUTES)
        self.blockage = verify_blockage
        self.expected = None  # filled by the first check, after the first pass has been measured

    def reference_values(self) -> list:
        """Reference amplitudes and the allowed convention factors of each query."""
        import reference as ref

        expected = []
        for n, d, f, beta in self.queries:
            gauge = np.exp(2j * np.pi * d * f / n)
            prefactor = np.exp(-1j * n * beta / 4.0)  # exp(-i(4J + 2B - D)t) at J = 1, B = 0
            factors = {"spectral": (1, gauge), "bessel": (1, gauge, prefactor, gauge * prefactor), "oracle": (1,)}
            expected.append((ref.amplitude(n, d, f, beta), factors))
        return expected

    def run_pass(self) -> Pass:
        latencies, values = [], []
        start = time.perf_counter()
        for n, d, f, beta in self.queries:
            t0 = time.perf_counter()
            query = AmplitudeQuery(RingConfig(n, f=f), r=d + 1, s=1, beta=beta)
            values.append([fn(query).value for fn in self.routes.values()])
            latencies.append(time.perf_counter() - t0)
        reports = [self.blockage(c, times) for c, times in zip(self.QUARTER_RINGS, self.blockage_times)]
        seconds = time.perf_counter() - start
        attempted = len(self.routes) * len(self.queries) + len(reports)
        return Pass(seconds, latencies, attempted, (values, reports))

    def check(self, result: Pass) -> int:
        if self.expected is None:
            self.expected = self.reference_values()
        values, reports = result.outputs
        failed = 0
        for i, ((n, d, f, beta), row, (ref_value, factors)) in enumerate(zip(self.queries, values, self.expected)):
            for name, value in zip(self.routes, row):
                _require(
                    abs(abs(value) - abs(ref_value)) <= ROUTE_TOL,
                    f"crosscheck: {name} |amplitude| {abs(value)} != {abs(ref_value)} at n={n} d={d} f={f} beta={beta}",
                )
                if i < len(self.probes):
                    failed += abs(value - ref_value) > ROUTE_TOL
                else:
                    _require(
                        any(abs(value - ref_value * c) <= ROUTE_TOL for c in factors[name]),
                        f"crosscheck: {name} phase is off by more than the known conventions at n={n} d={d} f={f} beta={beta}",
                    )
        for c, times, rep in zip(self.QUARTER_RINGS, self.blockage_times, reports):
            _require(
                rep.n == 4 * c and rep.d == 2 * c and rep.samples == len(times) and rep.analytic_zero
                and rep.max_xi_over_samples <= BLOCKED_XI,
                f"crosscheck: blockage on the {4 * c}-ring: {rep}",
            )
        return failed


WORKLOADS = {w.name: w for w in (Table1, Crosscheck, Protocol, Landscape)}
