"""Write MUTANTS.json: which of a committed list of mutants the tests kill.

A mutant is one textual edit of the package: its file under `src/spinring/`,
the old text, the new text, why the edit should be caught and the test files
that should catch it.  For each mutant `src/`, `tests/`, `tools/`,
`pyproject.toml`, and the README and `benchmarks/` that tests read, are copied
to a temporary directory, the old text is checked to occur exactly once and is
replaced, and `python -m pytest -x -q` runs the listed test files there.  The
mutant is killed when a test fails, and its entry names the first failing
test; it survived when every test passes.  Both record the run's seconds.
Before any mutant, the listed test files must pass on an unmutated copy, so
that no kill is the work of a test that fails anyway.

    python tools/mutants.py     # run every mutant, rewrite MUTANTS.json whole

Only the standard library is imported here.  This is not part of tier-1: each
mutant runs its test files once, and the unmutated copy runs them all once.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "MUTANTS.json"
COPIED = ("src", "tests", "tools", "pyproject.toml", "README.md", "benchmarks")


class Mutant(NamedTuple):
    file: str  # under src/spinring/
    old: str
    new: str
    why: str
    tests: tuple[str, ...]  # under tests/


SLACK = "slack = 1e-9 + (16.0 * np.finfo(float).eps + np.where(paired, spread[t], 0.0)[laid]) * beta_end"
REPEATED = "repeated = [a for a in range(col.ndim) if col.shape[a] > 1 and not col.strides[a]]"
WIDEST = "width = max((part.shape[1] for part in cells(distinct, rows)), default=0)"
CUT = "fh.truncate()  # flushes, then cuts at the bytes written"
REGULAR = "if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):"
AGREED = "return EXIT_OK if value_deviation <= METHOD_AGREEMENT_TOL else "
TRUNCATED = "except BesselTruncationError as exc:\n        print(f\"error: {exc}\", file=sys.stderr)\n"
NEGATIVE_START = ('    if args.beta_min < 0.0:\n'
                  '        raise ValueError(f"--beta-min must be >= 0, got {args.beta_min!r}")\n')
GAUGE = "np.exp(1j * (-2.0 * np.pi * math.remainder(config.f, n) / n))"

MUTANTS = {
    "bound-curvature-reach": Mutant(
        "amplitude.py", "curvature * (step * step) / 8.0", "curvature * (step * step) / 32.0",
        "a quarter of the curvature's reach lets a row bound cut under the grid's maxima",
        ("test_amplitude.py",),
    ),
    "bound-zero-slack": Mutant(
        "amplitude.py", SLACK, f"{SLACK} * 0.0",
        "without slack a row bound is beaten by the rounding of the values it bounds",
        ("test_amplitude.py",),
    ),
    "bound-spread-times-0": Mutant(
        "amplitude.py", "np.where(paired, spread[t], 0.0)", "np.where(paired, 0.0 * spread[t], 0.0)",
        "a mirrored twist's rates differ from its leader's; the bound must widen by that spread",
        ("test_amplitude.py",),
    ),
    "bound-pairs-own-twist": Mutant(
        "amplitude.py", "paired = (partner[t] != t) & (there >= 0)", "paired = there >= 0",
        "an unpaired twist's kernel row stands for no mirror, so its slack needs no spread",
        ("test_optimize.py",),
    ),
    "near-best-groups-by-kernel-row": Mutant(
        "amplitude.py", "rows[lo : lo + _SCAN_ROWS] % len(self._ds))", "rows[lo : lo + _SCAN_ROWS])",
        "the scan's maxima are kept within 1e-3 of their displacement's best, not their row's",
        ("test_optimize.py",),
    ),
    "xi-rows-first-baby-steps": Mutant(
        "amplitude.py", "if k != made:", "if made < 0:",
        "each rate row's pairs need its own baby steps, not the first rate row's",
        ("test_optimize.py",),
    ),
    "maxima-no-carry": Mutant(
        "amplitude.py", "cut = len(ys) if breaks[-1] else len(ys) - 2", "cut = len(ys)",
        "a maximum on a block's last point is judged only with the next block's first",
        ("test_entangle.py",),
    ),
    "jet-without-phi-ff": Mutant(
        "amplitude.py", "a_ff = -s_cc, 1j * s_s - t * s_cs, 1j * t * s_b - t * t * s_ss",
        "a_ff = -s_cc, 1j * s_s - t * s_cs, - t * t * s_ss",
        "the twist Hessian needs beta*c_m'', the second twist derivative of the phases",
        ("test_amplitude.py",),
    ),
    "xi-rows-no-lone-row-rule": Mutant(
        "amplitude.py", "pair = np.repeat(phases, 2, axis=0) if hi - lo == 1 else phases",
        "pair = phases",
        "a one-row BLAS product may round differently from the row in a batch",
        ("test_optimize.py",),
    ),
    "tie-positive-twist-first": Mutant(
        "optimize.py", "(p.beta, abs(p.f), p.f)", "(p.beta, abs(p.f), -p.f)",
        "an exact tie in time and |f| goes to the negative twist",
        ("test_optimize.py",),
    ),
    "no-candidate-cap": Mutant(
        "optimize.py", "_MAX_CANDIDATES_PER_ROW = 64", "_MAX_CANDIDATES_PER_ROW = 1 << 62",
        "a blocked ring's rounding noise keeps every grid maximum without the cap",
        ("test_optimize.py",),
    ),
    "pair-congruence-mod-n": Mutant(
        "blockage.py", "% (2 * n) == n", "% n == 0",
        "a pair whose weights are equal adds up; only 2d(m' - m) = N mod 2N cancels",
        ("test_blockage.py",),
    ),
    "ring-no-fold": Mutant(
        "ring.py", "folded = np.minimum(x, n - x)", "folded = x",
        "without the fold a degenerate pair's rates may differ in their last bits",
        ("test_blockage.py",),
    ),
    "ring-gauge-phase-sign": Mutant(
        "ring.py", GAUGE, GAUGE.replace("-2.0", "2.0"),
        "the uniform-gauge bond phase exp(-2*pi*i*f/N) makes the DFT modes eigenvectors",
        ("test_ring.py",),
    ),
    "ring-negative-beta": Mutant(
        "ring.py", "if not math.isfinite(beta) or beta < 0:", "if not math.isfinite(beta):",
        "a negative scaled time is refused, not run backwards",
        ("test_ring.py",),
    ),
    "bessel-norm-counts-j0-twice": Mutant(
        "bessel.py", "norm = 2.0 * math.fsum(trial[::2]) - trial[0]",
        "norm = 2.0 * math.fsum(trial[::2])",
        "J_0 + 2 sum_k J_2k = 1 counts J_0 once",
        ("test_bessel.py",),
    ),
    "bessel-one-replay": Mutant(
        "bessel.py", "rescaled[-_REPLAYS:]", "rescaled[-1:]",
        "an order stored before the last rescale but one still feels it",
        ("test_bessel.py",),
    ),
    "bessel-lane-split-at-x": Mutant(
        "bessel.py", "max(int(x - 2.0 * x ** (1.0 / 3.0)), 0)", "max(int(x), 0)",
        "lanes up to the turning point grow too fast to fill from their solutions",
        ("test_bessel.py",),
    ),
    "entangle-tie-to-latest": Mutant(
        "entangle.py", "beta_best = min(", "beta_best = max(",
        "an entropy tie goes to the earliest time",
        ("test_entangle.py",),
    ),
    "entangle-run-never-ends": Mutant(
        "entangle.py", "block[0] == last", "block[0] > last",
        "the curve's last grid point ends its run, so it can be a maximum",
        ("test_entangle.py",),
    ),
    "entangle-entropy-in-nats": Mutant(
        "entangle.py", "np.log2(", "np.log(",
        "the entanglement is counted in ebits, a base-2 entropy",
        ("test_entangle.py",),
    ),
    "cli-disagreement-exits-4": Mutant(
        "cli.py", AGREED + "EXIT_METHOD_DISAGREEMENT", AGREED + "EXIT_PHYSICS",
        "routes that disagree exit 3, not the physics failure's 4",
        ("test_cli.py",),
    ),
    "cli-agreement-tol-1e-6": Mutant(
        "cli.py", "METHOD_AGREEMENT_TOL = 1e-8", "METHOD_AGREEMENT_TOL = 1e-6",
        "the routes must agree on the complex amplitude to 1e-8",
        ("test_cli.py",),
    ),
    "cli-truncation-exits-4": Mutant(
        "cli.py", TRUNCATED + "        return EXIT_METHOD_DISAGREEMENT",
        TRUNCATED + "        return EXIT_PHYSICS",
        "a Bessel series that does not converge is a method failure, exit 3",
        ("test_cli.py",),
    ),
    "cli-spread-skips-nan": Mutant(
        "cli.py", "float(np.max([abs(a - b)", "float(max([abs(a - b)",
        "Python's max skips a nan that is not first; a nan route is a nan deviation",
        ("test_cli.py",),
    ),
    "sweep-negative-start": Mutant(
        "cli.py", NEGATIVE_START, "",
        "a sweep that starts before time zero is refused, as every other beta is",
        ("test_cli.py",),
    ),
    "float-11-digits": Mutant(
        "serialize.py", '_FLOAT = "%.12g"', '_FLOAT = "%.11g"',
        "every output float cell is written to 12 significant digits",
        ("test_serialize.py",),
    ),
    "cells-no-broadcast-path": Mutant(
        "_cells.py", REPEATED, "repeated = []",
        "a broadcast column lays out its distinct values, not its every cell",
        ("test_serialize.py",),
    ),
    "cells-first-block-width": Mutant(
        "_cells.py", WIDEST, "width = next((part.shape[1] for part in cells(distinct, rows)), 0)",
        "a later block of distinct cells may be wider than the first",
        ("test_serialize.py",),
    ),
    "cells-no-empty-width": Mutant(
        "_cells.py", WIDEST, "width = max(part.shape[1] for part in cells(distinct, rows))",
        "an empty broadcast column has no block to take a width from",
        ("test_serialize.py",),
    ),
    "rewrite-no-cut": Mutant(
        "serialize.py", CUT, "fh.flush()",
        "a file written over a longer one keeps the old file's tail unless it is cut",
        ("test_serialize.py",),
    ),
    "rewrite-cut-on-success-only": Mutant(
        "serialize.py", "        finally:\n            " + REGULAR,
        "        except BaseException:\n            raise\n        else:\n            " + REGULAR,
        "a refused later chunk must still leave exactly the rows before it",
        ("test_serialize.py",),
    ),
    "rewrite-cut-any-file": Mutant(
        "serialize.py", REGULAR, "if True:",
        "a FIFO or a device cannot be cut to length",
        ("test_serialize.py",),
    ),
    "rewrite-keeps-manifest": Mutant(
        "serialize.py", "manifest_path_for(path).unlink(missing_ok=True)", "pass",
        "a results file being rewritten must not keep a manifest of the run before",
        ("test_cli.py",),
    ),
}


def run_tests(where: Path, tests) -> tuple[int, str, float]:
    """Exit code, output and seconds of `pytest -x -q` on test files under `where`."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    done = subprocess.run([*argv, *(f"tests/{t}" for t in tests)], cwd=where, env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr, time.perf_counter() - start


def first_failure(output: str) -> str:
    """The id of the first test a pytest summary names as FAILED or ERROR."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    raise RuntimeError(f"pytest failed without naming a test:\n{output[-2000:]}")


def run() -> dict:
    """Each mutant's entry: its why and either the test that killed it or that it
    survived, with the run's seconds."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in COPIED:
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / part, tree / part)
        tests = sorted({t for mutant in MUTANTS.values() for t in mutant.tests})
        code, output, _ = run_tests(tree, tests)
        if code:
            raise RuntimeError(f"the unmutated tree fails {first_failure(output)}")
        entries = {}
        for name, mutant in MUTANTS.items():
            path = tree / "src" / "spinring" / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                raise RuntimeError(f"{name}: the old text occurs {text.count(mutant.old)} times")
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                code, output, seconds = run_tests(tree, mutant.tests)
            finally:
                path.write_text(text, encoding="utf-8")
            entry = {"file": mutant.file, "why": mutant.why, "seconds": round(seconds, 1)}
            entry.update({"status": "killed", "by": first_failure(output)} if code else
                         {"status": "survived"})
            print(f"{name}: {entry['status']} {entry.get('by', '')}", file=sys.stderr)
            entries[name] = entry
    return entries


def main() -> int:
    record = run()
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if all(e["status"] == "killed" for e in record.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
