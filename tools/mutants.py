"""Write MUTANTS.json: which of a committed list of mutants the tests kill.

A mutant is one textual edit of the package: its file under `src/spinring/`,
the old text, the new text, why the edit should be caught and the test files
that should catch it.  For each mutant `src/`, `tests/`, `tools/` and
`pyproject.toml` are copied to a temporary directory, the old text is checked
to occur exactly once and is replaced, and `python -m pytest -x -q` runs the
listed test files there.  The mutant is killed when a test fails, and its
entry names the first failing test; it survived when every test passes.  Both
record the run's seconds.  Before any mutant, the listed test files must pass
on an unmutated copy, so that no kill is the work of a test that fails anyway.

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
COPIED = ("src", "tests", "tools", "pyproject.toml")


class Mutant(NamedTuple):
    file: str  # under src/spinring/
    old: str
    new: str
    why: str
    tests: tuple[str, ...]  # under tests/


SLACK = "slack = 1e-9 + (16.0 * np.finfo(float).eps + np.repeat(spread, len(union))) * beta_end"
REPEATED = "repeated = [a for a in range(col.ndim) if col.shape[a] > 1 and not col.strides[a]]"
WIDEST = "width = max((part.shape[1] for part in cells(distinct, rows)), default=0)"

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
        "amplitude.py", "np.repeat(spread, len(union))", "np.repeat(0.0 * spread, len(union))",
        "a mirrored twist's rates differ from its leader's; the bound must widen by that spread",
        ("test_amplitude.py",),
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
    "no-candidate-cap": Mutant(
        "optimize.py", "_MAX_CANDIDATES_PER_ROW = 64", "_MAX_CANDIDATES_PER_ROW = 1 << 62",
        "a blocked ring's rounding noise keeps every grid maximum without the cap",
        ("test_optimize.py",),
    ),
    "pair-cancel-tol-1": Mutant(
        "blockage.py", "_PAIR_CANCEL_TOL = 1e-14", "_PAIR_CANCEL_TOL = 1.0",
        "a tolerance of 1 passes a twist off half flux as blocked",
        ("test_blockage.py",),
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
