"""Write tests/data/digests.json: the sha256 of every checked command's output.

Each case is a command line run in-process through `spinring.cli.main`.  Its
entry records the argv, the exit code, the sha256 of the results file (null
when the command writes none) and of stdout.  The token "{out}" in an argv
stands for the results file, which the test puts under a temporary directory.
`tests/test_digests.py` reruns every case through `run`, compares the digests
and replays each results file's manifest.

    python tools/digests.py            # rewrite tests/data/digests.json

Only the standard library is imported here; `spinring` itself needs numpy.
Rewrite the file only on a tree whose outputs are known good, and name the
moved cases in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "digests.json"
OUT = "{out}"

PROTOCOL = ["entangle", "--n", "4", "--beta-max", "500.0", "--step", "0.005"]

# name -> argv; "{out}" is the results file
CASES = {
    # the six README commands
    "readme-amplitude": ["amplitude", "--n", "5", "--d", "1", "--f=-0.25", "--beta", "1214.3",
                         "--method", "all"],
    "readme-table1": ["table1", "--twists=-0.25,0.25", "--out", OUT],
    "readme-blockage": ["blockage", "--nn", "1,2,3,4", "--samples", "200"],
    "readme-entangle": ["entangle", "--n", "4", "--beta-max", "50", "--out", OUT],
    "readme-multiparty": ["multiparty", "--n", "9", "--sites", "1,4,7", "--beta-max", "9000",
                          "--twists=-0.25,0.25"],
    "readme-sweep": ["sweep", "--n", "5", "--d", "2", "--f-step", "0.05", "--beta-max", "50",
                     "--beta-step", "0.05", "--out", OUT],
    # the default 1/400 twist grid
    "table1-full": ["table1", "--out", OUT],
    # the benchmark's `protocol` argv at every start site
    **{f"protocol-start-{s}": [*PROTOCOL, "--start-site", str(s), "--out", OUT]
       for s in range(1, 5)},
    # one twist x 1,000,001 times
    "sweep-long": ["sweep", "--n", "5", "--d", "1", "--f-min", "0", "--f-max", "0.125",
                   "--f-step", "0.125", "--beta-max", "10000", "--beta-step", "0.01", "--out", OUT],
    # a `landscape`-shaped grid: 26 twists x 9,901 times, sub-step offsets on both axes
    "landscape": ["sweep", "--n", "7", "--d", "3", "--f-min=-0.4963", "--f-max=0.5037",
                  "--f-step=0.04", "--beta-min=0.0061", "--beta-max=99.0061",
                  "--beta-step=0.01", "--out", OUT],
    # a blocked hexagon, where the optimizer's cap of 64 candidates a twist binds
    "multiparty-blocked": ["multiparty", "--n", "6", "--sites", "1,4", "--twists", "0.5",
                           "--beta-max", "500"],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], out: Path) -> dict:
    """One case through `cli.main`: its exit code and the digests of its results and stdout."""
    from spinring import cli

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main([str(out) if token == OUT else token for token in argv])
    return {
        "exit_code": code,
        "results_sha256": sha256(out.read_bytes()) if out.exists() else None,
        "stdout_sha256": sha256(printed.getvalue().encode()),
    }


def digests() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: {"argv": argv, **run(argv, Path(tmp) / name)} for name, argv in CASES.items()}


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    DIGESTS.write_text(json.dumps(digests(), indent=2) + "\n", encoding="utf-8")
