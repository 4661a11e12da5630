"""Deterministic JSON/CSV emission and run manifests.

Every float that leaves the package is rounded to 12 significant digits
before formatting, so identical invocations produce byte-identical files on
any platform and the outputs diff cleanly as golden files.

The CSV float cell is exactly the text of `"%.12g" % v`.  `csv_text` lays out
the cells of a finite value with 1e-4 <= |v| < 1e12, whose text is positional,
with numpy, a block of rows at a time.  Its decimal exponent e is
floor(log10|v|) and its 12 digits are m = rint(|v| * 10**(11 - e)).  Every
10**k with k <= 15 is an exact double, so the product carries one rounding, of
at most half an ulp.  rint of the product is then the correctly rounded
mantissa unless a tie n + 1/2 lies between the product and the exact value.
So a product within 2**-10 of a tie goes to Python; the product is below
2**40, so that is at least 8 of its ulps.  A mantissa that rounds up to 1e12
carries into a 13th digit: m becomes 1e11 and e moves up one.  Where log10
reads one high (just below a power of ten), the product lies just under 1e11
and still rounds to the right m = 1e11; where it reads one low, m exceeds 1e12
and the value goes to Python.  Python's own %.12g writes every other value into
the same cell layout: zeros, nan, inf, the exponent form, the guarded ties and
each block of floats too short to repay numpy's fixed cost.  The layout lives in
`spinring._cells`.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__

__all__ = [
    "ARTIFACT_VERSION",
    "RunManifest",
    "round_sig",
    "canonical",
    "dumps",
    "write_text",
    "csv_text",
    "manifest_path_for",
    "write_manifest",
    "read_json",
    "load_manifest",
]

ARTIFACT_VERSION = __version__
_FLOAT = "%.12g"  # the package-wide output precision: 12 significant digits


def round_sig(x: float) -> float:
    """Round to 12 significant digits (the package-wide output precision)."""
    return float(_FLOAT % float(x))


def canonical(value: Any) -> Any:
    """Recursively convert to JSON-ready types with rounded floats."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return round_sig(value)
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [canonical(v) for v in value]
    return value


def dumps(obj: Any) -> str:
    return json.dumps(canonical(obj), indent=2) + "\n"


_WRITE_CHARS = 1 << 20


def write_text(path: str | Path | None, text: str) -> None:
    """Write to the path, or stdout when no path is given.

    A file is written `_WRITE_CHARS` characters at a time, the bytes
    `Path.write_text` would write without its encoded copy of the whole text.
    """
    if path is None:
        print(text, end="")
        return
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(text), _WRITE_CHARS):
            fh.write(text[lo : lo + _WRITE_CHARS])


# Rows laid out at once.  Larger blocks leave a fragmented heap behind and
# raise the peak memory of a long CSV (see CHANGES.md).
_BLOCK_ROWS = 8192


def csv_text(header: Sequence[str], columns: Sequence[Any]) -> str:
    """Columns of one shape as CSV, one row per element in C order: floats as
    %.12g (the bytes of f"{v:.12g}"), bools as true/false, integers as %d and
    anything else as str(v).

    A column may be 1-D or an N-D grid; a broadcast view (`np.broadcast_to`)
    has the values along each of its zero-stride axes laid out once.  Each
    block of rows is laid out as NUL-padded cells (`_cells`: numpy for most
    floats, Python's text for the rest), the NULs are dropped with
    `bytes.translate` and the block is decoded once.
    """
    from . import _cells  # on first use, so that commands without a CSV skip it

    cols = [np.asarray(c) for c in columns]
    if not cols or len({c.shape for c in cols}) > 1 or cols[0].ndim == 0:
        raise ValueError("CSV columns must all have one shape of at least one axis")
    laid = [_cells.cells(c, _BLOCK_ROWS) for c in cols]
    parts = [",".join(header) + "\n"]
    for _ in range(0, cols[0].size, _BLOCK_ROWS):
        # one block's cells and bytes are freed before the next is laid out
        parts.append(_block_text([next(column) for column in laid]))
    return "".join(parts)


def _block_text(cells: list[np.ndarray]) -> str:
    """The CSV lines of a block of rows from its columns' NUL-padded cells."""
    comma = np.full((len(cells[0]), 1), ord(","), dtype=np.uint8)
    block = np.concatenate([x for c in cells for x in (c, comma)], axis=1)
    block[:, -1] = ord("\n")
    return block.tobytes().translate(None, b"\0").decode()


@dataclass(frozen=True)
class RunManifest:
    """Sidecar metadata that makes a CLI run reproducible.

    `argv` is the exact argument vector after the program name; replaying it
    regenerates `results_path` byte for byte (same package version).
    """

    command: str
    parameters: dict
    argv: list[str]
    artifact_version: str
    duration_seconds: float
    results_path: str


def manifest_path_for(results_path: str | Path) -> Path:
    return Path(str(results_path) + ".manifest.json")


def write_manifest(
    command: str,
    parameters: dict,
    argv: Sequence[str],
    results_path: str | Path,
    started: float,
) -> Path:
    manifest = RunManifest(
        command=command,
        parameters=parameters,
        argv=list(argv),
        artifact_version=ARTIFACT_VERSION,
        duration_seconds=time.perf_counter() - started,
        results_path=str(results_path),
    )
    path = manifest_path_for(results_path)
    path.write_text(dumps(asdict(manifest)), encoding="utf-8")
    return path


def read_json(path: str | Path) -> Any:
    """The JSON document of a file; one nested too deeply to decode is a ValueError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path} is JSON nested too deeply to read") from None


def load_manifest(path: str | Path) -> RunManifest:
    """Read a manifest for `replay`: a JSON object whose `argv` is a non-empty list
    of strings that does not start with `replay`, else ValueError.  Replay reads
    no other field but the version, so the others pass unchecked."""
    data = read_json(path)
    argv = data.get("argv") if isinstance(data, dict) else None
    if not (isinstance(argv, list) and argv and all(isinstance(a, str) for a in argv)):
        raise ValueError("a manifest is a JSON object whose argv is a non-empty list of strings")
    if argv[0] == "replay":
        raise ValueError("a manifest's argv must not replay another manifest")
    return RunManifest(**{field.name: data.get(field.name) for field in fields(RunManifest)})
