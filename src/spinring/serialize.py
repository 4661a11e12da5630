"""Deterministic JSON/CSV emission and run manifests.

Every float that leaves the package is rounded to 12 significant digits
before formatting, so identical invocations produce byte-identical files on
any platform and the outputs diff cleanly as golden files.  JSON has no nan or
infinity, so `dumps` writes a non-finite float as the string %.12g gives it
("nan", "inf" or "-inf").

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

A CSV is made a block of 8,192 rows at a time, as bytes (`_csv_blocks`), from
chunks of columns whose rows follow one another: `write_csv` writes one table,
a single chunk, and `write_csv_chunks` a stream of them, as `entangle --out`
writes the curve it makes a block at a time.  Both stream the blocks to a file
or to stdout, so peak memory does not grow with the rows; `csv_text` joins them
into one string.  Each chunk's columns are checked before a row of it is laid
out: a refused table or first chunk leaves the file unopened and prints
nothing, and a refused later chunk, which did not exist when the file was
opened, stops the CSV after the rows before it.  Every block lays its cells out
in fresh arrays and no buffer is reused, so nothing a caller keeps, a chunk or
a block of cells, is overwritten by a later block; a block's lines are joined
in a `bytearray`, and dropping their NULs makes its one copy.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

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
    "write_csv",
    "write_csv_chunks",
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
        rounded = round_sig(value)
        # JSON has no nan or infinity: they go as the text %.12g gives them
        return rounded if math.isfinite(rounded) else _FLOAT % rounded
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [canonical(v) for v in value]
    return value


def dumps(obj: Any) -> str:
    return json.dumps(canonical(obj), indent=2, allow_nan=False) + "\n"


def write_text(path: str | Path | None, text: str) -> None:
    """Write to the path as UTF-8, or to stdout when no path is given."""
    if path is None:
        print(text, end="")
        return
    Path(path).write_text(text, encoding="utf-8")


# Rows laid out at once.  Larger blocks leave a fragmented heap behind and
# raise the peak memory of a long CSV (see CHANGES.md).
_BLOCK_ROWS = 8192


def csv_text(header: Sequence[str], columns: Sequence[Any]) -> str:
    """Columns of one shape as one CSV string, one row per element in C order:
    floats as %.12g (the bytes of f"{v:.12g}"), bools as true/false, integers as
    %d and anything else as str(v).  The package itself writes CSVs a block at a
    time with `write_csv`; this joins the same blocks whole.

    A column may be 1-D or an N-D grid; a broadcast view (`np.broadcast_to`)
    has the values along each of its zero-stride axes laid out once.
    """
    return "".join(block.decode() for block in _csv_blocks(header, [columns]))


def write_csv(path: str | Path | None, header: Sequence[str], columns: Sequence[Any]) -> None:
    """Write `csv_text(header, columns)` a block of rows at a time: to the path as
    UTF-8, or to stdout as text when no path is given.  Columns that `csv_text`
    refuses leave the path unopened and print nothing."""
    write_csv_chunks(path, header, [columns])


def write_csv_chunks(
    path: str | Path | None, header: Sequence[str], chunks: Iterable[Sequence[Any]]
) -> None:
    """Write a CSV whose rows come as chunks of columns, each chunk's rows after
    those of the chunk before, as `write_csv` writes one table: the text of the
    chunks' columns laid end to end.  A chunk is checked when it comes, so a
    refused first chunk leaves the path unopened and prints nothing, and a
    refused later one stops the CSV after the rows of the chunks before it."""
    blocks = _csv_blocks(header, chunks)
    lines = itertools.chain([next(blocks)], blocks)  # the first chunk is checked here
    if path is None:
        sys.stdout.writelines(block.decode() for block in lines)
        return
    with open(path, "wb") as fh:
        fh.writelines(lines)


def _csv_blocks(header: Sequence[str], chunks: Iterable[Sequence[Any]]) -> Iterator[bytes]:
    """The header line once the first chunk is checked, then the UTF-8 lines of
    each chunk, a block of `_BLOCK_ROWS` rows at a time.

    Each chunk's columns are checked before any of its blocks is laid out.  Each
    block is laid out as NUL-padded cells (`_cells`: numpy for most floats,
    Python's text for the rest) and the NULs are dropped with
    `bytearray.translate`, so no text cell may hold a NUL of its own.
    """
    from . import _cells  # on first use, so that commands without a CSV skip it

    head = (",".join(header) + "\n").encode()
    width = None
    for columns in chunks:
        cols = [np.asarray(c) for c in columns]
        if not cols or len({c.shape for c in cols}) > 1 or cols[0].ndim == 0:
            raise ValueError("CSV columns must all have one shape of at least one axis")
        if width is not None and len(cols) != width:
            raise ValueError(f"every chunk of a CSV must have {width} columns, got {len(cols)}")
        for c in cols:
            if c.dtype.kind not in "biuf" and any("\0" in str(v) for v in c.flat):
                raise ValueError("CSV text cells must not contain NUL")
        if width is None:
            width = len(cols)
            yield head
        laid = [_cells.cells(c, _BLOCK_ROWS) for c in cols]
        for _ in range(0, cols[0].size, _BLOCK_ROWS):
            yield _block_bytes([next(column) for column in laid])
    if width is None:
        raise ValueError("a CSV needs at least one chunk of columns")


def _block_bytes(cells: list[np.ndarray]) -> bytearray:
    """The CSV lines of a block from its columns' NUL-padded cells, each let go
    once copied, joined in a bytearray whose NULs are then dropped in one copy."""
    ends = np.cumsum([c.shape[1] + 1 for c in cells]).tolist()
    text = bytearray(len(cells[0]) * ends[-1])
    block = np.frombuffer(text, np.uint8).reshape(len(cells[0]), ends[-1])
    block[...] = ord(",")
    for i, end in enumerate(ends):
        w = cells[i].shape[1]  # a row's cell copies as one w-byte item, not w single bytes
        block[:, end - 1 - w : end - 1].view(f"V{w}")[...], cells[i] = cells[i].view(f"V{w}"), None
    block[:, -1] = ord("\n")
    return text.translate(None, b"\0")


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
