"""Deterministic JSON/CSV emission and run manifests.

Every float that leaves the package is rounded to 12 significant digits
before formatting, so identical invocations produce byte-identical files on
any platform and the outputs diff cleanly as golden files.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__

__all__ = [
    "ARTIFACT_VERSION",
    "RunManifest",
    "round_sig",
    "float_text",
    "canonical",
    "dumps",
    "write_text",
    "csv_text",
    "manifest_path_for",
    "write_manifest",
    "load_manifest",
]

ARTIFACT_VERSION = __version__
_FLOAT = "%.12g"  # the package-wide output precision: 12 significant digits


def round_sig(x: float) -> float:
    """Round to 12 significant digits (the package-wide output precision)."""
    return float(_FLOAT % float(x))


def float_text(values: Any) -> np.ndarray:
    """The %.12g text of each value as an object array, which `csv_text` writes
    as is: a column that repeats a few values formats each of them once."""
    return np.array([_FLOAT % v for v in np.asarray(values, dtype=float).tolist()], dtype=object)


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


def write_text(path: str | Path | None, text: str) -> None:
    """Write to the path, or stdout when no path is given."""
    if path is None:
        print(text, end="")
    else:
        Path(path).write_text(text, encoding="utf-8")


_BLOCK_ROWS = 65536  # rows per `%` call; bounds the tuple of cells held at once
_CONVERSIONS = {"f": _FLOAT, "i": "%d", "u": "%d"}  # `%` code by dtype kind, else %s


def csv_text(header: Sequence[str], columns: Sequence[Any]) -> str:
    """Equal-length columns as CSV, one `%` call per block of rows: floats as
    %.12g (the bytes of f"{v:.12g}"), bools as true/false, others as str(v)."""
    cols = [np.asarray(c) for c in columns]
    if len({c.shape for c in cols}) > 1 or any(c.ndim != 1 for c in cols):
        raise ValueError("CSV columns must be one-dimensional and of equal length")
    rowfmt = ",".join(_CONVERSIONS.get(c.dtype.kind, "%s") for c in cols) + "\n"
    cols = [np.where(c, "true", "false") if c.dtype.kind == "b" else c for c in cols]
    parts = [",".join(header) + "\n"]
    for lo in range(0, len(cols[0]), _BLOCK_ROWS):
        k = min(_BLOCK_ROWS, len(cols[0]) - lo)
        cells: list[Any] = [None] * (k * len(cols))
        for j, col in enumerate(cols):  # row-major interleave of the block's cells
            cells[j :: len(cols)] = col[lo : lo + k].tolist()
        parts.append((rowfmt * k) % tuple(cells))
    return "".join(parts)


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


def load_manifest(path: str | Path) -> RunManifest:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return RunManifest(
        command=data["command"],
        parameters=data["parameters"],
        argv=list(data["argv"]),
        artifact_version=data["artifact_version"],
        duration_seconds=float(data["duration_seconds"]),
        results_path=data["results_path"],
    )
