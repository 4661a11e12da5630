"""CSV cells as NUL-padded bytes: the numpy layout of `serialize`'s float cell.

The `serialize` module docstring states the cell contract and why the layout
below meets it.  `serialize.csv_text` imports this module when it first writes
a CSV, so a command that writes none neither compiles it nor builds its tables.
"""

from __future__ import annotations

import numpy as np

from .serialize import _FLOAT

# Below this many values numpy's fixed cost (~0.1 ms a block) exceeds that of
# Python's own %.12g, so a shorter block of floats is written by Python.
NUMPY_MIN = 128
_POW10 = np.array([float(10**k) for k in range(16)])  # every 10**k, k <= 15, is an exact double


def _masks(counts) -> tuple[np.ndarray, np.ndarray]:
    """Per count c, the uint64 pair that keeps bytes 0..c-1 of a 16-byte string."""
    low = [(1 << 8 * min(c, 8)) - 1 for c in counts]
    high = [(1 << 8 * max(c - 8, 0)) - 1 for c in counts]
    return np.array(low, dtype=np.uint64), np.array(high, dtype=np.uint64)


def _tables() -> dict[str, np.ndarray]:
    """Lookup tables of `float_cells`.

    By 4-digit group 0000..9999: `text`, its ASCII as a little-endian uint64
    with the first digit in the low byte, and `zeros`, its trailing zeros
    (4 for 0000).  By layout row e + 4 + 16*negative for an exponent
    e = -4..11: `point`, the count of digits before the dot (0 for e < 0),
    the masks of the bytes before it (`head_*`), the dot in place (`dot_*`)
    and the sign, with the rest of `0.000` for e < 0, as `prefix` and its
    length.  By count of bytes kept of the 13 of digits and dot: `keep_*`,
    the masks that keep them.
    """
    group = np.arange(10_000, dtype=np.uint64)
    text = np.zeros(10_000, dtype=np.uint64)
    zeros = np.zeros(10_000, dtype=np.uint8)
    for place in range(4):  # place 0 is the last digit
        text |= (group // 10**place % 10 + 48) << 8 * (3 - place)
        zeros += group % 10 ** (place + 1) == 0
    layouts = [(e, sign) for sign in ("", "-") for e in range(-4, 12)]
    point = [max(e + 1, 0) for e, _ in layouts]
    # for e < 0 the text starts `0.000`; its last byte takes the dot's place
    lead = [(sign + ("0." + "0" * (-e - 1) if e < 0 else ".")).encode() for e, sign in layouts]
    dot = [b[-1] << 8 * p for b, p in zip(lead, point)]
    prefix = [b[:-1] for b in lead]
    tables = {
        "text": text,
        "zeros": zeros,
        "point": np.array(point),
        "dot_low": np.array([d & (2**64 - 1) for d in dot], dtype=np.uint64),
        "dot_high": np.array([d >> 64 for d in dot], dtype=np.uint64),
        "prefix": np.array([int.from_bytes(b, "little") for b in prefix], dtype=np.uint64),
        "prefix_len": np.array([len(b) for b in prefix]),
    }
    tables["head_low"], tables["head_high"] = _masks(point)
    tables["keep_low"], tables["keep_high"] = _masks(range(14))
    return tables


_T = _tables()


def float_cells(values: np.ndarray) -> np.ndarray:
    """The %.12g text of each float64 value, NUL-padded at its end, shape (k, width)."""
    if len(values) < NUMPY_MIN:
        return text_cells([_FLOAT % v for v in values.tolist()])
    mag = np.abs(values)
    slow = ~((mag >= 1e-4) & (mag < 1e12))
    mag[slow] = 1.0
    e = np.floor(np.log10(mag)).clip(-4, 11).astype(np.intp)
    scaled = mag * _POW10.take(11 - e)
    m = np.rint(scaled)
    slow |= (m > 1e12) | (np.abs(scaled - m) >= 0.5 - 2**-10)
    carry = m == 1e12  # 9.9999999999996 rounds to 10.0000000000
    m[carry], e = 1e11, e + carry
    slow |= e > 11
    m[slow], e[slow] = 1e11, 0  # Python writes these cells
    row = e + 4 + 16 * np.signbit(values)

    m = m.astype(np.int64)
    high = m // 10**8
    m -= high * 10**8
    mid = m // 10**4
    low = m - mid * 10**4
    head = _T["text"].take(high) | _T["text"].take(mid) << 32
    tail = _T["text"].take(low)
    zeros = _T["zeros"]
    digits = 12 - (zeros.take(low) + (low == 0) * (zeros.take(mid) + (mid == 0) * zeros.take(high)))
    point = _T["point"].take(row)
    keep = np.where(digits > point, digits + 1, point)
    # insert the dot: the bytes after it move up one
    before = _T["head_low"].take(row)
    moved = head & ~before
    head = (head & before | moved << 8 | _T["dot_low"].take(row)) & _T["keep_low"].take(keep)
    before = _T["head_high"].take(row)
    tail = (tail & before | (tail & ~before) << 8 | moved >> 56 | _T["dot_high"].take(row))
    tail &= _T["keep_high"].take(keep)
    # put the prefix first: the digits move up by its length
    shift = 8 * _T["prefix_len"].take(row).astype(np.uint64)
    cells = np.empty((len(values), 3), dtype=np.uint64)
    cells[:, 0] = _T["prefix"].take(row) | head << shift
    cells[:, 1] = head >> 64 - shift | tail << shift
    cells[:, 2] = tail >> 64 - shift
    width = int((_T["prefix_len"].take(row) + keep).max())
    if slow.any():
        texts = np.array([(_FLOAT % v).encode() for v in values[slow].tolist()], dtype=bytes)
        cells[slow] = texts.astype("S24").view(np.uint64).reshape(-1, 3)
        width = max(width, texts.itemsize)
    return cells.astype("<u8", copy=False).view(np.uint8)[:, :width]


def text_cells(texts: list[str]) -> np.ndarray:
    """Texts, NUL-padded at their ends, shape (k, width)."""
    if any("\0" in t for t in texts):
        raise ValueError("CSV text cells must not contain NUL")
    return _bytes_cells(np.array([t.encode() for t in texts], dtype=bytes))


def _bytes_cells(col: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(col).view(np.uint8).reshape(len(col), col.itemsize)


def cells(col: np.ndarray, rows: int):
    """The text of a column's values, C order, as NUL-padded bytes: one (k, width)
    array for each block of `rows` values, the last one shorter.

    Along an axis of zero stride (a broadcast view) the values repeat, so a column
    with such axes has its distinct values laid out once and each block gathers
    its cells from them by index.
    """
    repeated = [a for a in range(col.ndim) if col.shape[a] > 1 and not col.strides[a]]
    if not repeated:
        flat = col.reshape(-1)
        for lo in range(0, len(flat), rows):
            yield _laid_out(flat[lo : lo + rows])
        return
    distinct = col[tuple(slice(0, 1) if a in repeated else slice(None) for a in range(col.ndim))]
    parts = list(cells(distinct, rows))
    laid = np.zeros((distinct.size, max((p.shape[1] for p in parts), default=0)), dtype=np.uint8)
    for lo, part in zip(range(0, distinct.size, rows), parts):
        laid[lo : lo + len(part), : part.shape[1]] = part
    for lo in range(0, col.size, rows):
        yield laid.take(_distinct_index(lo, min(lo + rows, col.size), col.shape, repeated), axis=0)


def _distinct_index(lo: int, hi: int, shape: tuple[int, ...], repeated: list[int]) -> np.ndarray:
    """For C-order rows lo..hi-1 of a grid, the C-order index of each among the
    distinct values: the grid's index with every repeated axis left out."""
    at = np.arange(lo, hi)
    index, outer, inner = np.zeros_like(at), 1, 1
    for axis in reversed(range(len(shape))):
        if axis not in repeated:
            index += at // outer % shape[axis] * inner
            inner *= shape[axis]
        outer *= shape[axis]
    return index


def _laid_out(col: np.ndarray) -> np.ndarray:
    """The text of each value of a 1-D column as NUL-padded bytes, shape (k, width)."""
    if col.dtype.kind == "f":
        return float_cells(col.astype(float, copy=False))
    if col.dtype.kind == "b":
        return _bytes_cells(np.where(col, b"true", b"false"))
    return text_cells([str(v) for v in col.tolist()])  # str(v) is %d for an integer
