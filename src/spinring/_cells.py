"""CSV cells as NUL-padded bytes: the numpy layout of `serialize`'s float cell.

The `serialize` module docstring states the cell contract and why the layout
below meets it.  `serialize._csv_blocks` imports this module when it first
lays out a CSV, so a command that writes none neither compiles it nor builds
its tables.  A column is laid out a block at a time and never copied whole; a
float block holds about a dozen arrays of its length in 8-byte values at once.
"""

from __future__ import annotations

import numpy as np

from .serialize import _FLOAT

# Below this many values numpy's fixed cost (~0.1 ms a block) exceeds that of
# Python's own %.12g, so a shorter block of floats is written by Python.
NUMPY_MIN = 128
_SCALE = np.array([float(10**k) for k in range(15, -1, -1)])  # 10**(11 - e) by row e + 4, exact


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
        "point": np.array(point, dtype=np.uint8),
        "dot_low": np.array([d & (2**64 - 1) for d in dot], dtype=np.uint64),
        "dot_high": np.array([d >> 64 for d in dot], dtype=np.uint64),
        "prefix": np.array([int.from_bytes(b, "little") for b in prefix], dtype=np.uint64),
        "prefix_len": np.array([len(b) for b in prefix], dtype=np.uint8),
    }
    tables["head_low"], tables["head_high"] = _masks(point)
    tables["keep_low"], tables["keep_high"] = _masks(range(14))
    return tables


_T = _tables()


def float_cells(values: np.ndarray) -> np.ndarray:
    """The %.12g text of each float64 value, NUL-padded at its end, shape (k, width);
    steps write into earlier steps' buffers, so about a dozen k-value arrays are live."""
    if len(values) < NUMPY_MIN:
        return text_cells([_FLOAT % v for v in values.tolist()])
    mag = np.abs(values)
    slow = (mag < 1e-4) | ~(mag < 1e12)  # nan too
    np.copyto(mag, 1.0, where=slow)
    scaled = np.log10(mag)
    np.minimum(np.maximum(np.floor(scaled, out=scaled), -4.0, out=scaled), 11.0, out=scaled)
    row = np.add(scaled, 4, out=np.empty(len(mag), dtype=np.intp), casting="unsafe")  # e + 4
    np.multiply(mag, _SCALE.take(row, mode="clip", out=scaled), out=scaled)
    m = np.rint(scaled, out=mag)
    slow |= (m > 1e12) | (np.abs(np.subtract(scaled, m, out=scaled), out=scaled) >= 0.5 - 2**-10)
    carry = m == 1e12  # 9.9999999999996 rounds to 10.0000000000
    np.add(row, 1, out=row, where=carry)
    slow |= row > 15
    np.copyto(m, 1e11, where=carry | slow)
    np.copyto(row, 4, where=slow)  # Python writes these cells
    np.add(row, 16, out=row, where=np.signbit(values))
    low = np.positive(m, out=scaled.view(np.int64), casting="unsafe")  # into a free buffer
    high = np.floor_divide(low, 10**8, out=mag.view(np.int64))  # three groups of 4 digits
    low -= high * 10**8
    mid = low // 10**4
    low -= mid * 10**4
    text, zeros = _T["text"], _T["zeros"]
    head = text.take(high) | text.take(mid) << 32
    tail = text.take(low)
    digits = 12 - (zeros.take(low) + (low == 0) * (zeros.take(mid) + (mid == 0) * zeros.take(high)))
    point = _T["point"].take(row)
    keep = np.maximum(digits + (digits > point), point).astype(np.intp)
    # insert the dot: the bytes after it move up one (the digit groups' buffers are free)
    mask, lower, moved = high.view(np.uint64), mid.view(np.uint64), low.view(np.uint64)
    np.bitwise_and(head, _T["head_low"].take(row, mode="clip", out=mask), out=lower)
    np.bitwise_xor(head, lower, out=moved)
    np.left_shift(moved, 8, out=head)
    head |= lower
    head |= _T["dot_low"].take(row, mode="clip", out=lower)
    head &= _T["keep_low"].take(keep, mode="clip", out=lower)
    tail ^= np.bitwise_and(tail, _T["head_high"].take(row, mode="clip", out=mask), out=lower)
    tail <<= 8
    tail |= lower
    tail |= np.right_shift(moved, 56, out=moved)
    tail |= _T["dot_high"].take(row, mode="clip", out=lower)
    tail &= _T["keep_high"].take(keep, mode="clip", out=lower)
    # put the prefix first: the digits move up by its length
    shift = _T["prefix_len"].take(row) << 3
    cells = np.empty((len(values), 3), dtype=np.uint64)
    cells[:, 0] = np.left_shift(head, shift, out=lower) | _T["prefix"].take(row)
    np.right_shift(head, np.subtract(64, shift, out=moved), out=head)
    cells[:, 1] = head | np.left_shift(tail, shift, out=lower)
    cells[:, 2] = np.right_shift(tail, moved, out=tail)
    width = int(((shift >> 3) + keep).max())
    if len(slow := np.flatnonzero(slow)):
        texts = np.array([(_FLOAT % v).encode() for v in values[slow].tolist()], dtype=bytes)
        cells[slow] = texts.astype("S24").view(np.uint64).reshape(-1, 3)
        width = max(width, texts.itemsize)
    return cells.astype("<u8", copy=False).view(np.uint8)[:, :width]


def text_cells(texts: list[str]) -> np.ndarray:
    """Texts, NUL-padded at their ends, shape (k, width); none may hold a NUL."""
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
        grid = col.reshape(-1, col.shape[-1]) if col.size else col  # xi_grid's rows are padded
        for lo in range(0, col.size, rows):
            yield _laid_out(_c_order(grid, lo, min(lo + rows, col.size)))
        return
    distinct = col[tuple(slice(0, 1) if a in repeated else slice(None) for a in range(col.ndim))]
    size, width, lo = distinct.size, 0, 0
    laid = np.zeros(0, dtype=np.uint8)  # the distinct cells so far, `width` bytes each
    for part in cells(distinct, rows):
        if part.shape[1] > width:
            # widen in place: `resize` reallocates (no view of `laid` is alive) and
            # zeroes the new bytes; the rows laid so far move to the wider stride,
            # the last block first, so none lands on a row still to move
            wide = part.shape[1]
            laid.resize(size * wide, refcheck=False)
            for hi in range(lo, 0, -rows):
                moved = laid[(hi - rows) * wide : hi * wide].reshape(rows, wide)
                moved[:, :width], moved[:, width:] = laid[(hi - rows) * width : hi * width].reshape(rows, width), 0
            width = wide
        laid.reshape(size, width)[lo : lo + len(part), : part.shape[1]] = part
        lo, part = lo + len(part), None  # freed before the next block is laid out
    laid = laid.reshape(size, width)
    for lo in range(0, col.size, rows):
        yield laid.take(_distinct_index(lo, min(lo + rows, col.size), col.shape, repeated), axis=0)


def _c_order(grid: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Values lo..hi-1 of a 2-D grid of any strides in C order, copying under three blocks."""
    (first, start), (last, end) = divmod(lo, grid.shape[1]), divmod(hi - 1, grid.shape[1])
    if last - first > 1:
        return grid[first : last + 1].reshape(-1)[start : start + hi - lo]
    if last == first:
        return grid[first, start : end + 1]
    return np.concatenate((grid[first, start:], grid[last, : end + 1]))


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
