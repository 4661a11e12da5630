"""Column-wise CSV formatting against the per-cell reference."""

import dataclasses
import itertools
import json
import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import peak_bytes
from spinring import _cells, serialize
from spinring.serialize import csv_text


def reference_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def reference_csv(header, columns):
    texts = [reference_texts(col) for col in columns]
    return "".join([",".join(header) + "\n"] + [",".join(row) + "\n" for row in zip(*texts)])


def reference_texts(col):
    """`reference_cell` of each value of a column.  A column of floats has each distinct
    value formatted once, keyed by its bits, so 0.0 and -0.0 differ and so do nans of
    different bits; any other column is formatted value by value."""
    if set(map(type, col)) != {float}:
        return list(map(reference_cell, col))
    bits, index = np.unique(np.array(col).view(np.uint64), return_inverse=True)
    return np.array([reference_cell(v) for v in bits.view(float).tolist()], dtype=object)[index].tolist()


def assert_same_text(text, expected):
    # names the first differing line; pytest would diff megabyte strings in full
    got, want = text.splitlines(True), expected.splitlines(True)
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        raise AssertionError(f"line {i}: {got[i:i + 1]} != {want[i:i + 1]}")


EDGE_FLOATS = [
    0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, -5e-324,
    sys.float_info.min, sys.float_info.max, -sys.float_info.max, 1e16,
    999999999999.5, 0.1, 1 / 3, 1e-5, 123456789012.5,
]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
cell_kinds = {
    "float": floats,
    "int": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "bool": st.booleans(),
    "str": st.text(alphabet="abcxyz-+.eE019 ", max_size=8),
}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(cell_kinds)), min_size=1, max_size=5))
    rows = draw(st.integers(min_value=0, max_value=40))
    return [draw(st.lists(cell_kinds[k], min_size=rows, max_size=rows)) for k in kinds]


@settings(max_examples=150, deadline=None)
@given(tables())
def test_matches_per_cell_reference(columns):
    header = [f"c{j}" for j in range(len(columns))]
    assert_same_text(csv_text(header, columns), reference_csv(header, columns))


@pytest.mark.parametrize(
    "rows", [0, 1, serialize._BLOCK_ROWS - 1, serialize._BLOCK_ROWS, serialize._BLOCK_ROWS + 1]
)
def test_block_edges(rows):
    rng = np.random.default_rng(rows)
    exponents = rng.integers(-320, 308, rows).astype(float)
    columns = (
        rng.standard_normal(rows) * 10.0**exponents,
        rng.integers(-(10**12), 10**12, rows),
        rng.random(rows) < 0.5,
    )
    text = csv_text(("x", "k", "flag"), columns)
    assert text.count("\n") == rows + 1
    assert_same_text(text, reference_csv(("x", "k", "flag"), [c.tolist() for c in columns]))


def test_mixed_columns_as_in_table1():
    rows = [
        (5, 1, -0.25, 1214.3, 0.9998, 0.9998123456784, "", True),
        (7, 6, 0.25, 4365.0, 0.9997, 0.99971, "4365.12", False),
    ]
    text = csv_text(("n", "d", "f", "beta", "xi", "xi_at", "beta_match", "passed"), list(zip(*rows)))
    assert text == (
        "n,d,f,beta,xi,xi_at,beta_match,passed\n"
        "5,1,-0.25,1214.3,0.9998,0.999812345678,,true\n"
        "7,6,0.25,4365,0.9997,0.99971,4365.12,false\n"
    )


# grids of 8,191, 8,192 and 8,193 rows: one short of, equal to and one past a
# block of `serialize._BLOCK_ROWS`; and one whose rows are longer than a block
EDGE_GRIDS = [(1, 8191), (8191, 1), (2, 4096), (8, 1024), (3, 2731), (2731, 3), (3, 8193)]
# how each column is made: a broadcast of a (T, 1), (1, B) or (1, 1) base, a full
# grid, or the first B columns of a wider one (a view whose rows are padded)
BASES = {
    "twist": lambda t, b: (t, 1), "time": lambda t, b: (1, b), "point": lambda t, b: (1, 1),
    "full": lambda t, b: (t, b), "padded": lambda t, b: (t, b + 3),
}


@st.composite
def grid_tables(draw):
    """Columns of one (T, B) grid: broadcast views and full arrays of any cell kind.
    Each base draws its cells from a short drawn pool, so a large grid is cheap to make."""
    small = st.tuples(st.integers(1, 7), st.integers(1, 7))
    shape = draw(st.one_of(small, st.sampled_from(EDGE_GRIDS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sorted(cell_kinds)))
        pool = draw(st.lists(cell_kinds[kind], min_size=1, max_size=12))
        if kind == "float":
            pool += draw(st.lists(st.sampled_from(EDGE_FLOATS), max_size=4))
        base_shape = BASES[draw(st.sampled_from(sorted(BASES)))](*shape)
        base = np.array(pool)[rng.integers(len(pool), size=base_shape)]
        columns.append(np.broadcast_to(base[:, : shape[1]], shape))
    return columns


@settings(max_examples=60, deadline=None)
@given(grid_tables())
@example([np.broadcast_to(np.zeros((0, 1)), (0, 3))])  # a broadcast column of no cells
def test_grid_columns_match_their_flattened_rows(columns):
    # a broadcast column lays out its distinct values once and broadcasts their
    # cells; the text must be that of the materialized 1-D columns, and the blocks
    # of cells, started here even for a column of none, must cover each column
    # (csv_text never starts an empty column's cells: drop this line with the
    # width pass's default=0 and its mutant if that guard goes)
    for c in columns:
        assert sum(map(len, _cells.cells(c, serialize._BLOCK_ROWS))) == c.size
    header = [f"c{j}" for j in range(len(columns))]
    flat = [np.ascontiguousarray(c).reshape(-1) for c in columns]
    text = csv_text(header, columns)
    assert text == csv_text(header, flat)
    assert_same_text(text, reference_csv(header, [c.tolist() for c in flat]))


@pytest.mark.parametrize("base", [(2, 1, 4), (1, 3, 1), (1, 1, 4), (2, 3, 4)])
def test_three_axis_grids_are_written_in_c_order(base):
    values = np.arange(math.prod(base)).reshape(base) * 0.5 - 1.0
    column = np.broadcast_to(values, (2, 3, 4))
    full = np.arange(24).reshape(2, 3, 4)
    flat = (np.ascontiguousarray(column).reshape(-1), full.reshape(-1))
    expected = reference_csv(("x", "k"), [c.tolist() for c in flat])
    assert csv_text(("x", "k"), (column, full)) == expected


def test_unequal_columns_are_rejected():
    for columns in (([1.0, 2.0], [1.0]), ([1.0], [1.0, 2.0])):
        with pytest.raises(ValueError):
            csv_text(("a", "b"), columns)
    with pytest.raises(ValueError):
        csv_text(("a", "b"), (np.zeros((2, 2)), np.zeros(4)))
    with pytest.raises(ValueError):
        csv_text((), ())


# no file at the path, then one longer than what is written over it
STALE = (None, 8 << 20)


def stale_file(path, size):
    """A file of `size` bytes at the path, none for None."""
    path.unlink(missing_ok=True)
    if size is not None:
        path.write_bytes(b"stale\n" * (size // 6))


def test_write_text_writes_the_bytes_of_one_encode(tmp_path):
    text = "\u00e9,1\n" * (1 << 20)  # two bytes to the first character
    for stale in STALE:
        stale_file(tmp_path / "written", stale)
        serialize.write_text(tmp_path / "written", text)
        assert (tmp_path / "written").read_bytes() == text.encode("utf-8")


def test_a_manifest_written_over_a_longer_file_holds_its_own_bytes(tmp_path):
    results = tmp_path / "out.csv"
    path = serialize.manifest_path_for(results)
    stale_file(path, 1 << 16)
    argv = ["sweep", "--n", "4", "--out", str(results)]
    assert serialize.write_manifest("sweep", {"n": 4}, argv, results, time.perf_counter()) == path
    manifest = serialize.load_manifest(path)
    assert manifest.argv == argv
    assert path.read_bytes() == serialize.dumps(dataclasses.asdict(manifest)).encode()


def test_dumps_writes_non_finite_floats_as_their_text():
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    text = serialize.dumps({"a": [math.nan, math.inf, -math.inf, np.float64(-math.inf)], "b": 0.1})
    doc = json.loads(text, parse_constant=refuse)
    assert doc == {"a": ["nan", "inf", "-inf", "-inf"], "b": 0.1}


def grid_columns(twists, betas, seed=0):
    """A sweep-like (f, beta, xi) table: broadcast coordinates, random values."""
    xi = np.random.default_rng(seed).random((twists, betas))
    f = np.broadcast_to(np.linspace(-0.5, 0.5, twists)[:, None], xi.shape)
    beta = np.broadcast_to(0.00731 + 0.01 * np.arange(betas), xi.shape)
    return f, beta, xi


def test_write_csv_writes_the_bytes_of_csv_text(tmp_path):
    rows = 2 * serialize._BLOCK_ROWS + 5
    tables = [
        (("f", "beta", "xi"), grid_columns(3, rows // 3)),
        (("x", "k", "flag", "s"),
         (np.linspace(-1, 1, rows), np.arange(rows), np.arange(rows) % 3 == 0,
          [f"\u00e9{k}" for k in range(rows)])),
    ]
    for (header, columns), stale in itertools.product(tables, STALE):
        stale_file(tmp_path / "out.csv", stale)
        serialize.write_csv(tmp_path / "out.csv", header, columns)
        assert (tmp_path / "out.csv").read_bytes() == csv_text(header, columns).encode()


def test_write_csv_peak_memory_does_not_grow_with_rows(tmp_path):
    # 40,000 and 320,000 rows: a CSV held whole would differ by ~14 MiB
    peaks = []
    for twists in (4, 32):
        columns = grid_columns(twists, 10_000)
        peaks.append(peak_bytes(
            lambda: serialize.write_csv(tmp_path / "grid.csv", ("f", "beta", "xi"), columns)
        ))
    assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks


@pytest.mark.parametrize("shape", [(40, 10_000), (4_000, 100)])
def test_a_padded_grid_is_laid_out_a_block_at_a_time(shape):
    # `SpectralKernel.xi_grid` returns the first columns of a wider array, which
    # is not C-contiguous; a flattened copy of these 400,000 values takes 3.2 MB
    wide = np.linspace(0.0, 1.0, shape[0] * (shape[1] + 7)).reshape(shape[0], shape[1] + 7)
    grid = wide[:, : shape[1]]

    def lay_out():
        for _ in _cells.cells(grid, serialize._BLOCK_ROWS):
            pass

    assert peak_bytes(lay_out) < 3 << 19  # two blocks' cells and one's layout
    blocks = list(_cells.cells(grid, serialize._BLOCK_ROWS))
    copied = list(_cells.cells(grid.copy(), serialize._BLOCK_ROWS))
    assert len(blocks) == len(copied)
    assert all(np.array_equal(a, b) for a, b in zip(blocks, copied))


def test_a_broadcast_column_peaks_at_its_laid_out_distinct_cells():
    # 220,000 times over 2 twists, as in a sweep, either way round: the distinct
    # cells are held once, at the widest text's width, which a first pass finds
    # before the second writes them; each block's 24-byte cells are freed once copied
    times = 0.00731 + 0.005 * np.arange(220_000)
    width = max(len(serialize._FLOAT % v) for v in times.tolist())
    for column in (np.broadcast_to(times, (2, times.size)), np.broadcast_to(times[:, None], (times.size, 2))):

        def lay_out():
            for _ in _cells.cells(column, serialize._BLOCK_ROWS):
                pass

        assert peak_bytes(lay_out) <= times.size * width + (1 << 20), column.strides
        flat = np.ascontiguousarray(column).reshape(-1)
        assert_same_text(csv_text(("t",), (column,)), csv_text(("t",), (flat,)))


@pytest.mark.parametrize("base", [(26, 1), (1, 9_901)], ids=["twist", "time"])
def test_a_broadcast_column_hands_float_cells_its_distinct_values_once_a_pass(monkeypatch, base):
    # a `landscape`-shaped sweep of 26 twists x 9,901 times: the width pass and the
    # write pass each lay out the distinct values, never the grid's 257,426 cells
    values = np.linspace(-0.4963, 0.5037, 26) if base[0] > 1 else 0.0061 + 0.01 * np.arange(9_901)
    column = np.broadcast_to(values.reshape(base), (26, 9_901))
    expected = csv_text(("x",), (np.ascontiguousarray(column).reshape(-1),))
    handed, float_cells = [], _cells.float_cells
    monkeypatch.setattr(_cells, "float_cells", lambda v: handed.append(len(v)) or float_cells(v))
    assert csv_text(("x",), (column,)) == expected
    assert sum(handed) <= 2 * values.size, handed


def test_float_cells_of_a_block_peak_below_a_dozen_block_arrays():
    # the cells themselves are 3 arrays of 8,192 uint64 (192 KiB); laying them out
    # takes about a dozen such arrays at once, not one per step
    values = np.random.default_rng(5).uniform(-1e3, 1e3, serialize._BLOCK_ROWS)
    values[::97] = np.nan  # some cells are Python's
    assert peak_bytes(lambda: _cells.float_cells(values)) <= 0.9 * (1 << 20)


@pytest.mark.parametrize(
    "columns",
    [
        ([1.0, 2.0], [1.0]),
        ([0.5] * (serialize._BLOCK_ROWS + 2), [""] * (serialize._BLOCK_ROWS + 1) + ["x\0y"]),
    ],
    ids=["shapes", "nul-in-the-second-block"],
)
def test_refused_columns_leave_the_file_unopened(tmp_path, columns):
    path = tmp_path / "kept.csv"
    path.write_bytes(b"kept\n")
    with pytest.raises(ValueError):
        serialize.write_csv(path, ("a", "b"), columns)
    assert path.read_bytes() == b"kept\n"


@settings(max_examples=100, deadline=None)
@given(columns=tables(), cuts=st.lists(st.integers(0, 40), max_size=4))
def test_chunks_write_the_csv_of_their_rows_laid_end_to_end(tmp_path_factory, columns, cuts):
    # empty chunks and chunks of one row included, to a file and to stdout alike
    header = [f"c{j}" for j in range(len(columns))]
    edges = [0, *sorted(min(c, len(columns[0])) for c in cuts), len(columns[0])]
    chunks = [[c[lo:hi] for c in columns] for lo, hi in zip(edges, edges[1:])]
    path = tmp_path_factory.mktemp("chunks") / "t.csv"
    serialize.write_csv_chunks(path, header, iter(chunks))
    assert path.read_bytes() == csv_text(header, columns).encode()


@pytest.mark.parametrize("sizes", [(8192, 200, 8192), (130, 8193, 1), (5000, 5000, 5000)])
def test_chunks_of_any_length_reuse_their_buffers_cleanly(tmp_path, capsys, sizes):
    # a chunk's float cells are laid out in the buffers the chunk before used,
    # wider or narrower text alike: none of its cells may show through
    rng = np.random.default_rng(len(sizes) + sizes[0])
    chunks = [
        (rng.standard_normal(k) * 10.0 ** rng.integers(-6, 14, k), rng.uniform(0, 1, k) < 0.5,
         np.full(k, 0.5) if i % 2 else rng.uniform(-1e3, 1e3, k))
        for i, k in enumerate(sizes)
    ]
    columns = [np.concatenate(c) for c in zip(*chunks)]
    want = reference_csv(("x", "flag", "y"), [c.tolist() for c in columns])
    serialize.write_csv_chunks(tmp_path / "t.csv", ("x", "flag", "y"), chunks)
    assert_same_text((tmp_path / "t.csv").read_text(), want)
    serialize.write_csv_chunks(None, ("x", "flag", "y"), chunks)
    assert_same_text(capsys.readouterr().out, want)


@pytest.mark.parametrize(
    "later",
    [([0.5, 0.25], [1.0]), ([0.5],), (["x\0y"], ["z"])],
    ids=["shapes", "columns", "nul"],
)
def test_a_refused_later_chunk_keeps_the_rows_before_it(tmp_path, later):
    path = tmp_path / "kept.csv"
    first = ([0.125] * 300, [2.0] * 300)
    for stale in STALE:
        stale_file(path, stale)
        with pytest.raises(ValueError):
            serialize.write_csv_chunks(path, ("a", "b"), iter([first, later]))
        assert path.read_text() == csv_text(("a", "b"), first)


def test_a_csv_written_to_a_fifo_arrives_whole(tmp_path):
    # a pipe cannot be cut to length (truncate raises), so the writer must not try
    path = tmp_path / "pipe"
    os.mkfifo(path)
    header, columns = ("f", "beta", "xi"), grid_columns(3, serialize._BLOCK_ROWS)
    received = []
    reader = threading.Thread(target=lambda: received.append(path.read_bytes()), daemon=True)
    reader.start()
    serialize.write_csv(path, header, columns)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [csv_text(header, columns).encode()]


def test_a_csv_of_no_chunks_is_refused(tmp_path):
    path = tmp_path / "kept.csv"
    path.write_bytes(b"kept\n")
    with pytest.raises(ValueError):
        serialize.write_csv_chunks(path, ("a",), iter([]))
    assert path.read_bytes() == b"kept\n"


def test_a_text_cell_holding_nul_is_rejected():
    # the writer drops NUL padding, so such a cell could not be written as it is
    with pytest.raises(ValueError):
        csv_text(("a",), (["x\0y"],))


@st.composite
def layout_edges(draw):
    """Values at the edges of the numpy cell layout: 12-digit decimal mantissas
    at exponents -6..14, their .5 ties, powers of ten and 9.99..95-style carries,
    each moved 0-2 ulps either way, with either sign."""
    e = draw(st.integers(-6, 14))
    kind = draw(st.sampled_from(["digits", "tie", "power", "carry"]))
    if kind == "digits":
        text = f"{draw(st.integers(10**11, 10**12 - 1))}e{e - 11}"
    elif kind == "tie":
        text = f"{draw(st.integers(10**11, 10**12 - 1))}5e{e - 12}"
    elif kind == "power":
        text = f"1e{e}"
    else:
        text = f"9.{'9' * draw(st.integers(10, 15))}5e{e}"
    value = float(text)
    toward = draw(st.sampled_from([math.inf, -math.inf]))
    for _ in range(draw(st.integers(0, 2))):
        value = math.nextafter(value, toward)
    return -value if draw(st.booleans()) else value


@settings(max_examples=150, deadline=None)
@given(st.lists(layout_edges(), min_size=2, max_size=60, unique=True))
def test_layout_edges_match_the_reference(values):
    # repeated up to the size numpy lays out, so the values take numpy's layout
    # rather than Python's
    column = values * -(-_cells.NUMPY_MIN // len(values))
    assert_same_text(csv_text(("x",), (column,)), reference_csv(("x",), (column,)))


def test_signed_zeros_and_runs_of_equal_values():
    # 0.0 and -0.0 compare equal but differ in text; runs of equal values
    # within and across a block edge
    nan = float("nan")
    column = [0.0, -0.0, -0.0, 0.0, 0.0, 2.5, 2.5, -2.5, nan, nan, 1e-7, 1e-7, -0.0] + [0.125] * 40
    column += [0.3] * (serialize._BLOCK_ROWS + 3) + [-0.0, 0.0]
    columns = (column, column[::-1])
    assert_same_text(csv_text(("a", "b"), columns), reference_csv(("a", "b"), columns))

