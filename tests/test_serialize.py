"""Column-wise CSV formatting against the per-cell reference."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinring import _cells, serialize
from spinring.serialize import csv_text


def reference_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def reference_csv(header, columns):
    rows = zip(*columns)
    return "".join(
        [",".join(header) + "\n"] + [",".join(map(reference_cell, row)) + "\n" for row in rows]
    )


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


def test_unequal_columns_are_rejected():
    for columns in (([1.0, 2.0], [1.0]), ([1.0], [1.0, 2.0])):
        with pytest.raises(ValueError):
            csv_text(("a", "b"), columns)
    with pytest.raises(ValueError):
        csv_text(("a",), (np.zeros((2, 2)),))


def test_write_text_writes_the_bytes_of_one_encode(tmp_path):
    text = "\u00e9,1\n" * serialize._WRITE_CHARS  # four slices, two bytes to the first character
    serialize.write_text(tmp_path / "sliced", text)
    (tmp_path / "whole").write_text(text, encoding="utf-8")
    assert (tmp_path / "sliced").read_bytes() == (tmp_path / "whole").read_bytes()


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
    # repeated to the size numpy lays out; neighbours stay distinct, so no run
    # of equal values shrinks the block back to Python's size
    column = values * -(-_cells.NUMPY_MIN // len(values))
    assert_same_text(csv_text(("x",), (column,)), reference_csv(("x",), (column,)))


def test_signed_zeros_and_runs_of_equal_values():
    # a run of equal bits is laid out once; 0.0 and -0.0 compare equal but differ
    nan = float("nan")
    column = [0.0, -0.0, -0.0, 0.0, 0.0, 2.5, 2.5, -2.5, nan, nan, 1e-7, 1e-7, -0.0] + [0.125] * 40
    column += [0.3] * (serialize._BLOCK_ROWS + 3) + [-0.0, 0.0]
    columns = (column, column[::-1])
    assert_same_text(csv_text(("a", "b"), columns), reference_csv(("a", "b"), columns))

