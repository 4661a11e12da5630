"""Column-wise CSV formatting against the per-cell reference."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinring.serialize import csv_text, float_text, round_sig


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


@pytest.mark.parametrize("rows", [0, 1, 65536, 65537])
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


@settings(max_examples=150, deadline=None)
@given(st.lists(floats, max_size=40))
def test_float_text_is_the_float_cell(values):
    # pre-formatted text writes the bytes its floats would, and rounds as round_sig does
    text = float_text(values)
    assert text.dtype == object and text.shape == (len(values),)
    assert text.tolist() == [reference_cell(v) for v in values]
    assert csv_text(("x",), (text,)) == csv_text(("x",), (np.array(values, dtype=float),))
    for v, cell in zip(values, text.tolist()):
        if math.isfinite(v):
            assert round_sig(v) == float(cell)
