"""The column-at-a-time CSV cell parsers against cell-by-cell oracles.

`scalar_parse_numeric` and `loop_code_column` are the cell loops that
`load_csv` ran before it parsed a column at a time; the column parsers must
give the same values bit for bit and the same first faulty positions.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from leafbridge.dataset import _code_column, _parse_column


def scalar_parse_numeric(col):
    """Parse a column's cells (None for a missing cell) with float().

    A cell holding `_` counts as rejected. Returns (values, bad, nonfinite):
    the floats so far (NaN for missing cells), the position of the first
    rejected cell (parsing stops there) or None, and the position of the
    first present cell that parsed to a non-finite value or None.
    """
    values = np.full(len(col), np.nan)
    nonfinite = None
    for i, cell in enumerate(col):
        if cell is None:
            continue
        try:
            value = float(cell)
        except ValueError:
            value = None
        if value is None or "_" in cell:
            return values, i, nonfinite
        if nonfinite is None and not math.isfinite(value):
            nonfinite = i
        values[i] = value
    return values, None, nonfinite


def loop_code_column(col):
    """Category codes (NaN for a None cell) and categories, one cell at a time."""
    cats = []
    index = {}
    codes = np.empty(len(col))
    for i, cell in enumerate(col):
        if cell is None:
            codes[i] = np.nan
            continue
        if cell not in index:
            index[cell] = len(cats)
            cats.append(cell)
        codes[i] = index[cell]
    return codes, tuple(cats)


def any_case(word):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(word, upper)))


REPR_FLOAT = st.floats(allow_nan=False, allow_infinity=False).map(repr)
SIGNED_ZERO = st.sampled_from(["0.0", "-0.0", "+0.0", "0", "-0", "-0e5"])
PADDED = st.tuples(st.sampled_from([" ", "\t", " \t", "\u2003"]), REPR_FLOAT | SIGNED_ZERO,
                   st.sampled_from(["", " ", "\t\t"])).map("".join)
UNDERSCORED = st.integers(1, 999).map(lambda k: f"{k}_000") | st.sampled_from(
    ["1_0.5", "_1", "1_", "2e1_0", "_"])
NONFINITE = st.tuples(st.sampled_from(["", "+", "-"]),
                      st.sampled_from(["nan", "inf", "infinity"]).flatmap(any_case)).map("".join)
NON_ASCII_DIGITS = st.sampled_from(["\u0661\u0662\u0663", "\u0663.\u0665", "\uff11\uff12",
                                    "\u06f4\u06f2", "\u0967\u0968.\u096b", "-\u0661e\u0662"])
MISSING = st.sampled_from(["?", ""])
TEXT = st.text(max_size=6)
NUMBER = REPR_FLOAT | SIGNED_ZERO | PADDED
CELL = NUMBER | UNDERSCORED | NONFINITE | NON_ASCII_DIGITS | MISSING | TEXT
# mostly-numeric columns reach the non-finite and late-rejection cases
COLUMN = st.one_of(
    st.lists(NUMBER | MISSING, max_size=30),
    st.lists(st.one_of(NUMBER, NUMBER, NONFINITE, MISSING, NON_ASCII_DIGITS), max_size=30),
    st.tuples(st.lists(st.one_of(NUMBER, NUMBER, NONFINITE, MISSING), max_size=20),
              UNDERSCORED | TEXT, st.lists(CELL, max_size=8)).map(
        lambda parts: parts[0] + [parts[1]] + parts[2]),
    st.lists(CELL, max_size=30),
)
MISSING_TOKENS = st.sampled_from([{"?", ""}, {"?", "", "nan", "-inf"}, set()])


@settings(max_examples=400)
@given(col=COLUMN, missing=MISSING_TOKENS)
def test_parse_column_matches_scalar_oracle(col, missing):
    values, bad, nonfinite = _parse_column(tuple(col), missing)
    want, want_bad, want_nonfinite = scalar_parse_numeric(
        [None if c in missing else c for c in col])
    assert values.dtype == np.float64 and values.shape == (len(col),)
    assert values.tobytes() == want.tobytes()
    assert (bad, nonfinite) == (want_bad, want_nonfinite)


@settings(max_examples=200)
@given(col=st.lists(st.sampled_from(["a", "b", "c", "?", "", "nan", "1"]), max_size=30),
       missing=MISSING_TOKENS)
def test_code_column_matches_loop_oracle(col, missing):
    codes, categories = _code_column(tuple(col), missing)
    want, want_categories = loop_code_column([None if c in missing else c for c in col])
    assert codes.dtype == np.float64 and codes.tobytes() == want.tobytes()
    assert categories == want_categories
