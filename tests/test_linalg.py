"""Exact linear algebra against sympy on generated rational matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from models import mat_mul
from tropcrit.linalg import inverse, nullspace, rank, rref

_entry = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)


@st.composite
def matrices(draw, square=False):
    """Rational matrices of 1-6 rows and 1-7 columns, with zero columns
    and rows that are multiples of others (zero rows at factor 0)."""
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 7))
    rows = draw(
        st.lists(
            st.lists(_entry, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[c] = Fraction(0)
    index = st.integers(0, nrows - 1)
    scaled = st.tuples(index, index, st.integers(-3, 3))
    for i, j, k in draw(st.lists(scaled, max_size=2)):
        if i != j:
            rows[i] = [k * x for x in rows[j]]
    return rows


def to_sympy(rows):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )


@settings(max_examples=150, deadline=None)
@given(rows=matrices())
def test_rref_matches_sympy(rows):
    red, pivots = rref(rows)
    theirs, their_pivots = to_sympy(rows).rref()
    assert pivots == list(their_pivots)
    assert red == [
        [Fraction(int(v.p), int(v.q)) for v in theirs.row(i)]
        for i in range(theirs.rows)
    ]
    assert all(type(x) is Fraction for row in red for x in row)
    assert rank(rows) == len(pivots)
    for v in nullspace(rows):
        assert mat_mul(rows, [[x] for x in v]) == [[0]] * len(rows)


@settings(max_examples=150, deadline=None)
@given(rows=matrices(square=True))
def test_inverse_times_matrix_is_identity(rows):
    inv = inverse(rows)
    n = len(rows)
    assert (inv is None) == (to_sympy(rows).det() == 0)
    if inv is not None:
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert mat_mul(inv, rows) == identity
