import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from models import naive_poly_eval
from tropcrit import series
from tropcrit.errors import SeriesInversionError
from tropcrit.rings import Polynomial, poly_parse
from tropcrit.series import (
    LaurentSeries,
    RelaxedEvaluator,
    poly_eval_series,
)


def test_inverse_monomials_cancel():
    a = LaurentSeries.t_power(-1, 4)
    b = LaurentSeries.t_power(1, 6)
    c = a * b
    assert c.valuation == 0
    assert c.coeff(0) == 1
    assert all(c.coeff(k) == 0 for k in range(1, c.truncation_order))


def test_geometric_series_inverse():
    one_minus_t = LaurentSeries(0, [Fraction(1), Fraction(-1), 0, 0], 4)
    inv = one_minus_t.invert()
    assert [inv.coeff(k) for k in range(4)] == [1, 1, 1, 1]


def test_square_of_simple_pole_has_valuation_minus_two():
    rng = random.Random(1)
    c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    s = LaurentSeries(-1, [c, Fraction(2), Fraction(-1)], 2)
    sq = s * s
    assert sq.valuation == -2
    # direct expansion oracle: (c/t + 2 - t)^2 = c^2/t^2 + 4c/t + ...
    assert sq.coeff(-2) == c * c
    assert sq.coeff(-1) == 4 * c


def test_valuation_additivity_random():
    rng = random.Random(9)
    for _ in range(30):
        va, vb = rng.randint(-3, 3), rng.randint(-3, 3)
        a = LaurentSeries(va, [Fraction(rng.randint(1, 5))] + [Fraction(rng.randint(-5, 5)) for _ in range(3)], va + 4)
        b = LaurentSeries(vb, [Fraction(rng.randint(1, 5))] + [Fraction(rng.randint(-5, 5)) for _ in range(3)], vb + 4)
        assert (a * b).valuation == va + vb


def test_invert_zero_series_raises():
    with pytest.raises(SeriesInversionError):
        LaurentSeries.zero(5).invert()


def test_mul_then_invert_roundtrip():
    s = LaurentSeries(-1, [Fraction(2), Fraction(1), Fraction(3), Fraction(-1)], 3)
    prod = s * s.invert()
    assert prod.valuation == 0
    assert prod.coeff(0) == 1
    for k in range(1, prod.truncation_order):
        assert prod.coeff(k) == 0


def test_float_coefficients_flag_inexact():
    s = LaurentSeries(0, [1.5, 2.0], 2)
    assert not s.exact
    t = LaurentSeries(0, [Fraction(3, 2), Fraction(2)], 2)
    assert t.exact
    assert not (s * t).exact


def test_add_alignment():
    a = LaurentSeries(-1, [Fraction(1), Fraction(2)], 1)
    b = LaurentSeries(0, [Fraction(5)], 1)
    c = a + b
    assert c.valuation == -1
    assert c.coeff(-1) == 1 and c.coeff(0) == 7


def test_leading_zero_stripping():
    s = LaurentSeries(0, [Fraction(0), Fraction(0), Fraction(4)], 3)
    assert s.valuation == 2
    assert s.leading() == 4


def test_printing():
    s = LaurentSeries(0, [Fraction(3), Fraction(-74), Fraction(3508)], 3)
    assert str(s) == "3 - 74*t + 3508*t^2 + O(t^3)"
    pole = LaurentSeries(-1, [Fraction(1, 2), Fraction(0), Fraction(-1)], 2)
    assert str(pole) == "1/2*t^-1 - t + O(t^2)"


def test_poly_eval_series_laurent_exponents():
    # f = x*y - 1 evaluated at x = t^-1, y = t gives exactly 0
    f = poly_parse("x*y-1", ("x", "y"))
    env = {"x": LaurentSeries.t_power(-1, 5), "y": LaurentSeries.t_power(1, 7)}
    v = poly_eval_series(f, env, 4)
    assert v.is_zero


def test_from_polynomial_in_t():
    p = poly_parse("2+t-3*t^2", ("t",))
    s = LaurentSeries.from_polynomial(p, 5)
    assert [s.coeff(k) for k in range(5)] == [2, 1, -3, 0, 0]


def same_scalar(a, b) -> bool:
    """Exact values equal; floating values equal bit for bit."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    a, b = complex(a), complex(b)
    return struct.pack("<dd", a.real, a.imag) == struct.pack("<dd", b.real, b.imag)


SCALARS = {
    Fraction: st.fractions(min_value=-9, max_value=9, max_denominator=9),
    complex: st.complex_numbers(max_magnitude=50, allow_nan=False, allow_infinity=False),
    float: st.floats(min_value=0, max_value=50),
}


@st.composite
def relaxed_cases(draw):
    """Polynomials in 2-3 variables plus t, nonnegative exponents (t's up
    to 8, past the largest order), and series for the variables; zero
    coefficients are drawn on purpose."""
    scalar = draw(st.sampled_from(sorted(SCALARS, key=str)))
    names = ("x", "y", "z")[: draw(st.integers(2, 3))] + ("t",)
    exponents = st.tuples(*[st.integers(0, 3)] * (len(names) - 1), st.integers(0, 8))
    coefficient = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    polys = draw(
        st.lists(
            st.dictionaries(exponents, coefficient, min_size=1, max_size=5).map(
                lambda terms: Polynomial(terms, names)
            ),
            min_size=1,
            max_size=3,
        )
    )
    order = draw(st.integers(1, 7))
    value = st.one_of(st.just(scalar(0)), SCALARS[scalar].map(scalar))
    series = {
        name: draw(st.lists(value, min_size=order, max_size=order))
        for name in names[:-1]
    }
    return scalar, polys, series, order


@settings(max_examples=150, deadline=None)
@given(relaxed_cases())
def test_relaxed_evaluator_matches_poly_eval_series(case):
    """At every step of a lift, with the newest coefficient of each input
    still 0, and at the end, every coefficient equals poly_eval_series."""
    scalar, polys, series, order = case
    zero = scalar(0)
    inputs = {name: [zero] * order for name in series}
    evaluator = RelaxedEvaluator(polys, inputs, scalar)
    t = [zero, scalar(1)] + [zero] * order
    for k in range(order + 1):
        n = min(k + 1, order)
        got = evaluator.coefficients(n)
        env = {name: LaurentSeries(0, c[:n], n) for name, c in inputs.items()}
        env["t"] = LaurentSeries(0, t[:n], n)
        for f, coeffs in zip(polys, got):
            want = poly_eval_series(f, env, n)
            assert len(coeffs) == n
            assert all(same_scalar(want.coeff(j), c) for j, c in enumerate(coeffs))
        if k < order:
            for name, c in series.items():
                inputs[name][k] = c[k]


_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=60)
# denominators with odd prime factors, which a lift from a seed with
# power-of-two denominators never meets
_odd_rationals = st.builds(
    Fraction, st.integers(-99, 99), st.sampled_from([3, 7, 9, 11, 15, 49, 60])
)


@st.composite
def exact_cases(draw):
    """Rational polynomials in 2-3 variables plus t, rational series with
    denominators up to 60 and with odd ones, and a provisional value of
    each coefficient that the evaluator sees before the final one; zero
    coefficients are drawn on purpose; t's exponents reach 8, past the
    largest order."""
    names = ("x", "y", "z")[: draw(st.integers(2, 3))] + ("t",)
    exponents = st.tuples(*[st.integers(0, 3)] * (len(names) - 1), st.integers(0, 8))
    polys = draw(
        st.lists(
            st.dictionaries(exponents, _rationals, min_size=1, max_size=5).map(
                lambda terms: Polynomial(terms, names)
            ),
            min_size=1,
            max_size=3,
        )
    )
    order = draw(st.integers(1, 7))
    value = st.one_of(st.just(Fraction(0)), _rationals, _odd_rationals)
    series = {
        name: draw(st.lists(value, min_size=order, max_size=order))
        for name in names[:-1]
    }
    provisional = {
        name: draw(st.lists(value, min_size=order, max_size=order)) for name in series
    }
    series["t"] = [Fraction(0), Fraction(1)] + [Fraction(0)] * order
    return polys, series, provisional, order


@settings(max_examples=100, deadline=None)
@given(exact_cases())
def test_exact_evaluation_matches_schoolbook_fractions(case):
    """The common-denominator sums of the exact relaxed evaluator and of
    poly_eval_series equal schoolbook Fraction arithmetic, at every step
    of a lift and at the end.  At each step the newest coefficient of each
    input first holds a provisional value, changed in place to the final
    one before the next call, which recomputes it."""
    polys, series, provisional, order = case
    wants = [naive_poly_eval(f, series, order) for f in polys]
    inputs = {name: [Fraction(0)] * (order + 2) for name in provisional}
    evaluator = RelaxedEvaluator(polys, inputs, Fraction)
    inputs["t"] = list(series["t"])
    for n in range(1, order + 1):
        for name, c in provisional.items():
            inputs[name][n - 1] = c[n - 1]
        got = evaluator.coefficients(n)
        assert got == [naive_poly_eval(f, inputs, n) for f in polys]
        for name, c in series.items():
            inputs[name][n - 1] = c[n - 1]
    assert evaluator.coefficients(order) == wants
    env = {name: LaurentSeries(0, c[:order], order) for name, c in series.items()}
    for f, want in zip(polys, wants):
        assert [poly_eval_series(f, env, order).coeff(k) for k in range(order)] == want


@settings(max_examples=100, deadline=None)
@given(
    a=st.lists(_rationals, min_size=1, max_size=6),
    b=st.lists(_rationals, min_size=1, max_size=6),
    va=st.integers(-3, 3),
    vb=st.integers(-3, 3),
)
def test_exact_product_matches_schoolbook_convolution(a, b, va, vb):
    x = LaurentSeries(va, a, va + len(a))
    y = LaurentSeries(vb, b, vb + len(b))
    product = x * y
    order = min(x.truncation_order + y.valuation, y.truncation_order + x.valuation)
    assert product.truncation_order == order
    for k in range(x.valuation + y.valuation, order):
        want = sum(
            (
                x.coeff(i) * y.coeff(k - i)
                for i in range(x.valuation, x.truncation_order)
                if y.valuation <= k - i < y.truncation_order
            ),
            Fraction(0),
        )
        assert product.coeff(k) == want


def test_relaxed_evaluator_rejects_negative_exponents():
    f = poly_parse("x^-1*t + 1", ("x", "t"))
    with pytest.raises(ValueError):
        RelaxedEvaluator([f], {"x": [Fraction(1)]}, Fraction)


def test_powers_of_t_are_shifts_not_products(monkeypatch):
    # x*t^5 + 3*t^6 needs no convolution: x enters by a scaling, and the
    # powers of t only move coefficients
    calls = []
    real = series._dot

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(series, "_dot", counting)
    f = poly_parse("x*t^5 + 3*t^6", ("x", "t"))
    x = [Fraction(k + 1, 2) for k in range(8)]
    evaluator = RelaxedEvaluator([f], {"x": x}, Fraction)
    for n in range(1, 6):
        assert evaluator.coefficients(n) == [[Fraction(0)] * n]
    assert calls == []
    (got,) = evaluator.coefficients(8)
    assert got == [0] * 5 + [x[0], x[1] + 3, x[2]]
