import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcrit.errors import PolyParseError
from tropcrit.groebner import Ideal, Job, groebner_basis
from tropcrit.rings import (
    EXPONENT_LIMIT,
    Polynomial,
    TermOrder,
    block_order,
    grlex,
    poly_parse,
)
from tropcrit.tropical import TropicalEngine

COIN = ("t0", "t1", "t2")


def test_parse_coin_generator():
    f = poly_parse("t0*t2-(t0+t1)*t1", COIN)
    assert f.terms == {
        (1, 0, 1): Fraction(1),
        (1, 1, 0): Fraction(-1),
        (0, 2, 0): Fraction(-1),
    }


def test_parse_zero():
    assert poly_parse("0", COIN).terms == {}


def test_parse_algebraic_identity_cancels():
    f = poly_parse("(x+y)^2-x^2-2*x*y-y^2", ("x", "y"))
    assert f.is_zero


def test_parse_rational_literal_and_roundtrip():
    f = poly_parse("3/2*x - 7", ("x",))
    assert f.terms == {(1,): Fraction(3, 2), (0,): Fraction(-7)}
    assert poly_parse(str(f), ("x",)) == f


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError):
        poly_parse("x +* y", ("x", "y"))
    with pytest.raises(PolyParseError) as err:
        poly_parse("x + z", ("x", "y"))
    assert "z" in str(err.value)


def test_roundtrip_random_polynomials():
    rng = random.Random(7)
    vars = ("x", "y", "z")
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = tuple(rng.randint(0, 3) for _ in vars)
            terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        f = Polynomial(terms, vars)
        assert poly_parse(str(f), vars) == f


def test_ring_axioms_random():
    rng = random.Random(5)
    vars = ("x", "y")

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            e = tuple(rng.randint(0, 2) for _ in vars)
            terms[e] = Fraction(rng.randint(-5, 5))
        return Polynomial(terms, vars)

    for _ in range(40):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f


def test_weight_initial_min_convention():
    f = poly_parse("t0*t2-t0*t1-t1^2", COIN)
    init = f.weight_initial((2, 1, 0))
    assert init == poly_parse("t0*t2-t1^2", COIN)
    init2 = f.weight_initial((-2, -2, -1))
    assert init2 == poly_parse("-t0*t1-t1^2", COIN)


def test_laurent_normalize_clears_negatives():
    f = Polynomial({(-1, 2, 0): Fraction(1), (0, 0, -3): Fraction(2)}, COIN)
    g = f.laurent_normalize()
    assert all(x >= 0 for e in g.terms for x in e)
    # clearing used the monomial t0*t2^3
    assert g.terms == {(0, 2, 3): Fraction(1), (1, 0, 0): Fraction(2)}


def test_derivative():
    f = poly_parse("x^2*y + 3*x", ("x", "y"))
    assert f.derivative("x") == poly_parse("2*x*y + 3", ("x", "y"))
    assert f.derivative("y") == poly_parse("x^2", ("x", "y"))


def test_apply_exponent_map_identity():
    f = poly_parse("t0*t2-t0*t1-t1^2", COIN)
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert f.apply_exponent_map(ident) == f


def test_evaluate_exact():
    f = poly_parse("t0*t2-(t0+t1)*t1", COIN)
    v = f.evaluate({"t0": Fraction(1), "t1": Fraction(2), "t2": Fraction(3)})
    assert v == Fraction(1 * 3 - 3 * 2)


def test_evaluate_needs_only_the_variables_that_appear():
    f = poly_parse("y + x + 1", ("x", "y", "z"))
    assert f.evaluate({"x": Fraction(2), "y": Fraction(3)}) == 6
    assert f.evaluate({"x": 0.5, "y": 2j}) == 1.5 + 2j
    # the first term with a missing variable names it
    with pytest.raises(KeyError, match="no value for variable y"):
        f.evaluate({"z": Fraction(1)})


def plain_loop(f, values):
    """The plain evaluation loop at every point: each Fraction coefficient
    times the values' powers, the terms summed from the integer 0; at float
    and complex points ``evaluate`` gives its bits."""
    point = [values.get(name) for name in f.vars]
    total = 0
    for e, c in f.terms.items():
        acc = c
        for v, x in zip(point, e):
            if x:
                acc = acc * v**x
        total = total + acc
    return total


def exact_sum(f, point):
    """f at a rational point, each term as an integer numerator and
    denominator, summed exactly."""
    pairs = []
    for e, c in f.terms.items():
        n, d = c.numerator, c.denominator
        for x, k in zip(point, e):
            if k:
                n *= x.numerator**k
                d *= x.denominator**k
        pairs.append((n, d))
    return sum((Fraction(n, d) for n, d in pairs), Fraction(0))


def same_float(a, b) -> bool:
    """Both complex or neither, and equal bit for bit as complex numbers
    (a float or Fraction has imaginary part +0.0)."""
    if isinstance(a, complex) != isinstance(b, complex):
        return False
    a, b = complex(a), complex(b)
    return struct.pack("<dd", a.real, a.imag) == struct.pack("<dd", b.real, b.imag)


EVAL_VARS = ("x", "y", "z", "t")
COEFFICIENTS = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def polynomials(low):
    """Polynomials in x, y, z, t with exponents from ``low`` to 3 for x, y,
    z and 0 to 3 for t; constant terms are drawn on purpose."""
    exponent = st.integers(low, 3)
    monomial = st.tuples(exponent, exponent, exponent, st.integers(0, 3))
    terms = st.dictionaries(
        st.one_of(st.just((0, 0, 0, 0)), monomial), COEFFICIENTS, max_size=6
    )
    return terms.map(lambda t: Polynomial(t, EVAL_VARS))


FLOATS = st.floats(min_value=-50, max_value=50)
COMPLEX = st.one_of(
    st.complex_numbers(max_magnitude=50, allow_nan=False, allow_infinity=False),
    st.builds(complex, FLOATS, st.sampled_from([0.0, -0.0])),
)


@settings(max_examples=400, deadline=None)
@given(
    f=polynomials(0),
    kinds=st.tuples(*[st.sampled_from(["float", "complex"])] * 3),
    data=st.data(),
    t=st.one_of(st.just(0.0), FLOATS),
)
def test_evaluate_keeps_the_bits_of_the_plain_loop(f, kinds, data, t):
    # float, complex and mixed points, t = 0.0 beside complex values and
    # imaginary parts of -0.0 included
    values = {"t": t}
    for name, kind in zip(EVAL_VARS, kinds):
        values[name] = data.draw(FLOATS if kind == "float" else COMPLEX)
    assert same_float(f.evaluate(values), plain_loop(f, values))


@settings(max_examples=200, deadline=None)
@given(
    f=polynomials(0),
    point=st.tuples(*[st.fractions(min_value=-9, max_value=9, max_denominator=9)] * 4),
)
def test_evaluate_at_a_rational_point_is_the_exact_sum(f, point):
    got = f.evaluate(dict(zip(EVAL_VARS, point)))
    assert isinstance(got, Fraction) and got == exact_sum(f, point)


@settings(max_examples=200, deadline=None)
@given(
    f=polynomials(-2),
    point=st.tuples(
        *[st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)] * 3,
        st.integers(-9, 9),
    ),
)
def test_evaluate_laurent_at_a_rational_point(f, point):
    values = dict(zip(EVAL_VARS, point))
    got = f.evaluate(values)
    assert isinstance(got, Fraction) and got == plain_loop(f, values)


def test_equal_polynomials_hash_once_and_share_one_memo_entry(monkeypatch):
    vars = ("x", "y", "z")
    x, y, z = (Polynomial.variable(v, vars) for v in vars)
    built = Polynomial({(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 0): 1}, vars)
    polys = [
        built,
        ((x * x - y * y) * 2 + 2) * Fraction(1, 2),  # the arithmetic paths
        groebner_basis(Ideal([z - 1], vars)).normal_form(x * x - y * y + z),
        groebner_basis(Ideal([built * 3], vars)).gens[0],  # _interreduce
    ]
    assert all(p == built for p in polys)
    assert len({hash(p) for p in polys}) == 1
    with Job() as job:
        engines = {id(TropicalEngine.of(Ideal([p], vars))) for p in polys}
        keys = [k for k in job.memo if isinstance(k, tuple) and k[0] is TropicalEngine]
    assert len(engines) == len(keys) == 1

    calls = []
    real = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda c: calls.append(c) or real(c))
    hash(Polynomial(built.terms, vars))  # a new object hashes its terms
    assert calls
    calls.clear()
    for p in polys:
        hash(p)
    assert calls == []


def _weight_blocks_key(e, weight=None, blocks=None):
    """Reference key of a weight-then-blocks order: the weight, then per
    block its degree and its exponents, degree-then-lex in one block by
    default."""
    parts = []
    if weight is not None:
        parts.append(sum(w * x for w, x in zip(weight, e)))
    for blk in blocks or (range(len(e)),):
        sub = tuple(e[i] for i in blk)
        parts += [sum(sub), sub]
    return tuple(parts)


def _draw_order(data, kind):
    """(matrix order, reference-key options) of one kind on 1-6 variables."""
    n = data.draw(st.integers(1, 6))
    if kind == "grlex":
        return grlex(n), {}
    if kind == "weight":
        w = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
        return TermOrder([w, (1,) * n]), {"weight": w}
    if kind == "lex":
        blocks = [(i,) for i in range(n)]
    else:
        perm = data.draw(st.permutations(range(n)))
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
        blocks = [tuple(perm[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
        # the matrix key breaks ties in the last block in index order
        blocks[-1] = tuple(sorted(blocks[-1]))
    return block_order(n, blocks), {"blocks": blocks}


_L = EXPONENT_LIMIT
_EXPONENTS = {
    # small exponents make ties in degree and weight common
    "small": st.integers(0, 2),
    "laurent": st.integers(-3, 3),
    # up to the largest exponent the Groebner kernel compares, 2L - 1
    "near_limit": st.sampled_from([0, 1, _L - 2, _L - 1, _L, _L + 1, 2 * _L - 1]),
}


@pytest.mark.parametrize("kind", ["grlex", "weight", "lex", "blocks"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_matrix_order_matches_weight_blocks_key(kind, data):
    order, options = _draw_order(data, kind)
    n = len(order.rows[0])
    exponents = _EXPONENTS[data.draw(st.sampled_from(sorted(_EXPONENTS)))]
    mono = st.tuples(*[exponents] * n)
    monos = data.draw(st.lists(mono, min_size=2, max_size=10))
    for a in monos:
        for b in monos:
            ka, kb = order.key(a), order.key(b)
            ra = _weight_blocks_key(a, **options)
            rb = _weight_blocks_key(b, **options)
            assert (ka > kb) - (ka < kb) == (ra > rb) - (ra < rb)


def test_key_compares_a_close_row_above_a_far_one():
    # b trails a by 1 in the weight row and leads it by 6L - 3 in the
    # degree row below: the degree row's field is wide enough not to
    # reach into the weight row's
    L = EXPONENT_LIMIT
    order = TermOrder([(1, -1, 0, 0), (1, 1, 1, 1)])
    a, b = (0, 0, 0, 0), (L - 1, L, 2 * L - 1, 2 * L - 1)
    assert order.key(a) > order.key(b)


def test_block_order_rejects_non_partition():
    with pytest.raises(ValueError):
        block_order(3, ((0,), (1,)))
    with pytest.raises(ValueError):
        block_order(2, ((0, 1), (1,)))


def test_laurent_terms_print_in_grlex_order():
    # degree first, then the exponent tuple, negative entries included
    f = poly_parse("x^-1 + x^-2*y^3 + x - 2*y^-1*x^-1", ("x", "y"))
    assert str(f) == "x + x^-2*y^3 + x^-1 - 2*x^-1*y^-1"
    assert poly_parse(str(f), ("x", "y")) == f
