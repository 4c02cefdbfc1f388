"""Cross-checks against independent computation routes.

These tests pit the package's exact engines against unrelated oracles:
sympy's Groebner implementation, the deletion-restriction recursion for
arrangement Euler characteristics, and closed-form counts for generic
line arrangements.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import ProductOrder, grevlex

from models import (
    COIN_RAYS,
    CONIC_RAYS,
    FOUR_LINES_RAYS,
    check_tied_ranks,
    coin_ideal,
    coin_spec,
    conic_ideal,
    conic_spec,
    embedded_at_infinity_ideals,
    essential_arrangements,
    exponent_image,
    five_lines_arrangement,
    five_lines_ideal,
    four_lines_arrangement,
    four_lines_ideal,
    four_lines_ideal_spec,
    four_lines_spec,
    initial_by_fresh_run,
    mat_mul,
    ray_euler_chars,
    rescaled_system,
    saturation_surface_spec,
    shear,
    six_lines_ideal,
    substitute,
    symbolic_data,
    torus_monomial,
)
from tropcrit.arrangement import (
    Arrangement,
    chi_complement,
    flacet_rays,
    intersection_lattice,
)
from tropcrit.asymptotics import (
    DataCurve,
    _ansatz,
    _saturated_equations,
    _unknown_valuations,
)
from tropcrit.cli import load_spec
from tropcrit.groebner import (
    GroebnerBasis,
    Ideal,
    Job,
    _saturate_single,
    groebner_basis,
    quotient_basis,
    saturate,
    solve_zero_dim_numeric,
    squarefree_check,
)
from tropcrit.linalg import mat_vec, vec_gcd
from tropcrit.mle import VarietySpec, critical_system, ml_degree
from tropcrit.rings import Polynomial, block_order, grlex, poly_parse
from tropcrit.tropical import TropicalEngine, find_rigid_rays


def to_sympy(poly, symbols):
    expr = 0
    for e, c in poly.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(symbols, e):
            term *= s**k
        expr += term
    return expr


def from_sympy(expr, symbols, vars):
    p = sympy.Poly(expr, *symbols)
    terms = {}
    for mono, coeff in zip(p.monoms(), p.coeffs()):
        q = sympy.Rational(coeff)
        terms[tuple(mono)] = Fraction(int(q.p), int(q.q))
    return Polynomial(terms, vars)


def random_ideal(rng, vars, ngens=2, nterms=3, deg=2):
    gens = []
    for _ in range(ngens):
        terms = {}
        for _ in range(nterms):
            e = tuple(rng.randint(0, deg) for _ in vars)
            terms[e] = Fraction(rng.randint(-5, 5))
        g = Polynomial(terms, vars)
        if not g.is_zero:
            gens.append(g)
    return gens


def test_reduced_basis_matches_sympy_grlex():
    rng = random.Random(2024)
    vars = ("x", "y", "z")
    symbols = sympy.symbols("x y z")
    checked = 0
    while checked < 12:
        gens = random_ideal(rng, vars)
        if not gens:
            continue
        mine = groebner_basis(Ideal(gens), grlex(3))
        theirs = sympy.groebner(
            [to_sympy(g, symbols) for g in gens], *symbols, order="grlex"
        )
        if mine.is_unit:
            assert theirs.exprs == [1] or sympy.simplify(theirs.exprs[0] - 1) == 0
        else:
            # sympy normalizes to integer-primitive generators; the spec's
            # reduced bases are monic, so compare after rescaling
            order = grlex(3)
            converted = sorted(
                (from_sympy(e, symbols, vars).monic(order) for e in theirs.exprs),
                key=lambda p: order.key(p.leading(order)[0]),
            )
            assert list(mine.gens) == converted
        checked += 1


_XYZ = ("x", "y", "z")
_generated_poly = st.dictionaries(
    st.tuples(*(st.integers(0, 2) for _ in _XYZ)),
    st.integers(-5, 5).filter(bool),
    min_size=1,
    max_size=3,
).map(lambda terms: Polynomial(terms, _XYZ))


@settings(max_examples=60, deadline=None)
@given(
    gens=st.lists(_generated_poly, min_size=1, max_size=3),
    orders=st.sampled_from(
        [
            (grlex(3), "grlex"),
            (block_order(3, ((0,), (1,), (2,))), "lex"),
        ]
    ),
)
def test_reduced_basis_matches_sympy_generated(gens, orders):
    order, sympy_order = orders
    symbols = sympy.symbols("x y z")
    mine = groebner_basis(Ideal(gens), order)
    theirs = sympy.groebner(
        [to_sympy(g, symbols) for g in gens], *symbols, order=sympy_order
    )
    if mine.is_unit:
        assert list(theirs.exprs) == [1]
    else:
        converted = sorted(
            (from_sympy(e, symbols, _XYZ).monic(order) for e in theirs.exprs),
            key=lambda p: order.key(p.leading(order)[0]),
        )
        assert list(mine.gens) == converted


def _generated_rational_poly(max_terms, max_exp):
    return st.dictionaries(
        st.tuples(*(st.integers(0, max_exp) for _ in _XYZ)),
        st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12)),
        min_size=1,
        max_size=max_terms,
    ).map(lambda terms: Polynomial(terms, _XYZ))


@settings(max_examples=60, deadline=None)
@given(
    gens=st.lists(_generated_rational_poly(3, 2), min_size=1, max_size=3),
    orders=st.sampled_from(
        [
            (grlex(3), "grlex"),
            (block_order(3, ((0,), (1,), (2,))), "lex"),
        ]
    ),
    f=_generated_rational_poly(6, 3),
)
def test_rational_basis_and_normal_form_match_sympy_generated(gens, orders, f):
    # the integer kernel on rational input: the same monic reduced basis
    # as sympy over QQ, and the same exact remainder, unscaled
    order, sympy_order = orders
    symbols = sympy.symbols("x y z")
    mine = groebner_basis(Ideal(gens), order)
    theirs = sympy.groebner(
        [to_sympy(g, symbols) for g in gens],
        *symbols,
        order=sympy_order,
        domain="QQ",
    )
    if mine.is_unit:
        assert list(theirs.exprs) == [1]
    else:
        converted = sorted(
            (from_sympy(e, symbols, _XYZ) for e in theirs.exprs),
            key=lambda p: order.key(p.leading(order)[0]),
        )
        assert list(mine.gens) == converted
    _, remainder = theirs.reduce(to_sympy(f, symbols))
    assert mine.normal_form(f) == from_sympy(remainder, symbols, _XYZ)


def chain_saturation(ideal, f):
    """I : f^infty with a monomial f taken one variable at a time: one
    elimination per variable of its support; the reduced grlex basis of I
    for a constant f."""
    if not f.is_term():
        return _saturate_single(ideal, f)
    ((e, _),) = f.terms.items()
    for name, x in zip(ideal.vars, e):
        if x:
            ideal = _saturate_single(ideal, Polynomial.variable(name, ideal.vars))
    return groebner_basis(ideal)


# linear forms in x, y, z times a monomial: after the monomial factor on
# the saturator's support is divided out, many are linear and take the
# rref route of ``saturate``
_generated_linear = st.tuples(
    st.tuples(*(st.integers(0, 1) for _ in _XYZ)),
    st.dictionaries(
        st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]),
        st.integers(-5, 5).filter(bool),
        min_size=1,
        max_size=4,
    ),
).map(
    lambda ft: Polynomial(
        {tuple(a + b for a, b in zip(ft[0], e)): c for e, c in ft[1].items()}, _XYZ
    )
)


# non-monomial factors of a saturator: two or three terms of degree at
# most one, so no monomial divides them
_generated_factor = st.dictionaries(
    st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]),
    st.integers(-3, 3).filter(bool),
    min_size=2,
    max_size=3,
).map(lambda terms: Polynomial(terms, _XYZ))


@settings(max_examples=60, deadline=None)
@given(
    gens=st.one_of(
        st.lists(_generated_poly, min_size=1, max_size=3),
        st.lists(_generated_linear, min_size=1, max_size=3),
    ),
    exponents=st.tuples(*(st.integers(0, 2) for _ in _XYZ)),
    factor=st.one_of(st.none(), _generated_factor),
)
@example(gens=[Polynomial({(0, 0, 0): -1}, _XYZ)], exponents=(0, 0, 0), factor=None)
@example(
    gens=[poly_parse("x*y - x*z", _XYZ), poly_parse("x^2*z + x*z", _XYZ)],
    exponents=(1, 0, 0),
    factor=poly_parse("y + 1", _XYZ),
)
def test_saturate_matches_chain_and_sympy_generated(gens, exponents, factor):
    # f is a monomial m, or m times a non-monomial factor g; the chain
    # saturates by g, then by m
    ideal = Ideal(gens, _XYZ)
    m = Polynomial({exponents: 1}, _XYZ)
    f = m if factor is None else m * factor
    mine = saturate(ideal, f)
    assert isinstance(mine, GroebnerBasis)
    assert groebner_basis(mine) is mine
    chain = ideal if factor is None else _saturate_single(ideal, factor)
    assert mine.gens == chain_saturation(chain, m).gens
    # sympy: eliminate a tag variable from I + (1 - tag*f) in a block order,
    # grevlex on the tag then grevlex on x, y, z (full lex can take minutes)
    symbols = sympy.symbols("x y z")
    tag = sympy.Symbol("tag")
    elim = sympy.groebner(
        [to_sympy(g, symbols) for g in ideal.gens] + [1 - tag * to_sympy(f, symbols)],
        tag,
        *symbols,
        order=ProductOrder((grevlex, lambda e: e[:1]), (grevlex, lambda e: e[1:])),
    )
    kept = [e for e in elim.exprs if tag not in e.free_symbols]
    theirs = sympy.groebner(kept, *symbols, order="grlex")
    basis = groebner_basis(mine)
    if basis.is_unit:
        assert list(theirs.exprs) == [1]
    else:
        order = grlex(3)
        converted = sorted(
            (from_sympy(e, symbols, _XYZ).monic(order) for e in theirs.exprs),
            key=lambda p: order.key(p.leading(order)[0]),
        )
        assert list(basis.gens) == converted


@settings(max_examples=10, deadline=None)
@given(
    ray=st.sampled_from(sorted(CONIC_RAYS)),
    value=st.lists(st.integers(-6, 6), min_size=3, max_size=3),
    velocity=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
def test_saturated_equations_match_chain_on_generated_conic_curves(
    ray, value, velocity
):
    # a linear data curve entering the ray's slope hyperplane at t = 0,
    # under the valuation ansatz of the ray (the coordinates t1, t2 are the
    # unknowns x, y of the conic parametrization)
    assume(sum(a * b for a, b in zip(velocity, ray)) != 0)
    pivot = next(i for i, x in enumerate(ray) if x)
    value = [Fraction(a) for a in value]
    value[pivot] = -sum(value[i] * ray[i] for i in range(3) if i != pivot) / ray[pivot]
    curve = DataCurve.parse([f"{a}+({b})*t" for a, b in zip(value, velocity)])
    system = critical_system(conic_spec(), curve.components)
    rescaled, ring, extra = rescaled_system(system, ray[:2])
    # the chain: t, then every unknown, then every saturator
    chain = Ideal(rescaled, ring)
    for name in ring[-1:] + ring[:-1]:
        chain = chain_saturation(chain, Polynomial.variable(name, ring))
    for f in extra:
        chain = chain_saturation(chain, f)
    with Job():
        assert _saturated_equations(rescaled, ring, extra).gens == chain.gens


def t0_part(equations, unknowns):
    """The nonzero t^0 parts of equations in (unknowns, t)."""
    layer = []
    for g in equations:
        terms = {e[:-1]: c for e, c in g.terms.items() if e[-1] == 0}
        if terms:
            layer.append(Polynomial(terms, unknowns))
    return layer


def on_torus(layer, unknowns):
    """The layer's ideal saturated by the torus of the unknowns."""
    torus = Polynomial({(1,) * len(unknowns): Fraction(1)}, unknowns)
    return saturate(Ideal(layer, unknowns), torus)


@pytest.mark.parametrize(
    "spec, rays",
    [
        (conic_spec(), CONIC_RAYS),
        (coin_spec(), COIN_RAYS),
        (four_lines_spec(), FOUR_LINES_RAYS),
    ],
    ids=["conic", "coin", "four_lines"],
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_ansatz_layer_matches_a_saturation_per_ansatz(spec, rays, data):
    # the t = 0 layer of one ansatz by the route that saturates the
    # rescaled system on its own (rescale, saturate by the torus of
    # (unknowns, t) and the rescaled saturators, take the t^0 part) equals
    # the t^0 part of the rescaled cone basis of the curve's critical
    # ideal, both on the torus of the unknowns.  A linear data curve that
    # enters a ray's slope hyperplane at t = 0 adds the ray's ansatz, whose
    # layer has points on the torus; most other layers are the unit ideal
    p, n = spec.p, len(spec.unknowns)
    value = data.draw(st.lists(st.integers(-6, 6), min_size=p, max_size=p))
    value = [Fraction(a) for a in value]
    velocity = data.draw(st.lists(st.integers(-3, 3), min_size=p, max_size=p))
    weights = data.draw(
        st.lists(
            st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=3, unique=True
        )
    )
    ray = data.draw(st.none() | st.sampled_from(sorted(rays)))
    if ray is not None:
        pivot = next(i for i, x in enumerate(ray) if x)
        rest = sum(value[i] * ray[i] for i in range(p) if i != pivot)
        value[pivot] = -rest / ray[pivot]
        weights.append(_unknown_valuations(spec, ray)[0])
    curve = DataCurve.parse([f"{a}+({b})*t" for a, b in zip(value, velocity)])
    system = critical_system(spec, curve.components)
    unknowns = system.unknowns
    with Job():
        for w in weights:
            rescaled, ring, extra = rescaled_system(system, w)
            old = t0_part(_saturated_equations(rescaled, ring, extra).gens, unknowns)
            _, layer, _ = _ansatz(system, w)
            assert on_torus(old, unknowns).gens == on_torus(layer, unknowns).gens


_XY = ("x", "y")
_quadratic = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: sum(e) <= 2),
    st.integers(-3, 3).filter(bool),
    min_size=1,
    max_size=4,
).map(lambda terms: Polynomial(terms, _XY))
_curve_specs = st.one_of(
    st.lists(_quadratic, min_size=3, max_size=3).map(
        lambda fs: VarietySpec(kind="parametrization", functions=fs)
    ),
    st.just(four_lines_ideal_spec()),
)


@settings(max_examples=40, deadline=None)
@given(spec=_curve_specs, data=st.data())
def test_system_along_curve_equals_substituted_correspondence(spec, data):
    # the critical system built with a linear data curve as its data equals,
    # equation by equation, the system in the s-variables with the curve
    # put in for them; likewise its saturators
    line = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    pairs = data.draw(st.lists(line, min_size=spec.p, max_size=spec.p))
    curve = DataCurve.parse([f"{a}+({b})*t" for a, b in pairs])
    with Job():
        direct = critical_system(spec, curve.components)
        symbolic = critical_system(spec, symbolic_data(spec))
    assert direct.ring == spec.unknowns + ("t",)
    mapping = {
        s: c.extend_ring(direct.ring) for s, c in zip(spec.svars, curve.components)
    }
    substituted = [substitute(eq, mapping) for eq in symbolic.equations]
    if spec.kind == "ideal":  # the minors system drops the vanishing minors
        substituted = [eq for eq in substituted if not eq.is_zero]
    assert direct.equations == substituted
    assert direct.saturators == [substitute(f, mapping) for f in symbolic.saturators]


_rational_roots = st.fractions(min_value=-6, max_value=6, max_denominator=3)
_roots_and_coordinates = dict(
    reals=st.lists(_rational_roots, min_size=1, max_size=3, unique=True),
    double=st.booleans(),
    pair=st.one_of(
        st.none(),
        st.tuples(st.integers(-3, 3), st.integers(1, 6)).filter(
            lambda bc: bc[0] ** 2 < 4 * bc[1]
        ),
    ),
    g=st.tuples(*(st.integers(-3, 3) for _ in range(3))),
    matrix=st.tuples(*(st.integers(-2, 2) for _ in range(4))).filter(
        lambda m: m[0] * m[3] != m[1] * m[2]
    ),
)


def _chosen_points(reals, double, pair):
    """u(s) with the given rational roots, the first one twice if
    ``double``, times the irreducible s^2 + b s + c of ``pair``."""
    s = sympy.Symbol("s")
    roots = [sympy.Rational(r.numerator, r.denominator) for r in reals]
    u = sympy.Mul(*(s - r for r in roots))
    if double:
        u *= s - roots[0]
    if pair:
        u *= s**2 + pair[0] * s + pair[1]
    return sympy.Poly(u, s)


def _ideal_in_new_coordinates(u, g, matrix, k=1):
    """Generators (u(s), (t - g(s))^k) in x, y, where s = a x + b y and
    t = c x + d y: the points (s, g(s)) at the roots s of u."""
    a, b, c, d = matrix
    s_text, t_text = f"({a}*x+{b}*y)", f"({c}*x+{d}*y)"
    u_text = "+".join(
        f"({q})*{s_text}^{i}" for i, q in enumerate(reversed(u.all_coeffs()))
    )
    g_text = f"{g[0]}+{g[1]}*{s_text}+{g[2]}*{s_text}^2"
    vars = ("x", "y")
    return [poly_parse(u_text, vars), poly_parse(f"({t_text}-({g_text}))^{k}", vars)]


@settings(max_examples=40, deadline=None)
@given(**_roots_and_coordinates, seed=st.integers(0, 2**16))
@example(  # a double root
    reals=[Fraction(1)], double=True, pair=None, g=(0, 1, 0), matrix=(1, 0, 0, 1),
    seed=4,
)
@example(  # a complex-conjugate pair
    reals=[Fraction(2)], double=False, pair=(0, 1), g=(1, 0, 1), matrix=(1, 1, 0, 1),
    seed=4,
)
@example(  # the first form, (-2, 16), is constant on the double point
    reals=[Fraction(3)], double=True, pair=None, g=(0, 2, 2), matrix=(0, -1, -2, 2),
    seed=19639,
)
def test_solve_zero_dim_numeric_matches_sympy_roots(
    reals, double, pair, g, matrix, seed
):
    # the distinct points are sympy's roots of u mapped back to (x, y)
    u = _chosen_points(reals, double, pair)
    G = groebner_basis(Ideal(_ideal_in_new_coordinates(u, g, matrix)))
    a, b, c, d = matrix
    det = a * d - b * c
    expected = []
    for root in sympy.roots(u):
        sv = complex(sympy.N(root, 30))
        tv = g[0] + g[1] * sv + g[2] * sv**2
        expected.append(((d * sv - b * tv) / det, (a * tv - c * sv) / det))

    with Job(seed=seed):
        points = solve_zero_dim_numeric(G)
    assert len(points) == len(expected)
    for point in points:
        tol = 1e-9 * max(1.0, *(abs(z) for z in point))
        [match] = [
            e for e in expected if max(abs(z - w) for z, w in zip(point, e)) < tol
        ]
        # real points come out real, complex ones in exactly conjugate pairs
        if all(abs(w.imag) < 1e-12 for w in match):
            assert all(z.imag == 0 for z in point)
        else:
            assert tuple(z.conjugate() for z in point) in points


@settings(max_examples=30, deadline=None)
@given(**_roots_and_coordinates, thick=st.booleans())
def test_squarefree_check_matches_sympy_radical(
    reals, double, pair, g, matrix, thick
):
    # (u(s), (t - g(s))^k) is radical iff u is squarefree and k = 1; sympy
    # decides the same through the squarefree parts of its lex eliminants
    u = _chosen_points(reals, double, pair)
    gens = _ideal_in_new_coordinates(u, g, matrix, 2 if thick else 1)
    G = groebner_basis(Ideal(gens))
    x, y = sympy.symbols("x y")
    exprs = [to_sympy(f, (x, y)) for f in gens]
    eliminants = [
        sympy.groebner(exprs, *order, order="lex").exprs[-1]
        for order in ((x, y), (y, x))
    ]
    sympy_radical = all(
        sympy.degree(sympy.sqf_part(f)) == sympy.degree(f) for f in eliminants
    )
    assert sympy_radical == (not double and not thick)
    assert squarefree_check(G, quotient_basis(G)) == sympy_radical


def test_elimination_matches_sympy():
    # implicitization of the twisted cubic
    vars = ("t", "x", "y", "z")
    gens = [
        Polynomial.parse("x-t", vars),
        Polynomial.parse("y-t^2", vars),
        Polynomial.parse("z-t^3", vars),
    ]
    from tropcrit.groebner import eliminate

    J = eliminate(Ideal(gens, vars), ["x", "y", "z"])
    t, x, y, z = sympy.symbols("t x y z")
    G = sympy.groebner([x - t, y - t**2, z - t**3], t, x, y, z, order="lex")
    theirs = [e for e in G.exprs if t not in e.free_symbols]
    assert len(theirs) == 4  # lex basis of the curve keeps four elements
    basis = groebner_basis(J)
    symbols = sympy.symbols("x y z")
    for e in theirs:
        assert basis.contains(from_sympy(e, symbols, ("x", "y", "z")))
    # and conversely every eliminated generator lies in sympy's ideal
    for g in J.gens:
        assert G.contains(to_sympy(g, symbols))


# -- deletion-restriction oracle for chi ----------------------------------------------


def chi_deletion_restriction(rows, nvars):
    """Euler characteristic of the complement by the recursion
    chi(A) = chi(A minus H) - chi(A restricted to H)."""
    if not rows:
        return 1
    (a, c), rest = rows[0], rows[1:]
    # restriction: parametrize the hyperplane a.x + c = 0 and restrict
    pivot = next(i for i, x in enumerate(a) if x)
    restricted = []
    for b, d in rest:
        # substitute x_pivot = -(c + sum_{j != pivot} a_j x_j) / a_pivot
        coeffs = [
            b[j] - b[pivot] * a[j] / a[pivot]
            for j in range(nvars)
            if j != pivot
        ]
        const = d - b[pivot] * c / a[pivot]
        if any(coeffs):
            restricted.append((tuple(coeffs), const))
        elif const == 0:
            # hyperplane contains H entirely: restriction is degenerate,
            # the complement within H is empty
            return chi_deletion_restriction(rest, nvars) - 0
    # deduplicate proportional functionals (they define the same hyperplane)
    unique = []
    for b, d in restricted:
        row = list(b) + [d]
        dup = False
        for u, e in unique:
            urow = list(u) + [e]
            from tropcrit.linalg import rank

            if rank([row, urow]) == 1:
                dup = True
                break
        if not dup:
            unique.append((b, d))
    sub = chi_deletion_restriction(rest, nvars)
    res = chi_deletion_restriction(unique, nvars - 1)
    return sub - res


CASES = [
    # four-lines model
    [((1, 0), 0), ((0, 1), 0), ((1, -1), 0), ((1, 0), -1)],
    # generic triangle
    [((1, 0), 0), ((0, 1), 0), ((1, 1), -1)],
    # pencil of three + one generic
    [((1, 0), 0), ((0, 1), 0), ((1, -1), 0), ((0, 1), -2)],
    # two parallel, one transversal
    [((1, 0), 0), ((1, 0), -1), ((0, 1), 0)],
    # five lines, mixed
    [((1, 0), 0), ((0, 1), 0), ((1, -1), 0), ((1, 1), 0), ((1, 0), -1)],
]


def test_chi_against_deletion_restriction():
    for rows in CASES:
        arr = Arrangement(rows=rows, nvars=2)
        assert chi_complement(arr) == chi_deletion_restriction(rows, 2)


def test_chi_generic_lines_formula():
    # n generic lines: chi(1) = 1 - n + n(n-1)/2, and the ML degree is its
    # absolute value
    generic = {
        2: [((1, 0), 0), ((0, 1), -1)],
        3: [((1, 0), 0), ((0, 1), -1), ((1, 1), -5)],
        4: [((1, 0), 0), ((0, 1), -1), ((1, 1), -5), ((1, -1), -7)],
        5: [
            ((1, 0), 0),
            ((0, 1), -1),
            ((1, 1), -5),
            ((1, -1), -7),
            ((2, 1), -3),
        ],
    }
    for n, rows in generic.items():
        arr = Arrangement(rows=rows, nvars=2)
        expected = 1 - n + n * (n - 1) // 2
        assert chi_complement(arr) == expected
        # lattice sanity: bottom + n lines + C(n,2) generic points
        assert len(intersection_lattice(arr)) == 1 + n + n * (n - 1) // 2
        spec = VarietySpec(kind="arrangement", arrangement=arr)
        assert ml_degree(spec) == abs(expected)


def test_conic_pipeline_robust_to_coefficients():
    # a different conic through the origin with the same Newton polytope
    # has the same rigid rays; its stratum characteristics match as well
    from tropcrit.rings import poly_parse
    from tropcrit.tropical import Ray, find_rigid_rays, stratum_euler_char

    vars = ("t1", "t2", "t3")
    I = Ideal([poly_parse("t3-(t1+2*t2+t1^2+3*t1*t2+t2^2)", vars)])
    rays = find_rigid_rays(I, bound=2)
    assert {r.v for r in rays} == {
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 1),
        (-1, -1, -2),
    }
    assert stratum_euler_char(I, Ray((-1, -1, -2))) == -2


# -- tropical membership and rigid rays ---------------------------------------------


@st.composite
def nonlinear_ideals(draw):
    """Ideals in 2-3 variables of 1-2 generators, each of 2-3 terms with
    exponents in [0, 2] and integer coefficients in [-5, 5], at least one
    generator of degree two or more."""
    vars = _XYZ[: draw(st.integers(2, 3))]
    poly = st.dictionaries(
        st.tuples(*(st.integers(0, 2) for _ in vars)),
        st.one_of(st.integers(-5, -1), st.integers(1, 5)),
        min_size=2,
        max_size=3,
    ).map(lambda terms: Polynomial(terms, vars))
    gens = draw(st.lists(poly, min_size=1, max_size=2))
    assume(any(g.total_degree() >= 2 for g in gens))
    return Ideal(gens, vars)


@settings(max_examples=100, deadline=None)
@given(ideal=nonlinear_ideals(), data=st.data())
def test_screened_membership_matches_fresh_route(ideal, data):
    # the witness test rejects a weight before any cone lookup; every
    # answer, rejected or looked up, equals a Buchberger run of its own
    # followed by saturation by the torus monomial
    box = st.tuples(*(st.integers(-3, 3) for _ in ideal.vars))
    weights = data.draw(st.lists(box, min_size=1, max_size=8, unique=True))
    with Job():
        eng = TropicalEngine(ideal)
        screened = [w for w in weights if eng._screened_out(w)]
        assume(screened)
        for w in weights:
            J = initial_by_fresh_run(eng, w)
            assert eng.contains(w) == (not saturate(J, torus_monomial(J.vars)).is_unit)


def search_ideals():
    """Strategy: the ideals a ray search meets: nonlinear ideals, the torus
    ideals of generated arrangements, and the fixture ideals."""
    arrangements = essential_arrangements().map(
        lambda arr: VarietySpec(kind="arrangement", arrangement=arr).to_ideal()
    )
    fixtures = st.sampled_from(
        [coin_ideal, conic_ideal, four_lines_ideal, five_lines_ideal]
    ).map(lambda make: make())
    return st.one_of(nonlinear_ideals(), arrangements, fixtures)


ZERO_IDEAL = Ideal([], _XYZ[:2])
# a unit ideal whose generators alone screen out only part of the box
UNIT_IDEAL = Ideal([poly_parse("x*y-1", _XYZ[:2]), poly_parse("x*y-2", _XYZ[:2])])


def _box(nvars, bound):
    """The primitive weights of the box [-bound, bound]^nvars, in the
    order of the box search."""
    for w in product(range(-bound, bound + 1), repeat=nvars):
        if any(w) and vec_gcd(w) == 1:
            yield w


@settings(max_examples=100, deadline=None)
@given(ideal=search_ideals(), bound=st.integers(1, 3))
@example(ideal=ZERO_IDEAL, bound=2)
@example(ideal=UNIT_IDEAL, bound=2)
@example(ideal=four_lines_ideal(), bound=4)
@example(ideal=six_lines_ideal(), bound=2)
def test_prevariety_candidates_equal_the_box_screen(ideal, bound):
    # the cells of the witnesses' term pairs hold every box weight that no
    # witness screens out, so after the screen of the witnesses not chosen
    # the candidates are the box screen's survivors, in the box's order
    with Job():
        eng = TropicalEngine(ideal)
        screen = [w for w in _box(eng.nvars, bound) if not eng._screened_out(w)]
        assert eng.candidates(bound) == screen


@settings(max_examples=100, deadline=None)
@given(ideal=search_ideals())
@example(ideal=ZERO_IDEAL)
@example(ideal=UNIT_IDEAL)
@example(ideal=embedded_at_infinity_ideals()[0][0])
@example(ideal=embedded_at_infinity_ideals()[1][0])
def test_tied_differences_bound_the_homogeneity_space_on_search_ideals(ideal):
    # rigidity is read from the rank of the tied differences of each face
    # where that settles it; the box search below shares the face records,
    # so this is its independent check
    with Job():
        check_tied_ranks(TropicalEngine(ideal), 2)


@pytest.mark.filterwarnings("ignore::tropcrit.tropical.ConnectednessAssumed")
@settings(max_examples=25, deadline=None)
@given(ideal=search_ideals())
@example(ideal=ZERO_IDEAL)
@example(ideal=UNIT_IDEAL)
def test_rigid_rays_equal_the_box_search(ideal):
    # membership and rigidity on every primitive box weight, with no
    # candidate enumeration and no face filter
    with Job():
        found = [r.v for r in find_rigid_rays(ideal, bound=2)]
    with Job():
        eng = TropicalEngine(ideal)
        box = [w for w in _box(eng.nvars, 2) if eng.contains(w) and eng.is_rigid(w)]
    assert found == box


# an elementary shear as (i, k, c): c at row i and column i + 1 + k, mod p
_shears = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 3), st.sampled_from([-1, 1])),
    min_size=2,
    max_size=2,
)


def _shear_product(p, shears):
    """(U, U^-1) for the product of the drawn shears in p variables."""
    U = V = shear(p, 0, 0, 1)
    for i, k, c in shears:
        i, j = i % p, (i + 1 + k % (p - 1)) % p
        U, V = mat_mul(U, shear(p, i, j, c)), mat_mul(shear(p, i, j, -c), V)
    return U, V


@pytest.mark.filterwarnings("ignore::tropcrit.tropical.ConnectednessAssumed")
@settings(max_examples=100, deadline=None)
@given(ideal=search_ideals(), shears=_shears)
@example(ideal=load_spec(saturation_surface_spec()).to_ideal(), shears=[(0, 1, 1), (1, 1, -1)])
def test_torus_automorphisms_map_rigid_rays_onto_rigid_rays(ideal, shears):
    # x -> x^U, U in GL_p(Z), is an automorphism of the torus: U maps the
    # image's rigid rays onto I's, each with the same stratum Euler
    # characteristic.  Only the rays whose images stay in the box compare
    bound = 3
    U, V = _shear_product(ideal.nvars, shears)

    def inbox(v):
        return max(map(abs, v)) <= bound

    want = ray_euler_chars(ideal, bound)
    want = {r: chi for r, chi in want.items() if inbox(mat_vec(V, r))}
    got = ray_euler_chars(exponent_image(ideal, U), bound)
    got = {tuple(mat_vec(U, v)): chi for v, chi in got.items() if inbox(mat_vec(U, v))}
    assert got == want


@pytest.mark.filterwarnings("ignore::tropcrit.tropical.ConnectednessAssumed")
@settings(max_examples=20, deadline=None)
@given(arr=essential_arrangements())
@example(arr=four_lines_arrangement(projective=True))
@example(arr=five_lines_arrangement())
def test_box_search_matches_flacet_rays_on_generated_arrangements(arr):
    ideal = VarietySpec(kind="arrangement", arrangement=arr).to_ideal()
    with Job():
        found = [r.v for r in find_rigid_rays(ideal, bound=1)]
    assert found == [r.v for r in flacet_rays(arr)]
