import math
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from models import (
    conic_ideal,
    conic_spec,
    five_lines_ideal,
    four_lines_ideal,
    homogeneity_space,
    initial_by_fresh_run,
    reference_buchberger,
    symbolic_data,
)
from tropcrit import groebner
from tropcrit.errors import (
    DegenerateSample,
    NotZeroDimensional,
    ResourceBudgetExceeded,
)
from tropcrit.groebner import (
    GroebnerBasis,
    Ideal,
    InitialIdealEngine,
    Job,
    eliminate,
    _homogenize,
    _weight_order,
    groebner_basis,
    ideal_dimension,
    minimal_polynomial,
    multiplication_matrix,
    quotient_basis,
    saturate,
    solve_degree_one,
    solve_zero_dim_numeric,
    squarefree_check,
)
from tropcrit.mle import critical_system
from tropcrit.rings import (
    EXPONENT_LIMIT,
    Polynomial,
    TermOrder,
    block_order,
    grlex,
    poly_parse,
)

COIN = ("t0", "t1", "t2")


def coin_ideal():
    return Ideal(
        [
            poly_parse("t0*t2-(t0+t1)*t1", COIN),
            poly_parse("t0+t1+t2-1", COIN),
        ]
    )


def test_containment_collapse():
    vars = ("x",)
    order = block_order(1, ((0,),))
    G = groebner_basis(Ideal([poly_parse("x^2-1", vars), poly_parse("x-1", vars)]), order)
    assert list(G.gens) == [poly_parse("x-1", vars)]


def test_coin_basis_membership_and_s_pairs():
    I = coin_ideal()
    G = groebner_basis(I)
    assert len(G.gens) == 2
    for g in I.gens:
        assert G.contains(g)
    # S-polynomial of the two basis elements reduces to zero
    a, b = G.gens
    assert G.contains(a * b)


def test_unit_ideal():
    G = groebner_basis(Ideal([poly_parse("1", COIN)]))
    assert G.is_unit
    assert list(G.gens) == [poly_parse("1", COIN)]


def test_normal_form_member_is_zero():
    I = coin_ideal()
    G = groebner_basis(I)
    f = I.gens[0] * poly_parse("t1+5", COIN) - I.gens[1] * poly_parse("t2^2", COIN)
    assert G.normal_form(f).is_zero


def test_normal_form_one_mod_proper_ideal():
    G = groebner_basis(coin_ideal())
    one = poly_parse("1", COIN)
    assert G.normal_form(one) == one


def test_normal_form_difference_in_ideal():
    G = groebner_basis(coin_ideal())
    f = poly_parse("t0*t2", COIN)
    r = G.normal_form(f)
    assert G.normal_form(f - r).is_zero


def test_normal_form_random_member_absorption():
    rng = random.Random(13)
    I = coin_ideal()
    G = groebner_basis(I)
    vars = COIN
    for _ in range(10):
        f = I.gens[rng.randrange(2)]
        g = Polynomial(
            {
                tuple(rng.randint(0, 2) for _ in vars): Fraction(rng.randint(-4, 4))
                for _ in range(3)
            },
            vars,
        )
        h = Polynomial(
            {
                tuple(rng.randint(0, 2) for _ in vars): Fraction(rng.randint(-4, 4))
                for _ in range(3)
            },
            vars,
        )
        assert G.normal_form(f * g + h) == G.normal_form(h)


# -- initial ideals ------------------------------------------------------------


def test_initial_ideal_coin_ray():
    I = coin_ideal()
    J = InitialIdealEngine(I).initial((2, 1, 0))
    G = groebner_basis(J)
    assert G.contains(poly_parse("t0*t2-t1^2", COIN))
    assert G.contains(poly_parse("t2-1", COIN))
    # oracle cross-check: no generator is a monomial
    assert not any(g.is_term() for g in J.gens)


def test_initial_ideal_zero_weight_is_identity():
    I = coin_ideal()
    J = InitialIdealEngine(I).initial((0, 0, 0))
    assert groebner_basis(J).gens == groebner_basis(I).gens


def test_initial_ideal_constant_initial_form():
    I = Ideal([poly_parse("t1-1", ("t1",))])
    J = InitialIdealEngine(I).initial((1,))
    assert groebner_basis(J).is_unit


def test_initial_ideal_positive_rescaling_invariance():
    I = coin_ideal()
    eng = InitialIdealEngine(I)
    for w in [(2, 1, 0), (0, 1, 1), (-2, -2, -1), (1, -1, 2)]:
        J1 = eng.initial(w)
        J2 = eng.initial(tuple(3 * x for x in w))
        assert groebner_basis(J1).gens == groebner_basis(J2).gens


def test_initial_ideal_of_nonmember_contains_monomial():
    I = coin_ideal()
    J = InitialIdealEngine(I).initial((1, 0, 0))
    S = saturate(J, poly_parse("t0*t1*t2", COIN))
    assert groebner_basis(S).is_unit if not S.is_zero else False


@pytest.fixture(
    scope="module",
    params=[coin_ideal, conic_ideal, four_lines_ideal, five_lines_ideal],
    ids=["coin", "conic", "four_lines_ideal", "five_lines"],
)
def cone_engine(request):
    """One engine per ideal for all examples, so its cone cache fills up
    and later weights are served from stored cones."""
    return InitialIdealEngine(request.param())


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_initial_from_cone_cache_matches_fresh_run(cone_engine, data):
    coordinate = st.one_of(st.just(0), st.integers(-4, 4))
    p = cone_engine.nvars
    w = tuple(data.draw(st.lists(coordinate, min_size=p, max_size=p)))
    assume(any(w))
    assert cone_engine.initial(w).gens == initial_by_fresh_run(cone_engine, w).gens


# -- saturation ------------------------------------------------------------------


def test_saturate_monomial():
    vars = ("x", "y")
    I = Ideal([poly_parse("x*y", vars)])
    S = saturate(I, poly_parse("x", vars))
    assert S.gens == groebner_basis(Ideal([poly_parse("y", vars)])).gens


def test_saturate_unit():
    vars = ("x", "y")
    I = Ideal([poly_parse("1", vars)])
    S = saturate(I, poly_parse("x+y", vars))
    assert groebner_basis(S).is_unit


def test_saturate_coin_initial_ideal_stays_proper():
    I = coin_ideal()
    J = InitialIdealEngine(I).initial((2, 1, 0))
    S = saturate(J, poly_parse("t0*t1*t2", COIN))
    assert not groebner_basis(S).is_unit


def test_saturate_idempotent():
    vars = ("x", "y")
    I = Ideal([poly_parse("x^2*y-x", vars), poly_parse("x*y^2", vars)])
    f = poly_parse("x*y", vars)
    S1 = saturate(I, f)
    S2 = saturate(S1, f)
    assert S1.gens == S2.gens


def test_saturate_by_laurent_monomial_uses_its_support():
    # a negative exponent still puts its variable in the support
    vars = ("x", "y")
    I = Ideal([poly_parse("x*y-x", vars)])
    for e in [(1, 0), (-1, 0), (-1, 1)]:
        S = saturate(I, Polynomial({e: 1}, vars))
        assert list(S.gens) == [poly_parse("y-1", vars)]


def test_monomial_saturation_is_one_groebner_run(monkeypatch):
    # I : (x*y*z^2)^infty = I : (x*y*z)^infty in one elimination, not one
    # per variable of the support
    runs = []
    real = groebner._buchberger

    def counting(gens, order, budget):
        runs.append(order)
        return real(gens, order, budget)

    monkeypatch.setattr(groebner, "_buchberger", counting)
    vars = ("x", "y", "z")
    I = Ideal([poly_parse("x^2*y-x*z", vars), poly_parse("y*z^2-x", vars)])
    saturate(I, poly_parse("x*y*z^2", vars))
    assert len(runs) == 1


def test_linear_saturation_is_one_rref(monkeypatch):
    # generators of degree one once their monomial factors on the support
    # are divided out span a prime ideal, decided by one rref with no
    # Buchberger run: I itself, or the unit ideal once I holds a variable
    # of the support
    vars = ("x", "y", "z")
    I = Ideal([poly_parse("x*y-x*z-2*x", vars), poly_parse("2*x+y-1", vars)])
    unit = Ideal([poly_parse("y-2*z", vars), poly_parse("x+y-2*z", vars)])
    x, y = (poly_parse(v, vars) for v in "xy")
    expected = groebner._saturate_single(I, x).gens
    proper = groebner._saturate_single(unit, y).gens
    monkeypatch.setattr(groebner, "_buchberger", None)
    for m in ("x^2", "x*z"):
        assert saturate(I, poly_parse(m, vars)).gens == expected
    assert saturate(unit, x).is_unit
    assert saturate(unit, y).gens == proper


def test_linear_saturation_counts_a_step_per_pivot():
    # one rref of a rank-2 matrix: two pivots, two steps of the job
    vars = ("x", "y", "z")
    I = Ideal([poly_parse("x+y-1", vars), poly_parse("y-z", vars)])
    m = poly_parse("x*y*z", vars)
    with Job() as job:
        saturate(I, m)
    assert job.steps == 2
    with Job(2):
        saturate(I, m)
    with pytest.raises(ResourceBudgetExceeded), Job(1):
        saturate(I, m)


def test_saturate_and_eliminate_return_their_reduced_basis(monkeypatch):
    # every route returns the reduced grlex basis it computed, which
    # groebner_basis hands back as it is, with no run
    vars = ("x", "y")
    I = Ideal([poly_parse("x^2*y-x", vars), poly_parse("x*y^2-y+1", vars)])
    zero = Ideal([], vars)
    results = [
        saturate(I, poly_parse("x*y", vars)),
        saturate(I, poly_parse("x+y", vars)),
        saturate(I, poly_parse("3", vars)),
        saturate(zero, poly_parse("x", vars)),
        eliminate(I, ["y"]),
        eliminate(zero, ["x"]),
    ]
    for G in results:
        assert G.gens == groebner_basis(Ideal(G.gens, G.vars)).gens
    assert results[2].gens == groebner_basis(I).gens
    assert results[3].is_zero and results[3].vars == vars
    assert results[5].is_zero and results[5].vars == ("x",)
    runs = []
    monkeypatch.setattr(groebner, "_buchberger", lambda *args: runs.append(args))
    for G in results:
        assert isinstance(G, GroebnerBasis)
        assert groebner_basis(G) is G
    assert not runs


# -- elimination -------------------------------------------------------------------


def test_eliminate_parabola():
    vars = ("t", "x", "y")
    I = Ideal([poly_parse("x-t", vars), poly_parse("y-t^2", vars)])
    J = eliminate(I, ["x", "y"])
    assert J.gens == groebner_basis(Ideal([poly_parse("y-x^2", ("x", "y"))])).gens


def test_eliminate_keep_all():
    # nothing to eliminate: the reduced basis of I, and a basis is its own
    G = eliminate(coin_ideal(), list(COIN))
    assert G.gens == groebner_basis(coin_ideal()).gens
    assert eliminate(G, list(COIN)) is G


# -- degree counts -------------------------------------------------------------------


def test_zero_dim_degree_univariate():
    G = groebner_basis(Ideal([poly_parse("x^2-1", ("x",))]))
    assert len(quotient_basis(G)) == 2


def test_zero_dim_degree_not_zero_dimensional():
    with pytest.raises(NotZeroDimensional):
        quotient_basis(groebner_basis(coin_ideal()))


def test_zero_dim_degree_linear_change_invariance():
    vars = ("x", "y")
    f1 = poly_parse("x^2+y^2-4", vars)
    f2 = poly_parse("x*y-1", vars)
    I = Ideal([f1, f2])
    J = Ideal([f1 + 3 * f2, f2 - f1])
    assert len(quotient_basis(groebner_basis(I))) == 4
    assert len(quotient_basis(groebner_basis(J))) == 4


def test_quotient_basis_and_multiplication_matrix():
    vars = ("x",)
    G = groebner_basis(Ideal([poly_parse("x^2-2", vars)]), grlex(1))
    basis = quotient_basis(G)
    assert basis == [(0,), (1,)]
    m = multiplication_matrix(G, basis, 0)
    assert m == [[Fraction(0), Fraction(2)], [Fraction(1), Fraction(0)]]
    mp = minimal_polynomial(m, [Fraction(1), Fraction(0)])
    assert mp == [Fraction(-2), Fraction(0), Fraction(1)]  # x^2 - 2


def test_solve_degree_one():
    vars = ("x", "y")
    G = groebner_basis(Ideal([poly_parse("x-3", vars), poly_parse("y+2", vars)]))
    assert solve_degree_one(G) == (Fraction(3), Fraction(-2))


def test_solve_zero_dim_numeric():
    vars = ("x", "y")
    G = groebner_basis(Ideal([poly_parse("x^2-1", vars), poly_parse("y-x", vars)]))
    with Job(seed=4):
        sols = solve_zero_dim_numeric(G)
    assert len(sols) == 2
    pts = sorted(round(s[0].real) for s in sols)
    assert pts == [-1, 1]
    for s in sols:
        assert abs(s[0] - s[1]) < 1e-8


def test_solve_zero_dim_numeric_rejects_a_fat_point():
    # on (x^2, xy, y^2) every form has minimal polynomial l^2 on a
    # 3-dimensional algebra: no form has one eigenvector per point
    vars = ("x", "y")
    G = groebner_basis(Ideal([poly_parse(f, vars) for f in ("x^2", "x*y", "y^2")]))
    with pytest.raises(DegenerateSample), Job():
        solve_zero_dim_numeric(G)


@pytest.mark.parametrize(
    "gens, radical",
    [
        (("x^2", "y"), False),
        (("(x+2)^2", "y-1"), False),
        (("x^2-y", "y^2-y"), False),  # a double point at the origin
        (("x^2-1", "y^2-1"), True),
    ],
)
def test_squarefree_check_is_the_radical_test(gens, radical):
    vars = ("x", "y")
    G = groebner_basis(Ideal([poly_parse(f, vars) for f in gens]))
    assert squarefree_check(G, quotient_basis(G)) is radical


# -- homogeneity space ------------------------------------------------------------------


def test_homogeneity_space_of_coin_initial():
    J = Ideal([poly_parse("t0*t2-t1^2", COIN), poly_parse("t2-1", COIN)])
    basis = homogeneity_space(J)
    assert len(basis) == 1
    v = basis[0]
    # solves u0 - 2*u1 + u2 = 0 and u2 = 0, i.e. span{(2,1,0)}
    assert v[2] == 0 and v[0] == 2 * v[1]


def test_homogeneity_space_zero_ideal():
    I = Ideal([], COIN)
    assert len(homogeneity_space(I)) == 3


def test_homogeneity_space_monomial_ideal():
    I = Ideal([poly_parse("t0*t1^2", COIN), poly_parse("t2^3", COIN)])
    assert len(homogeneity_space(I)) == 3


def test_homogeneity_space_contains_weight():
    I = coin_ideal()
    eng = InitialIdealEngine(I)
    for w in [(2, 1, 0), (0, 1, 1), (-2, -2, -1), (1, 2, -1)]:
        J = eng.initial(w)
        basis = homogeneity_space(J)
        # w must lie in the span of the homogeneity basis
        from tropcrit.linalg import rank

        rows = [list(map(Fraction, b)) for b in basis]
        assert rank(rows + [[Fraction(x) for x in w]]) == len(basis)


# -- dimension ----------------------------------------------------------------------------


def test_ideal_dimension():
    assert ideal_dimension(coin_ideal()) == 1
    assert ideal_dimension(Ideal([poly_parse("x^2-1", ("x", "y"))])) == 1
    assert ideal_dimension(Ideal([poly_parse("1", ("x", "y"))])) == -1
    assert ideal_dimension(Ideal([], ("x", "y"))) == 2


def test_zero_ideal_basis_keeps_its_ring():
    G = groebner_basis(Ideal([], ("x", "y")))
    assert G.is_zero and G.vars == ("x", "y")
    assert ideal_dimension(G) == 2
    assert len(homogeneity_space(G)) == 2


def test_budget_abort():
    # cyclic-5-like workload with a tiny budget aborts cleanly
    vars = ("a", "b", "c")
    gens = [
        poly_parse("a+b+c", vars),
        poly_parse("a*b+b*c+c*a", vars),
        poly_parse("a*b*c-1", vars),
    ]
    with pytest.raises(ResourceBudgetExceeded), Job(3):
        groebner_basis(Ideal(gens))


def test_pair_selection_data_computed_once_per_pair(monkeypatch):
    # exactly one lcm per pair, 185 on these saturations; recomputing the
    # popped pair's lcm at each selection takes 370, and rescanning every
    # pending pair 3,741, for the same 362 steps.  The
    # workload saturates the conic system of the likelihood correspondence
    # (data the s-variables) by one saturator at a time, as a chain of runs.
    spec = conic_spec()
    system = critical_system(spec, symbolic_data(spec))
    calls = []
    real = groebner._lcm

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(groebner, "_lcm", counting)
    with Job() as job:
        I = Ideal(system.equations, system.ring)
        for f in system.saturators:
            I = saturate(I, f)
    assert len(calls) == 185
    assert job.steps == 362


def test_job_budget_spans_calls():
    # two runs that each fit under the limit exceed it together
    vars = ("a", "b", "c")
    gens = [
        poly_parse("a+b+c", vars),
        poly_parse("a*b+b*c+c*a", vars),
        poly_parse("a*b*c-1", vars),
    ]
    with Job() as job:
        groebner_basis(Ideal(gens))
    steps = job.steps
    assert steps > 0
    with Job(steps):
        groebner_basis(Ideal(gens))
        with pytest.raises(ResourceBudgetExceeded):
            groebner_basis(Ideal(gens))


def test_job_once_makes_each_key_once_per_job():
    made = []

    def make(key):
        made.append(key)
        return [key]

    with Job() as job:
        first = job.once("a", lambda: make("a"))
        assert job.once("a", lambda: make("again")) is first
        assert job.once("b", lambda: make("b")) == ["b"]
    assert made == ["a", "b"]
    with Job() as fresh:
        assert fresh.once("a", lambda: make("a")) is not first
    assert made == ["a", "b", "a"]


def test_job_once_make_may_call_once():
    # as _ansatz and torus_saturation do: the inner value is kept under
    # its own key, and the outer make's value under the outer key
    job = Job()
    calls = []

    def inner():
        calls.append("inner")
        return 2

    def outer():
        calls.append("outer")
        return job.once("inner", inner) + 1

    assert job.once("outer", outer) == 3
    assert job.once("outer", outer) == 3
    assert job.once("inner", inner) == 2
    assert calls == ["outer", "inner"]


def test_job_once_keeps_nothing_when_make_raises():
    job = Job()

    def failing():
        raise ResourceBudgetExceeded("no")

    with pytest.raises(ResourceBudgetExceeded):
        job.once("k", failing)
    assert job.once("k", lambda: "made") == "made"


_XYZ = ("x", "y", "z")


@settings(max_examples=60, deadline=None)
@given(
    gens=st.lists(
        st.tuples(
            st.integers(1, 6),
            st.dictionaries(
                st.tuples(*(st.integers(0, 2) for _ in _XYZ)),
                st.integers(-5, 5).filter(bool),
                min_size=1,
                max_size=3,
            ),
        ).map(lambda ft: Polynomial({e: ft[0] * c for e, c in ft[1].items()}, _XYZ)),
        min_size=1,
        max_size=3,
    )
)
def test_kernel_basis_is_primitive_over_z(gens):
    # every polynomial the kernel keeps, generators with a common factor
    # included, has coprime integer coefficients and a positive leading
    # one; its keys are packed monomials, so the leading one is the max
    kept = []
    real = groebner._interreduce

    def spy(polys, *args):
        kept.extend(polys)
        return real(polys, *args)

    order = grlex(3)
    with patch.object(groebner, "_interreduce", spy):
        groebner_basis(Ideal(gens), order)
    for p in kept:
        assert all(type(c) is int for c in p.values())
        assert math.gcd(*p.values()) == 1
        assert all(type(e) is int for e in p)
        assert p[max(p)] > 0


_factor_exponents = st.tuples(*(st.integers(0, 2) for _ in _XYZ))
# a polynomial with a monomial factor, drawn as factor and cofactor terms
_factored = st.tuples(
    _factor_exponents,
    st.dictionaries(
        _factor_exponents,
        st.integers(-5, 5).filter(bool),
        min_size=1,
        max_size=3,
    ),
).map(
    lambda ft: Polynomial(
        {tuple(a + b for a, b in zip(ft[0], e)): c for e, c in ft[1].items()},
        _XYZ,
    )
)


@settings(max_examples=60, deadline=None)
@given(gens=st.lists(_factored, min_size=1, max_size=3), exponents=_factor_exponents)
def test_saturate_by_monomial_matches_unstripped_run(gens, exponents):
    # generators carry monomial factors; dividing them out on the support
    # of the monomial before the run leaves the reduced basis unchanged
    assume(any(exponents))
    ideal = Ideal(gens, _XYZ)
    squarefree = Polynomial({tuple(int(x > 0) for x in exponents): 1}, _XYZ)
    m = Polynomial({exponents: 1}, _XYZ)
    assert saturate(ideal, m).gens == groebner._saturate_single(ideal, squarefree).gens


@settings(max_examples=60, deadline=None)
@given(gen=_factored, exponents=_factor_exponents)
def test_one_generator_monomial_saturation_is_the_stripped_generator(gen, exponents):
    # (x^a h) : m^infty = (h) when no variable of m divides h: saturate
    # returns h made monic with no Groebner run, the basis of one
    # elimination by the squarefree monomial
    assume(any(exponents))
    ideal = Ideal([gen], _XYZ)
    squarefree = Polynomial({tuple(int(x > 0) for x in exponents): 1}, _XYZ)
    want = groebner._saturate_single(ideal, squarefree).gens
    with patch.object(groebner, "_buchberger", None), Job() as job:
        got = saturate(ideal, Polynomial({exponents: 1}, _XYZ))
    assert got.gens == want and job.steps == 0


@st.composite
def _kernel_inputs(draw):
    """(generators, order) for the kernel oracle: 1-4 generators over 2-4
    variables with exponents 0-3 and coefficients +-7, some with a common
    integer or monomial factor, some the constant 1; the order is grlex,
    the weight order of a drawn w on the homogenized generators, a block
    order or lex."""
    n = draw(st.integers(2, 4))
    vars = tuple(f"x{i}" for i in range(n))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 9)) == 0:
            gens.append(Polynomial.constant(1, vars))
            continue
        terms = draw(
            st.dictionaries(
                exponents, st.integers(-7, 7).filter(bool), min_size=1, max_size=4
            )
        )
        factor = draw(st.sampled_from([1, 1, 2, 6]))
        shift = draw(st.sampled_from([(0,) * n, (0,) * n, draw(exponents)]))
        gens.append(
            Polynomial(
                {tuple(map(sum, zip(e, shift))): factor * c for e, c in terms.items()},
                vars,
            )
        )
    kind = draw(st.sampled_from(["grlex", "weight", "blocks", "lex"]))
    if kind == "grlex":
        return gens, grlex(n)
    if kind == "lex":
        return gens, TermOrder([])
    if kind == "weight":
        w = draw(st.tuples(*[st.integers(-3, 3)] * n))
        hvars = vars + ("_h",)
        return [_homogenize(g, hvars) for g in gens], _weight_order(w)
    perm = draw(st.permutations(range(n)))
    cut = draw(st.integers(1, n - 1))
    return gens, block_order(n, (tuple(perm[:cut]), tuple(sorted(perm[cut:]))))


def _run(kernel, gens, order):
    """(basis as (vars, term list) pairs, or the exception type; steps)."""
    with Job(400) as job:
        try:
            out = [(g.vars, list(g.terms.items())) for g in kernel(gens, order, job)]
        except ResourceBudgetExceeded as exc:
            out = type(exc)
    return out, job.steps


@settings(max_examples=200, deadline=None)
@given(_kernel_inputs())
def test_packed_kernel_matches_tuple_kernel(inputs):
    # the packed kernel takes the same steps and returns the same basis,
    # term for term in dict order, as the tuple-keyed reference; a run
    # that exceeds the budget does so at the same step on both
    gens, order = inputs
    assert _run(groebner._buchberger, gens, order) == _run(
        reference_buchberger, gens, order
    )


def test_exponent_limit_raises_instead_of_misordering():
    # x^2 reduces to x y^k, then to y^2k, which reaches the limit L for
    # k = L/2 and stays just below it for k = L/2 - 1
    lex = TermOrder([])
    x, y = Polynomial.variable("x", ("x", "y")), Polynomial.variable("y", ("x", "y"))
    k = EXPONENT_LIMIT // 2
    with pytest.raises(ResourceBudgetExceeded):
        groebner_basis(Ideal([x - y**k]), lex).normal_form(x**2)
    got = groebner_basis(Ideal([x - y ** (k - 1)]), lex).normal_form(x**2)
    assert got == y ** (2 * k - 2)


def test_degree_field_holds_every_exponent_just_below_the_limit():
    # four exponents of L - 1 and a fifth of 5 sum past 4L: the degree
    # field is wide enough that no exponent field reads a carry
    vars = ("a", "b", "c", "d", "e")
    f = Polynomial({(5,) + (EXPONENT_LIMIT - 1,) * 4: 1, (0, 0, 0, 0, 1): 1}, vars)
    G = groebner_basis(Ideal([poly_parse("a^6 - 1", vars)]), TermOrder([]))
    assert G.normal_form(f) == f


def test_kernel_rejects_exponents_out_of_its_fields_on_entry():
    vars = ("x", "y")
    big = Polynomial({(EXPONENT_LIMIT, 0): 1, (0, 1): 1}, vars)
    with pytest.raises(ResourceBudgetExceeded):
        groebner_basis(Ideal([big]))
    with pytest.raises(ResourceBudgetExceeded):
        groebner_basis(Ideal([poly_parse("x*y - 1", vars)])).normal_form(big)


def test_laurent_terms_pass_normal_form_unchanged():
    # the kernel takes no negative exponent: a Laurent f is rejected on
    # entry rather than divided
    vars = ("x", "y")
    G = groebner_basis(Ideal([poly_parse("x*y - 1", vars)]))
    with pytest.raises(ValueError, match="negative exponent"):
        G.normal_form(poly_parse("x^-1 + x^2*y", vars))
