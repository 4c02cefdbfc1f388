from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings

from models import (
    COIN_RAYS,
    FOUR_LINES_RAYS,
    coin_spec,
    conic_ideal,
    conic_spec,
    essential_arrangements,
    five_lines_arrangement,
    four_lines_arrangement,
    four_lines_ideal_spec,
    four_lines_spec,
)
from tropcrit.arrangement import chi_complement
from tropcrit.errors import MLDegreeNotOne, UnbalancedRays
from tropcrit import mle
from tropcrit.groebner import Ideal, Job
from tropcrit.mle import (
    VarietySpec,
    _linear_parametrization,
    _torus_saturation,
    critical_system,
    ml_degree,
    mle_closed_form,
    sample_alpha,
    saturated_critical_ideal,
    torus_euler_characteristic,
)
from tropcrit.rings import Polynomial, poly_parse
from tropcrit.tropical import Ray, find_rigid_rays, stratum_model


# -- critical systems --------------------------------------------------------------


def test_conic_critical_system_matches_displayed_equations():
    # data vector (2, 1, -3/2): the cleared gradient equations agree with
    #   x + 2tx - 2x^2 + ... at t = 0, up to the unit factors y (resp. x)
    # and the overall constant 2 used to clear the -3/2
    spec = conic_spec()
    alpha = (Fraction(2), Fraction(1), Fraction(-3, 2))
    system = critical_system(spec, alpha)
    vars = ("x", "y")
    displayed1 = poly_parse("x - 2*x^2 + 4*y + x*y + 4*y^2", vars)
    displayed2 = poly_parse("2*x + 2*x^2 - y - x*y - 4*y^2", vars)
    y = poly_parse("y", vars)
    x = poly_parse("x", vars)
    assert 2 * system.equations[0] == y * displayed1
    assert 2 * system.equations[1] == x * displayed2


def test_conic_critical_system_along_curve_matches_displayed():
    # same check at general t with the curve (2+t, 1+t, -3/2)
    spec = conic_spec()
    vars = ("x", "y", "tcurve")
    system = critical_system(spec, None)  # symbolic
    ring = system.ring
    curve = {
        "s1": poly_parse("2+tcurve", vars),
        "s2": poly_parse("1+tcurve", vars),
        "s3": poly_parse("-3/2", vars),
    }
    eq1 = system.equations[0].subs_polys(curve)
    displayed1 = poly_parse(
        "x + 2*tcurve*x - 2*x^2 + 2*tcurve*x^2 + 4*y + 2*tcurve*y"
        "+ x*y + 2*tcurve*x*y + 4*y^2 + 2*tcurve*y^2",
        vars,
    )
    y = poly_parse("y", vars)
    assert 2 * eq1 == y * displayed1


def test_monomial_tuple_has_no_critical_points():
    # F = (x) on the punctured line: dlog never vanishes
    spec = VarietySpec(kind="parametrization", functions=[poly_parse("x", ("x",))])
    assert ml_degree(spec) == 0


def test_coin_symbolic_incidence_elimination_gives_slopes():
    # boundary slices of the incidence variety project onto the slope
    # hyperplanes: setting t0 = 0 forces 2s0+s1 = 0, t2 = 0 forces s1+s2=0
    from tropcrit.groebner import eliminate, saturate

    from tropcrit.rings import grlex

    spec = coin_spec()
    system = critical_system(spec, None)
    I = saturated_critical_ideal(system)
    svars = list(system.data_vars)
    for var, expected in [("t0", "2*s0+s1"), ("t2", "s1+s2")]:
        J = Ideal(
            list(I.gens) + [Polynomial.variable(var, system.ring)], system.ring
        )
        out = eliminate(J, svars)
        target = poly_parse(expected, tuple(svars))
        # principal ideal generated by a power of the slope linear form
        assert len(out.gens) == 1
        [g] = out.gens
        order = grlex(len(svars))
        power = target ** g.total_degree()
        assert g.monic(order) == power.monic(order)


# -- ML degrees -----------------------------------------------------------------------


def test_four_lines_boundary_slice_eliminates_to_slope():
    # intersecting the incidence variety with {f2 = 0}, away from the
    # deeper strata, projects exactly onto the hyperplane s2 = 0
    from tropcrit.groebner import eliminate, saturate

    spec = four_lines_spec()
    system = critical_system(spec, None)
    I = saturated_critical_ideal(system)
    J = Ideal(
        list(I.gens) + [Polynomial.variable("y", system.ring)], system.ring
    )
    J = saturate(J, poly_parse("x", system.ring))
    J = saturate(J, poly_parse("x-1", system.ring))
    out = eliminate(J, ["s1", "s2", "s3", "s4"])
    assert [str(g) for g in out.gens] == ["s2"]


def test_ml_degree_rejects_alpha_on_given_slopes():
    from tropcrit.tropical import SlopeHyperplane

    # the rejection path only skips samples; the answer is unchanged
    slopes = [SlopeHyperplane(normal=v) for v in FOUR_LINES_RAYS]
    assert ml_degree(four_lines_spec(), slopes=slopes) == 1


def test_ml_degree_coin_is_one_both_formulations():
    spec = coin_spec()
    assert ml_degree(spec, formulation="minors") == 1
    assert ml_degree(spec, formulation="lagrange") == 1


def test_ml_degree_four_lines_is_one():
    assert ml_degree(four_lines_spec()) == 1


def test_ml_degree_conic_is_three():
    assert ml_degree(conic_spec()) == 3


def test_ml_degree_conic_ideal_kind_matches():
    spec = VarietySpec(kind="ideal", ideal=conic_ideal())
    assert ml_degree(spec) == 3


def test_ml_degree_invariant_under_tuple_permutation():
    fs = conic_spec().functions
    perm = [fs[2], fs[0], fs[1]]
    spec = VarietySpec(kind="parametrization", functions=perm)
    assert ml_degree(spec) == 3


def test_ml_degree_matches_chi_for_arrangements():
    arrangements = [
        four_lines_arrangement(),
        # generic 3 lines
        [((1, 0), 0), ((0, 1), 0), ((1, 1), -1)],
        # central 3 lines
        [((1, 0), 0), ((0, 1), 0), ((1, -1), 0)],
        # 2 parallel + 1 transversal
        [((1, 0), 0), ((1, 0), -1), ((0, 1), 0)],
    ]
    for arr in arrangements:
        if not isinstance(arr, type(four_lines_arrangement())):
            from tropcrit.arrangement import Arrangement

            arr = Arrangement(rows=arr, nvars=2)
        spec = VarietySpec(kind="arrangement", arrangement=arr)
        assert abs(chi_complement(arr)) == ml_degree(spec)


def test_torus_euler_characteristic_direct_cases():
    # zero-dimensional: two torus points
    I = Ideal([poly_parse("t1^2-4", ("t1",))])
    assert torus_euler_characteristic(I) == 2
    # punctured line C^* has Euler characteristic 0 (zero ideal)
    Z = Ideal([], ("t1",))
    assert torus_euler_characteristic(Z) == 0
    # conic stratum: P^1 minus four points
    I2 = Ideal([poly_parse("t2-(t1+1+t1^-1)", ("t1", "t2")).laurent_normalize()])
    chi = torus_euler_characteristic(I2)
    assert chi in (-2, -1, 0)  # sanity bound; exact value checked elsewhere


def _record_saturations(monkeypatch):
    """(saturations, dimensions): every (ideal gens, saturator, result gens)
    of mle.saturate and every ideal mle.ideal_dimension is asked about."""
    saturations = []
    dimensions = []
    real_saturate = mle.saturate
    real_dimension = mle.ideal_dimension

    def counting_saturate(I, f):
        out = real_saturate(I, f)
        saturations.append((I.gens, f, out.gens))
        return out

    def counting_dimension(G):
        dimensions.append(G)
        return real_dimension(G)

    monkeypatch.setattr(mle, "saturate", counting_saturate)
    monkeypatch.setattr(mle, "ideal_dimension", counting_dimension)
    return saturations, dimensions


def test_torus_euler_characteristic_saturates_once(monkeypatch):
    # the stratum's critical system needs the codimension of sat, which the
    # Euler characteristic already computed: no saturation is run again on
    # its own result, and one dimension count, however often ml_degree
    # samples (a nonlinear conic stratum, counted in its own ideal)
    saturations, dimensions = _record_saturations(monkeypatch)
    stratum = stratum_model(conic_ideal(), Ray((0, 0, 1))).ideal
    with Job():
        chi = torus_euler_characteristic(stratum)
    assert chi == -3
    for k, (gens, _, _) in enumerate(saturations):
        assert gens not in [out for _, _, out in saturations[:k]]
    assert len(dimensions) == 1


def test_linear_torus_euler_characteristic_saturates_each_pair_once(monkeypatch):
    # a linear ideal is counted by the dlog system of its parametrization,
    # which saturates by one coordinate function after another, each on the
    # last result: still no (ideal, saturator) pair twice, and one
    # dimension count
    saturations, dimensions = _record_saturations(monkeypatch)
    with Job():
        chi = torus_euler_characteristic(four_lines_ideal_spec().ideal)
    assert chi == chi_complement(four_lines_arrangement())
    pairs = [(gens, f) for gens, f, _ in saturations]
    assert len(pairs) > 1 and len(pairs) == len(set(pairs))
    assert len(dimensions) == 1


@pytest.mark.filterwarnings("ignore::tropcrit.tropical.ConnectednessAssumed")
@settings(max_examples=20, deadline=None)
@given(arr=essential_arrangements())
@example(arr=four_lines_arrangement())
@example(arr=five_lines_arrangement())
def test_linear_stratum_count_matches_ideal_count(arr):
    # on every rigid-ray stratum of an arrangement the saturated ideal G is
    # linear and positive-dimensional, and the critical points counted in
    # its own coordinates number ml_degree of G itself
    ideal = VarietySpec(kind="arrangement", arrangement=arr).to_ideal()
    with Job():
        rays = find_rigid_rays(ideal, bound=1)
        assert rays
        for ray in rays:
            G, d = _torus_saturation(stratum_model(ideal, ray).ideal)
            assert d > 0 and all(g.total_degree() <= 1 for g in G.gens)
            parametrized = ml_degree(_linear_parametrization(G))
            assert parametrized == ml_degree(VarietySpec(kind="ideal", ideal=G))


# -- closed-form estimators ---------------------------------------------------------------


def four_lines_rays():
    return [Ray(v) for v in sorted(FOUR_LINES_RAYS)]


def test_mle_closed_form_four_lines_displayed():
    spec = four_lines_spec()
    formula = mle_closed_form(spec, four_lines_rays())
    svars = formula.svars
    expected = {
        0: ("s1+s2+s3", "s1+s2+s3+s4"),
        1: ("s2*(s1+s2+s3)", "(s2+s3)*(s1+s2+s3+s4)"),
        2: ("s3*(s1+s2+s3)", "(s2+s3)*(s1+s2+s3+s4)"),
        3: ("-s4", "s1+s2+s3+s4"),
    }
    for i, (ns, ds) in expected.items():
        num, den = formula.numerator_denominator(i)
        en = poly_parse(ns, svars)
        ed = poly_parse(ds, svars)
        # equality as rational functions
        assert num * ed == en * den


def test_mle_closed_form_four_lines_constants():
    formula = mle_closed_form(four_lines_spec(), four_lines_rays())
    assert formula.constants == [1, 1, 1, -1]


def test_mle_closed_form_ideal_kind_matches_arrangement_kind():
    f1 = mle_closed_form(four_lines_spec(), four_lines_rays())
    f2 = mle_closed_form(four_lines_ideal_spec(), four_lines_rays())
    assert f1.constants == f2.constants


def test_mle_closed_form_coin_displayed():
    spec = coin_spec()
    rays = [Ray(v) for v in sorted(COIN_RAYS)]
    formula = mle_closed_form(spec, rays)
    assert formula.constants == [1, 1, 1]
    svars = formula.svars
    expected = {
        0: ("(2*s0+s1)^2", "(2*s0+2*s1+s2)^2"),
        1: ("(2*s0+s1)*(s1+s2)", "(2*s0+2*s1+s2)^2"),
        2: ("s1+s2", "2*s0+2*s1+s2"),
    }
    for i, (ns, ds) in expected.items():
        num, den = formula.numerator_denominator(i)
        assert num * poly_parse(ds, svars) == poly_parse(ns, svars) * den


def test_mle_formula_satisfies_model_and_criticality():
    # twenty random data vectors: the estimate lies on the variety and
    # solves the critical equations exactly
    spec = four_lines_spec()
    formula = mle_closed_form(spec, four_lines_rays())
    ideal = four_lines_ideal_spec().ideal
    rng = Random(99)
    checked = 0
    while checked < 20:
        alpha = sample_alpha(4, rng)
        if any(
            sum(v[i] * alpha[i] for i in range(4)) == 0 for v in FOUR_LINES_RAYS
        ):
            continue
        point = formula.evaluate(alpha)
        env = dict(zip(ideal.vars, point))
        for g in ideal.gens:
            assert g.evaluate(env) == 0
        # critical equations of the torus presentation at this data vector
        tspec = four_lines_ideal_spec()
        system = critical_system(tspec, alpha, formulation="minors")
        values = dict(zip(system.ring, list(point)))
        for eq in system.equations:
            assert eq.evaluate({v: values[v] for v in eq.vars}) == 0
        checked += 1


def test_mle_exponent_columns_sum_to_zero():
    formula = mle_closed_form(four_lines_spec(), four_lines_rays())
    p = len(formula.constants)
    for i in range(p):
        assert sum(v[i] for v in formula.rays) == 0


def test_mle_closed_form_rejects_higher_degree():
    with pytest.raises(MLDegreeNotOne):
        mle_closed_form(conic_spec(), [Ray(v) for v in [(1, 0, 0)]])


def test_mle_closed_form_rejects_unbalanced_rays():
    # rays of a degree-one model must sum to zero for the estimator to be
    # homogeneous; a truncated ray list is refused
    rays = [Ray(v) for v in sorted(FOUR_LINES_RAYS) if v != (0, 1, 0, 0)]
    with pytest.raises(UnbalancedRays, match=r"got \(0, -1, 0, 0\)"):
        mle_closed_form(four_lines_spec(), rays)


def test_mle_closed_form_counts_once_per_sample(monkeypatch):
    # each sample's critical count also gives its critical point: two
    # samples, two saturated critical ideals, no separate degree run
    systems = []
    real = mle.saturated_critical_ideal

    def counting(system):
        systems.append(system)
        return real(system)

    monkeypatch.setattr(mle, "saturated_critical_ideal", counting)
    formula = mle_closed_form(four_lines_spec(), four_lines_rays())
    assert formula.constants == [1, 1, 1, -1]
    assert len(systems) == 2

