import contextvars
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from models import (
    COIN_RAYS,
    CONIC_RAYS,
    abs_env,
    coin_spec,
    conic_spec,
    full_series_valuation_vector,
    four_lines_spec,
    product_saturation,
    rescaled_system,
    series_order,
)
from tropcrit import groebner
from tropcrit import asymptotics, series
from tropcrit.asymptotics import (
    CURVE_VAR,
    RESIDUAL_RTOL,
    DataCurve,
    SeriesSolution,
    _abs_poly,
    _ansatz,
    _hensel,
    _jacobian,
    _num_inverse,
    _saturated_equations,
    _square_subsystem,
    branch_seeds,
    branches,
    refine_seed_exact,
    series_newton_lift,
    valuation_vector,
)
from tropcrit.errors import DegenerateSample, NoConvergence, TruncationTooShort
from tropcrit.groebner import InitialIdealEngine, Job
from tropcrit.mle import CriticalSystem, VarietySpec, critical_system
from tropcrit.rings import Polynomial, poly_parse
from tropcrit.series import LaurentSeries, poly_eval_series
from tropcrit.tropical import Ray, TropicalEngine


@pytest.fixture(autouse=True, scope="module")
def shared_job():
    """One job for the whole module, so the tests share its memo tables:
    the conic escaping-branch saturation is computed once."""
    with Job() as job:
        yield job


def conic_curve():
    return DataCurve.parse(["2+t", "1+t", "-3/2"])


def conic_system():
    """The conic's critical system along its fixture curve."""
    return critical_system(conic_spec(), conic_curve().components)


def sqrt33(digits=40):
    scale = 10**digits
    return Fraction(math.isqrt(33 * scale * scale), scale)


# exact algebraic leading coefficients of the escaping branch
A_EXACT = (-9 + sqrt33()) / 24  # equals (-7+sqrt33)/(15-sqrt33)
B_EXACT = (-3 + sqrt33()) / 24  # equals (-13+3*sqrt33)/(60-4*sqrt33)


def test_trivial_linear_lift():
    ring = ("x", "t")
    system = CriticalSystem(
        equations=[poly_parse("x-t", ring)],
        ring=ring,
        unknowns=("x",),
        saturators=[],
    )
    sol = series_newton_lift(system, seed=(Fraction(0),), order=5)
    [x] = sol.branch
    assert x.valuation == 1 and x.coeff(1) == 1
    assert all(x.coeff(k) == 0 for k in range(2, 6))


def test_conic_interior_seed_is_rational():
    exact, numeric = branch_seeds(conic_system())
    assert exact == [(Fraction(3), Fraction(-3))]
    assert numeric == []


def test_conic_interior_branch_exact_coefficients():
    sol = series_newton_lift(
        conic_system(), seed=(Fraction(3), Fraction(-3)), order=8
    )
    assert sol.exact
    x, y = sol.branch
    assert [x.coeff(k) for k in range(3)] == [3, -74, 3508]
    assert [y.coeff(k) for k in range(3)] == [-3, 62, -2948]
    assert valuation_vector(sol, conic_spec()) == (0, 0, 0)


def test_conic_interior_branch_residual_vanishes():
    system = conic_system()
    sol = series_newton_lift(system, seed=(Fraction(3), Fraction(-3)), order=6)
    # substitute the branch into the equations along the curve directly
    env = {"x": sol.branch[0], "y": sol.branch[1]}
    env["t"] = LaurentSeries.t_power(1, 7)
    for eq in system.equations:
        assert poly_eval_series(eq, env, 7).is_zero


def test_conic_escaping_seeds():
    exact, numeric = branch_seeds(
        conic_system(), valuations=(-1, -1)
    )
    assert exact == []
    assert len(numeric) == 2
    reals = sorted(s[0].real for s in numeric)
    expected = sorted([float(A_EXACT), float((-9 - sqrt33()) / 24)])
    for got, want in zip(reals, expected):
        assert abs(got - want) < 1e-9


def test_saturated_equations_takes_two_cheaper_groebner_runs(monkeypatch):
    # t, both unknowns and the three saturators: one run by the non-monomial
    # saturators, one by the torus monomial, on equations stripped of their
    # monomial content; fewer steps than one run by the whole product, and
    # the same reduced basis
    runs = []
    real = groebner._buchberger

    def counting(gens, order, budget):
        runs.append(order)
        return real(gens, order, budget)

    rescaled, ring, extra = rescaled_system(conic_system(), (-1, -1))
    assert len(extra) == 3
    with Job() as product_job:
        want = product_saturation(rescaled, ring, extra)
    monkeypatch.setattr(groebner, "_buchberger", counting)
    with Job() as job:
        got = list(_saturated_equations(rescaled, ring, extra).gens)
    assert len(runs) <= 2
    assert job.steps < product_job.steps
    assert got == want


def _valuation_cases():
    """(spec, ray, valuations of its unknowns): the conic (unknowns x, y
    equal to the coordinates t1, t2) and the coin model (unknowns the
    coordinates, a monomial saturator only), at valuation 0 and at each
    rigid ray."""
    conic = conic_spec()
    coin = coin_spec()
    cases = [("conic", conic, None, None), ("coin", coin, None, None)]
    cases += [("conic", conic, ray, ray[:2]) for ray in sorted(CONIC_RAYS)]
    cases += [("coin", coin, ray, ray) for ray in sorted(COIN_RAYS)]
    return [
        pytest.param(
            spec,
            ray,
            valuations,
            id=f"{name}-{''.join(map(str, ray)) if ray else 'interior'}",
        )
        for name, spec, ray, valuations in cases
    ]


@pytest.mark.parametrize("spec, ray, valuations", _valuation_cases())
@settings(max_examples=5, deadline=None)
@given(
    value=st.lists(st.integers(-6, 6), min_size=3, max_size=3),
    velocity=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
def test_saturated_equations_match_product_route(
    spec, ray, valuations, value, velocity
):
    # a linear data curve with integer coefficients, entering the ray's
    # slope hyperplane at t = 0 when a ray is given
    value = [Fraction(a) for a in value]
    if ray is not None:
        assume(sum(a * b for a, b in zip(velocity, ray)) != 0)
        pivot = next(i for i, x in enumerate(ray) if x)
        rest = sum(value[i] * ray[i] for i in range(3) if i != pivot)
        value[pivot] = -rest / ray[pivot]
    curve = DataCurve.parse([f"{a}+({b})*t" for a, b in zip(value, velocity)])
    system = critical_system(spec, curve.components)
    with Job():
        rescaled, ring, extra = rescaled_system(system, valuations)
        want = product_saturation(rescaled, ring, extra)
        assert list(_saturated_equations(rescaled, ring, extra).gens) == want


def test_conic_escaping_branch_leading_coefficients():
    exact, numeric = branch_seeds(
        conic_system(), valuations=(-1, -1)
    )
    # pick the branch with leading coefficient (-7+sqrt33)/(15-sqrt33)
    seed = min(numeric, key=lambda s: abs(s[0] - complex(float(A_EXACT))))
    sol = series_newton_lift(
        conic_system(), seed=seed, order=4, valuations=(-1, -1)
    )
    assert not sol.exact
    x, y = sol.branch
    assert x.valuation == -1 and y.valuation == -1
    assert abs(x.coeff(-1) - float(A_EXACT)) <= 1e-6 * abs(float(A_EXACT))
    assert abs(y.coeff(-1) - float(B_EXACT)) <= 1e-6 * abs(float(B_EXACT))


def test_conic_escaping_valuation_vector():
    _, numeric = branch_seeds(conic_system(), valuations=(-1, -1))
    seed = numeric[0]
    sol = series_newton_lift(
        conic_system(), seed=seed, order=4, valuations=(-1, -1)
    )
    assert valuation_vector(sol, conic_spec()) == (-1, -1, -2)


def test_valuation_vector_orthogonal_to_limit_data():
    # the limit data vector pairs to zero with the valuation vector
    curve = conic_curve()
    alpha0 = curve.value_at_zero()
    _, numeric = branch_seeds(conic_system(), valuations=(-1, -1))
    sol = series_newton_lift(
        conic_system(), seed=numeric[0], order=4, valuations=(-1, -1)
    )
    vv = valuation_vector(sol, conic_spec())
    assert sum(a * v for a, v in zip(alpha0, vv)) == 0


def test_branches_runs_as_many_groebner_runs_outside_a_job(monkeypatch):
    # outside a job each current_job() call is a fresh job with empty memo
    # tables; branches makes the job it runs in, so its memos hit as they
    # do inside one job
    runs = []
    real = groebner._buchberger

    def counting(gens, order, budget):
        runs.append(order)
        return real(gens, order, budget)

    monkeypatch.setattr(groebner, "_buchberger", counting)
    rays = [Ray(v) for v in sorted(CONIC_RAYS)]
    # an empty context has no current job, unlike this module's tests
    contextvars.Context().run(branches, conic_spec(), conic_curve(), rays)
    outside = len(runs)
    runs.clear()
    with Job():
        branches(conic_spec(), conic_curve(), rays)
    assert outside == len(runs)


def test_branches_saturates_once_in_the_curve_ring(monkeypatch):
    # the interior and the escaping ansatz both read the one saturation of
    # the conic's critical system in (x, y, t); the layers are saturated by
    # the torus of (x, y) alone
    rings = []
    real = asymptotics.saturate

    def recording(ideal, f):
        rings.append(ideal.vars)
        return real(ideal, f)

    monkeypatch.setattr(asymptotics, "saturate", recording)
    monkeypatch.setattr(groebner, "saturate", recording)
    rays = [Ray(v) for v in sorted(CONIC_RAYS)]
    with Job():
        found, _ = branches(conic_spec(), conic_curve(), rays)
    assert len(found) == 3
    assert rings.count(("x", "y", CURVE_VAR)) == 1
    assert set(rings) == {("x", "y", CURVE_VAR), ("x", "y")}


def test_branches_share_the_tropical_engine_of_the_critical_ideal(monkeypatch):
    # the interior and the escaping ansatz read their cone bases from one
    # initial-ideal engine of the curve's critical ideal J, the engine of
    # the job's TropicalEngine.of(J)
    engines = []
    real = InitialIdealEngine.__init__

    def recording(self, ideal):
        engines.append(self)
        real(self, ideal)

    monkeypatch.setattr(InitialIdealEngine, "__init__", recording)
    rays = [Ray(v) for v in sorted(CONIC_RAYS)]
    with Job():
        found, _ = branches(conic_spec(), conic_curve(), rays)
        [engine] = [e for e in engines if e.ideal.vars == ("x", "y", CURVE_VAR)]
        assert engine._cones
        assert TropicalEngine.of(engine.ideal) is engine
    assert len(found) == 3


def test_branch_count_matches_ml_degree():
    exact, _ = branch_seeds(conic_system())
    _, numeric = branch_seeds(conic_system(), valuations=(-1, -1))
    assert len(exact) + len(numeric) == 3  # the ML degree of the model


def test_layer_without_a_reading_form_becomes_a_note(monkeypatch):
    # when no linear form reads the points of the escaping layer, its
    # branches give way to a note and the interior branch still lifts
    def no_form(G):
        raise DegenerateSample("no form")

    monkeypatch.setattr(asymptotics, "solve_zero_dim_numeric", no_form)
    rays = [Ray(v) for v in sorted(CONIC_RAYS)]
    found, notes = branches(conic_spec(), conic_curve(), rays, order=4)
    assert notes == ["branches at (-1, -1) have no seeds: no form"]
    assert [b.unknown_valuations for b in found] == [(0, 0)]


def test_exact_branch_reproduced_by_floating_run():
    sol_e = series_newton_lift(
        conic_system(), seed=(Fraction(3), Fraction(-3)), order=5
    )
    sol_f = series_newton_lift(
        conic_system(), seed=(3.0, -3.0), order=5
    )
    for se, sf in zip(sol_e.branch, sol_f.branch):
        for k in range(se.valuation, se.truncation_order):
            assert abs(complex(se.coeff(k)) - complex(sf.coeff(k))) < 1e-6 * max(
                1.0, abs(complex(se.coeff(k)))
            )


def test_refine_seed_exact_reaches_target():
    _, numeric = branch_seeds(conic_system(), valuations=(-1, -1))
    seed = min(numeric, key=lambda s: abs(s[0] - complex(float(A_EXACT))))
    refined = refine_seed_exact(
        conic_system(), seed, valuations=(-1, -1), bits=160
    )
    assert abs(refined[0] - A_EXACT) < Fraction(1, 2**120)
    assert abs(refined[1] - B_EXACT) < Fraction(1, 2**120)


def test_four_lines_lift_toward_triple_point_is_nonnegative():
    # approaching s1+s2+s3 = 0 generically sends the estimate toward the
    # triple point: valuation vector e1+e2+e3, a nonnegative certificate
    from tropcrit.bs_lct import qfa_nonneg_certificate

    spec = four_lines_spec()
    curve = DataCurve.parse(["2", "1+t", "-3+t", "4"])
    system = critical_system(spec, curve.components)
    exact, numeric = branch_seeds(system, valuations=(1, 1))
    seed = exact[0] if exact else numeric[0]
    sol = series_newton_lift(system, seed=seed, order=6, valuations=(1, 1))
    vv = valuation_vector(sol, spec)
    assert vv == (1, 1, 1, 0)
    assert qfa_nonneg_certificate(vv)


def test_four_lines_branch_attains_ray_valuation():
    # approach a generic point of the hyperplane s2 + s3 = 0: the single
    # critical point escapes with coordinate orders -e2 - e3
    spec = four_lines_spec()
    curve = DataCurve.parse(["3", "2+t", "-2+t", "5"])
    system = critical_system(spec, curve.components)
    exact, numeric = branch_seeds(system, valuations=(0, -1))
    assert len(exact) + len(numeric) >= 1
    seed = exact[0] if exact else numeric[0]
    sol = series_newton_lift(system, seed=seed, order=6, valuations=(0, -1))
    assert valuation_vector(sol, spec) == (0, -1, -1, 0)


def test_curve_validation():
    from tropcrit.tropical import Ray

    curve = conic_curve()
    curve.validate(ray=Ray((-1, -1, -2)))
    with pytest.raises(ValueError):
        curve.validate(ray=Ray((1, 0, 0)))  # alpha(0) not on that hyperplane
    flat = DataCurve.parse(["2", "1", "-3/2"])  # constant: not transverse
    with pytest.raises(ValueError):
        flat.validate(ray=Ray((-1, -1, -2)))


def test_truncation_too_short_detected():
    # exact series that vanishes to truncation order: order unknown
    with pytest.raises(TruncationTooShort):
        series_order(LaurentSeries.zero(5), exact=True)
    # floating series with only numerically-zero coefficients
    tiny = LaurentSeries(0, [1e-14, -3e-15], 2)
    with pytest.raises(TruncationTooShort):
        series_order(tiny, exact=False)
    # a genuinely resolved floating series
    ok = LaurentSeries(-1, [0.5, 1e-13], 1)
    assert series_order(ok, exact=False) == -1


_XY = ("x", "y")


@st.composite
def lazy_valuation_cases(draw):
    """A branch in (x, y) with valuations in [-2, 2] and its own relative
    precision per unknown, exact (rationals with odd denominators) or
    floating (Gaussian integers with a leading coefficient of modulus one,
    so floating arithmetic is exact and a zero is certified by neither
    route), and 1-3 coordinate functions, Laurent ones included, plus
    x - y.  y often agrees with x on its first coefficients, so leading
    terms cancel, to the truncation order when it agrees on all.  The
    third entry is the same branch with two more nonzero coefficients
    drawn for each unknown."""
    exact = draw(st.booleans())
    if exact:
        lead = st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5, 7)])
        rest = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(2, 9)])
    else:
        lead = st.sampled_from([1.0, -1.0, 1j]).map(complex)
        rest = st.sampled_from([0.0, 1.0, -1.0, 1j, 2.0]).map(complex)
    unknown = rest.filter(bool)
    branch = []
    for _ in _XY:
        v = draw(st.integers(-2, 2))
        coeffs = [draw(lead)] + draw(st.lists(rest, min_size=1, max_size=5))
        branch.append(LaurentSeries(v, coeffs, v + len(coeffs)))
    if draw(st.booleans()):
        # y agrees with x on its first k coefficients
        x = branch[0]
        k = draw(st.integers(1, len(x.coeffs)))
        coeffs = list(x.coeffs[:k]) + draw(st.lists(rest, max_size=4))
        branch[1] = LaurentSeries(x.valuation, coeffs, x.valuation + len(coeffs))
    low = -2 if draw(st.booleans()) else 0
    terms = st.dictionaries(
        st.tuples(st.integers(low, 2), st.integers(low, 2)),
        st.sampled_from([1, -1, 2, Fraction(-1, 3)]),
        min_size=1,
        max_size=3,
    )
    functions = draw(
        st.lists(terms.map(lambda t: Polynomial(t, _XY)), min_size=1, max_size=3)
    )
    functions.append(poly_parse("x-y", _XY))
    spec = VarietySpec(kind="parametrization", functions=functions)
    padded = []
    for b in branch:
        extra = draw(st.lists(unknown, min_size=2, max_size=2))
        padded.append(
            LaurentSeries(b.valuation, [*b.coeffs, *extra], b.truncation_order + 2)
        )
    return (
        SeriesSolution(tuple(branch), exact, 0),
        spec,
        SeriesSolution(tuple(padded), exact, 0),
    )


def valuation_outcome(read, sol, spec, **options):
    try:
        return read(sol, spec, **options)
    except TruncationTooShort:
        return "too short"


# past the truncation order of every function of the drawn branches
PAST_EVERY_WINDOW = 32


# floating x - y cancels to 2^-40 against a magnitude of 2: not certified
_NEAR_CANCELLATION = (
    SeriesSolution(
        (
            LaurentSeries(0, [1 + 0j, 1 + 0j, 0j], 3),
            LaurentSeries(0, [complex(1 + 2**-40), 1 + 0j, 0j], 3),
        ),
        False,
        0,
    ),
    VarietySpec(kind="parametrization", functions=[poly_parse("x-y", _XY)]),
    SeriesSolution(
        (
            LaurentSeries(0, [1 + 0j, 1 + 0j, 0j, 1j, 1 + 0j], 5),
            LaurentSeries(0, [complex(1 + 2**-40), 1 + 0j, 0j, 2 + 0j, 1j], 5),
        ),
        False,
        0,
    ),
)


@settings(max_examples=300, deadline=None)
@given(lazy_valuation_cases())
@example(_NEAR_CANCELLATION)
def test_lazy_valuation_vector_matches_full_series_order(case):
    # the first certified coefficient of each rescaled function, read one
    # at a time: where the complete poly_eval_series evaluation to the
    # least truncation order reads an order, it is that order; where it
    # reads one, evaluating the branch with two more drawn coefficients
    # per unknown past every window reads the same, so the answer does not
    # depend on coefficients the branch leaves unknown; and it is too short
    # only where the reference is
    sol, spec, padded = case
    lazy = valuation_outcome(valuation_vector, sol, spec)
    reference = valuation_outcome(full_series_valuation_vector, sol, spec)
    if reference != "too short":
        assert lazy == reference
    if lazy != "too short":
        assert lazy == valuation_outcome(
            full_series_valuation_vector, padded, spec, trunc=PAST_EVERY_WINDOW
        )
    else:
        assert reference == "too short"


def test_valuation_window_is_each_functions_own():
    # x = t^-2 (1 + t + O(t^0)) and y = 1 + 3t + O(t^2): the least
    # truncation order is 0, but each function is known to its terms'
    # shifts plus the relative precision (2) of their unknowns, so x, y,
    # xy and x - y have certified orders; reading every function only to
    # the least truncation order, the reference finds none
    sol = SeriesSolution(
        (
            LaurentSeries(-2, [Fraction(1), Fraction(1)], 0),
            LaurentSeries(0, [Fraction(1), Fraction(3)], 2),
        ),
        True,
        0,
    )
    cases = [("x", -2), ("y", 0), ("x*y", -2), ("x-y", -2), ("y-1", 1), ("y^2-y", 1)]
    for text, order in cases:
        spec = VarietySpec(kind="parametrization", functions=[poly_parse(text, _XY)])
        assert valuation_vector(sol, spec) == (order,)
        with pytest.raises(TruncationTooShort):
            full_series_valuation_vector(sol, spec)


def test_valuation_too_short_for_the_order_lifts_again_at_twice_it(monkeypatch):
    # along (1, t^3) the critical point of (s, 1-s) is s = 1/(1+t^3), and
    # 1 - s has order 3: lifted to order 2 it vanishes to the truncation
    # order, so the branch lifts again to order 4; lifted to order 1 it
    # still vanishes at order 2, and TruncationTooShort propagates
    spec = VarietySpec(
        kind="parametrization",
        functions=[poly_parse("s", ("s",)), poly_parse("1-s", ("s",))],
    )
    curve = DataCurve.parse(["1", "t^3"])
    orders = []
    real = asymptotics.series_newton_lift

    def recording(system, seed, order, valuations):
        orders.append(order)
        return real(system, seed, order, valuations)

    monkeypatch.setattr(asymptotics, "series_newton_lift", recording)
    [branch], notes = branches(spec, curve, [], order=2)
    assert orders == [2, 4] and not notes
    assert branch.solution.exact and branch.valuation_vector == (0, 3)
    orders.clear()
    with pytest.raises(TruncationTooShort):
        branches(spec, curve, [], order=1)
    assert orders == [1, 2]


def reference_hensel(equations, ring, seed, order, exact):
    """The order-by-order lift as it was before relaxed evaluation: every
    step re-evaluates the residuals from scratch with poly_eval_series."""
    n = len(ring) - 1
    env0 = dict(zip(ring, seed))
    env0[CURVE_VAR] = Fraction(0) if exact else 0.0
    rows = [[d.evaluate(env0) for d in row] for row in _jacobian(equations, ring[:-1])]
    subset, inv = _square_subsystem(rows, exact)
    eqs = [equations[i] for i in subset]
    coeffs = [[seed[j]] + [Fraction(0) if exact else 0.0] * order for j in range(n)]

    def env(upto):
        e = {
            ring[j]: LaurentSeries(0, coeffs[j][: upto + 1], upto + 1)
            for j in range(n)
        }
        e[CURVE_VAR] = LaurentSeries.t_power(1, upto + 1)
        return e

    for k in range(1, order + 1):
        residuals = [poly_eval_series(eq, env(k), k + 1) for eq in eqs]
        rhs = [r.coeff(k) if k < r.truncation_order else 0 for r in residuals]
        rhs = [Fraction(x) if exact else complex(x) for x in rhs]
        delta = [-sum(inv[i][j] * rhs[j] for j in range(n)) for i in range(n)]
        for j in range(n):
            coeffs[j][k] = delta[j]
    final = env(order)
    magnitude_env = None if exact else abs_env(final)
    failures = []
    for eq in equations:
        r = poly_eval_series(eq, final, order + 1)
        if exact:
            if not r.is_zero:
                failures.append(r.valuation)
            continue
        mag = poly_eval_series(_abs_poly(eq), magnitude_env, order + 1)
        for k in range(min(r.truncation_order, order + 1)):
            c = abs(complex(r.coeff(k)))
            m = abs(complex(mag.coeff(k))) if k < mag.truncation_order else 0.0
            if c > RESIDUAL_RTOL * max(1.0, m):
                failures.append(k)
                break
    if failures:
        raise NoConvergence(f"residual of order {min(failures)} does not vanish")
    return coeffs


def conic_lift_cases():
    """(seed, valuations) of the conic branches: the exact interior seed
    and the two floating escaping seeds."""
    _, numeric = branch_seeds(conic_system(), valuations=(-1, -1))
    cases = [((Fraction(3), Fraction(-3)), (0, 0))]
    cases += [(tuple(complex(x) for x in s), (-1, -1)) for s in numeric]
    return cases


def lift_outcome(lift, seed, valuations, order):
    """Coefficients of the lift on the system series_newton_lift hands to
    _hensel for this seed, or the message of its NoConvergence."""
    system = conic_system()
    equations, _, _ = _ansatz(system, valuations)
    exact = all(isinstance(x, Fraction) for x in seed)
    try:
        return lift(equations, system.ring, seed, order, exact)
    except NoConvergence as exc:
        return str(exc)


@pytest.mark.parametrize("order", [5, 12, 24])
def test_hensel_equals_reference_loop(order):
    for seed, valuations in conic_lift_cases():
        got = lift_outcome(_hensel, seed, valuations, order)
        want = lift_outcome(reference_hensel, seed, valuations, order)
        assert got == want
        assert not isinstance(got, str)  # every conic branch lifts


@pytest.mark.parametrize(
    "seed",
    [
        (Fraction(3), Fraction(-2)),
        (3 + 0j, -2 + 0j),
        (3 + 0j, -3 + 1e-6 + 0j),
    ],
    ids=["exact", "float", "float-near"],
)
def test_hensel_rejects_a_seed_off_its_layer(seed):
    # the conic's interior seed (3, -3) moved off its t = 0 layer, where
    # the Jacobian is still regular: the lift's final check, the only
    # acceptance, fails at coefficient 0, the layer at the seed
    message = "residual of order 0 does not vanish"
    assert lift_outcome(_hensel, seed, (0, 0), 5) == message
    with pytest.raises(NoConvergence, match=message):
        series_newton_lift(conic_system(), seed=seed, order=5, valuations=(0, 0))


def test_lift_makes_no_poly_eval_series_call(monkeypatch):
    # neither the lift nor the lazy read of its valuation vector
    calls = []
    real = series.poly_eval_series

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(series, "poly_eval_series", counting)
    for seed, valuations in conic_lift_cases():
        sol = series_newton_lift(
            conic_system(), seed=seed, order=12, valuations=valuations
        )
        valuation_vector(sol, conic_spec())
    assert calls == []


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2], [2, 4]],
        [[1j, 1], [1, -1j]],
        [[1.0, 1.0], [1.0, 1.0 + 1e-13]],
        [[1e-7, 0], [0, 1e-7]],
        [[2, 0, 1], [0, 1, 0], [4, 0, 2 + 1e-14]],
        [[1, 2, 3], [4, 5, 6]],
    ],
    ids=["singular", "singular-complex", "near-singular", "tiny-det", "3x3", "wide"],
)
def test_num_inverse_rejects_singular_jacobians(rows):
    # |det| < 1e-12 max(1, max|m|^n) counts as singular
    assert _num_inverse(rows) is None


@pytest.mark.parametrize(
    "rows",
    [
        [[2, 1j], [0, 3]],
        [[1e3, 0], [0, 1e3]],
        [[0, 1, 2], [1, 0, 3], [4, -3, 8]],
        [[0.5 + 0.5j, 2], [1, 1e-3]],
    ],
)
def test_num_inverse_inverts_regular_jacobians(rows):
    inv = _num_inverse(rows)
    n = len(rows)
    for i in range(n):
        for j in range(n):
            product = sum(inv[i][k] * rows[k][j] for k in range(n))
            assert abs(product - (i == j)) < 1e-12
