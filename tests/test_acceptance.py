"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Tolerances are pinned here, not configurable."""

import math
import time
from fractions import Fraction
from pathlib import Path
from random import Random

from models import homogeneity_space
import tropcrit
from tropcrit.arrangement import Arrangement, chi_complement, flacet_rays
from tropcrit.asymptotics import (
    DataCurve,
    branch_seeds,
    series_newton_lift,
    valuation_vector,
)
from tropcrit.bs_lct import bs_slope_intersection, facet_defining, lct_polytope
from tropcrit.cli import JobConfig, load_bs_fixture, load_spec, run_report
from tropcrit.groebner import Job, groebner_basis
from tropcrit.linalg import rank
from tropcrit.mle import critical_system, ml_degree, mle_closed_form, sample_alpha
from tropcrit.rings import poly_parse
from tropcrit.tropical import (
    Ray,
    TropicalEngine,
    critical_slopes,
    find_rigid_rays,
    stratum_euler_char,
    ray_sum,
)

FIXTURES = Path(tropcrit.__file__).parent / "fixtures"


def fixture(name):
    return str(FIXTURES / name)


class Timer:
    def __init__(self, criterion, limit):
        self.criterion = criterion
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.criterion} exceeded its {self.limit}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


FOUR_LINES_RAYS = {
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (0, -1, -1, 0),
    (1, 1, 1, 0),
    (-1, -1, -1, -1),
}


def test_acceptance_1_rigid_rays_four_lines_model():
    with Timer(1, 30):
        cfg = JobConfig(
            command="rigid-rays",
            spec_source=fixture("four_lines_ideal.json"),
            bound=2,
        )
        report, code = run_report(cfg)
        assert code == 0
        got = {tuple(r["v"]) for r in report["rays"]}
        assert got == FOUR_LINES_RAYS  # exact set equality


def test_acceptance_2_critical_slopes_four_lines():
    rays = [Ray(v) for v in sorted(FOUR_LINES_RAYS)]
    with Timer(2, 5):
        slopes = critical_slopes(rays)
        got = {h.normal for h in slopes}
        expected = {
            (1, 1, 1, 1),
            (0, 1, 1, 0),
            (1, 1, 1, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        }
        # set equality up to sign of the normals (normals are already
        # sign-normalized by construction)
        assert got == expected


def test_acceptance_3_flacet_pipeline_agreement():
    with Timer(3, 60):
        spec = load_spec(fixture("four_lines.json"))
        arr_rays = {r.v for r in flacet_rays(spec.arrangement)}
        ideal_spec = load_spec(fixture("four_lines_ideal.json"))
        search_rays = {
            r.v for r in find_rigid_rays(ideal_spec.ideal, bound=2)
        }
        assert arr_rays == search_rays  # exact set equality


def test_acceptance_4_mle_closed_form_four_lines():
    with Timer(4, 30):
        spec = load_spec(fixture("four_lines.json"))
        rays = [Ray(v) for v in sorted(FOUR_LINES_RAYS)]
        formula = mle_closed_form(spec, rays)
        svars = formula.svars
        displayed = {
            0: ("s1+s2+s3", "s1+s2+s3+s4"),
            1: ("s2*(s1+s2+s3)", "(s2+s3)*(s1+s2+s3+s4)"),
            2: ("s3*(s1+s2+s3)", "(s2+s3)*(s1+s2+s3+s4)"),
            3: ("-s4", "s1+s2+s3+s4"),
        }
        for i, (ns, ds) in displayed.items():
            num, den = formula.numerator_denominator(i)
            assert num * poly_parse(ds, svars) == poly_parse(ns, svars) * den
        # exact verification at 20 random rational data vectors
        ideal = load_spec(fixture("four_lines_ideal.json")).ideal
        rng = Random(424242)
        checked = 0
        while checked < 20:
            alpha = sample_alpha(4, rng)
            if any(
                sum(v[i] * alpha[i] for i in range(4)) == 0
                for v in FOUR_LINES_RAYS
            ):
                continue
            point = formula.evaluate(alpha)
            env = dict(zip(ideal.vars, point))
            for g in ideal.gens:
                assert g.evaluate(env) == 0
            checked += 1


COIN_RAYS = {(2, 1, 0), (0, 1, 1), (-2, -2, -1)}


def test_acceptance_5_coin_model():
    with Timer(5, 30):
        spec = load_spec(fixture("coin_model.json"))
        ideal = spec.ideal
        with Job():
            engine = TropicalEngine.of(ideal)
            rays = find_rigid_rays(ideal, bound=2)
        assert {r.v for r in rays} == COIN_RAYS
        assert all(engine.is_rigid(r.v) for r in rays)
        assert ml_degree(spec) == 1
        formula = mle_closed_form(spec, rays)
        assert formula.constants == [1, 1, 1]
        svars = formula.svars
        displayed = {
            0: ("(2*s0+s1)^2", "(2*s0+2*s1+s2)^2"),
            1: ("(2*s0+s1)*(s1+s2)", "(2*s0+2*s1+s2)^2"),
            2: ("s1+s2", "2*s0+2*s1+s2"),
        }
        for i, (ns, ds) in displayed.items():
            num, den = formula.numerator_denominator(i)
            assert num * poly_parse(ds, svars) == poly_parse(ns, svars) * den
        report = bs_slope_intersection(rays)
        got = {h.normal for h in report.intersection_with_sf}
        assert got == {(2, 1, 0), (0, 1, 1)}


CONIC_RAYS = {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (-1, -1, -2)}


def test_acceptance_6_conic_model():
    with Timer(6, 60):
        spec = load_spec(fixture("conic_model.json"))
        ideal = spec.to_ideal()
        with Job():
            rays = find_rigid_rays(ideal, bound=2)
            assert {r.v for r in rays} == CONIC_RAYS
            assert ml_degree(spec) == 3
            chi = stratum_euler_char(ideal, Ray((-1, -1, -2)))
            assert chi == -2
            chis = [stratum_euler_char(ideal, r) for r in rays]
            assert ray_sum(ideal.nvars, rays, chis) == (0, 0, 0)


def test_acceptance_7_series_lift_conic():
    with Timer(7, 60):
        spec = load_spec(fixture("conic_model.json"))
        curve = DataCurve.parse(["2+t", "1+t", "-3/2"])
        system = critical_system(spec, curve.components)
        # rational branch: coefficients exact at truncation 8
        sol = series_newton_lift(system, seed=(Fraction(3), Fraction(-3)), order=8)
        assert sol.exact
        x, y = sol.branch
        assert [x.coeff(k) for k in range(3)] == [3, -74, 3508]
        assert [y.coeff(k) for k in range(3)] == [-3, 62, -2948]
        # escaping branch: leading coefficients within 1e-6 relative of the
        # exact algebraic values
        scale = 10**40
        sqrt33 = Fraction(math.isqrt(33 * scale * scale), scale)
        a_exact = float((-7 + sqrt33) / (15 - sqrt33))
        b_exact = float((-13 + 3 * sqrt33) / (60 - 4 * sqrt33))
        _, numeric = branch_seeds(system, valuations=(-1, -1))
        seed = min(numeric, key=lambda s: abs(s[0] - a_exact))
        esc = series_newton_lift(system, seed=seed, order=8, valuations=(-1, -1))
        lead_x = complex(esc.branch[0].coeff(-1))
        lead_y = complex(esc.branch[1].coeff(-1))
        assert abs(lead_x - a_exact) <= 1e-6 * abs(a_exact)
        assert abs(lead_y - b_exact) <= 1e-6 * abs(b_exact)
        # valuation vector exact
        assert valuation_vector(esc, spec) == (-1, -1, -2)


def test_acceptance_8_bs_intersection_four_lines():
    with Timer(8, 30):
        rays = [Ray(v) for v in sorted(FOUR_LINES_RAYS)]
        fixture_data = load_bs_fixture(fixture("four_lines_bs.json"), 4)
        report = bs_slope_intersection(rays, fixture=fixture_data)
        got = {h.normal for h in report.intersection_with_sf}
        assert got == {(1, 1, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}
        # the fixture-known component s1=0 is absent from the critical slopes
        assert {h.normal for h in report.bs_only} == {(1, 0, 0, 0)}
        # critical components with no external counterpart
        assert {h.normal for h in report.sf_only} == {
            (1, 1, 1, 1),
            (0, 1, 1, 0),
        }
        assert report.consistent_with_fixture


def test_acceptance_9_property_suite():
    with Timer(9, 300):
        rng = Random(5150)
        # positive-rescaling invariance of tropical membership and of the
        # initial ideal on the coin model
        coin = load_spec(fixture("coin_model.json")).ideal
        engine = TropicalEngine(coin)
        for w in [(2, 1, 0), (1, -1, 0), (0, 1, 1), (1, 2, 2)]:
            lam = rng.randint(2, 5)
            scaled = tuple(lam * x for x in w)
            assert engine.contains(w) == engine.contains(scaled)
            J, K = engine.initial(w), engine.initial(scaled)
            assert groebner_basis(J).gens == groebner_basis(K).gens
        # homogeneity space of init_w always contains w
        for w in [(2, 1, 0), (0, 1, 1), (-2, -2, -1), (1, 0, -2)]:
            basis = homogeneity_space(engine.initial(w))
            rows = [list(b) for b in basis]
            assert rank(rows + [[Fraction(x) for x in w]]) == len(basis)
        # rigid rays sum to zero on both ML-degree-one fixtures
        for name, bound in [("coin_model.json", 2), ("four_lines_ideal.json", 2)]:
            spec = load_spec(fixture(name))
            assert ml_degree(spec) == 1
            rays = find_rigid_rays(spec.to_ideal(), bound=bound)
            p = len(rays[0].v)
            assert tuple(sum(r.v[i] for r in rays) for i in range(p)) == (0,) * p
        # |chi| equals the ML degree on arrangements with up to 5 lines
        arrangement_rows = [
            [((1, 0), 0), ((0, 1), 0)],
            [((1, 0), 0), ((0, 1), 0), ((1, -1), 0)],
            [((1, 0), 0), ((0, 1), 0), ((1, 1), -1)],
            [((1, 0), 0), ((0, 1), 0), ((1, -1), 0), ((1, 0), -1)],
            [((1, 0), 0), ((0, 1), 0), ((1, -1), 0), ((1, 1), 0), ((1, 0), -1)],
        ]
        from tropcrit.mle import VarietySpec

        for rows in arrangement_rows:
            arr = Arrangement(rows=rows, nvars=2)
            spec = VarietySpec(kind="arrangement", arrangement=arr)
            assert abs(chi_complement(arr)) == ml_degree(spec)
        # the all-ones inequality at k = dim Y is facet-defining on three
        # indecomposable central arrangements
        indecomposables = [
            (Arrangement(rows=[((1, 0), 0), ((0, 1), 0), ((1, -1), 0)], nvars=2), 2),
            (
                Arrangement(
                    rows=[((1, 0), 0), ((0, 1), 0), ((1, -1), 0), ((1, 1), 0)],
                    nvars=2,
                ),
                2,
            ),
            (
                Arrangement(
                    rows=[
                        ((1, 0, 0), 0),
                        ((0, 1, 0), 0),
                        ((0, 0, 1), 0),
                        ((1, 1, 1), 0),
                    ],
                    nvars=3,
                ),
                3,
            ),
        ]
        for arr, dim_y in indecomposables:
            p = arr.size
            ones = tuple([1] * p)
            poly = lct_polytope([Ray(ones)], k={ones: dim_y}, arrangement=arr)
            assert facet_defining(poly, 0)
