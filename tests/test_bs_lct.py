from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from models import (
    COIN_RAYS,
    FOUR_LINES_RAYS,
    five_lines_arrangement,
    four_lines_arrangement,
)
from tropcrit.arrangement import Arrangement, flacet_rays
from tropcrit.bs_lct import (
    BSFactor,
    BSFixture,
    LCTPolytope,
    bs_slope_intersection,
    conjecture_check,
    facet_defining,
    lct_polytope,
    qfa_nonneg_certificate,
)
from tropcrit.errors import (
    MissingDiscrepancy,
    NotIndecomposable,
    ResourceBudgetExceeded,
)
from tropcrit.groebner import Job
from tropcrit.linalg import rank, solve_linear
from tropcrit.rings import dot
from tropcrit.tropical import Ray, SlopeHyperplane


def four_lines_fixture():
    # externally computed factor list for the four-lines model
    return BSFixture(
        factors=[
            BSFactor(normal=(1, 1, 1, 0)),
            BSFactor(normal=(1, 0, 0, 0)),
            BSFactor(normal=(0, 1, 0, 0)),
            BSFactor(normal=(0, 0, 1, 0)),
            BSFactor(normal=(0, 0, 0, 1)),
        ]
    )


def coin_fixture():
    return BSFixture(
        factors=[
            BSFactor(normal=(2, 1, 0), offsets=(Fraction(1), Fraction(2), Fraction(3))),
            BSFactor(normal=(0, 1, 1), offsets=(Fraction(1), Fraction(2))),
        ]
    )


def test_bs_slope_intersection_four_lines():
    rays = [Ray(v) for v in sorted(FOUR_LINES_RAYS)]
    report = bs_slope_intersection(rays)
    got = {h.normal for h in report.intersection_with_sf}
    assert got == {(1, 1, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}


def test_bs_slope_intersection_coin():
    rays = [Ray(v) for v in sorted(COIN_RAYS)]
    report = bs_slope_intersection(rays)
    got = {h.normal for h in report.intersection_with_sf}
    # the all-negative ray is excluded
    assert got == {(2, 1, 0), (0, 1, 1)}


def test_bs_slope_intersection_empty():
    rays = [Ray((-1, -1)), Ray((1, -1))]
    report = bs_slope_intersection(rays)
    assert report.intersection_with_sf == []


def test_fixture_comparison_four_lines():
    rays = [Ray(v) for v in sorted(FOUR_LINES_RAYS)]
    report = bs_slope_intersection(rays, fixture=four_lines_fixture())
    assert report.consistent_with_fixture
    # {s1=0} appears in the external data but not among critical slopes
    assert {h.normal for h in report.bs_only} == {(1, 0, 0, 0)}
    # the all-sum and middle-sum slopes have no external counterpart
    assert {h.normal for h in report.sf_only} == {(1, 1, 1, 1), (0, 1, 1, 0)}


def test_fixture_comparison_coin():
    rays = [Ray(v) for v in sorted(COIN_RAYS)]
    report = bs_slope_intersection(rays, fixture=coin_fixture())
    assert report.consistent_with_fixture
    assert report.bs_only == []
    assert {h.normal for h in report.sf_only} == {(2, 2, 1)}


def test_qfa_certificate():
    assert qfa_nonneg_certificate((0, 0, 0))
    assert not qfa_nonneg_certificate((-1, -1, -2))
    assert qfa_nonneg_certificate((1, 1, 1, 0))


# -- LCT polytopes ------------------------------------------------------------------


def test_lct_single_ray_slab():
    poly = lct_polytope([Ray((1, 0))], k={(1, 0): 1})
    assert poly.inequalities == [((1, 0), Fraction(1))]
    assert poly.dimension == 2
    assert facet_defining(poly, 0)


def test_lct_empty_rays_orthant():
    poly = lct_polytope([], k={}, arrangement=four_lines_arrangement(projective=True))
    assert poly.inequalities == []


def test_lct_missing_discrepancy():
    with pytest.raises(MissingDiscrepancy):
        lct_polytope([Ray((1, 0))])


def test_lct_rejects_negative_rays():
    with pytest.raises(ValueError):
        lct_polytope([Ray((-1, 0))], k={(-1, 0): 1})


def test_facet_defining_redundant_inequality():
    # s1 <= 2 is dominated by s1 <= 1
    poly = LCTPolytope(
        inequalities=[((1, 0), Fraction(1)), ((1, 0), Fraction(2)), ((0, 1), Fraction(1))],
        dimension=2,
    )
    assert facet_defining(poly, 0)
    assert not facet_defining(poly, 1)


def test_facet_defining_rescaling_invariance():
    a = LCTPolytope(
        inequalities=[((1, 1), Fraction(2)), ((1, 0), Fraction(1))], dimension=2
    )
    b = LCTPolytope(
        inequalities=[((2, 2), Fraction(4)), ((1, 0), Fraction(1))], dimension=2
    )
    assert facet_defining(a, 0) == facet_defining(b, 0)
    assert facet_defining(a, 1) == facet_defining(b, 1)


def test_facet_defining_beyond_eight_coordinates():
    # nine coordinates: the simplex run has no dimension cap
    poly = LCTPolytope(
        inequalities=[(tuple([1] * 9), Fraction(1))], dimension=9
    )
    assert facet_defining(poly, 0)
    assert facet_by_face_enumeration(poly, 0, rank_then_solve_vertices(poly))


def test_conjecture_check_respects_the_job_budget():
    arr = four_lines_arrangement(projective=True)
    rays = [Ray(v) for v in sorted(FOUR_LINES_RAYS) if all(x >= 0 for x in v)]
    with Job(1), pytest.raises(ResourceBudgetExceeded):
        conjecture_check(rays, arrangement=arr)


def central(rows, n):
    return Arrangement(rows=[(r, 0) for r in rows], nvars=n)


INDECOMPOSABLE = [
    # three concurrent lines in the plane: dim Y = 2
    (central([(1, 0), (0, 1), (1, -1)], 2), 2),
    # four generic lines through the origin: dim Y = 2
    (central([(1, 0), (0, 1), (1, -1), (1, 1)], 2), 2),
    # essential arrangement in 3-space: dim Y = 3
    (central([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 3), 3),
]


def test_all_ones_facet_on_indecomposable_arrangements():
    for arr, dim_y in INDECOMPOSABLE:
        p = arr.size
        all_ones = Ray(tuple([1] * p))
        poly = lct_polytope([all_ones], k={tuple([1] * p): dim_y}, arrangement=arr)
        assert facet_defining(poly, 0)


def test_conjecture_check_arrangement_ranks():
    # nonnegative rigid rays of the four-lines model with auto-filled k
    arr = four_lines_arrangement(projective=True)
    rays = [Ray(v) for v in sorted(FOUR_LINES_RAYS) if all(x >= 0 for x in v)]
    results = conjecture_check(rays, arrangement=arr)
    assert all(r["facet_defining"] for r in results)
    ks = {tuple(r["ray"]): r["k"] for r in results}
    assert ks[(1, 1, 1, 0)] == "2"  # rank of the triple point
    assert ks[(0, 1, 0, 0)] == "1"


def test_conjecture_check_refuses_decomposable():
    boolean = central([(1, 0), (0, 1)], 2)
    with pytest.raises(NotIndecomposable):
        conjecture_check([Ray((1, 0))], arrangement=boolean)


def test_conjecture_check_user_k_flagged():
    rays = [Ray(v) for v in sorted(COIN_RAYS) if all(x >= 0 for x in v)]
    results = conjecture_check(
        rays, k={(2, 1, 0): Fraction(3), (0, 1, 1): Fraction(2)}
    )
    assert all("unverified" in r["k_provenance"] for r in results)
    # both normals carry a zero coordinate: no derived component claim
    assert all("bs_component_claim" not in r for r in results)


def test_bs_component_claim_full_support_facet():
    arr = central([(1, 0), (0, 1), (1, -1)], 2)
    results = conjecture_check([Ray((1, 1))], k={(1, 1): 2}, arrangement=arr)
    [entry] = results
    assert entry["facet_defining"]
    assert entry["bs_component_claim"] == {"normal": [1, 1], "level": "-2"}


def test_intersection_is_set_identity_with_nonneg_slopes():
    # output == {critical slopes} restricted to normals with a one-sided
    # sign pattern coming from a nonnegative ray
    from tropcrit.tropical import critical_slopes

    for rayset in (FOUR_LINES_RAYS, COIN_RAYS):
        rays = [Ray(v) for v in sorted(rayset)]
        report = bs_slope_intersection(rays)
        slopes = critical_slopes(rays)
        nonneg_normals = {
            SlopeHyperplane(normal=r.v).normal
            for r in rays
            if all(x >= 0 for x in r.v)
        }
        expected = {h.normal for h in slopes if h.normal in nonneg_normals}
        assert {h.normal for h in report.intersection_with_sf} == expected


def constraints(poly):
    """All constraints of the polytope as (row, rhs) of row . s <= rhs."""
    p = poly.dimension
    rows = [([Fraction(x) for x in a], Fraction(k)) for a, k in poly.inequalities]
    for i in range(p):
        rows.append(([Fraction(-int(i == j)) for j in range(p)], Fraction(0)))
    return rows


def face_recession_rays(poly, face):
    """Extreme rays of the recession cone of one face, enumerated on that
    face alone: p - 2 tight constraints, a.d = 0 and entries summing to 1."""
    p = poly.dimension
    if p < 2:
        return []
    rows = [row for row, _ in constraints(poly)]
    a = [Fraction(x) for x in poly.inequalities[face][0]]
    norm = [Fraction(1)] * p
    found = []
    for subset in combinations(range(len(rows)), p - 2):
        m = [rows[i] for i in subset] + [a, norm]
        if rank(m) < p:
            continue
        d = solve_linear(m, [Fraction(0)] * (p - 1) + [Fraction(1)])
        if any(dot(row, d) > 0 for row in rows) or dot(a, d) != 0:
            continue
        if tuple(d) not in found:
            found.append(tuple(d))
    return sorted(found)


def rank_then_solve_vertices(poly):
    """Vertices by a rank test, then an exact solve, per set of p
    constraints."""
    p = poly.dimension
    rows = constraints(poly)
    found = set()
    for subset in combinations(range(len(rows)), p):
        m = [rows[i][0] for i in subset]
        if rank(m) < p:
            continue
        x = solve_linear(m, [rows[i][1] for i in subset])
        if all(dot(row, x) <= rhs for row, rhs in rows):
            found.add(tuple(x))
    return sorted(found)


def facet_by_face_enumeration(poly, which, vertices):
    """Does the face of inequality ``which`` have affine dimension p - 1,
    with its vertices among ``vertices`` and its own recession rays?"""
    a, k = poly.inequalities[which]
    on_face = [v for v in vertices if dot(a, v) == k]
    if not on_face:
        return False
    rows = [[x - y for x, y in zip(v, on_face[0])] for v in on_face[1:]]
    rows += [list(d) for d in face_recession_rays(poly, which)]
    return (rank(rows) if rows else 0) == poly.dimension - 1


def assert_facets_match_enumeration(poly):
    vertices = rank_then_solve_vertices(poly)
    for which in range(len(poly.inequalities)):
        assert facet_defining(poly, which) == facet_by_face_enumeration(
            poly, which, vertices
        )


@st.composite
def nonneg_polytopes(draw):
    p = draw(st.integers(2, 5))
    normals = draw(
        st.lists(
            st.tuples(*(st.integers(0, 2) for _ in range(p))).filter(any),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    ks = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=4),
            min_size=len(normals),
            max_size=len(normals),
        )
    )
    inequalities = list(zip(normals, ks))
    # copies of drawn inequalities, scaled by positive integers: the same
    # halfspaces listed again
    for i, c in draw(
        st.lists(
            st.tuples(st.integers(0, len(normals) - 1), st.integers(1, 3)),
            max_size=2,
        )
    ):
        a, k = inequalities[i]
        inequalities.append((tuple(c * x for x in a), c * k))
    order = draw(st.permutations(range(len(inequalities))))
    return LCTPolytope(
        inequalities=[inequalities[i] for i in order], dimension=p
    )


@settings(max_examples=80, deadline=None)
@given(poly=nonneg_polytopes())
def test_facet_defining_matches_per_face_enumeration(poly):
    assert_facets_match_enumeration(poly)


@pytest.mark.parametrize(
    "arr",
    [four_lines_arrangement(projective=True), five_lines_arrangement()],
    ids=["four_lines", "five_lines"],
)
def test_facet_defining_matches_enumeration_on_flacet_rays(arr):
    # k is the rank of each ray's support flat
    rays = [r for r in flacet_rays(arr) if all(x >= 0 for x in r.v)]
    poly = lct_polytope(rays, arrangement=arr)
    assert len(poly.inequalities) == len(rays) >= 4
    assert_facets_match_enumeration(poly)
