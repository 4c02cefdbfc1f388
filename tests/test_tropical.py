import random
import warnings
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from models import (
    COIN_RAYS,
    CONIC_RAYS,
    FOUR_LINES_RAYS,
    check_tied_ranks,
    coin_ideal,
    conic_ideal,
    embedded_at_infinity_ideals,
    exponent_image,
    five_lines_ideal,
    four_lines_ideal,
    homogeneity_space,
    initial_by_fresh_run,
    mat_mul,
    ray_euler_chars,
    tied_space,
)
from tropcrit import groebner, tropical
from tropcrit.errors import NotInTropicalVariety
from tropcrit.groebner import (
    Ideal,
    InitialIdealEngine,
    Job,
    groebner_basis,
    ideal_dimension,
    saturate,
)
from tropcrit.linalg import mat_vec, unimodular_completion, vec_gcd
from tropcrit.mle import torus_euler_characteristic
from tropcrit.rings import Polynomial, poly_parse
from tropcrit.tropical import (
    Ray,
    SlopeHyperplane,
    TropicalEngine,
    critical_slopes,
    find_rigid_rays,
    is_rigid,
    stratum_euler_char,
    stratum_model,
    weighted_ray_sum,
)


def test_trop_contains_coin_ray():
    assert TropicalEngine.of(coin_ideal()).contains((2, 1, 0))


def test_trop_contains_coin_nonray():
    assert not TropicalEngine.of(coin_ideal()).contains((1, 0, 0))


def test_trop_contains_unit_initial():
    I = Ideal([poly_parse("t1-1", ("t1",))])
    assert not TropicalEngine.of(I).contains((1,))


def test_trop_contains_rejects_weight_of_wrong_length():
    # the witness test zips w with exponent differences, which would
    # silently drop the extra or missing entries
    eng = TropicalEngine.of(coin_ideal())
    for w in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError, match="weight length"):
            eng.contains(w)


def test_trop_contains_rescaling_invariance():
    eng = TropicalEngine(coin_ideal())
    rng = random.Random(2)
    for _ in range(8):
        w = tuple(rng.randint(-2, 2) for _ in range(3))
        if not any(w):
            continue
        lam = rng.randint(2, 4)
        assert eng.contains(w) == eng.contains(tuple(lam * x for x in w))


def test_coin_rays_all_rigid():
    eng = TropicalEngine(coin_ideal())
    for w in COIN_RAYS:
        assert eng.contains(w)
        assert eng.is_rigid(w)


def test_four_lines_e1_in_trop_but_not_rigid():
    eng = TropicalEngine(four_lines_ideal())
    assert eng.contains((1, 0, 0, 0))
    assert not eng.is_rigid((1, 0, 0, 0))


def test_conic_escape_ray_rigid():
    assert is_rigid(conic_ideal(), (-1, -1, -2))


def test_is_rigid_outside_tropical_raises():
    with pytest.raises(NotInTropicalVariety):
        is_rigid(coin_ideal(), (1, 0, 0))


def test_find_rigid_rays_four_lines():
    rays = find_rigid_rays(four_lines_ideal(), bound=2)
    assert {r.v for r in rays} == FOUR_LINES_RAYS


def test_find_rigid_rays_conic():
    rays = find_rigid_rays(conic_ideal(), bound=2)
    assert {r.v for r in rays} == CONIC_RAYS


def test_find_rigid_rays_coin():
    rays = find_rigid_rays(coin_ideal(), bound=2)
    assert {r.v for r in rays} == COIN_RAYS


def test_find_rigid_rays_zero_ideal_empty():
    I = Ideal([], ("t1", "t2"))
    assert find_rigid_rays(I, bound=2) == []
    # one-dimensional torus: the full homogeneity space must not be
    # mistaken for a one-dimensional one
    assert find_rigid_rays(Ideal([], ("t1",)), bound=2) == []


def test_ray_search_runs_buchberger_once_per_cone(monkeypatch):
    # weights in a stored Groebner cone reuse its basis, so a larger box
    # meets no new cones and runs no more Buchberger; the witness test
    # keeps every weight outside trop(I) from a lookup, so only the cones
    # that meet trop(I) are computed (4 for this ideal)
    runs = []
    real = groebner._buchberger

    def counting(gens, order, budget):
        # a weighted run's order is one weight row refined by degree
        weight, *rest = order.rows
        if rest == [(1,) * len(weight)]:
            runs.append(weight)
        return real(gens, order, budget)

    monkeypatch.setattr(groebner, "_buchberger", counting)
    counts = []
    for bound in (2, 3, 4):
        runs.clear()
        with Job():
            find_rigid_rays(four_lines_ideal(), bound=bound)
        counts.append(len(runs))
    assert counts == [4, 4, 4]


def test_contains_saturates_once_per_initial_ideal(monkeypatch):
    # the same initial ideal can come with its generators listed in
    # another order (the order follows the weight); it is saturated once
    saturated = []
    real = tropical.saturate

    def recording(ideal, f):
        saturated.append(frozenset(ideal.gens))
        return real(ideal, f)

    monkeypatch.setattr(tropical, "saturate", recording)
    with Job():
        find_rigid_rays(four_lines_ideal(), bound=3)
    assert saturated and len(saturated) == len(set(saturated))


def test_conic_ray_search_runs_no_saturation_by_elimination(monkeypatch):
    # the conic is a hypersurface: each initial ideal the search saturates
    # has one generator, whose saturation by the torus monomial is itself
    # with its monomial factor divided out, so no elimination runs
    runs = []
    real = groebner._saturate_single

    def counting(ideal, f):
        runs.append(ideal)
        return real(ideal, f)

    monkeypatch.setattr(groebner, "_saturate_single", counting)
    with Job():
        rays = find_rigid_rays(conic_ideal(), bound=2)
    assert {r.v for r in rays} == CONIC_RAYS
    assert runs == []


def test_box_search_builds_each_face_once(monkeypatch):
    # init_w(I) is constant on each face of a Groebner cone, so the box
    # search builds it once per (cone, tie pattern), not once per weight
    faces = []
    real = InitialIdealEngine.initial

    def recording(self, w, **kwargs):
        faces.append(self.face(w))
        return real(self, w, **kwargs)

    monkeypatch.setattr(InitialIdealEngine, "initial", recording)
    with Job():
        find_rigid_rays(four_lines_ideal(), bound=4)
    assert faces and len(faces) == len(set(faces))


def test_ray_search_looks_each_candidate_up_once(monkeypatch):
    # the face record holds the (cone, tie pattern) pair, and init_w(I) is
    # built from it, not from a second lookup of w
    lookups = []
    real = InitialIdealEngine.face

    def counting(self, w):
        lookups.append(tuple(w))
        return real(self, w)

    with Job():
        candidates = TropicalEngine(four_lines_ideal()).candidates(2)
    monkeypatch.setattr(InitialIdealEngine, "face", counting)
    with Job():
        rays = find_rigid_rays(four_lines_ideal(), bound=2)
    assert {r.v for r in rays} == FOUR_LINES_RAYS
    assert lookups == candidates


@pytest.fixture(
    scope="module",
    params=[coin_ideal, conic_ideal, four_lines_ideal, five_lines_ideal],
    ids=["coin", "conic", "four_lines_ideal", "five_lines"],
)
def shared_engine(request):
    """One engine per ideal for all examples, so later weights are
    answered from the memo of the faces met before."""
    return TropicalEngine(request.param())


def _fresh_answers(eng, w):
    """(membership, rigidity) of w from a Buchberger run of its own, a
    saturation by the torus monomial and the homogeneity space."""
    J = initial_by_fresh_run(eng.engine, w)
    S = saturate(J, eng.torus_monomial)
    member = S.is_zero or not groebner_basis(S).is_unit
    return member, member and len(homogeneity_space(J)) == 1


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_face_keyed_answers_match_fresh_route(shared_engine, data):
    coordinate = st.one_of(st.just(0), st.integers(-4, 4))
    p = shared_engine.nvars
    w = tuple(data.draw(st.lists(coordinate, min_size=p, max_size=p)))
    assume(any(w))
    member, rigid = _fresh_answers(shared_engine, w)
    assert shared_engine.contains(w) == member
    if member:
        assert shared_engine.is_rigid(w) == rigid
    else:
        with pytest.raises(NotInTropicalVariety):
            shared_engine.is_rigid(w)


def test_tied_differences_bound_the_homogeneity_space(shared_engine):
    # every term of an initial form is the leading monomial or tied to it,
    # so whatever is orthogonal to the tied differences grades init_w(I);
    # is_rigid reads rigidity from their rank where that settles it
    assert check_tied_ranks(shared_engine, 3)


@pytest.mark.filterwarnings("ignore::tropcrit.tropical.ConnectednessAssumed")
@pytest.mark.parametrize("index", [0, 1], ids=["leading", "tail"])
def test_a_grading_the_tied_differences_miss_breaks_rigidity(index):
    # the tied differences at w leave one dimension, but dehomogenizing
    # makes the face's initial forms a non-reduced basis of init_w(I),
    # whose homogeneity space is two-dimensional
    ideal, w = embedded_at_infinity_ideals()[index]
    with Job():
        eng = TropicalEngine(ideal)
        assert eng.contains(w)
        assert len(tied_space(eng, w)) == 1
        assert len(homogeneity_space(eng.initial(w))) == 2
        assert not eng.is_rigid(w)
        assert w not in [r.v for r in find_rigid_rays(eng.ideal, bound=1)]


@pytest.mark.filterwarnings("ignore::tropcrit.tropical.ConnectednessAssumed")
def test_torus_automorphism_maps_rays_onto_rays():
    # x -> x^U is an automorphism of the torus, so U maps the image's
    # rigid rays onto I's, with the same strata.  At (0, -1, -1, -1) the
    # image's raw initial ideal is graded by one line, its torus
    # saturation by a plane: that weight is not rigid
    U = [[1, 0, 0, 1], [-1, 1, 0, -1], [0, 0, 1, 0], [0, 0, 0, 1]]
    ideal = four_lines_ideal()
    want = ray_euler_chars(ideal, 3)
    got = ray_euler_chars(exponent_image(ideal, U), 3)
    assert set(want) == FOUR_LINES_RAYS
    assert {tuple(mat_vec(U, v)): chi for v, chi in got.items()} == want
    with Job():
        eng = TropicalEngine(exponent_image(ideal, U))
        w = (0, -1, -1, -1)
        assert eng.contains(w) and not eng.is_rigid(w)
        assert len(homogeneity_space(eng.initial(w))) == 1
        assert len(homogeneity_space(saturate(eng.initial(w), eng.torus_monomial))) == 2


def test_ray_search_saturates_only_one_dimensional_faces(monkeypatch):
    # a face whose tied differences leave two or more dimensions holds no
    # rigid ray, so its initial ideal is never saturated; every other face
    # met is, once per initial ideal without a monomial generator
    saturated = []
    real = tropical.saturate

    def recording(ideal, f):
        saturated.append(frozenset(ideal.gens))
        return real(ideal, f)

    monkeypatch.setattr(tropical, "saturate", recording)
    with Job():
        eng = TropicalEngine.of(four_lines_ideal())
        find_rigid_rays(eng.ideal, bound=4)
    monkeypatch.undo()
    one_dimensional = set()
    for w in product(range(-4, 5), repeat=4):
        if any(w) and vec_gcd(w) == 1 and not eng._screened_out(w):
            J = eng.initial(w)
            if len(tied_space(eng, w)) == 1 and not any(g.is_term() for g in J.gens):
                one_dimensional.add(frozenset(J.gens))
    assert one_dimensional
    assert len(saturated) == len(one_dimensional)
    assert set(saturated) == one_dimensional


def test_only_weights_in_trop_reach_a_cone_lookup(monkeypatch):
    # a weight at which a known element of I has a unique minimal term is
    # outside trop(I) and never reaches a Groebner-cone lookup: of the
    # 5,856 primitive weights of the bound-4 box, exactly the 105 in trop(I)
    # do
    looked_up = set()
    real = InitialIdealEngine.face

    def recording(self, w):
        looked_up.add(tuple(w))
        return real(self, w)

    monkeypatch.setattr(InitialIdealEngine, "face", recording)
    with Job():
        eng = TropicalEngine.of(four_lines_ideal())
        find_rigid_rays(eng.ideal, bound=4)
    monkeypatch.undo()
    assert len(looked_up) == 105
    assert all(_fresh_answers(eng, w)[0] for w in looked_up)


def test_rays_recheck_independently():
    I = coin_ideal()
    for ray in find_rigid_rays(I, bound=2):
        assert TropicalEngine.of(I).contains(ray.v)
        assert is_rigid(I, ray.v)


def test_connectedness_warning_emitted():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        find_rigid_rays(coin_ideal(), bound=1)
    assert any("connected" in str(w.message) for w in caught)


# -- slopes ------------------------------------------------------------------------


def test_critical_slopes_four_lines():
    rays = [Ray(v) for v in FOUR_LINES_RAYS]
    slopes = {h.normal for h in critical_slopes(rays)}
    assert slopes == {
        (1, 1, 1, 1),
        (0, 1, 1, 0),
        (1, 1, 1, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    }


def test_critical_slopes_coin():
    rays = [Ray(v) for v in COIN_RAYS]
    slopes = {h.normal for h in critical_slopes(rays)}
    assert slopes == {(2, 1, 0), (0, 1, 1), (2, 2, 1)}


def test_critical_slopes_empty():
    assert critical_slopes([]) == []


def test_slope_hyperplane_sign_dedup():
    a = SlopeHyperplane(normal=(-2, -2, -1))
    b = SlopeHyperplane(normal=(2, 2, 1))
    assert a == b and hash(a) == hash(b)


# -- strata -------------------------------------------------------------------------


def test_stratum_model_conic_is_plane_conic():
    stratum = stratum_model(conic_ideal(), Ray((-1, -1, -2)))
    sat = saturate(stratum, Polynomial({(1, 1): Fraction(1)}, stratum.vars))
    assert ideal_dimension(sat) == 1
    assert len(stratum.gens) == 1
    assert stratum.gens[0].total_degree() == 2


def _integer_det(m):
    """Determinant by Laplace expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _integer_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def _check_unimodular_completion(v):
    b = unimodular_completion(v)
    assert all(isinstance(x, int) for row in b for x in row)
    assert tuple(row[0] for row in b) == tuple(v)
    assert _integer_det(b) in (1, -1)


@pytest.mark.parametrize(
    "v",
    sorted(COIN_RAYS | CONIC_RAYS | FOUR_LINES_RAYS),
    ids=lambda v: ",".join(map(str, v)),
)
def test_unimodular_completion_of_fixture_rays(v):
    _check_unimodular_completion(v)


@settings(max_examples=60, deadline=None)
@given(v=st.lists(st.integers(-30, 30), min_size=2, max_size=5))
def test_unimodular_completion_of_generated_primitive_vectors(v):
    assume(vec_gcd(v) == 1)
    _check_unimodular_completion(v)


def test_stratum_model_coin_zero_dimensional():
    stratum = stratum_model(coin_ideal(), Ray((2, 1, 0)))
    sat = saturate(stratum, Polynomial({(1, 1): Fraction(1)}, stratum.vars))
    assert ideal_dimension(sat) == 0


def test_stratum_model_principal_edge_polynomial():
    # principal ideal: the stratum of an edge-normal ray is cut out by the
    # edge polynomial of the Newton polytope
    vars = ("t1", "t2")
    I = Ideal([poly_parse("1+t1+t2+t1*t2^2", vars)])
    # weight (1,0): minimal terms 1 + t2 (the edge with t1-exponent 0)
    [g] = stratum_model(I, Ray((1, 0))).gens
    # edge polynomial 1 + t2 in the quotient coordinate
    assert g.total_degree() == 1 and len(g.terms) == 2


def test_stratum_euler_char_conic():
    assert stratum_euler_char(conic_ideal(), Ray((-1, -1, -2))) == -2


def test_stratum_euler_char_four_lines_e1_zero():
    I = four_lines_ideal()
    with Job():
        assert TropicalEngine.of(I).contains((1, 0, 0, 0))
        ray = Ray((1, 0, 0, 0), rigid=False)
        assert stratum_euler_char(I, ray) == 0


def test_stratum_euler_char_coin_points():
    I = coin_ideal()
    with Job():
        for v in COIN_RAYS:
            assert stratum_euler_char(I, Ray(v)) == 1


def test_stratum_euler_char_unimodular_invariance():
    # the stratum's Euler characteristic does not depend on the completion
    # of the ray to a lattice basis: post-compose the completion with
    # integer unimodular maps that fix e1 and rebuild the stratum model
    I = conic_ideal()
    v = (-1, -1, -2)
    fixing_e1 = ([[1, 2, -1], [0, 1, 0], [0, 0, 1]], [[1, -3, 1], [0, 1, 1], [0, 0, 1]])
    with Job():
        base = stratum_euler_char(I, Ray(v))
        J = TropicalEngine.of(I).initial(v)
        for t in fixing_e1:
            B = mat_mul(unimodular_completion(v), t)
            vars = ("u1", "u2")
            gens = []
            for g in J.gens:
                h = g.apply_exponent_map(B).laurent_normalize()
                dropped = Polynomial({e[1:]: c for e, c in h.terms.items()}, vars)
                if not dropped.is_zero:
                    gens.append(dropped)
            assert torus_euler_characteristic(Ideal(gens, vars)) == base


# -- weighted sums ---------------------------------------------------------------------


def test_weighted_ray_sum_conic_vanishes():
    I = conic_ideal()
    rays = [Ray(v) for v in sorted(CONIC_RAYS)]
    assert weighted_ray_sum(I, rays) == (0, 0, 0)


def test_weighted_ray_sum_coin_vanishes():
    I = coin_ideal()
    rays = [Ray(v) for v in sorted(COIN_RAYS)]
    assert weighted_ray_sum(I, rays) == (0, 0, 0)


def test_weighted_ray_sum_empty():
    assert weighted_ray_sum(coin_ideal(), []) == (0, 0, 0)
