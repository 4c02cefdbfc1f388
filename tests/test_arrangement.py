import json
from functools import reduce
from pathlib import Path
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from models import (
    FOUR_LINES_RAYS,
    arrangement_specs,
    connected_by_splits,
    essential_arrangements,
    five_lines_arrangement,
    four_lines_arrangement,
    four_lines_ideal,
    oracle_flacets,
    reference_flacets,
    reference_flat_rank,
    reference_lattice,
    reference_matroid_connected,
)
from tropcrit import arrangement
from tropcrit.arrangement import (
    Arrangement,
    _components,
    _flacets,
    _integer_vectors,
    _lattice,
    chi_complement,
    flacet_rays,
    flacets,
    flat_lattice,
    intersection_lattice,
    matroid_connected,
    matroid_flats,
    matroid_invariants,
)
from tropcrit.bs_lct import _support_flat_rank
from tropcrit.cli import JobConfig, load_spec, run_report
from tropcrit.errors import NotCentral
from tropcrit.groebner import Job
from tropcrit.linalg import extend_echelon, rank
from tropcrit.mle import ml_degree
from tropcrit.tropical import find_rigid_rays, stratum_euler_char


def test_lattice_four_lines():
    flats = intersection_lattice(four_lines_arrangement())
    by_rank = {}
    for f in flats:
        by_rank.setdefault(f.rank, []).append(f)
    assert len(by_rank[0]) == 1  # ambient plane
    assert len(by_rank[1]) == 4  # the four lines
    assert len(by_rank[2]) == 3  # (0,0), (1,0), (1,1)
    points = {tuple(sorted(f.members)) for f in by_rank[2]}
    assert points == {(0, 1, 2), (1, 3), (2, 3)}


def test_lattice_single_hyperplane():
    arr = Arrangement(rows=[((1, 0), 0)], nvars=2)
    assert len(intersection_lattice(arr)) == 2


def test_lattice_two_parallel_lines():
    arr = Arrangement(rows=[((1, 0), 0), ((1, 0), -1)], nvars=2)
    assert len(intersection_lattice(arr)) == 3  # no intersection point


def test_flacets_four_lines_projectivized():
    arr = four_lines_arrangement(projective=True)
    fl = flacets(arr)
    assert len(fl) == 6
    members = {tuple(sorted(f.members)) for f in fl}
    # the hyperplane f1 = {x=0} alone is not a flacet
    assert (0,) not in members
    assert {(1,), (2,), (3,), (4,), (0, 1, 2), (0, 3, 4)} == members


def test_flacets_need_central_data():
    with pytest.raises(NotCentral):
        flacets(four_lines_arrangement(projective=False))


def test_flacets_boolean_arrangements():
    # two coordinate lines: only the two atoms survive
    b2 = Arrangement(rows=[((1, 0), 0), ((0, 1), 0)], nvars=2)
    assert {tuple(f.members) for f in flacets(b2)} == {(0,), (1,)}
    # three coordinate planes: every proper flat has a disconnected minor
    b3 = Arrangement(
        rows=[((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)], nvars=3
    )
    assert flacets(b3) == []


def test_flacets_match_poset_product_oracle():
    arr = four_lines_arrangement(projective=True)
    got = sorted(
        (tuple(sorted(f.members)) for f in flacets(arr)), key=lambda t: (len(t), t)
    )
    oracle = [tuple(sorted(f)) for f in oracle_flacets(arr.central_vectors())]
    assert got == oracle


def test_flacets_match_oracle_small_central():
    arr = Arrangement(
        rows=[((1, 0), 0), ((0, 1), 0), ((1, -1), 0), ((1, 1), 0)], nvars=2
    )
    got = sorted(
        (tuple(sorted(f.members)) for f in flacets(arr)), key=lambda t: (len(t), t)
    )
    oracle = [tuple(sorted(f)) for f in oracle_flacets(arr.central_vectors())]
    assert got == oracle


def test_flacet_rays_four_lines():
    arr = four_lines_arrangement(projective=True)
    rays = flacet_rays(arr)
    assert {r.v for r in rays} == FOUR_LINES_RAYS
    vecs = {r.v for r in rays}
    assert (1, 1, 1, 0) in vecs  # origin flacet, inside f1,f2,f3
    assert (-1, -1, -1, -1) in vecs  # line at infinity
    assert (0, 1, 0, 0) in vecs  # flacet {f2}


def test_flacet_rays_agree_with_rigid_ray_search():
    arr_rays = {r.v for r in flacet_rays(four_lines_arrangement(projective=True))}
    search_rays = {r.v for r in find_rigid_rays(four_lines_ideal(), bound=2)}
    assert arr_rays == search_rays


def test_chi_complement_four_lines():
    assert chi_complement(four_lines_arrangement()) == 1


def test_chi_complement_empty_arrangement():
    arr = Arrangement(rows=[], nvars=3)
    assert chi_complement(arr) == 1


def test_chi_complement_two_concurrent_lines():
    arr = Arrangement(rows=[((1, 0), 0), ((0, 1), 0)], nvars=2)
    assert chi_complement(arr) == 0  # complement is a 2-torus


def test_every_flacet_is_a_dense_edge():
    arr = four_lines_arrangement(projective=True)
    vectors = arr.central_vectors()
    for f in flacets(arr):
        assert matroid_connected([vectors[i] for i in sorted(f.members)])


def test_deletion_invariant_scope():
    # deleting a hyperplane contained in NO flacet must keep the remaining
    # rays; on connected small arrangements every hyperplane sits inside
    # some flacet (atoms are flacets unless their contraction decomposes),
    # so the invariant holds vacuously -- assert that scope explicitly
    arr = four_lines_arrangement(projective=True)
    used = set()
    for f in flacets(arr):
        used |= f.members
    assert used == set(range(5))  # 4 functionals + infinity, all covered


def test_restriction_keeps_flacet_flats_avoiding_deleted_line():
    # flacets of a larger arrangement that avoid a deleted generic line
    # remain flats of the smaller one with the same members
    arr5 = Arrangement(
        rows=[
            ((1, 0), 0),
            ((0, 1), 0),
            ((1, -1), 0),
            ((1, 0), -1),
            ((1, 1), -5),
        ],
        nvars=2,
        projective_closure=True,
    )
    arr4 = four_lines_arrangement(projective=True)
    small = {tuple(sorted(f.members)) for f in flacets(arr4)}

    def relabel(members):
        # index 5 (infinity) of arr5 becomes index 4 of arr4
        return tuple(sorted(4 if i == 5 else i for i in members))

    for f in flacets(arr5):
        if 4 in f.members:
            continue  # involves the extra line
        if relabel(f.members) in small:
            continue
        # status may change through the contraction; the flat itself must
        # still be closed in the smaller arrangement
        assert all(i != 4 for i in f.members)


def _mask(bits, n):
    return {i for i in range(n) if bits >> i & 1}


vector_lists = st.integers(2, 4).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=2, max_size=8
    )
)


@settings(max_examples=200, deadline=None)
@given(vectors=vector_lists, ground=st.integers(0, 255), contract=st.integers(0, 255))
@example(vectors=[[1, 0], [1, 1], [0, 1], [0, 0]], ground=0b0111, contract=0b0001)
@example(
    vectors=[[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]], ground=0b0111, contract=0b1000
)
@example(vectors=[[1, 0, 0], [0, 1, 0], [0, 0, 1]], ground=0b011, contract=0b001)
def test_matroid_connected_matches_split_enumeration(vectors, ground, contract):
    # the examples: a loop, a coloop, and the boolean arrangement B3
    q = len(vectors)
    ground, contract = _mask(ground, q), _mask(contract, q)
    assert matroid_connected(vectors) == connected_by_splits(vectors)
    restricted = [vectors[i] for i in sorted(ground)]
    assert matroid_connected(restricted) == connected_by_splits(vectors, ground=ground)
    # the contraction's components as ``_flacets`` finds them: the other
    # vectors reduced modulo the contracted span
    ints = _integer_vectors(vectors)
    modulo = reduce(extend_echelon, (ints[i] for i in sorted(contract)), ())
    parts = _components(ints, set(range(q)) - contract, modulo)
    assert (len(parts) <= 1) == connected_by_splits(vectors, contract=contract)


SIX_LINES = Arrangement(
    # x, y, x-y, x-1, y-1, x+y-1 and the line at infinity
    rows=[
        ((1, 0), 0),
        ((0, 1), 0),
        ((1, -1), 0),
        ((1, 0), -1),
        ((0, 1), -1),
        ((1, 1), -1),
    ],
    projective_closure=True,
)


def _count_kernel(monkeypatch):
    """Record the echelon extensions (span, vector) and the integer
    eliminations (the matrix) that the matroid kernel makes."""
    calls = {"extend": [], "eliminate": []}
    extend, eliminate = arrangement.extend_echelon, arrangement.integer_rref

    def extending(space, v):
        calls["extend"].append((space, tuple(v)))
        return extend(space, v)

    def eliminating(rows):
        calls["eliminate"].append(tuple(map(tuple, rows)))
        return eliminate(rows)

    monkeypatch.setattr(arrangement, "extend_echelon", extending)
    monkeypatch.setattr(arrangement, "integer_rref", eliminating)
    return calls


def test_matroid_connected_takes_one_echelon_form(monkeypatch):
    vectors = SIX_LINES.central_vectors()
    calls = _count_kernel(monkeypatch)
    assert matroid_connected(vectors)
    # split enumeration ran 127 ranks
    assert (len(calls["extend"]), len(calls["eliminate"])) == (0, 1)
    calls["eliminate"].clear()
    flats = matroid_flats(vectors)
    # each flat's rows are its parent's extended once, by the cover's
    # residue: 17 extensions for 18 flats, and no elimination
    assert len(flats) == 18
    assert len(calls["extend"]) == len(set(calls["extend"])) == 17
    assert not calls["eliminate"]


def test_flacet_connectivity_reuses_the_lattice_echelon_forms(monkeypatch):
    # each contraction is tested modulo the echelon rows the lattice built
    # for its flat, and each flat's rows are built once, from its parent's:
    # no span is extended twice and no matrix is eliminated twice
    calls = _count_kernel(monkeypatch)
    for route in (flacet_rays, lambda arr: matroid_invariants(arr).rays):
        calls["extend"].clear()
        calls["eliminate"].clear()
        assert len(route(SIX_LINES)) == 13
        # 17 flats above the bottom; rebuilding each flat's span from its
        # vectors takes 38 extensions
        assert len(calls["extend"]) == len(set(calls["extend"])) == 17
        # the restrictions of the 9 proper flats with two or more elements,
        # and the contractions of the 13 flacet candidates whose
        # restriction is connected
        assert len(calls["eliminate"]) == len(set(calls["eliminate"])) == 22


nonzero_rationals = st.fractions(-3, 3, max_denominator=4).filter(bool)


@st.composite
def matroid_vectors(draw):
    """Strategy: 2-6 vectors in 2-4 dimensions with rational entries in
    [-2, 2] of denominator at most 3, among them loops and nonzero
    rational multiples of earlier vectors."""
    d = draw(st.integers(2, 4))
    entry = st.fractions(-2, 2, max_denominator=3)
    vectors = []
    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(["fresh", "fresh", "loop", "parallel"]))
        if kind == "loop":
            vectors.append([Fraction(0)] * d)
        elif kind == "parallel" and vectors:
            c = draw(nonzero_rationals)
            vectors.append([c * x for x in draw(st.sampled_from(vectors))])
        else:
            vectors.append(draw(st.lists(entry, min_size=d, max_size=d)))
    return vectors


def _kernel_flacets(vectors):
    ints = _integer_vectors(vectors)
    return sorted(tuple(sorted(f.members)) for f in _flacets(ints, _lattice(ints)))


@settings(max_examples=150, deadline=None)
@given(
    vectors=matroid_vectors(), ground=st.integers(0, 63), contract=st.integers(0, 63)
)
@example(
    # a loop, a vector and half of it, and a rational vector
    vectors=[[0, 0, 0], [1, 2, 0], [Fraction(1, 2), 1, 0], [0, Fraction(2, 3), 1]],
    ground=0b1111,
    contract=0b0100,
)
def test_matroid_kernel_matches_the_fraction_route(vectors, ground, contract):
    q = len(vectors)
    with Job():
        flats = matroid_flats(vectors)
        assert {f.members: f.rank for f in flats} == reference_lattice(vectors)
        lattice = flat_lattice(vectors)
        for bits in range(2**q):
            members = frozenset(_mask(bits, q))
            got = lattice[members][0] if members in lattice else None
            assert got == reference_flat_rank(vectors, members)
    avoid = next((i for i, v in enumerate(vectors) if any(v)), None)
    if avoid is not None:
        got = {f.members: f.rank for f in matroid_flats(vectors, avoid=avoid)}
        assert got == reference_lattice(vectors, avoid=avoid)
    assert _kernel_flacets(vectors) == reference_flacets(vectors)
    ground, contract = _mask(ground, q), _mask(contract, q)
    assert matroid_connected(vectors) == reference_matroid_connected(vectors)
    ints = _integer_vectors(vectors)
    modulo = reduce(extend_echelon, (ints[i] for i in sorted(contract)), ())
    parts = _components(ints, ground - contract, modulo)
    assert (len(parts) <= 1) == reference_matroid_connected(
        vectors, ground=ground, contract=contract
    )


@settings(max_examples=100, deadline=None)
@given(vectors=matroid_vectors(), data=st.data())
def test_matroid_kernel_commutes_with_scaling_and_permutation(vectors, data):
    # vector j of the moved list is vector perm[j] scaled: every flat,
    # rank and flacet maps back along the permutation
    q = len(vectors)
    perm = data.draw(st.permutations(range(q)))
    scales = data.draw(st.lists(nonzero_rationals, min_size=q, max_size=q))
    moved = [[c * x for x in vectors[k]] for c, k in zip(scales, perm)]

    def back(members):
        return frozenset(perm[j] for j in members)

    flats = {f.members: f.rank for f in matroid_flats(vectors)}
    assert {back(f.members): f.rank for f in matroid_flats(moved)} == flats
    flacets_back = sorted(tuple(sorted(back(f))) for f in _kernel_flacets(moved))
    assert flacets_back == _kernel_flacets(vectors)


@settings(max_examples=40, deadline=None)
@given(arr=essential_arrangements(4, 6), data=st.data())
def test_matroid_invariants_commute_with_scaling_and_permutation(arr, data):
    # functional j of the moved arrangement is functional perm[j] scaled,
    # the hyperplane at infinity staying last: ray coordinate j reads old
    # coordinate perm[j], and the Euler characteristics and the ML degree
    # stay
    q = arr.size
    perm = data.draw(st.permutations(range(q)))
    scales = data.draw(st.lists(nonzero_rationals, min_size=q, max_size=q))
    rows = [arr.rows[k] for k in perm]
    moved = Arrangement(
        rows=[
            (tuple(c * a for a in coeffs), c * b)
            for c, (coeffs, b) in zip(scales, rows)
        ],
        projective_closure=True,
    )
    old, new = matroid_invariants(arr), matroid_invariants(moved)
    expected = {
        tuple(r.v[k] for k in perm): chi for r, chi in zip(old.rays, old.euler_chars)
    }
    assert dict(zip((r.v for r in new.rays), new.euler_chars)) == expected
    assert new.ml_degree == old.ml_degree


@settings(max_examples=15, deadline=None)
@given(arr=essential_arrangements(4, 6))
@example(arr=five_lines_arrangement())
def test_flacets_match_oracle_on_generated_arrangements(arr):
    got = sorted(
        (tuple(sorted(f.members)) for f in flacets(arr)), key=lambda t: (len(t), t)
    )
    assert got == [tuple(sorted(f)) for f in oracle_flacets(arr.central_vectors())]


@settings(max_examples=60, deadline=None)
@given(arr=essential_arrangements(4, 6), data=st.data())
def test_support_flat_rank_is_the_rank_of_closed_supports(arr, data):
    vectors = arr.central_vectors()
    q = len(vectors)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=q, max_size=q))
    support = {i for i in range(q) if bits[i]}

    def r(subset):
        return rank([vectors[i] for i in subset]) if subset else 0

    closure = {i for i in range(q) if r(support | {i}) == r(support)}
    expected = r(support) if support and closure == support else None
    assert _support_flat_rank(flat_lattice(vectors), bits) == expected


# -- the matroid route of arrangement reports against the Groebner route ----------

# x, y, x - 1: y is a coloop of the closure, so the rays are the lineality
# line +-(0, 1, 0)
DECOMPOSABLE = {
    "kind": "arrangement",
    "variables": ["x", "y"],
    "matrix": [[1, 0, 0], [0, 1, 0], [1, 0, -1]],
    "projective_closure": True,
}
# x, y, x - y without closure: the rays are +-(1, 1, 1), not the rays of
# length 2 that the flacets of the central vectors alone would give
CENTRAL_PENCIL = {
    "kind": "arrangement",
    "variables": ["x", "y"],
    "matrix": [[1, 0, 0], [0, 1, 0], [1, -1, 0]],
    "projective_closure": False,
}


def _report(command, spec, bound=1):
    report, _ = run_report(
        JobConfig(command=command, spec_source=json.dumps(spec), bound=bound)
    )
    return report


@pytest.mark.filterwarnings("ignore::tropcrit.tropical.ConnectednessAssumed")
@settings(max_examples=200, deadline=None)
@given(spec=arrangement_specs())
@example(spec=DECOMPOSABLE)
@example(spec=CENTRAL_PENCIL)
def test_arrangement_reports_match_the_groebner_route(spec):
    euler = _report("euler", spec)
    degree = _report("mle", spec)["ml_degree"]
    variety = load_spec(spec)
    with Job():
        ideal = variety.to_ideal()
        rays = find_rigid_rays(ideal, bound=1)
        chis = [stratum_euler_char(ideal, r) for r in rays]
        assert degree == ml_degree(variety)
    assert [r["v"] for r in euler["rays"]] == [list(r.v) for r in rays]
    assert [r["euler_char"] for r in euler["rays"]] == chis
    assert euler["weighted_ray_sum"] == [0] * variety.p
    # so do flacet_rays and chi_complement, which the benchmark checks read
    assert [r.v for r in flacet_rays(variety.arrangement)] == [r.v for r in rays]
    assert degree == abs(chi_complement(variety.arrangement))


@pytest.mark.filterwarnings("ignore::tropcrit.tropical.ConnectednessAssumed")
@settings(max_examples=50, deadline=None)
@given(spec=arrangement_specs())
def test_arrangement_rays_are_complete_at_bound_2(spec):
    # flacet rays have entries in {-1, 0, 1}: a larger box finds no more
    with Job():
        rays = find_rigid_rays(load_spec(spec).to_ideal(), bound=2)
    got = _report("rigid-rays", spec, bound=2)["rays"]
    assert [r["v"] for r in got] == [list(r.v) for r in rays]


@pytest.mark.filterwarnings("ignore::tropcrit.tropical.ConnectednessAssumed")
def test_report_builds_one_lattice_per_job(monkeypatch):
    # four_lines has 13 flats, each extended once from its parent's rows;
    # conjecture_check reads the ranks of its rays' supports from the
    # job's lattice, where a second lattice would double the extensions
    fixtures = Path(arrangement.__file__).parent / "fixtures"
    spec = json.loads((fixtures / "four_lines.json").read_text())
    calls = _count_kernel(monkeypatch)
    report = _report("report", spec)
    assert len(calls["extend"]) == len(set(calls["extend"])) == 12
    assert [e["k"] for e in report["lct"]] == ["1", "1", "1", "2"]
    assert {e["k_provenance"] for e in report["lct"]} == {"arrangement-rank"}
