import json

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
)
from tropcrit import arrangement
from tropcrit.arrangement import (
    Arrangement,
    chi_complement,
    flacet_rays,
    flacets,
    intersection_lattice,
    matroid_connected,
    matroid_flats,
    matroid_invariants,
)
from tropcrit.bs_lct import _support_flat_rank
from tropcrit.cli import JobConfig, load_spec, run_report
from tropcrit.errors import NotCentral
from tropcrit.groebner import Job
from tropcrit.linalg import rank
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
        assert matroid_connected(vectors, ground=f.members)


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
    ground, contract = _mask(ground, len(vectors)), _mask(contract, len(vectors))
    assert matroid_connected(vectors) == connected_by_splits(vectors)
    assert matroid_connected(vectors, ground=ground) == connected_by_splits(
        vectors, ground=ground
    )
    assert matroid_connected(vectors, contract=contract) == connected_by_splits(
        vectors, contract=contract
    )


def test_matroid_connected_takes_one_echelon_form(monkeypatch):
    # the six lines x, y, x-y, x-1, y-1, x+y-1 and the line at infinity
    six_lines = Arrangement(
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
    vectors = six_lines.central_vectors()
    real = arrangement.rref
    calls = []

    def counting(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(arrangement, "rref", counting)
    assert matroid_connected(vectors)
    assert len(calls) == 1  # split enumeration ran 127 ranks
    for flat in matroid_flats(vectors):
        calls.clear()
        matroid_connected(vectors, contract=flat.members)
        assert len(calls) <= 2


def test_flacet_connectivity_reuses_the_lattice_echelon_forms(monkeypatch):
    # the six lines x, y, x-y, x-1, y-1, x+y-1 and the line at infinity:
    # each contraction is tested modulo the echelon rows the lattice built
    # for its flat, so no matrix is brought to echelon form twice
    six_lines = Arrangement(
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
    real = arrangement.rref
    calls = []

    def counting(rows):
        calls.append(tuple(map(tuple, rows)))
        return real(rows)

    monkeypatch.setattr(arrangement, "rref", counting)
    for route in (flacet_rays, lambda arr: matroid_invariants(arr).rays):
        calls.clear()
        assert len(route(six_lines)) == 13
        # 52 with a new echelon form per contraction
        assert len(calls) == len(set(calls)) == 39


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
    assert _support_flat_rank(arr, bits) == expected


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
