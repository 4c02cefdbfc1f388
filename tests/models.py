"""Shared model fixtures and independent oracles for the test suite."""

from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from tropcrit.arrangement import Arrangement, matroid_flats
from tropcrit.groebner import (
    Ideal,
    Job,
    _buchberger,
    _dehomogenize,
    _saturate_single,
)
from tropcrit.mle import VarietySpec
from tropcrit.rings import Polynomial, TermOrder, poly_parse

COIN_VARS = ("t0", "t1", "t2")
FOUR_VARS = ("t1", "t2", "t3", "t4")
CONIC_VARS = ("t1", "t2", "t3")


def coin_ideal() -> Ideal:
    """Curve of the flip-a-biased-coin-twice model in the 3-torus."""
    return Ideal(
        [
            poly_parse("t0*t2-(t0+t1)*t1", COIN_VARS),
            poly_parse("t0+t1+t2-1", COIN_VARS),
        ]
    )


def coin_spec() -> VarietySpec:
    return VarietySpec(kind="ideal", ideal=coin_ideal())


def four_lines_ideal() -> Ideal:
    """Image of the complement of x*y*(x-y)*(x-1) in the 4-torus."""
    return Ideal(
        [
            poly_parse("t1-t4-1", FOUR_VARS),
            poly_parse("t1-t2-t3", FOUR_VARS),
        ]
    )


def four_lines_arrangement(projective=False) -> Arrangement:
    return Arrangement(
        rows=[
            ((1, 0), 0),   # x
            ((0, 1), 0),   # y
            ((1, -1), 0),  # x - y
            ((1, 0), -1),  # x - 1
        ],
        nvars=2,
        projective_closure=projective,
        vars=("x", "y"),
    )


def four_lines_spec() -> VarietySpec:
    return VarietySpec(kind="arrangement", arrangement=four_lines_arrangement())


def four_lines_ideal_spec() -> VarietySpec:
    return VarietySpec(kind="ideal", ideal=four_lines_ideal())


def five_lines_arrangement() -> Arrangement:
    """The projective closure of x*y*(x-y)*(x-1)*(y-1)."""
    return Arrangement(
        rows=[((1, 0), 0), ((0, 1), 0), ((1, -1), 0), ((1, 0), -1), ((0, 1), -1)],
        nvars=2,
        projective_closure=True,
    )


def five_lines_ideal() -> Ideal:
    """Torus ideal of the projective closure of x*y*(x-y)*(x-1)*(y-1)."""
    return VarietySpec(kind="arrangement", arrangement=five_lines_arrangement()).to_ideal()


def conic_functions():
    vars = ("x", "y")
    return [
        poly_parse("x", vars),
        poly_parse("y", vars),
        poly_parse("x+y+x^2+x*y+y^2", vars),
    ]


def conic_spec() -> VarietySpec:
    return VarietySpec(
        kind="parametrization", functions=conic_functions(), coordinates=CONIC_VARS
    )


def conic_ideal() -> Ideal:
    return Ideal([poly_parse("t3-(t1+t2+t1^2+t1*t2+t2^2)", CONIC_VARS)])


COIN_RAYS = {(2, 1, 0), (0, 1, 1), (-2, -2, -1)}
FOUR_LINES_RAYS = {
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (0, -1, -1, 0),
    (1, 1, 1, 0),
    (-1, -1, -1, -1),
}
CONIC_RAYS = {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (-1, -1, -2)}


# -- generated essential line arrangements -----------------------------------------
#
# The preconditions of perfbench/gen.py, checked with a rank of their own so
# that a defect in tropcrit's linear algebra cannot bend them.


def _rank(rows) -> int:
    """Rank of a small rational matrix by fraction-exact elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _essential(matrix) -> bool:
    """Rows [a_1, .., a_n, c] with full-rank functionals, no zero
    functional and no two proportional rows."""
    n = len(matrix[0]) - 1
    if any(not any(row[:n]) for row in matrix):
        return False
    if any(_rank([r1, r2]) < 2 for r1, r2 in combinations(matrix, 2)):
        return False
    return _rank([row[:n] for row in matrix]) == n


def _indecomposable(matrix) -> bool:
    """Connected matroid of the projective closure (the line at infinity
    last): no proper split S | E-S with r(S) + r(E-S) = r(E)."""
    vectors = [list(row) for row in matrix] + [[0] * (len(matrix[0]) - 1) + [1]]
    total = _rank(vectors)
    idx = range(len(vectors))
    for k in range(1, len(vectors)):
        for part in combinations(idx, k):
            rest = [vectors[i] for i in idx if i not in part]
            if _rank([vectors[i] for i in part]) + _rank(rest) == total:
                return False
    return True


def essential_arrangements(min_lines=4, max_lines=5):
    """Strategy: essential, indecomposable affine line arrangements with
    their projective closure, integer coefficients in [-2, 2]."""
    row = st.lists(st.integers(-2, 2), min_size=3, max_size=3)
    return (
        st.integers(min_lines, max_lines)
        .flatmap(lambda n: st.lists(row, min_size=n, max_size=n))
        .filter(lambda m: _essential(m) and _indecomposable(m))
        .map(
            lambda m: Arrangement(
                rows=[(tuple(r[:2]), r[2]) for r in m],
                nvars=2,
                projective_closure=True,
            )
        )
    )


# -- brute-force poset-product oracle ------------------------------------------------


class FlatLattice:
    """Lattice of matroid flats with meets/joins by closed-set operations."""

    def __init__(self, vectors):
        self.flats = [f.members for f in matroid_flats(vectors)]
        self.index = {f: i for i, f in enumerate(self.flats)}

    def leq(self, a, b):
        return a <= b

    def meet(self, a, b):
        return a & b  # intersection of flats is a flat

    def join(self, a, b):
        candidates = [f for f in self.flats if a <= f and b <= f]
        out = candidates[0]
        for f in candidates[1:]:
            if f < out:
                out = f
        return out

    def interval(self, lo, hi):
        return [f for f in self.flats if lo <= f <= hi]


def is_nontrivial_product(lattice: FlatLattice, lo, hi) -> bool:
    """Brute-force test whether the interval [lo, hi] is a direct product
    of two smaller lattices, via complemented pairs and the meet map."""
    elems = lattice.interval(lo, hi)
    if len(elems) <= 2:
        return False
    for a, b in combinations(elems, 2):
        if a in (lo, hi) or b in (lo, hi):
            continue
        if lattice.meet(a, b) != lo or lattice.join(a, b) != hi:
            continue
        phi = {}
        ok = True
        for x in elems:
            phi[x] = (lattice.meet(x, a), lattice.meet(x, b))
        if len(set(phi.values())) != len(elems):
            continue
        size_a = len(lattice.interval(lo, a))
        size_b = len(lattice.interval(lo, b))
        if size_a * size_b != len(elems):
            continue
        # order isomorphism both ways
        for x in elems:
            for y in elems:
                fwd = x <= y
                bwd = phi[x][0] <= phi[y][0] and phi[x][1] <= phi[y][1]
                if fwd != bwd:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def oracle_flacets(vectors):
    """Flacets via the poset condition: neither the lower nor the upper
    interval at the flat is a nontrivial product."""
    from tropcrit.linalg import rank

    lat = FlatLattice(vectors)
    bottom = min(lat.flats, key=len)
    top = max(lat.flats, key=len)
    total_rank = rank(vectors)
    out = []
    for f in lat.flats:
        r = rank([vectors[i] for i in f]) if f else 0
        if r == 0 or r >= total_rank:
            continue
        if not is_nontrivial_product(lat, bottom, f) and not is_nontrivial_product(
            lat, f, top
        ):
            out.append(f)
    return sorted(out, key=lambda f: (len(f), tuple(sorted(f))))


def initial_by_fresh_run(eng, w) -> Ideal:
    """init_w(I) for an InitialIdealEngine from a Buchberger run of its
    own, bypassing the engine's Groebner cones."""
    order = TermOrder([tuple(-x for x in w) + (0,), (1,) * (eng.nvars + 1)])
    gh = _buchberger(list(eng.hgens), order, Job())
    vars = eng.ideal.vars
    return Ideal([_dehomogenize(g, vars).weight_initial(w) for g in gh], vars)


def product_saturation(equations, ring, extra):
    """The rescaled system saturated by one run: a single Rabinowitsch
    elimination by the product of every ring variable and the non-monomial
    saturators, on the equations as given (no monomial factor divided
    out)."""
    product = Polynomial({(1,) * len(ring): Fraction(1)}, ring)
    for f in extra:
        if not f.is_term():
            product = product * f
    return list(_saturate_single(Ideal(list(equations), ring), product).gens)


def naive_poly_eval(f, series, n):
    """Coefficients 0 .. n-1 of f at power series given by their
    coefficient lists, by schoolbook products and sums in Fraction
    arithmetic, one term at a time."""

    def times(a, b):
        return [
            sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(n)
        ]

    total = [Fraction(0)] * n
    for e, c in f.terms.items():
        acc = [Fraction(c)] + [Fraction(0)] * (n - 1)
        for name, x in zip(f.vars, e):
            for _ in range(x):
                acc = times(acc, series[name])
        total = [a + b for a, b in zip(total, acc)]
    return total


def mat_mul(a, b):
    """Product of two matrices given as lists of rows."""
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]
