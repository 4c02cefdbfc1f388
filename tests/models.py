"""Shared model fixtures and independent oracles for the test suite."""

from fractions import Fraction
from itertools import combinations, product

from hypothesis import strategies as st

from tropcrit.arrangement import Arrangement, matroid_flats
from tropcrit.asymptotics import _rescale
from tropcrit.groebner import (
    Ideal,
    Job,
    _buchberger,
    _dehomogenize,
    _saturate_single,
    homogeneity_space,
)
from tropcrit.linalg import nullspace
from tropcrit.mle import VarietySpec
from tropcrit.rings import Polynomial, TermOrder, mono_divides, poly_parse

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


def embedded_at_infinity_ideals():
    """(I, w) pairs at which in_(w,0)(I^h) has a component at h = 0 that
    breaks a grading init_w(I) keeps: the tied differences leave one
    dimension, the homogeneity space two.  Dehomogenized, the face's
    initial forms are not reduced.

    * (x-2y)*(x-y, z-x-1, (x-1)(x-2)) at (1, 1, 0): in_(w,0)(I^h) is
      (x-2y)*(x-y, z-h, h^2), and the leading monomial x of x - 2y divides
      those of the other forms.
    * (x+1)*(y+z, z(z+1)) at (0, 1, 1): in_(w,0)(I^h) is
      (x+h)*(y+z, zh), and the leading monomial xz of xz + z divides a tail
      term of xy + xz + y + z.
    """
    vars = ("x", "y", "z")
    pairs = [
        (["(x-2*y)*(x-y)", "(x-2*y)*(z-x-1)", "(x-2*y)*(x-1)*(x-2)"], (1, 1, 0)),
        (["(x+1)*(y+z)", "(x+1)*z*(z+1)"], (0, 1, 1)),
    ]
    return [(Ideal([poly_parse(g, vars) for g in gens], vars), w) for gens, w in pairs]


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


def symbolic_data(spec: VarietySpec):
    """The s-variables of the spec as data: its critical system is then
    the likelihood correspondence, in the unknowns and the s-variables."""
    return [Polynomial.variable(s, spec.svars) for s in spec.svars]


def substitute(f: Polynomial, mapping: dict) -> Polynomial:
    """f with polynomials over one target ring put in for the variables
    named in ``mapping``; every other variable of f keeps its name in
    that ring.  Nonnegative exponents only."""
    ring = next(iter(mapping.values())).vars
    out = Polynomial.zero(ring)
    for e, c in f.terms.items():
        part = Polynomial.constant(c, ring)
        for name, k in zip(f.vars, e):
            x = mapping[name] if name in mapping else Polynomial.variable(name, ring)
            part = part * x**k
        out = out + part
    return out


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


def connected_by_splits(vectors, ground=None, contract=None) -> bool:
    """Connectivity of the linear matroid restricted to ``ground`` and
    contracted by ``contract``, by enumeration: no proper split S | E-S
    of the ground set E with r(S) + r(E-S) = r(E), where r(S) =
    rank(S + contract) - rank(contract).  At most one element counts as
    connected."""
    contract = sorted(set(contract or ()))
    if ground is None:
        ground = range(len(vectors))
    ground = sorted(set(ground) - set(contract))
    base = _rank([vectors[i] for i in contract])

    def rk(subset):
        return _rank([vectors[i] for i in list(subset) + contract]) - base

    total = rk(ground)
    for k in range(1, len(ground)):
        for part in combinations(ground, k):
            if rk(part) + rk(set(ground) - set(part)) == total:
                return False
    return True


def _indecomposable(matrix) -> bool:
    """Connected matroid of the projective closure (the line at infinity
    last)."""
    vectors = [list(row) for row in matrix] + [[0] * (len(matrix[0]) - 1) + [1]]
    return connected_by_splits(vectors)


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


@st.composite
def arrangement_specs(draw):
    """Strategy: arrangement specs as the CLI reads them, in 2-3 variables
    x, y, z with 3-5 functionals, integer coefficients in [-2, 2], essential
    and without proportional rows.  About half are central (every constant
    zero), decomposable matroids are not filtered out, and
    ``projective_closure`` takes both values."""
    n = draw(st.integers(2, 3))
    entry = st.integers(-2, 2)
    const = st.just(0) if draw(st.booleans()) else entry
    row = st.tuples(st.lists(entry, min_size=n, max_size=n), const).map(
        lambda t: t[0] + [t[1]]
    )
    matrix = draw(st.lists(row, min_size=3, max_size=5).filter(_essential))
    return {
        "kind": "arrangement",
        "variables": ["x", "y", "z"][:n],
        "matrix": matrix,
        "projective_closure": draw(st.booleans()),
    }


@st.composite
def linear_ideals(draw):
    """Strategy: linear ideals in 3-4 torus coordinates t1, t2, .. whose
    linear space has dimension 1-2 and meets the torus.  The first d
    coordinates of a drawn order are free; every other one is an affine
    function of them, coefficients in [-2, 2], with a nonzero constant when
    its linear part vanishes, so constant coordinates and coordinates
    proportional to one another both occur."""
    p = draw(st.integers(3, 4))
    d = draw(st.integers(1, 2))
    order = draw(st.permutations(range(p)))
    names = tuple(f"t{i+1}" for i in range(p))
    free = [Polynomial.variable(names[j], names) for j in order[:d]]
    gens = []
    for k in order[d:]:
        b = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
        c = draw(st.integers(-2, 2).filter(bool) if not any(b) else st.integers(-2, 2))
        g = Polynomial.variable(names[k], names) - Polynomial.constant(c, names)
        for bj, x in zip(b, free):
            g = g - bj * x
        gens.append(g)
    return Ideal(gens, names)


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


def tied_space(eng, w):
    """The weights orthogonal to the tied weak differences of w's face in
    a TropicalEngine; on the face (None, ()), where init_w(I) = I, to the
    term differences of the base basis."""
    cone, ties = eng.engine.face(w)
    if cone is not None:
        rows = [cone.weak[i] for i in ties]
    else:
        rows = []
        for g in eng.engine.base.gens:
            first, *rest = g.terms
            rows += [[x - y for x, y in zip(e, first)] for e in rest]
    return nullspace(rows, ncols=eng.nvars)


def check_tied_ranks(eng, bound) -> int:
    """Assert, for every weight w of the box [-bound, bound]^p in trop(I),
    w = 0 included, with J a fresh-run init_w(I):

    * ``tied_space`` lies in the homogeneity space of J;
    * off the face (None, ()), the engine's initial forms are a lex
      Groebner basis of J: each leading monomial of the reduced lex basis
      is divisible by the lexicographically largest monomial of one of
      them;
    * ``is_rigid`` is true iff that space is one line and J is not zero.

    Returns the number of weights checked."""
    checked = 0
    lex = TermOrder([])
    for w in product(range(-bound, bound + 1), repeat=eng.nvars):
        if eng.contains(w):
            J = initial_by_fresh_run(eng.engine, w)
            space = homogeneity_space(J)
            assert _rank([*space, *tied_space(eng, w)]) == len(space), w
            if eng.engine.face(w)[0] is not None:
                leads = [max(g.terms) for g in eng.initial(w).gens]
                for g in _buchberger(list(J.gens), lex, Job()):
                    assert any(mono_divides(m, g.leading(lex)[0]) for m in leads), w
            assert eng.is_rigid(w) == (not J.is_zero and len(space) == 1), w
            checked += 1
    return checked


def rescaled_system(system, valuations):
    """(rescaled equations, ring, rescaled saturators) of a system along a
    data curve under the valuation ansatz (zero for ``None``): ``_rescale``
    of the equations and of the saturators, leaving out the constant
    ones."""
    ring = system.ring
    valuations = valuations or (0,) * len(system.unknowns)
    extra = [
        g for g in _rescale(system.saturators, ring, valuations) if not g.is_constant()
    ]
    return _rescale(system.equations, ring, valuations), ring, extra


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
