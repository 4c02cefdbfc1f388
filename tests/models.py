"""Shared model fixtures and independent oracles for the test suite."""

from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, product
from math import gcd
from operator import add, le, mul, sub

from hypothesis import strategies as st

from tropcrit.arrangement import Arrangement, matroid_flats
from tropcrit.asymptotics import NUMERIC_ZERO, _abs_poly, _rescale
from tropcrit.errors import TruncationTooShort
from tropcrit.groebner import (
    Ideal,
    Job,
    _buchberger,
    _dehomogenize,
    _primitive,
    _saturate_single,
    groebner_basis,
    saturate,
)
from tropcrit.linalg import nullspace
from tropcrit.mle import VarietySpec
from tropcrit.rings import Polynomial, TermOrder, _integral, mono_divides, poly_parse
from tropcrit.series import LaurentSeries, poly_eval_series
from tropcrit.tropical import find_rigid_rays, stratum_euler_char

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


def saturation_surface_spec() -> dict:
    """A parametrized surface with ML degree 1 at which the torus decides
    rigidity: at nine weights of the bound-3 box the raw initial ideal
    init_w(I) is graded by one line only, and its saturation by
    t1*t2*t3*t4 by a plane.  Its rigid rays are SATURATION_SURFACE_RAYS,
    each with a stratum of Euler characteristic -1."""
    return {
        "kind": "parametrization",
        "parameters": ["s", "u"],
        "functions": [
            "s*(s+2*u)^2*(2*s-2)^2",
            "2*s^2*(2*s-2)",
            "-3*s^2*(s+2*u)*(s+2*u+2)*(2*s-2)",
            "s^2*(s+2*u)^2*(s+2*u+2)",
        ],
    }


SATURATION_SURFACE_RAYS = [
    (-3, -3, -3, -2),
    (-2, 0, -2, -3),
    (0, 0, 1, 1),
    (1, 2, 2, 2),
    (2, 0, 1, 2),
    (2, 1, 1, 0),
]


def shear(p, i, j, c):
    """The p x p elementary shear: the identity with c at row i, column j."""
    rows = [[int(r == k) for k in range(p)] for r in range(p)]
    rows[i][j] = c
    return rows


def exponent_image(ideal, U) -> Ideal:
    """The ideal of the f(x^U), f in I: a weight v of its torus is the
    weight U.v of I's, so U maps its rays onto I's."""
    return Ideal([g.apply_exponent_map(U) for g in ideal.gens], ideal.vars)


def ray_euler_chars(ideal, bound) -> dict:
    """Each rigid ray of [-bound, bound]^p with its stratum's Euler
    characteristic, in one job."""
    with Job():
        return {r.v: stratum_euler_char(ideal, r) for r in find_rigid_rays(ideal, bound)}


# -- generated essential line arrangements -----------------------------------------
#
# The preconditions of perfbench/gen.py, checked with a rank of their own so
# that a defect in tropcrit's linear algebra cannot bend them.


def _rank(rows) -> int:
    """Rank of a small rational matrix by fraction-exact elimination."""
    return len(reference_rref(rows)[1])


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


# -- the Fraction route of the matroid kernel, an oracle for the integer one --------


def reference_rref(rows):
    """(rows, pivots) of the reduced row echelon form, eliminated in
    Fractions; the zero rows are dropped."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def _reference_echelon(vectors, members):
    """Reduced echelon rows (row, pivot) of the vectors at ``members``."""
    return list(zip(*reference_rref([vectors[i] for i in sorted(members)])))


def _reference_reduce_by(echelon, v):
    """v minus its multiples of the reduced echelon rows (row, pivot)."""
    for row, c in echelon:
        x = v[c]
        if x:
            v = [a - x * b for a, b in zip(v, row)]
    return v


def reference_lattice(vectors, avoid=None):
    """{flat: rank} of the linear matroid, rank by rank from the loops up:
    each flat takes a fresh echelon form of its vectors and reduces every
    vector outside it in Fractions; the vectors whose residues are
    parallel form, with it, one covering flat.  With ``avoid``, only the
    flats that do not hold that index."""
    vectors = [[Fraction(x) for x in v] for v in vectors]
    bottom = frozenset(i for i, v in enumerate(vectors) if not any(v))
    lattice = {bottom: 0}
    frontier = [bottom]
    while frontier:
        nxt = []
        for F in frontier:
            echelon = _reference_echelon(vectors, F)
            covers = {}
            for i, v in enumerate(vectors):
                if i not in F:
                    res = _reference_reduce_by(echelon, v)
                    lead = next(x for x in res if x)
                    covers.setdefault(tuple(x / lead for x in res), set()).add(i)
            for extra in covers.values():
                G = F | extra
                if avoid not in G and G not in lattice:
                    lattice[G] = lattice[F] + 1
                    nxt.append(G)
        frontier = nxt
    return lattice


def reference_flat_rank(vectors, members):
    """Rank of ``members`` if it is a flat, else None, from one echelon form
    of its vectors: closed when no vector outside has a zero residue."""
    vectors = [[Fraction(x) for x in v] for v in vectors]
    echelon = _reference_echelon(vectors, members)
    for i, v in enumerate(vectors):
        if i not in members and not any(_reference_reduce_by(echelon, v)):
            return None
    return len(echelon)


def reference_matroid_connected(vectors, ground=None, contract=None) -> bool:
    """Connectivity of the minor by the fundamental circuits of the basis
    that one Fraction echelon form of the reduced ground vectors picks."""
    vectors = [[Fraction(x) for x in v] for v in vectors]
    contract = frozenset(contract or [])
    if ground is None:
        ground = range(len(vectors))
    ground = sorted(set(ground) - contract)
    if len(ground) <= 1:
        return True
    modulo = _reference_echelon(vectors, contract)
    columns = [_reference_reduce_by(modulo, vectors[i]) for i in ground]
    red, pivots = reference_rref(list(zip(*columns)))
    parts = []
    for j in range(len(ground)):
        if j not in pivots:
            circuit = {j} | {c for row, c in zip(red, pivots) if row[j]}
            joined = [p for p in parts if p & circuit]
            parts = [p for p in parts if not p & circuit] + [circuit.union(*joined)]
    return len(parts) == 1 and len(parts[0]) == len(ground)


def reference_flacets(vectors):
    """The flats strictly between the bottom and the top rank whose
    restriction and contraction are connected, as sorted index tuples."""
    lattice = reference_lattice(vectors)
    top = max(lattice.values())
    everything = set(range(len(vectors)))
    return sorted(
        tuple(sorted(F))
        for F, r in lattice.items()
        if 0 < r < top
        and reference_matroid_connected(vectors, ground=F)
        and reference_matroid_connected(vectors, contract=F, ground=everything)
    )


def torus_monomial(vars) -> Polynomial:
    """The product of all the variables of the ring."""
    return Polynomial({(1,) * len(vars): Fraction(1)}, vars)


def initial_by_fresh_run(eng, w) -> Ideal:
    """init_w(I) for an InitialIdealEngine from a Buchberger run of its
    own, bypassing the engine's Groebner cones."""
    order = TermOrder([tuple(-x for x in w) + (0,), (1,) * (eng.nvars + 1)])
    gh = _buchberger(list(eng.hgens), order, Job())
    vars = eng.ideal.vars
    return Ideal([_dehomogenize(g, vars).weight_initial(w) for g in gh], vars)


def homogeneity_space(ideal):
    """Basis of the space of weights u for which the ideal is u-graded,
    from the exponent differences within each element of its reduced
    grlex Groebner basis."""
    rows = []
    for g in groebner_basis(ideal).gens:
        first, *rest = g.terms
        rows += [[Fraction(x - y) for x, y in zip(e, first)] for e in rest]
    return nullspace(rows, ncols=ideal.nvars)


def tied_space(eng, w):
    """The weights orthogonal to the tied weak differences of w's face in
    a TropicalEngine; on the face without a cone, where init_w(I) = I, to
    the term differences of the base basis."""
    face = eng.face(w)
    if face.cone is not None:
        rows = [face.cone.weak[i] for i in face.ties]
    else:
        rows = []
        for g in eng.base.gens:
            first, *rest = g.terms
            rows += [[x - y for x, y in zip(e, first)] for e in rest]
    return nullspace(rows, ncols=eng.nvars)


def check_tied_ranks(eng, bound) -> int:
    """Assert, for every weight w of the box [-bound, bound]^p in trop(I),
    w = 0 included, with J a fresh-run init_w(I):

    * ``tied_space`` lies in the homogeneity space of J;
    * off the face without a cone, the engine's initial forms are a lex
      Groebner basis of J: each leading monomial of the reduced lex basis
      is divisible by the lexicographically largest monomial of one of
      them;
    * ``is_rigid`` is true iff J is not zero and the homogeneity space of
      its torus saturation J : (t_1...t_p)^infty is one line.

    Returns the number of weights checked."""
    checked = 0
    lex = TermOrder([])
    for w in product(range(-bound, bound + 1), repeat=eng.nvars):
        if eng.contains(w):
            J = initial_by_fresh_run(eng, w)
            space = homogeneity_space(J)
            assert _rank([*space, *tied_space(eng, w)]) == len(space), w
            if eng.face(w).cone is not None:
                leads = [max(g.terms) for g in eng.initial(w).gens]
                for g in _buchberger(list(J.gens), lex, Job()):
                    assert any(mono_divides(m, g.leading(lex)[0]) for m in leads), w
            torus = () if J.is_zero else homogeneity_space(saturate(J, torus_monomial(J.vars)))
            assert eng.is_rigid(w) == (len(torus) == 1), w
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


def abs_env(env):
    """Series of the absolute values of each series' coefficients."""
    out = {}
    for name, s in env.items():
        out[name] = LaurentSeries(
            s.valuation, [abs(complex(c)) for c in s.coeffs], s.truncation_order
        )
    return out


def series_order(series: LaurentSeries, exact: bool, magnitude=None) -> int:
    """First certified-nonzero order of a complete series.

    Floating coefficients are compared against the magnitude series (the
    same evaluation with absolute values): by the triangle inequality a
    computed coefficient never exceeds its magnitude bound, so the ratio
    measures cancellation.
    """
    if exact:
        if series.is_zero:
            raise TruncationTooShort(
                "series vanishes to truncation order; cannot certify its order"
            )
        return series.valuation
    for i, c in enumerate(series.coeffs):
        k = series.valuation + i
        m = abs(complex(c))
        if magnitude is not None:
            bound = (
                abs(complex(magnitude.coeff(k)))
                if k < magnitude.truncation_order
                else 0.0
            )
            bound = max(bound, 1e-300)
        else:
            # no cancellation information: fall back to a global scale
            bound = max([abs(complex(x)) for x in series.coeffs] + [1.0])
        if m > NUMERIC_ZERO * bound:
            return k
    raise TruncationTooShort("no numerically nonzero coefficient found")


def full_series_valuation_vector(sol, spec, trunc=None):
    """Orders of the coordinate functions along a branch, each evaluated
    to ``trunc`` (by default the least truncation order of the branch) by
    ``poly_eval_series`` (with its magnitude series for a floating branch)
    and read by ``series_order``."""
    if trunc is None:
        trunc = min(b.truncation_order for b in sol.branch)
    env = dict(zip(spec.unknowns, sol.branch))
    out = []
    for f in spec.tuple_polys():
        val = poly_eval_series(f, env, trunc)
        if sol.exact:
            out.append(series_order(val, True))
        else:
            mag = poly_eval_series(_abs_poly(f), abs_env(env), trunc)
            out.append(series_order(val, False, magnitude=mag))
    return tuple(out)


def mat_mul(a, b):
    """Product of two matrices given as lists of rows."""
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


# -- the tuple-keyed Groebner kernel, an oracle for the packed one ----------


def reference_key(order):
    """The key of ``order`` as a tuple: the dot product with each row,
    then the exponent tuple itself."""
    return lambda e: tuple(sum(map(mul, r, e)) for r in order.rows) + (e,)


def _support(m):
    """Bitmask of the positions of a monomial's positive exponents: a
    monomial whose mask has a bit outside m's support cannot divide m."""
    s = 0
    for x in m:
        s = 2 * s + (x > 0)
    return s


def _reference_reduce(terms, reducers, lts, lcs, sugars, key, budget, sugar=None):
    """Division over Z by pseudo-division on exponent tuples: each term
    goes to the first reducer whose leading monomial divides it."""
    masks = [_support(lt) for lt in lts]
    p = dict(terms)
    r = {}
    mult = 1
    while p:
        m = max(p, key=key)
        c = p.pop(m)
        absent = ~_support(m)
        for i, lt in enumerate(lts):
            if not masks[i] & absent and all(map(le, lt, m)):
                budget.tick()
                a = lcs[i]
                h = gcd(a, c)
                if h != a:
                    k = a // h
                    mult *= k
                    p = {e: x * k for e, x in p.items()}
                    if r:
                        r = {e: x * k for e, x in r.items()}
                f = c // h
                q = tuple(map(sub, m, lt))
                if sugar is not None:
                    sugar = max(sugar, sugars[i] + sum(q))
                for e, gc in reducers[i].items():
                    if e == lt:
                        continue
                    me = tuple(map(add, e, q))
                    s = p.get(me, 0) - f * gc
                    if s:
                        p[me] = s
                    else:
                        p.pop(me, None)
                break
        else:
            r[m] = c
    return r, sugar, mult


def _reference_interreduce(polys, vars, key, budget):
    """Minimal then tail-reduced basis of primitive integer term dicts, as
    monic Fraction polynomials sorted by leading monomial."""
    polys = [p for p in polys if p]
    if not polys:
        return []
    polys.sort(key=lambda p: key(max(p, key=key)))
    all_lts = [max(p, key=key) for p in polys]
    minimal = []
    lts = []
    for i, p in enumerate(polys):
        dominated = False
        for j, lt_other in enumerate(all_lts):
            if i == j:
                continue
            if mono_divides(lt_other, all_lts[i]) and (
                lt_other != all_lts[i] or j < i
            ):
                dominated = True
                break
        if not dominated:
            minimal.append(p)
            lts.append(all_lts[i])
    lcs = [p[lt] for p, lt in zip(minimal, lts)]
    result = []
    for i, p in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        olts = lts[:i] + lts[i + 1 :]
        olcs = lcs[:i] + lcs[i + 1 :]
        r, _, _ = _reference_reduce(p, others, olts, olcs, None, key, budget)
        a = r[lts[i]]
        out = Polynomial.__new__(Polynomial)
        out.terms = {e: Fraction(c, a) for e, c in r.items()}
        out.vars = vars
        result.append(out)
    result.sort(key=lambda p: key(max(p.terms, key=key)))
    return result


def reference_buchberger(gens, order, budget):
    """``groebner._buchberger`` on exponent tuples: sugar selection from a
    heap of pairs keyed by (sugar, key of the lcm, i, j), both
    Buchberger criteria, the first dividing reducer, primitive integer
    polynomials."""
    key = reference_key(order)
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    vars = gens[0].vars
    for g in gens:
        if g.is_constant():
            return [Polynomial.constant(1, vars)]
    one = (0,) * len(vars)
    G = []
    lts = []
    lcs = []
    sugars = []
    pending = set()
    queue = []

    def join(r, sugar):
        if len(r) == 1 and one in r:
            return False
        lt = max(r, key=key)
        f = _primitive(r, lt)
        i = len(G)
        for j in range(i):
            lcm_ = tuple(map(max, lts[j], lt))
            pair_sugar = max(
                sugars[j] + sum(map(sub, lcm_, lts[j])),
                sugar + sum(map(sub, lcm_, lt)),
            )
            heappush(queue, (pair_sugar, key(lcm_), j, i, lcm_))
            pending.add((j, i))
        G.append(f)
        lts.append(lt)
        lcs.append(f[lt])
        sugars.append(sugar)
        return True

    for g in sorted(gens, key=lambda p: key(max(p.terms, key=key))):
        r, s, _ = _reference_reduce(
            _integral(g.terms)[0], G, lts, lcs, sugars, key, budget,
            sugar=g.total_degree(),
        )
        if r and not join(r, s):
            return [Polynomial.constant(1, vars)]

    while queue:
        sugar, _, i, j, lcm_ = heappop(queue)
        pending.discard((i, j))
        if lcm_ == tuple(map(add, lts[i], lts[j])):
            continue
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if mono_divides(lts[k], lcm_):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        h = gcd(lcs[i], lcs[j])
        ci = lcs[j] // h
        cj = lcs[i] // h
        qi = tuple(map(sub, lcm_, lts[i]))
        qj = tuple(map(sub, lcm_, lts[j]))
        s_terms = {tuple(map(add, e, qi)): c * ci for e, c in G[i].items()}
        for e, c in G[j].items():
            me = tuple(map(add, e, qj))
            s = s_terms.get(me, 0) - c * cj
            if s:
                s_terms[me] = s
            else:
                s_terms.pop(me, None)
        budget.tick()
        r, s_sugar, _ = _reference_reduce(
            s_terms, G, lts, lcs, sugars, key, budget, sugar=sugar
        )
        if r and not join(r, s_sugar):
            return [Polynomial.constant(1, vars)]
    return _reference_interreduce(G, vars, key, budget)
