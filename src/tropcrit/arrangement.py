"""Hyperplane-arrangement combinatorics.

Intersection lattices are computed with exact rational linear algebra.
Flacets (flats whose restriction and contraction matroids are both
connected) index the rays of the tropical variety of the complement; the
ray recipe and the Moebius-function Euler characteristic live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import NotCentral
from .groebner import current_job
from .linalg import make_primitive, rank, rref
from .rings import Polynomial
from .tropical import Ray


@dataclass(frozen=True)
class Flat:
    """Closed set of hyperplane indices with the codimension of its
    intersection."""

    members: frozenset
    rank: int

    def key(self):
        return (self.rank, tuple(sorted(self.members)))


def hyperplane_key(coeffs, const):
    """The functional a.x + c scaled so that its first nonzero coefficient
    is 1: proportional functionals, which cut out one hyperplane, share
    it."""
    lead = Fraction(next(a for a in coeffs if a))
    return tuple(a / lead for a in coeffs) + (const / lead,)


class Arrangement:
    """List of affine functionals a.x + c in n variables.

    ``projective_closure`` appends the hyperplane at infinity (always
    last) when central data is required.
    """

    def __init__(self, rows, nvars=None, projective_closure=False, vars=None):
        rows = [
            (tuple(Fraction(x) for x in coeffs), Fraction(const))
            for coeffs, const in rows
        ]
        if nvars is None:
            nvars = len(rows[0][0]) if rows else 0
        self.nvars = nvars
        self.vars = tuple(vars) if vars else tuple(f"x{i+1}" for i in range(nvars))
        hyperplanes = {}
        for i, (coeffs, const) in enumerate(rows):
            if len(coeffs) != nvars:
                raise ValueError("functional length does not match nvars")
            if not any(coeffs):
                raise ValueError(f"functional {i} must involve the variables")
            hyperplanes.setdefault(hyperplane_key(coeffs, const), []).append(i)
        repeats = [tuple(ix[:2]) for ix in hyperplanes.values() if len(ix) > 1]
        if repeats:
            i, j = min(repeats)
            raise ValueError(
                f"functionals {i} and {j} are proportional, which is not allowed"
            )
        self.rows = rows
        self.projective_closure = bool(projective_closure)

    @property
    def size(self) -> int:
        return len(self.rows)

    def is_central(self) -> bool:
        return all(c == 0 for _, c in self.rows)

    def functional_polys(self):
        """The defining functionals as polynomials in the ambient vars."""
        out = []
        for coeffs, const in self.rows:
            terms = {}
            for i, a in enumerate(coeffs):
                if a:
                    e = [0] * self.nvars
                    e[i] = 1
                    terms[tuple(e)] = a
            if const:
                terms[(0,) * self.nvars] = const
            out.append(Polynomial(terms, self.vars))
        return out

    def central_vectors(self):
        """Linear functionals of the centralized arrangement.

        Central input passes through; otherwise the projective closure
        homogenizes each functional and appends the infinity hyperplane as
        the last vector.  Raises NotCentral when neither applies.
        """
        if self.is_central() and not self.projective_closure:
            return [list(a) for a, _ in self.rows]
        if not self.projective_closure:
            raise NotCentral(
                "affine arrangement needs projective_closure for matroid operations"
            )
        return self.homogenized_vectors()

    def homogenized_vectors(self):
        """The functionals homogenized, then the hyperplane at infinity as
        the last vector."""
        vectors = [list(a) + [c] for a, c in self.rows]
        vectors.append([Fraction(0)] * self.nvars + [Fraction(1)])
        return vectors


# -- matroid of a vector list ------------------------------------------------------


def _subset_rank(vectors, subset) -> int:
    rows = [vectors[i] for i in subset]
    return rank(rows) if rows else 0


def _closure(vectors, subset):
    r = _subset_rank(vectors, subset)
    closed = set(subset)
    for i in range(len(vectors)):
        if i not in closed and _subset_rank(vectors, list(subset) + [i]) == r:
            closed.add(i)
    return frozenset(closed)


def _reduce_by(echelon, v):
    """v minus its multiples of the reduced echelon rows (row, pivot): zero
    exactly when v lies in their span, and the same vector for every v of
    one coset of the span."""
    for row, c in echelon:
        x = v[c]
        if x:
            v = [a - x * b for a, b in zip(v, row)]
    return v


def matroid_flats(vectors):
    """All flats of the linear matroid, as Flat records.

    Rank by rank from the loops up: each flat F takes one reduced echelon
    form of its vectors (one step of the current job), reduces every
    vector outside F modulo their span, and the vectors whose residues
    are parallel form, with F, one flat covering F.
    """
    job = current_job()
    vectors = [[Fraction(x) for x in v] for v in vectors]
    bottom = frozenset(i for i, v in enumerate(vectors) if not any(v))
    flats = {bottom: 0}
    frontier = [bottom]
    r = 0
    while frontier:
        nxt = []
        for F in frontier:
            job.tick()
            echelon = list(zip(*rref([vectors[i] for i in sorted(F)])))
            covers = {}
            for i, v in enumerate(vectors):
                if i not in F:
                    res = _reduce_by(echelon, v)
                    lead = next(x for x in res if x)
                    covers.setdefault(tuple(x / lead for x in res), set()).add(i)
            for extra in covers.values():
                G = F | extra
                if G not in flats:
                    flats[G] = r + 1
                    nxt.append(G)
        frontier = nxt
        r += 1
    return sorted(
        (Flat(members=F, rank=r) for F, r in flats.items()),
        key=lambda f: f.key(),
    )


def matroid_connected(vectors, ground=None, contract=None) -> bool:
    """Connectivity of the (minor of the) linear matroid.

    ``ground`` restricts, ``contract`` contracts; matroids with at most one
    element count as connected.
    """
    contract = frozenset(contract or [])
    if ground is None:
        ground = [i for i in range(len(vectors)) if i not in contract]
    ground = sorted(set(ground) - contract)
    if len(ground) <= 1:
        return True
    base = _subset_rank(vectors, contract)

    def rk(subset):
        return _subset_rank(vectors, list(contract) + list(subset)) - base

    total = rk(ground)
    rest = ground[1:]
    for size in range(0, len(rest) + 1):
        for extra in combinations(rest, size):
            part = [ground[0]] + list(extra)
            if len(part) == len(ground):
                continue
            other = [e for e in ground if e not in part]
            if rk(part) + rk(other) == total:
                return False
    return True


# -- affine intersection lattice -------------------------------------------------------


def intersection_lattice(arr: Arrangement):
    """All nonempty intersections of subfamilies, closed and ranked,
    bottom (the ambient space) included: the flats of the homogenized
    functionals that do not contain the hyperplane at infinity.  Such a
    flat meets the affine chart, and its rank is its codimension there.
    """
    vectors = arr.homogenized_vectors()
    infinity = len(vectors) - 1
    return [f for f in matroid_flats(vectors) if infinity not in f.members]


def flacets(arr: Arrangement):
    """Proper flats whose restriction and contraction are both connected."""
    vectors = arr.central_vectors()
    total_rank = rank(vectors)
    out = []
    for flat in matroid_flats(vectors):
        if flat.rank == 0 or flat.rank >= total_rank:
            continue
        if matroid_connected(vectors, ground=flat.members) and matroid_connected(
            vectors, contract=flat.members
        ):
            out.append(flat)
    return out


def flacet_rays(arr: Arrangement):
    """Ray per flacet: 0/1 incidence over the centralized hyperplanes,
    shifted by a multiple of the all-ones vector so the last coordinate
    vanishes, which is then dropped."""
    vectors = arr.central_vectors()
    q = len(vectors)
    out = []
    for flat in flacets(arr):
        inc = [1 if i in flat.members else 0 for i in range(q)]
        shift = inc[-1]
        vec = tuple(x - shift for x in inc[:-1])
        if not any(vec):
            continue
        out.append(Ray(v=make_primitive(vec), rigid=True, source="flacet"))
    return sorted(out, key=lambda r: r.v)


def chi_complement(arr: Arrangement) -> int:
    """Euler characteristic of the affine complement via the Moebius
    function of the intersection lattice (characteristic polynomial at 1)."""
    flats = intersection_lattice(arr)
    mu = {}
    for flat in flats:  # sorted by rank, so everything below comes first
        if not flat.members:
            mu[flat.members] = 1
        else:
            mu[flat.members] = -sum(
                mu[g.members] for g in flats if g.members < flat.members
            )
    return sum(mu.values())
