"""Hyperplane-arrangement combinatorics.

Matroid queries are answered from reduced echelon forms: flats and ranks
from residues modulo a flat's span, connectivity from the fundamental
circuits of one basis (Krogdahl 1977; Oxley, Matroid Theory, ch. 4).
Flacets (flats whose restriction and contraction matroids are both
connected) index the rays of the tropical variety of the complement; the
ray recipe and the Moebius-function Euler characteristic live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotCentral
from .groebner import current_job
from .linalg import make_primitive, rref
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


def _echelon(vectors, members):
    """Reduced echelon rows (row, pivot) of the vectors at ``members``."""
    rows = [vectors[i] for i in sorted(members)]
    return list(zip(*rref(rows))) if rows else []


def _reduce_by(echelon, v):
    """v minus its multiples of the reduced echelon rows (row, pivot): zero
    exactly when v lies in their span, and the same vector for every v of
    one coset of the span."""
    for row, c in echelon:
        x = v[c]
        if x:
            v = [a - x * b for a, b in zip(v, row)]
    return v


def matroid_flats(vectors, avoid=None):
    """All flats of the linear matroid, as Flat records; with ``avoid``,
    the index of a nonzero vector, only those that do not hold it.

    Rank by rank from the loops up: each flat F takes one reduced echelon
    form of its vectors (one step of the current job), reduces every
    vector outside F modulo their span, and the vectors whose residues
    are parallel form, with F, one flat covering F.  Every flat above one
    that holds ``avoid`` holds it too, and every flat that does not is
    reached from a flat below it that does not, so a cover holding
    ``avoid`` is dropped unexpanded.
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
            echelon = _echelon(vectors, F)
            covers = {}
            for i, v in enumerate(vectors):
                if i not in F:
                    res = _reduce_by(echelon, v)
                    lead = next(x for x in res if x)
                    covers.setdefault(tuple(x / lead for x in res), set()).add(i)
            for extra in covers.values():
                G = F | extra
                if avoid not in G and G not in flats:
                    flats[G] = r + 1
                    nxt.append(G)
        frontier = nxt
        r += 1
    return sorted(
        (Flat(members=F, rank=r) for F, r in flats.items()),
        key=lambda f: f.key(),
    )


def flat_rank(vectors, members):
    """Rank of ``members`` in the linear matroid if it is a flat, else
    None: the pivots of one echelon form of its vectors, closed when no
    vector outside has a zero residue modulo their span."""
    echelon = _echelon(vectors, members)
    for i, v in enumerate(vectors):
        if i not in members and not any(_reduce_by(echelon, v)):
            return None
    return len(echelon)


def matroid_connected(vectors, ground=None, contract=None) -> bool:
    """Connectivity of the (minor of the) linear matroid.

    ``ground`` restricts, ``contract`` contracts; matroids with at most one
    element count as connected.  One echelon form, with the ground vectors
    reduced modulo the span of ``contract`` as columns, picks a basis (its
    pivots); a non-pivot column j gives the fundamental circuit of j and
    the pivots of its nonzero entries.  The minor is connected iff these
    circuits chain over every element (Krogdahl, Discrete Math. 1977;
    Oxley, Matroid Theory, ch. 4): loops and coloops stay apart.
    """
    contract = frozenset(contract or [])
    if ground is None:
        ground = range(len(vectors))
    ground = sorted(set(ground) - contract)
    if len(ground) <= 1:
        return True
    modulo = _echelon(vectors, contract)
    columns = [_reduce_by(modulo, vectors[i]) for i in ground]
    red, pivots = rref(list(zip(*columns)))
    parts = []
    for j in range(len(ground)):
        if j not in pivots:
            circuit = {j} | {c for row, c in zip(red, pivots) if row[j]}
            joined = [p for p in parts if p & circuit]
            parts = [p for p in parts if not p & circuit] + [circuit.union(*joined)]
    return len(parts) == 1 and len(parts[0]) == len(ground)


# -- affine intersection lattice -------------------------------------------------------


def intersection_lattice(arr: Arrangement):
    """All nonempty intersections of subfamilies, closed and ranked,
    bottom (the ambient space) included: the flats of the homogenized
    functionals that do not contain the hyperplane at infinity.  Such a
    flat meets the affine chart, and its rank is its codimension there.
    """
    vectors = arr.homogenized_vectors()
    return matroid_flats(vectors, avoid=len(vectors) - 1)


def flacets(arr: Arrangement):
    """Proper flats, below the top flat, whose restriction and contraction
    are both connected by their fundamental circuits (Krogdahl 1977)."""
    vectors = arr.central_vectors()
    flats = matroid_flats(vectors)
    return [
        f
        for f in flats
        if 0 < f.rank < flats[-1].rank
        and matroid_connected(vectors, ground=f.members)
        and matroid_connected(vectors, contract=f.members)
    ]


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
