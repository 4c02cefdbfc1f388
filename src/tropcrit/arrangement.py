"""Hyperplane-arrangement combinatorics.

Matroid queries are answered in integers, on the vectors made primitive
integer tuples once per arrangement.  The lattice of flats is built rank
by rank from residues modulo a flat's span; each flat keeps the reduced
echelon rows of its span, its parent's extended by the residue of its
cover, and the job memoizes the lattice, so ``flat_rank`` is a lookup.
Connectivity comes from the fundamental circuits of one basis, read from
one fraction-free echelon form (Krogdahl 1977; Oxley, Matroid Theory,
ch. 4).  Flacets (flats whose restriction and contraction matroids are
both connected) index the rays of the tropical variety of the complement;
the ray recipe and the Moebius-function Euler characteristic live here
too.

``matroid_invariants`` answers what the pipeline asks of an arrangement
from one lattice of flats of the homogenized functionals, with no
Groebner run: the rigid rays are the flacet rays, complete with no bound
(Feichtner and Sturmfels 2005; Ardila and Klivans 2006); the boundary
stratum of the ray of a flacet F has Euler characteristic
(-1)^(r-2) beta(M|F) beta(M/F), with Crapo's beta invariant; and the ML
degree is the absolute value of the Euler characteristic of the
complement (Huh 2013).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

from .errors import NotCentral
from .groebner import current_job
from .linalg import (
    echelon_residue,
    extend_echelon,
    integer_row,
    integer_rref,
    make_primitive,
    sign_normalize,
)
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


def _integer_vectors(vectors):
    """Each vector as the primitive integer tuple on its line (a loop stays
    zero): the same linear matroid, and the key of its lattice in the
    job's memo."""
    return tuple(tuple(integer_row(v)) for v in vectors)


def _lattice(vectors, avoid=None):
    """{flat: (rank, echelon)} for every flat of ``matroid_flats`` of the
    integer vectors, with the echelon rows of its span
    (``linalg.extend_echelon``); made once per (vectors, avoid) in the
    current job.

    Rank by rank from the loops up: each flat F, one step of the current
    job, reduces every vector outside F modulo its span, and the vectors
    whose residues are parallel form, with F, one flat covering F; the
    cover's rows are F's extended by that residue, made primitive with a
    positive first entry, which also keys it.  Every flat above one that
    holds ``avoid`` holds it too, and every flat that does not is reached
    from a flat below it that does not, so a cover holding ``avoid`` is
    dropped.
    """
    job = current_job()
    key = (_lattice, vectors, avoid)
    lattice = job.memo.get(key)
    if lattice is not None:
        return lattice
    bottom = frozenset(i for i, v in enumerate(vectors) if not any(v))
    lattice = {bottom: (0, ())}
    frontier = [bottom]
    r = 0
    while frontier:
        nxt = []
        for F in frontier:
            job.tick()
            echelon = lattice[F][1]
            covers = {}
            for i, v in enumerate(vectors):
                if i not in F:
                    res = sign_normalize(make_primitive(echelon_residue(echelon, v)))
                    covers.setdefault(res, set()).add(i)
            for res, extra in covers.items():
                G = F | extra
                if avoid not in G and G not in lattice:
                    lattice[G] = (r + 1, extend_echelon(echelon, res))
                    nxt.append(G)
        frontier = nxt
        r += 1
    job.memo[key] = lattice
    return lattice


def matroid_flats(vectors, avoid=None):
    """All flats of the linear matroid, as Flat records sorted by rank;
    with ``avoid``, the index of a nonzero vector, only those that do not
    hold it.  One echelon extension, one step of the current job, per flat
    (``_lattice``)."""
    lattice = _lattice(_integer_vectors(vectors), avoid)
    return sorted(
        (Flat(members=F, rank=r) for F, (r, _) in lattice.items()),
        key=lambda f: f.key(),
    )


def flat_rank(vectors, members):
    """Rank of ``members`` in the linear matroid if it is a flat, else
    None: a lookup in the job's lattice of flats of the vectors."""
    found = _lattice(_integer_vectors(vectors)).get(frozenset(members))
    return None if found is None else found[0]


def matroid_connected(vectors, ground=None, contract=None) -> bool:
    """Connectivity of the (minor of the) linear matroid.

    ``ground`` restricts, ``contract`` contracts; matroids with at most one
    element count as connected.  One integer echelon form, with the ground
    vectors reduced modulo the span of ``contract`` as columns, picks a
    basis (its pivots); a non-pivot column j gives the fundamental circuit
    of j and the pivots of its nonzero entries.  The minor is connected
    iff these circuits chain over every element (Krogdahl, Discrete Math.
    1977; Oxley, Matroid Theory, ch. 4): loops and coloops stay apart.
    """
    vectors = _integer_vectors(vectors)
    contract = frozenset(contract or [])
    if ground is None:
        ground = range(len(vectors))
    modulo = reduce(extend_echelon, (vectors[i] for i in sorted(contract)), ())
    return _circuits_connect(vectors, set(ground) - contract, modulo)


def _circuits_connect(vectors, ground, modulo) -> bool:
    """``matroid_connected`` on the ground set of the integer vectors, the
    contracted span given by its echelon rows ``modulo``."""
    ground = sorted(ground)
    if len(ground) <= 1:
        return True
    columns = [echelon_residue(modulo, vectors[i]) for i in ground]
    red, pivots = integer_rref(list(zip(*columns)))
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


def _flacets(vectors, lattice):
    """The flacets among the flats of ``lattice = _lattice(vectors)``,
    each flat's contraction tested modulo the echelon rows the lattice
    keeps for that flat."""
    top = max(r for r, _ in lattice.values())
    everything = set(range(len(vectors)))
    return [
        Flat(members=F, rank=r)
        for F, (r, echelon) in lattice.items()
        if 0 < r < top
        and _circuits_connect(vectors, F, ())
        and _circuits_connect(vectors, everything - F, echelon)
    ]


def flacets(arr: Arrangement):
    """Proper flats of the centralized arrangement, below the top flat,
    whose restriction and contraction are both connected by their
    fundamental circuits (Krogdahl 1977)."""
    vectors = _integer_vectors(arr.central_vectors())
    return sorted(_flacets(vectors, _lattice(vectors)), key=lambda f: f.key())


def _flacet_ray(members, q) -> Ray:
    """The ray of a flacet of the q homogenized functionals: its 0/1
    incidence vector, shifted by a multiple of the all-ones vector so the
    last coordinate (the hyperplane at infinity) vanishes, which is then
    dropped."""
    shift = 1 if q - 1 in members else 0
    v = tuple((1 if i in members else 0) - shift for i in range(q - 1))
    return Ray(v=v, rigid=True, source="flacet")


def flacet_rays(arr: Arrangement):
    """Ray per flacet of the homogenized functionals, sorted.  The torus
    ideal of the complement does not depend on ``projective_closure``,
    and neither do its rays."""
    vectors = _integer_vectors(arr.homogenized_vectors())
    flats = _flacets(vectors, _lattice(vectors))
    rays = [_flacet_ray(f.members, len(vectors)) for f in flats]
    return sorted(rays, key=lambda r: r.v)


def chi_complement(arr: Arrangement) -> int:
    """Euler characteristic of the affine complement via the Moebius
    function of the intersection lattice (characteristic polynomial at 1)."""
    return sum(_moebius([f.members for f in intersection_lattice(arr)]).values())


def _moebius(interval):
    """mu(bottom, X) for the flats X of an interval, listed by rank from
    its bottom, so that everything below a flat comes before it."""
    mu = {}
    for X in interval:
        mu[X] = -sum(m for Y, m in mu.items() if Y < X) if mu else 1
    return mu


def _beta(mu, rank, lo, hi) -> int:
    """Crapo's beta invariant of the minor whose lattice of flats is the
    interval [lo, hi], from its Moebius values ``mu`` = mu(lo, X):
    (-1)^(s-1) times the derivative at 1 of its characteristic
    polynomial, s = rank hi - rank lo (Crapo 1967)."""
    s = rank[hi] - rank[lo]
    return (-1) ** (s - 1) * sum(m * (rank[hi] - rank[X]) for X, m in mu.items())


class MatroidInvariants(NamedTuple):
    """The rigid rays of an arrangement complement, sorted, the Euler
    characteristic of each ray's boundary stratum, and its ML degree."""

    rays: list
    euler_chars: list
    ml_degree: int


def matroid_invariants(arr: Arrangement) -> MatroidInvariants:
    """Rays, stratum Euler characteristics and ML degree of the complement,
    read from one lattice of flats of the homogenized functionals (the
    hyperplane at infinity last; one step of the current job per flat).

    With mu(X) = mu(0, X) over the whole lattice and r its rank:
    - each flacet F (``_flacets``) gives the ray ``_flacet_ray``, and its
      stratum the Euler characteristic (-1)^(r-2) beta(M|F) beta(M/F),
      beta(M|F) read from mu below F and beta(M/F) from the Moebius
      function of [F, 1];
    - the ML degree is |sum of mu(X) over the flats X without the
      hyperplane at infinity|, the Euler characteristic of the affine
      complement (Huh 2013).
    """
    vectors = _integer_vectors(arr.homogenized_vectors())
    q = len(vectors)
    lattice = _lattice(vectors)
    flats = sorted(lattice, key=lambda F: (lattice[F][0], sorted(F)))
    rank = {F: r for F, (r, _) in lattice.items()}
    bottom, top = flats[0], flats[-1]
    mu = _moebius(flats)
    found = []
    for flacet in _flacets(vectors, lattice):
        F = flacet.members
        below = _beta({X: m for X, m in mu.items() if X <= F}, rank, bottom, F)
        above = _beta(_moebius([X for X in flats if F <= X]), rank, F, top)
        found.append((_flacet_ray(F, q), (-1) ** (rank[top] - 2) * below * above))
    found.sort(key=lambda item: item[0].v)
    return MatroidInvariants(
        rays=[ray for ray, _ in found],
        euler_chars=[chi for _, chi in found],
        ml_degree=abs(sum(m for X, m in mu.items() if q - 1 not in X)),
    )
