"""Slope intersections with Bernstein-Sato data and LCT-polytope tests.

The rigid rays sitting inside the nonnegative orthant predict exactly the
slopes shared between the critical-slope locus and the Bernstein-Sato
variety.  Externally computed Bernstein-Sato factor lists are loaded as
fixtures for comparison; no D-module computation happens here.

The LCT polytope collects inequalities a.s <= k over nonnegative rays
(s >= 0 implied); an inequality is facet-defining exactly when it is
irredundant, which one exact simplex run per inequality decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arrangement import Arrangement, flat_lattice, matroid_connected
from .errors import MissingDiscrepancy, NotIndecomposable
from .groebner import current_job
from .linalg import integer_row
from .tropical import SlopeHyperplane, critical_slopes


@dataclass(frozen=True)
class BSFactor:
    """One linear factor family of an external Bernstein-Sato ideal:
    hyperplanes normal.s + k = 0 for k in offsets (offsets may be unknown)."""

    normal: tuple
    offsets: tuple | None = None


@dataclass
class BSFixture:
    """Externally computed Bernstein-Sato factors, shipped as data."""

    factors: list

    def slopes(self):
        return sorted({SlopeHyperplane(normal=f.normal) for f in self.factors})


@dataclass
class BSReport:
    """Predicted intersection of the critical slopes with the
    Bernstein-Sato slopes, plus fixture comparison when available."""

    intersection_with_sf: list
    fixture_slopes: list | None = None
    bs_only: list = field(default_factory=list)  # in fixture, not critical
    sf_only: list = field(default_factory=list)  # critical, not in fixture
    consistent_with_fixture: bool | None = None


def _nonnegative(rays):
    """The rays inside the nonnegative orthant, in their order."""
    return [r for r in rays if all(x >= 0 for x in r.v)]


def bs_slope_intersection(rays, fixture: BSFixture | None = None) -> BSReport:
    """Hyperplanes of the rigid rays contained in the nonnegative orthant;
    with a fixture, also the two one-sided discrepancy lists."""
    predicted = critical_slopes(_nonnegative(rays))
    report = BSReport(intersection_with_sf=predicted)
    if fixture is not None:
        all_slopes = set(critical_slopes(rays))
        fslopes = set(fixture.slopes())
        report.fixture_slopes = sorted(fslopes)
        report.bs_only = sorted(fslopes - all_slopes)
        report.sf_only = sorted(all_slopes - fslopes)
        report.consistent_with_fixture = set(predicted) == (fslopes & all_slopes)
    return report


def qfa_nonneg_certificate(valuations) -> bool:
    """All orders nonnegative: the data line lies in the Bernstein-Sato
    slope locus."""
    return all(v >= 0 for v in valuations)


@dataclass
class LCTPolytope:
    """{s >= 0 : a.s <= k for the listed inequalities}."""

    inequalities: list  # (normal tuple of ints, k Fraction)
    dimension: int
    # the primitive integer row on each (a, k): equal exactly for
    # inequalities that are positive multiples of one another
    directions: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for a, k in self.inequalities:
            if any(x < 0 for x in a):
                raise ValueError("inequality normals must be nonnegative")
            if k <= 0:
                raise ValueError("discrepancy values must be positive")
        self.directions = [tuple(integer_row([*a, k])) for a, k in self.inequalities]


def facet_defining(poly: LCTPolytope, which: int) -> bool:
    """Is the face cut by inequality ``which`` a facet?

    Every k is positive, so P contains eps*(1,...,1) and is
    full-dimensional; an inequality of a full-dimensional polyhedron
    defines a facet exactly when it is irredundant, that is when some
    point meeting every other inequality violates it (Schrijver, Theory
    of Linear and Integer Programming, section 8.4).  Inequalities that
    are positive multiples of this one cut the same halfspace and are
    left out.  So maximize a.s over s >= 0 and the other inequalities
    with an exact tableau simplex: the origin is a feasible start, since
    every right-hand side is positive, and Bland's rule (lowest-index
    entering and leaving variables; Bland, Math. Oper. Res. 1977) makes
    it terminate.  The answer is yes at the first pivot whose value
    passes k, or when the program is unbounded.  Each pivot ticks the
    current job's budget.
    """
    a, k = poly.inequalities[which]
    p = poly.dimension
    direction = poly.directions[which]
    # row r says: basic variable basis[r] = rhs - row . (nonbasic variables)
    rows = [
        [Fraction(x) for x in b] + [Fraction(kb)]
        for (b, kb), other in zip(poly.inequalities, poly.directions)
        if other != direction
    ]
    cost = [Fraction(-x) for x in a] + [Fraction(0)]  # last entry: a.s
    nonbasic = list(range(p))
    basis = list(range(p, p + len(rows)))
    job = current_job()
    while True:
        entering = [c for c in range(p) if cost[c] < 0]
        if not entering:
            return False
        c = min(entering, key=nonbasic.__getitem__)
        bounding = [r for r, row in enumerate(rows) if row[c] > 0]
        if not bounding:
            return True
        r = min(bounding, key=lambda r: (rows[r][-1] / rows[r][c], basis[r]))
        job.tick()
        pivot_row = rows[r]
        inv = 1 / pivot_row[c]
        pivot_row[:] = [x * inv for x in pivot_row]
        pivot_row[c] = inv
        for row in rows + [cost]:
            f = row[c]
            if row is pivot_row or not f:
                continue
            row[:] = [x - f * y for x, y in zip(row, pivot_row)]
            row[c] = -f * inv
        basis[r], nonbasic[c] = nonbasic[c], basis[r]
        if cost[-1] > k:
            return True


def _support_flat_rank(lattice, ray_vec):
    """Rank of the ray's support in the centralized matroid when it is the
    incidence set of a flat, else None: one lookup in its lattice of flats
    (``flat_lattice`` of the central vectors), which ``matroid_invariants``
    has built for the same vectors when the arrangement has its projective
    closure."""
    if any(x not in (0, 1) for x in ray_vec):
        return None
    support = frozenset(i for i, x in enumerate(ray_vec) if x)
    found = lattice.get(support) if support else None
    return None if found is None else found[0]


def lct_polytope(rays, k=None, arrangement: Arrangement | None = None) -> LCTPolytope:
    """Inequality a.s <= k_a per nonnegative ray over s >= 0.

    ``k`` maps ray vectors to positive rationals; arrangement inputs
    auto-fill missing values with the rank of the ray's support flat.
    """
    k = dict(k or {})
    dims = {len(r.v) for r in rays}
    if rays and len(dims) != 1:
        raise ValueError("rays of mixed dimensions")
    if not rays:
        if arrangement is not None:
            p = arrangement.size
        elif k:
            p = len(next(iter(k)))
        else:
            raise ValueError("cannot infer the ambient dimension")
        return LCTPolytope(inequalities=[], dimension=p)
    p = dims.pop()
    ineqs = []
    lattice = None
    for r in rays:
        if any(x < 0 for x in r.v):
            raise ValueError(f"ray {r.v} leaves the nonnegative orthant")
        if tuple(r.v) in k:
            kv = Fraction(k[tuple(r.v)])
        elif arrangement is not None:
            if lattice is None:
                lattice = flat_lattice(arrangement.central_vectors())
            kv = _support_flat_rank(lattice, r.v)
            if kv is None:
                raise MissingDiscrepancy(
                    f"ray {r.v} is not a flat incidence vector; supply k"
                )
            kv = Fraction(kv)
        else:
            raise MissingDiscrepancy(
                f"no discrepancy value for ray {r.v} outside arrangement mode"
            )
        ineqs.append((tuple(r.v), kv))
    return LCTPolytope(inequalities=ineqs, dimension=p)


def conjecture_check(rays, k=None, arrangement: Arrangement | None = None):
    """Facet test per nonnegative rigid ray; the other rays are left out,
    and with no nonnegative ray the result is empty.

    Arrangement inputs must be indecomposable (connected matroid); other
    inputs require user discrepancies and are flagged unverified.
    """
    nonneg = _nonnegative(rays)
    if not nonneg:
        return []
    if arrangement is not None:
        vectors = arrangement.central_vectors()
        if not matroid_connected(vectors):
            raise NotIndecomposable(
                "arrangement matroid is decomposable; the facet predicate "
                "is only meaningful for indecomposable arrangements"
            )
    poly = lct_polytope(nonneg, k=k, arrangement=arrangement)
    results = []
    for idx, r in enumerate(nonneg):
        facet = facet_defining(poly, idx)
        entry = {
            "ray": list(r.v),
            "k": str(poly.inequalities[idx][1]),
            "k_provenance": "arrangement-rank"
            if arrangement is not None and (k is None or tuple(r.v) not in k)
            else "user-supplied (unverified)",
            "facet_defining": facet,
        }
        if facet and all(x != 0 for x in r.v):
            # derived claim: a facet with full support gives a component of
            # the external factor variety at the negated level
            entry["bs_component_claim"] = {
                "normal": list(r.v),
                "level": str(-poly.inequalities[idx][1]),
            }
        results.append(entry)
    return results
