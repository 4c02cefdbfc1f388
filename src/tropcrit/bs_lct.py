"""Slope intersections with Bernstein-Sato data and LCT-polytope tests.

The rigid rays sitting inside the nonnegative orthant predict exactly the
slopes shared between the critical-slope locus and the Bernstein-Sato
variety.  Externally computed Bernstein-Sato factor lists are loaded as
fixtures for comparison; no D-module computation happens here.

The LCT polytope collects inequalities a.s <= k over nonnegative rays
(s >= 0 implied); facets are detected by exhaustive vertex enumeration
with exact arithmetic, and the recession rays, unit vectors off the
normals' supports, come in closed form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .arrangement import Arrangement, matroid_connected
from .errors import DimensionTooLarge, MissingDiscrepancy, NotIndecomposable
from .linalg import rank, rref
from .rings import dot
from .tropical import SlopeHyperplane

MAX_VERTEX_DIM = 8


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

    @classmethod
    def from_json(cls, obj):
        factors = []
        for item in obj["factors"]:
            offsets = item.get("offsets")
            factors.append(
                BSFactor(
                    normal=tuple(int(x) for x in item["normal"]),
                    offsets=tuple(Fraction(str(k)) for k in offsets)
                    if offsets
                    else None,
                )
            )
        return cls(factors=factors)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def slopes(self):
        return sorted(
            {SlopeHyperplane(normal=f.normal) for f in self.factors},
            key=lambda h: h.normal,
        )


@dataclass
class BSReport:
    """Predicted intersection of the critical slopes with the
    Bernstein-Sato slopes, plus fixture comparison when available."""

    intersection_with_sf: list
    fixture_slopes: list | None = None
    bs_only: list = field(default_factory=list)  # in fixture, not critical
    sf_only: list = field(default_factory=list)  # critical, not in fixture
    consistent_with_fixture: bool | None = None


def bs_slope_intersection(rays, fixture: BSFixture | None = None) -> BSReport:
    """Hyperplanes of the rigid rays contained in the nonnegative orthant;
    with a fixture, also the two one-sided discrepancy lists."""
    nonneg = [r for r in rays if all(x >= 0 for x in r.v)]
    predicted = sorted(
        {SlopeHyperplane(normal=r.v) for r in nonneg}, key=lambda h: h.normal
    )
    report = BSReport(intersection_with_sf=predicted)
    if fixture is not None:
        all_slopes = {SlopeHyperplane(normal=r.v) for r in rays}
        fslopes = set(fixture.slopes())
        report.fixture_slopes = sorted(fslopes, key=lambda h: h.normal)
        report.bs_only = sorted(fslopes - all_slopes, key=lambda h: h.normal)
        report.sf_only = sorted(all_slopes - fslopes, key=lambda h: h.normal)
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
    _vertices: list | None = field(default=None, repr=False)
    _rays: list | None = field(default=None, repr=False)

    def __post_init__(self):
        for a, k in self.inequalities:
            if any(x < 0 for x in a):
                raise ValueError("inequality normals must be nonnegative")
            if k <= 0:
                raise ValueError("discrepancy values must be positive")

    def constraints(self):
        """All constraints as (row, rhs) of row . s <= rhs."""
        p = self.dimension
        rows = [([Fraction(x) for x in a], Fraction(k)) for a, k in self.inequalities]
        for i in range(p):
            e = [Fraction(0)] * p
            e[i] = Fraction(-1)
            rows.append((e, Fraction(0)))
        return rows

    def vertices(self):
        """Exhaustive basis enumeration with exact solves."""
        if self._vertices is not None:
            return self._vertices
        p = self.dimension
        if p > MAX_VERTEX_DIM:
            raise DimensionTooLarge(
                f"vertex enumeration is capped at dimension {MAX_VERTEX_DIM}"
            )
        rows = self.constraints()
        found = []
        for subset in combinations(range(len(rows)), p):
            x = _unique_solution([rows[i][0] + [rows[i][1]] for i in subset])
            if x is None:
                continue
            if all(dot(row, x) <= rhs for row, rhs in rows):
                pt = tuple(x)
                if pt not in found:
                    found.append(pt)
        self._vertices = sorted(found)
        return self._vertices

    def recession_rays(self):
        """Extreme rays of the recession cone {d >= 0 : a.d <= 0}, computed
        once.

        The normals are nonnegative, so a.d <= 0 forces d_j = 0 on the
        support of a: the cone is the orthant face spanned by the unit
        vectors e_j with j outside every normal's support.  These rays
        have a.d = 0 for every inequality, so they are also the recession
        rays of every face.
        """
        if self._rays is not None:
            return self._rays
        p = self.dimension
        used = {j for a, _ in self.inequalities for j, x in enumerate(a) if x}
        self._rays = sorted(
            tuple(Fraction(int(i == j)) for i in range(p))
            for j in range(p)
            if j not in used
        )
        return self._rays

    def dim(self) -> int:
        verts = self.vertices()
        if not verts:
            return -1
        v0 = verts[0]
        rows = [[x - y for x, y in zip(v, v0)] for v in verts[1:]]
        rows += [list(d) for d in self.recession_rays()]
        return rank(rows) if rows else 0


def _unique_solution(augmented):
    """The solution of a square system given as rows [A | b], or None when
    A is singular: A is invertible exactly when the pivots are its
    columns 0..p-1."""
    red, pivots = rref(augmented)
    if pivots != list(range(len(augmented))):
        return None
    return [row[-1] for row in red]


def facet_defining(poly: LCTPolytope, which: int) -> bool:
    """Is the face cut by inequality ``which`` of affine dimension p-1?

    Unbounded faces contribute their recession directions, the
    polytope's recession rays, to the affine hull; every nonempty face of
    this pointed polyhedron has a vertex.
    """
    a, k = poly.inequalities[which]
    verts = poly.vertices()
    on_face = [v for v in verts if dot(a, v) == k]
    if not on_face:
        return False
    v0 = on_face[0]
    rows = [[x - y for x, y in zip(v, v0)] for v in on_face[1:]]
    rows += [list(d) for d in poly.recession_rays()]
    face_dim = rank(rows) if rows else 0
    return face_dim == poly.dimension - 1


def _support_flat_rank(arr: Arrangement, ray_vec):
    """Rank of the ray's support in the centralized matroid; the support
    must be the incidence set of a flat (else None)."""
    if any(x not in (0, 1) for x in ray_vec):
        return None
    from .arrangement import _closure, _subset_rank

    vectors = arr.central_vectors()
    support = [i for i, x in enumerate(ray_vec) if x]
    if not support:
        return None
    closed = _closure(vectors, support)
    if set(closed) != set(support):
        return None
    return _subset_rank(vectors, support)


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
    for r in rays:
        if any(x < 0 for x in r.v):
            raise ValueError(f"ray {r.v} leaves the nonnegative orthant")
        if tuple(r.v) in k:
            kv = Fraction(k[tuple(r.v)])
        elif arrangement is not None:
            kv = _support_flat_rank(arrangement, r.v)
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
    """Facet test per nonnegative rigid ray.

    Arrangement inputs must be indecomposable (connected matroid); other
    inputs require user discrepancies and are flagged unverified.
    """
    nonneg = [r for r in rays if all(x >= 0 for x in r.v)]
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
