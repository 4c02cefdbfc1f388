"""Tropical membership, rigid rays, critical slopes, boundary strata.

A weight w lies in the tropical variety of I iff the saturated initial
ideal init_w(I) : (t_1...t_p)^infty, whose variety is the initial variety
in the torus, is proper.  A ray is rigid iff the homogeneity space of that
saturation is one-dimensional; the rigid rays are in bijection with the
codimension-one critical slopes, realized here as the hyperplanes
orthogonal to the rays.

trop(I) lies in the tropical prevariety of every finite subset of I
(Maclagan-Sturmfels, Introduction to Tropical Geometry, 3.2), so a weight
at which one known element of I has a unique w-minimal term is outside
trop(I): that term's monomial is in init_w(I).  Such an element, a
witness, takes its minimum twice only on the hyperplanes w.(a - b) = 0,
one per pair of its terms a, b.  The ray search therefore enumerates the
box's lattice points on intersections of these hyperplanes, one pair per
chosen witness, and screens only them against every witness; no Groebner
run is involved.  The screen is one-sided: a weight it passes still gets
the exact answer.

Every term of an initial form at w is the leading monomial m or a term
whose difference to m is tied, w.(e - m) = 0, so every u orthogonal to
the tied differences of w's Groebner face grades init_w(I), and also its
saturation, since saturating by a monomial keeps every grading.  A face
they leave two or more dimensions holds no rigid ray.  On the other faces
the homogeneity space is the space orthogonal to the term differences of
the saturation's reduced basis, which membership has already computed.

A ``TropicalEngine`` is the initial-ideal engine of I
(``groebner.InitialIdealEngine``), and keeps init_w(I), its torus
saturation and both answers on the record of w's face
(``groebner.Face``).  The saturation is ``groebner.torus_saturation``,
memoized in the job, so every engine and every layer of a job that meets
one initial ideal shares one.  A job has one ``TropicalEngine.of(I)`` per
ideal; the series lifts of ``asymptotics`` read their cone bases from the
engine of the curve's critical ideal, and ``stratum_model`` reads
init_w(I) from the face record.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations, product
from operator import mul

from .errors import NotInTropicalVariety
from .groebner import (
    GroebnerBasis,
    Ideal,
    InitialIdealEngine,
    current_job,
    torus_saturation,
)
from .linalg import (
    extend_echelon,
    make_primitive,
    rank,
    sign_normalize,
    unimodular_completion,
    vec_gcd,
)
from .rings import Polynomial


class ConnectednessAssumed(UserWarning):
    """Boundary strata are assumed connected; this is not verified."""


@dataclass(frozen=True)
class Ray:
    """Primitive integer direction in the tropical variety.

    Direction is meaningful: v and -v are different rays (they give the
    same slope hyperplane).
    """

    v: tuple
    rigid: bool = True
    source: str = "searched"  # searched | flacet | user

    def __post_init__(self):
        if not any(self.v):
            raise ValueError("ray vector must be nonzero")
        if vec_gcd(self.v) != 1:
            raise ValueError(f"ray vector {self.v} is not primitive")
        object.__setattr__(self, "v", tuple(int(x) for x in self.v))


@dataclass(frozen=True)
class SlopeHyperplane:
    """Hyperplane through the origin in data space, with a primitive
    integer normal normalized up to sign."""

    normal: tuple

    def __post_init__(self):
        object.__setattr__(self, "normal", sign_normalize(make_primitive(self.normal)))

    def form_string(self, svars=None) -> str:
        names = svars or [f"s{i}" for i in range(len(self.normal))]
        parts = []
        for c, name in zip(self.normal, names):
            if c == 0:
                continue
            if c == 1:
                term = name
            elif c == -1:
                term = f"-{name}"
            else:
                term = f"{c}*{name}"
            if parts and not term.startswith("-"):
                parts.append(f"+{term}")
            else:
                parts.append(term)
        return "".join(parts)

    def __str__(self):
        return self.form_string()


def _term_differences(g: Polynomial) -> tuple:
    """The exponent of each term of g but the first, minus the first's."""
    first, *rest = g.terms
    return tuple(tuple(x - y for x, y in zip(e, first)) for e in rest)


def _one_line(basis, nvars) -> bool:
    """True if the term differences of a reduced basis leave one
    dimension: the homogeneity space of its ideal is one line."""
    return nvars - rank([d for g in basis for d in _term_differences(g)]) == 1


def _pair_normals(diffs) -> tuple:
    """The normals of the hyperplanes w.(a - b) = 0, one per pair of terms
    a, b of a witness stored as ``_term_differences``, each primitive and
    sign-normalized, without repeats."""
    normals = set(diffs)
    normals.update(tuple(x - y for x, y in zip(a, b)) for a, b in combinations(diffs, 2))
    return tuple(sorted({sign_normalize(make_primitive(n)) for n in normals}))


def _lattice_points(space, nvars, bound):
    """The integer points of [-bound, bound]^nvars in a subspace, given
    by the echelon rows of its equations (``extend_echelon``).  The free
    coordinates range over the box; each pivot coordinate follows by
    integer back-substitution, which must divide out and stay in the
    box."""
    pivots = {c for c, _ in space}
    free = [i for i in range(nvars) if i not in pivots]
    solved = [(c, row[c], [(f, -row[f]) for f in free if row[f]]) for c, row in space]
    for values in product(range(-bound, bound + 1), repeat=len(free)):
        w = [0] * nvars
        for f, x in zip(free, values):
            w[f] = x
        for c, den, terms in solved:
            q, r = divmod(sum(a * w[f] for f, a in terms), den)
            if r or not -bound <= q <= bound:
                break
            w[c] = q
        else:
            yield tuple(w)


class TropicalEngine(InitialIdealEngine):
    """Membership and rigidity on the initial-ideal engine's face records.

    Membership and rigidity depend only on init_w(I), which is constant on
    each face of the Groebner fan.  A weight is looked up once, by
    ``face``, and both are answered once per face record, which keeps
    them.  Rigidity is read first from the rank of the face's tied weak
    differences.  init_w(I) is built, and saturated by the torus monomial
    (``torus_saturation``), once per face, only when membership asks for
    it; the saturation answers both membership and, on the faces the tied
    rank leaves open, rigidity.  The saturation is memoized in the job by
    the generator set of init_w(I), so faces, and engines, with the same
    initial ideal share one.

    Before the lookup, ``contains`` screens w with witnesses: the elements
    of the base Groebner basis and the generators of I, each stored once
    as the exponent differences of its terms to its first term.  If one
    witness has a unique minimal value of w.e over its terms, init_w(I)
    holds a monomial and w is outside trop(I), as ``_saturation`` would
    also answer.  Only the weights that pass pay for a lookup.
    ``candidates`` lists the box weights that pass without trying the
    others.
    """

    def __init__(self, ideal: Ideal):
        super().__init__(ideal)
        self._witnesses = {_term_differences(g) for g in (*self.base.gens, *ideal.gens)}

    @classmethod
    def of(cls, ideal: Ideal) -> "TropicalEngine":
        """The current job's engine for this ideal, made on first use."""
        memo = current_job().memo
        key = (cls, ideal.vars, ideal.gens)
        if key not in memo:
            memo[key] = cls(ideal)
        return memo[key]

    def _saturation(self, w, face) -> GroebnerBasis:
        """The torus saturation of init_w(I), kept on w's face record; the
        face is in trop(I) iff it is not the unit ideal."""
        if face.saturation is None:
            face.saturation = torus_saturation(self.initial(w, face=face))
        return face.saturation

    def _rigid(self, w, face) -> bool:
        """True iff w's face lies in trop(I) and is rigid, kept on the face
        record: the face's tied differences leave one dimension (on the
        face without a cone, where init_w(I) = I, this test is skipped),
        and the torus saturation of init_w(I) is neither zero nor the unit
        ideal and the term differences of its reduced basis leave one
        dimension.  A face the tied differences leave two or more
        dimensions is settled with no saturation."""
        if face.rigid is None:
            cone = face.cone
            rigid = cone is None or self.nvars - rank([cone.weak[i] for i in face.ties]) == 1
            if rigid:
                sat = self._saturation(w, face)
                rigid = bool(sat.gens) and not sat.is_unit and _one_line(sat.gens, self.nvars)
            face.rigid = rigid
        return face.rigid

    def _screened_out(self, w) -> bool:
        """True if some witness has a unique w-minimal term."""
        for diffs in self._witnesses:
            values = [0, *(sum(map(mul, w, d)) for d in diffs)]
            if values.count(min(values)) == 1:
                return True
        return False

    def candidates(self, bound: int) -> list:
        """The primitive weights of the box [-bound, bound]^p that no
        witness screens out, in the box's product order.

        A witness passes w only if w lies on one of its pair hyperplanes,
        so every weight that passes lies on a subspace that meets one such
        hyperplane of each chosen witness.  The subspaces are kept as the
        echelon rows of their equations (``extend_echelon``), which one
        more normal meets with its hyperplane; one that already lies in a
        hyperplane of the
        witness stays whole.  A witness is chosen, those with fewer pairs
        first, when it lowers the number of lattice points to enumerate,
        the box side to the power of each subspace's dimension.  With no
        witness chosen the one subspace is the whole box.  The points are
        deduplicated, sorted and screened against every witness.
        """
        p = self.nvars
        side = 2 * bound + 1
        spaces = [()]
        cost = side**p
        for normals in sorted(map(_pair_normals, self._witnesses), key=lambda n: (len(n), n)):
            trial = {}
            trial_cost = 0
            for space in spaces:
                meets = [extend_echelon(space, n) for n in normals]
                for m in [space] if space in meets else meets:
                    if m not in trial and len(m) < p:
                        trial[m] = None
                        trial_cost += side ** (p - len(m))
                if trial_cost >= cost:
                    break
            if trial_cost < cost:
                spaces, cost = list(trial), trial_cost
        points = set()
        for space in spaces:
            points.update(_lattice_points(space, p, bound))
        return [
            w
            for w in sorted(points)
            if any(w) and vec_gcd(w) == 1 and not self._screened_out(w)
        ]

    def contains(self, w) -> bool:
        if len(w) != self.nvars:
            raise ValueError("weight length does not match the ring")
        if self._screened_out(w):
            return False
        return not self._saturation(w, self.face(w)).is_unit

    def is_rigid(self, w) -> bool:
        """True iff the homogeneity space of init_w(I) : (t_1...t_p)^infty
        is exactly one line, answered once per face; raises
        NotInTropicalVariety for a w outside trop(I)."""
        face = self.face(w)
        if self._saturation(w, face).is_unit:
            w = tuple(int(x) for x in w)
            raise NotInTropicalVariety(f"{w} is not in the tropical variety")
        return self._rigid(w, face)


def is_rigid(ideal: Ideal, w) -> bool:
    """True iff the homogeneity space of the torus-saturated init_w(I) is
    exactly one line."""
    return TropicalEngine.of(ideal).is_rigid(w)


def warn_connectedness_assumed():
    """Warn, at the caller's caller, that rigidity assumes connected
    boundary strata."""
    warnings.warn(
        "rigidity assumes connected boundary strata (not verified)",
        ConnectednessAssumed,
        stacklevel=3,
    )


def find_rigid_rays(ideal: Ideal, bound: int = 3):
    """All rigid rays with coordinates in [-bound, bound], exhaustively.

    Only primitive vectors are tested; the result is labeled exhaustive
    within the bound (rays with larger coordinates are not found).  The
    weights tested are the engine's ``candidates``, the box weights in the
    tropical prevariety of the witnesses, each looked up once by its face.
    A face whose tied differences leave two or more dimensions is not
    rigid, and its initial ideal is neither built nor saturated.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    eng = TropicalEngine.of(ideal)
    warn_connectedness_assumed()
    rays = []
    for w in eng.candidates(bound):
        if eng._rigid(w, eng.face(w)):
            rays.append(Ray(v=w, rigid=True, source="searched"))
    return rays


def critical_slopes(rays) -> list:
    """Projective hyperplanes orthogonal to the rays, deduplicated up to
    sign of the normal."""
    out = []
    seen = set()
    for ray in rays:
        h = SlopeHyperplane(normal=ray.v)
        if h not in seen:
            seen.add(h)
            out.append(h)
    return sorted(out, key=lambda h: h.normal)


def _stratum_vars(p):
    return tuple(f"u{i}" for i in range(1, p))


def stratum_model(ideal: Ideal, ray: Ray) -> Ideal:
    """Ideal of the quotient of V(init_w) by the one-parameter subgroup of
    the ray, in the p - 1 torus coordinates u1, u2, ...

    A unimodular change of torus coordinates straightens the ray to e1;
    the initial ideal becomes homogeneous in the first new variable, which
    is then set to 1.
    """
    eng = TropicalEngine.of(ideal)
    if not eng.contains(ray.v):
        raise NotInTropicalVariety(f"{ray.v} is not in the tropical variety")
    J = eng.face(ray.v).ideal
    p = ideal.nvars
    B = unimodular_completion(ray.v)
    new_vars = _stratum_vars(p)
    gens = []
    for g in J.gens:
        t = g.apply_exponent_map(B).laurent_normalize()
        firsts = {e[0] for e in t.terms}
        assert len(firsts) <= 1, "initial form must be homogeneous along the ray"
        dropped = Polynomial({e[1:]: c for e, c in t.terms.items()}, new_vars)
        if not dropped.is_zero:
            gens.append(dropped)
    return Ideal(gens, new_vars)


def stratum_euler_char(ideal: Ideal, ray: Ray) -> int:
    """Euler characteristic of the open boundary stratum of the ray, as
    ``torus_euler_characteristic`` counts it."""
    from .mle import torus_euler_characteristic

    return torus_euler_characteristic(stratum_model(ideal, ray))


def weighted_ray_sum(ideal: Ideal, rays):
    """Sum of stratum Euler characteristics times ray vectors (reported,
    not asserted; vanishes in every worked example)."""
    chis = [stratum_euler_char(ideal, ray) for ray in rays]
    return ray_sum(ideal.nvars, rays, chis)


def ray_sum(nvars: int, rays, weights):
    """Sum of weights times ray vectors, in Z^nvars."""
    total = [0] * nvars
    for ray, weight in zip(rays, weights):
        for i, x in enumerate(ray.v):
            total[i] += weight * x
    return tuple(total)
