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
witness, takes its minimum at a pair of its terms a, b only on the cell
w.(a - b) = 0, w.(c - a) >= 0 for its other terms c, strictly for the
terms c before b, so that a and b are the first two minimal terms and
the cells of one witness are disjoint.  The ray search therefore
enumerates the box's lattice points in intersections of these cells, one
pair per chosen witness, each point once: on each intersection of their
hyperplanes, all free coordinates but the last range over the box, and
the last over the integer interval that the cells' inequalities allow.
It screens them against the witnesses not chosen; no Groebner run is
involved.  The screen is one-sided: a weight it passes still gets the
exact answer.

Every term of an initial form at w is the leading monomial m or a term
whose difference to m is tied, w.(e - m) = 0, so every u orthogonal to
the tied differences of w's Groebner face grades init_w(I), and also its
saturation, since saturating by a monomial keeps every grading.  A face
they leave two or more dimensions holds no rigid ray.  On the other faces
the homogeneity space is the space orthogonal to the term differences of
the saturation's reduced basis, which membership has already computed.

A ``TropicalEngine`` is the initial-ideal engine of I
(``groebner.InitialIdealEngine``), and keeps the torus saturation of
init_w(I) and both answers on the record of w's face
(``groebner.Face``).  The saturation is ``groebner.torus_saturation``,
memoized in the job, so every engine and every layer of a job that meets
one initial ideal shares one.  A job has one ``TropicalEngine.of(I)`` per
ideal; the series lifts of ``asymptotics`` read their cone bases from the
engine of the curve's critical ideal, and ``stratum_model`` asks the
engine's ``initial`` for init_w(I).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations, product
from math import lcm
from operator import mul, sub

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

    code = "connectedness_unverified"


@dataclass(frozen=True, order=True)
class Ray:
    """Primitive integer direction in the tropical variety.

    Direction is meaningful: v and -v are different rays (they give the
    same slope hyperplane).  Rays sort by v, then source.
    """

    v: tuple
    source: str = "searched"  # searched | flacet | user

    def __post_init__(self):
        if not any(self.v):
            raise ValueError("ray vector must be nonzero")
        if vec_gcd(self.v) != 1:
            raise ValueError(f"ray vector {self.v} is not primitive")
        object.__setattr__(self, "v", tuple(int(x) for x in self.v))


@dataclass(frozen=True, order=True)
class SlopeHyperplane:
    """Hyperplane through the origin in data space, with a primitive
    integer normal normalized up to sign; hyperplanes sort by normal."""

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


def _cone(terms, i, j) -> tuple:
    """The inequalities of the cell of the pair of terms a, b at indices
    i < j of a witness, one (c - a, least value of w.(c - a)) per other
    term c: 1 for the terms before b, 0 after it.  With w.(a - b) = 0
    they say that a and b are the first two terms at which the witness
    takes its minimum, so the cells of a witness's pairs are disjoint."""
    return tuple(
        (tuple(map(sub, c, terms[i])), int(k < j))
        for k, c in enumerate(terms)
        if k not in (i, j)
    )


def _work(side, dim, ninequalities) -> float:
    """The estimated work of enumerating one cone of a subspace of the
    box: side^(dim - 1) intervals, one per value of the free coordinates
    but the last, and side^dim / (ninequalities + 1) weights; a witness
    of k terms takes its minimum at a given pair on about 1/(k - 1) of
    that pair's hyperplane, and each pair's cone has k - 2 inequalities."""
    return side ** (dim - 1) * (1 + side / (ninequalities + 1))


def _narrow(lo, hi, s, a, low):
    """The integers x of [lo, hi] with s + a*x >= low; an empty interval
    has lo > hi."""
    if a > 0:
        lo = max(lo, -((s - low) // a))
    elif a < 0:
        hi = min(hi, (s - low) // -a)
    elif s < low:
        return 1, 0
    return lo, hi


def _cell_points(space, cones, nvars, bound):
    """The integer points of [-bound, bound]^nvars in a subspace, given
    by the echelon rows of its equations (``extend_echelon``), that
    satisfy every inequality g.w >= least of one of its disjoint cones
    (``_cone``), each point once.

    Every coordinate is kept as an integer form in the free coordinates,
    scaled by the lcm of the pivots, and so is every inequality.  The
    free coordinates but the last range over the box; the last covers,
    for each cone, the integer interval that the cone's inequalities and
    the pivot coordinates' box bounds allow, and the current job is
    ticked once per weight in these intervals before any is made.  Each
    pivot coordinate then follows by integer back-substitution, which
    must divide out."""
    job = current_job()
    pivots = [c for c, _ in space]
    free = [i for i in range(nvars) if i not in pivots]
    scale = lcm(*(row[c] for c, row in space))
    forms = [[scale * (i == f) for f in free] for i in range(nvars)]
    for c, row in space:
        forms[c] = [-row[f] * (scale // row[c]) for f in free]
    solved = [(c, forms[c][:-1], forms[c][-1]) for c in pivots]
    limit = bound * scale
    conditions = []
    for cone in cones:
        ineqs = {
            (tuple(sum(map(mul, g, col)) for col in zip(*forms)), least * scale)
            for g, least in cone
        }
        if all(any(h) or not low for h, low in ineqs):
            conditions.append([(h[:-1], h[-1], low) for h, low in ineqs if any(h)])
    last = free[-1]
    w = [0] * nvars
    for head in product(range(-bound, bound + 1), repeat=len(free) - 1):
        sums = [(c, sum(map(mul, head, form)), a) for c, form, a in solved]
        lo, hi = -bound, bound
        for _, s, a in sums:
            lo, hi = _narrow(lo, hi, s, a, -limit)
            lo, hi = _narrow(lo, hi, -s, -a, -limit)
        xs = []
        if lo <= hi:
            for ineqs in conditions:
                clo, chi = lo, hi
                for form, a, low in ineqs:
                    clo, chi = _narrow(clo, chi, sum(map(mul, head, form)), a, low)
                xs.extend(range(clo, chi + 1))
        if not xs:
            continue
        job.tick(len(xs))
        for f, x in zip(free, head):
            w[f] = x
        for x in xs:
            w[last] = x
            for c, s, a in sums:
                q, r = divmod(s + a * x, scale)
                if r:
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
        return current_job().once((cls, ideal.vars, ideal.gens), lambda: cls(ideal))

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

    def _screened_out(self, w, witnesses=None) -> bool:
        """True if some witness (of ``witnesses``, by default all) has a
        unique w-minimal term."""
        for diffs in self._witnesses if witnesses is None else witnesses:
            values = [0, *(sum(map(mul, w, d)) for d in diffs)]
            if values.count(min(values)) == 1:
                return True
        return False

    def candidates(self, bound: int) -> list:
        """The primitive weights of the box [-bound, bound]^p that no
        witness screens out, in the box's product order.

        A witness passes w only if w lies in the cell of one pair of its
        terms (``_cone``), so every weight that passes lies in a cell
        that meets one such cell of each chosen witness: a subspace, kept
        as the echelon rows of its equations (``extend_echelon``), with a
        cone of inequalities.  A witness is chosen, those with fewer terms
        first, when its cells lower the estimated work of the enumeration
        (``_work``); with no witness chosen the one cell is the whole
        box.  Only a chosen witness's cells are built.  The cells of one
        witness are disjoint, so the cones on each subspace are too, and
        its weights are enumerated cone by cone (``_cell_points``), one
        step of the current job each, and no weight twice.  They are
        sorted and screened against the witnesses not chosen; a chosen
        one passes them by construction.
        """
        p = self.nvars
        side = 2 * bound + 1
        cells = {(): [()]}
        cost = _work(side, p, 0)
        rest = []
        for diffs in sorted(self._witnesses, key=lambda d: (len(d), d)):
            terms = ((0,) * p, *diffs)
            pairs = [
                (i, j, tuple(map(sub, terms[i], terms[j])))
                for i, j in combinations(range(len(terms)), 2)
            ]
            trial = {}
            trial_cost = 0
            for space, cones in cells.items():
                for i, j, normal in pairs:
                    m = extend_echelon(space, normal)
                    if len(m) < p:
                        trial.setdefault(m, []).append((space, i, j))
                        for cone in cones:
                            trial_cost += _work(side, p - len(m), len(cone) + len(terms) - 2)
                if trial_cost >= cost:
                    break
            if trial_cost < cost:
                cost = trial_cost
                cone_of = {(i, j): _cone(terms, i, j) for i, j, _ in pairs}
                cells = {
                    m: [cone + cone_of[i, j] for space, i, j in meets for cone in cells[space]]
                    for m, meets in trial.items()
                }
            else:
                rest.append(diffs)
        points = [w for space, cones in cells.items() for w in _cell_points(space, cones, p, bound)]
        return [
            w
            for w in sorted(points)
            if any(w) and vec_gcd(w) == 1 and not self._screened_out(w, rest)
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
            rays.append(Ray(v=w, source="searched"))
    return rays


def critical_slopes(rays) -> list:
    """Projective hyperplanes orthogonal to the rays, deduplicated up to
    sign of the normal, sorted."""
    return sorted({SlopeHyperplane(normal=ray.v) for ray in rays})


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
    J = eng.initial(ray.v)
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


def ray_sum(nvars: int, rays, weights):
    """Sum of weights times ray vectors, in Z^nvars."""
    total = [0] * nvars
    for ray, weight in zip(rays, weights):
        for i, x in enumerate(ray.v):
            total[i] += weight * x
    return tuple(total)
