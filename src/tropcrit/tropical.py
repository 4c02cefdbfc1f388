"""Tropical membership, rigid rays, critical slopes, boundary strata.

A weight w lies in the tropical variety of I iff the saturated initial
ideal init_w(I) : (t_1...t_p)^infty is proper.  A ray is rigid iff the
homogeneity space of its initial ideal is one-dimensional; the rigid rays
are in bijection with the codimension-one critical slopes, realized here
as the hyperplanes orthogonal to the rays.

trop(I) lies in the tropical prevariety of every finite subset of I
(Maclagan-Sturmfels, Introduction to Tropical Geometry, 3.2), so a weight
at which one known element of I has a unique w-minimal term is outside
trop(I): that term's monomial is in init_w(I).  Membership screens every
weight this way against the base Groebner basis and the generators of I
before any Groebner-cone lookup.  The test is one-sided: a weight it
passes still gets the exact answer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from .errors import NotInTropicalVariety
from .groebner import (
    Ideal,
    InitialIdealEngine,
    current_job,
    homogeneity_space,
    saturate,
)
from .linalg import (
    make_primitive,
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


def _sign_normalize(normal):
    for x in normal:
        if x > 0:
            return tuple(normal)
        if x < 0:
            return tuple(-y for y in normal)
    raise ValueError("zero normal vector")


@dataclass(frozen=True)
class SlopeHyperplane:
    """Hyperplane through the origin in data space, with a primitive
    integer normal normalized up to sign."""

    normal: tuple

    def __post_init__(self):
        object.__setattr__(self, "normal", _sign_normalize(make_primitive(self.normal)))

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


class TropicalEngine:
    """Caches per-ideal work: the base Groebner basis and Groebner cones
    (in the initial-ideal engine), and membership and rigidity.

    Membership and rigidity depend only on init_w(I), which is constant on
    each face of a Groebner cone.  A weight is looked up by its face, the
    (cone, tie pattern) pair of the initial-ideal engine, and init_w(I) is
    built only for a face not seen before.  The answers are keyed by the
    generator set of init_w(I), so two faces with the same initial ideal
    share one saturation and one homogeneity-space run.

    Before the lookup, ``contains`` screens w with witnesses: the elements
    of the base Groebner basis and the generators of I, each stored once
    as the exponent differences of its terms to its first term.  If one
    witness has a unique minimal value of w.e over its terms, init_w(I)
    holds a monomial and w is outside trop(I), as ``_member`` would also
    answer.  Only the weights that pass pay for a lookup.
    """

    def __init__(self, ideal: Ideal):
        self.ideal = ideal
        self.engine = InitialIdealEngine(ideal)
        self.nvars = ideal.nvars
        e = tuple(1 for _ in range(self.nvars))
        self.torus_monomial = Polynomial({e: Fraction(1)}, ideal.vars)
        self._witnesses = {
            _term_differences(g) for g in (*self.engine.base.gens, *ideal.gens)
        }
        self._faces = {}
        self._contains = {}
        self._rigid = {}

    @classmethod
    def of(cls, ideal: Ideal) -> "TropicalEngine":
        """The current job's engine for this ideal, made on first use."""
        memo = current_job().memo
        key = (cls, ideal.vars, ideal.gens)
        if key not in memo:
            memo[key] = cls(ideal)
        return memo[key]

    def initial(self, w) -> Ideal:
        return self.engine.initial(w)

    def _face_initial(self, w):
        """init_w(I) and its generator set, built once per face of w."""
        face = self.engine.face(w)
        known = self._faces.get(face)
        if known is None:
            J = self.engine.initial(w)
            known = self._faces[face] = (J, frozenset(J.gens))
        return known

    def _member(self, J, gens) -> bool:
        result = self._contains.get(gens)
        if result is None:
            if J.is_zero:
                result = True  # the full torus
            elif any(g.is_term() for g in J.gens):
                result = False
            else:
                result = not saturate(J, self.torus_monomial).is_unit
            self._contains[gens] = result
        return result

    def _screened_out(self, w) -> bool:
        """True if some witness has a unique w-minimal term."""
        for diffs in self._witnesses:
            values = [0, *(sum(map(mul, w, d)) for d in diffs)]
            if values.count(min(values)) == 1:
                return True
        return False

    def contains(self, w) -> bool:
        if len(w) != self.nvars:
            raise ValueError("weight length does not match the ring")
        if self._screened_out(w):
            return False
        return self._member(*self._face_initial(w))

    def is_rigid(self, w) -> bool:
        J, gens = self._face_initial(w)
        if not self._member(J, gens):
            w = tuple(int(x) for x in w)
            raise NotInTropicalVariety(f"{w} is not in the tropical variety")
        result = self._rigid.get(gens)
        if result is None:
            # a zero init_w(I) is the full torus, which no perturbation of
            # w changes
            result = not J.is_zero and len(homogeneity_space(J)) == 1
            self._rigid[gens] = result
        return result


def is_rigid(ideal: Ideal, w) -> bool:
    """True iff the homogeneity space of init_w is exactly one line."""
    return TropicalEngine.of(ideal).is_rigid(w)


def find_rigid_rays(ideal: Ideal, bound: int = 3):
    """All rigid rays with coordinates in [-bound, bound], exhaustively.

    Only primitive vectors are tested; the result is labeled exhaustive
    within the bound (rays with larger coordinates are not found).
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    eng = TropicalEngine.of(ideal)
    p = ideal.nvars
    warnings.warn(
        "rigidity assumes connected boundary strata (not verified)",
        ConnectednessAssumed,
        stacklevel=2,
    )
    rays = []
    for w in product(range(-bound, bound + 1), repeat=p):
        if not any(w) or vec_gcd(w) != 1:
            continue
        if eng.contains(w) and eng.is_rigid(w):
            rays.append(Ray(v=w, rigid=True, source="searched"))
    return sorted(rays, key=lambda r: r.v)


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
