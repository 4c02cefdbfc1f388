"""Likelihood critical systems, ML degrees, closed-form estimators.

A variety can be given as a torus ideal, a polynomial parametrization, or
a hyperplane arrangement.  Critical systems encode the vanishing of the
logarithmic differential sum(a_i * df_i / f_i) with denominators cleared;
solutions are counted on the locus where every f_i is invertible, which
matches the signed Euler characteristic of the complement for generic
data.  A parametrization or an arrangement gives one cleared equation
per parameter.  An ideal of codimension c gives its generators and the
(c+1)-minors of its Jacobian augmented by the dlog row, those that
contain that row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random

from .arrangement import Arrangement, chi_complement, hyperplane_key
from .errors import (
    DegenerateSample,
    MLDegreeNotOne,
    NotZeroDimensional,
    UnbalancedRays,
    VerificationFailed,
)
from .groebner import (
    GroebnerBasis,
    Ideal,
    current_job,
    eliminate,
    ideal_dimension,
    quotient_basis,
    saturate,
    solve_degree_one,
    squarefree_check,
    torus_saturation,
)
from .rings import Polynomial, dot
from .tropical import SlopeHyperplane

SAMPLE_RANGE = 997
MAX_RESAMPLE = 5


class SquarefreeCheckFailed(UserWarning):
    """The sampled critical system is not radical."""


def _svar_names(coords) -> tuple:
    """One distinct data variable per coordinate: s1 for a coordinate t1 (a
    letter and digits), else s_ and the name, which the coordinates whose
    short names coincide (t1 and s1, or x1 and y1) take too."""
    short = [
        "s" + c[1:] if c[:1].isalpha() and c[1:].isdigit() else "s_" + c
        for c in coords
    ]
    return tuple(s if short.count(s) == 1 else "s_" + c for s, c in zip(short, coords))


def default_coordinates(n: int) -> tuple:
    """The coordinate names t1..tn of a spec that names none."""
    return tuple(f"t{i+1}" for i in range(n))


@dataclass
class VarietySpec:
    """A very affine variety in one of three presentations."""

    kind: str  # ideal | parametrization | arrangement
    ideal: Ideal | None = None
    functions: list | None = None  # parametrization tuple, polys in params
    params: tuple = ()
    arrangement: Arrangement | None = None
    coordinates: tuple = ()

    def __post_init__(self):
        populated = [
            self.kind == "ideal" and self.ideal is not None,
            self.kind == "parametrization" and self.functions is not None,
            self.kind == "arrangement" and self.arrangement is not None,
        ]
        if not any(populated):
            raise ValueError(f"spec kind {self.kind!r} lacks its payload")
        if self.kind == "ideal":
            self.coordinates = self.ideal.vars
        elif self.kind == "parametrization":
            if any(f.is_zero for f in self.functions):
                raise ValueError("parametrization functions must be nonzero")
            self.params = tuple(self.functions[0].vars)
            if not self.coordinates:
                self.coordinates = default_coordinates(len(self.functions))
        else:
            self.params = self.arrangement.vars
            if not self.coordinates:
                self.coordinates = default_coordinates(self.arrangement.size)

    @property
    def p(self) -> int:
        return len(self.coordinates)

    @property
    def unknowns(self) -> tuple:
        return self.coordinates if self.kind == "ideal" else self.params

    @property
    def svars(self) -> tuple:
        return _svar_names(self.coordinates)

    def tuple_polys(self):
        """The coordinate functions as polynomials in the unknowns."""
        if self.kind == "ideal":
            return [Polynomial.variable(v, self.coordinates) for v in self.coordinates]
        if self.kind == "parametrization":
            return list(self.functions)
        return self.arrangement.functional_polys()

    def to_ideal(self) -> Ideal:
        """Torus ideal of the (closure of the) variety; parametrizations
        and arrangements are implicitized by elimination."""
        if self.kind == "ideal":
            return self.ideal
        ring = self.coordinates + tuple(self.unknowns)
        gens = [
            Polynomial.variable(name, ring) - f.extend_ring(ring)
            for name, f in zip(self.coordinates, self.tuple_polys())
        ]
        return eliminate(Ideal(gens, ring), list(self.coordinates))


@dataclass
class CriticalSystem:
    """Cleared polynomial system whose torus solutions are the critical
    points, in the ring of the unknowns followed by the data ring."""

    equations: list
    ring: tuple
    unknowns: tuple
    saturators: list


def _data_entries(data, unknowns):
    """The system's ring and the data entries in it: rationals add no
    variables, polynomials over one data ring add that ring's."""
    if isinstance(data[0], Polynomial):
        ring = tuple(unknowns) + data[0].vars
        if len(set(ring)) < len(ring):
            raise ValueError(f"unknowns {unknowns} share a name with the data ring")
        return ring, [a.extend_ring(ring) for a in data]
    ring = tuple(unknowns)
    return ring, [Polynomial.constant(Fraction(a), ring) for a in data]


def _dlog_system(spec, data):
    unknowns = tuple(spec.unknowns)
    ring, alphas = _data_entries(data, unknowns)
    fs = [f.extend_ring(ring) for f in spec.tuple_polys()]
    # prefix/suffix products of the f_l to clear denominators
    prefix = [Polynomial.constant(1, ring)]
    for f in fs:
        prefix.append(prefix[-1] * f)
    suffix = [Polynomial.constant(1, ring)]
    for f in reversed(fs):
        suffix.append(suffix[-1] * f)
    suffix.reverse()
    others = [prefix[i] * suffix[i + 1] for i in range(len(fs))]
    equations = []
    for x in unknowns:
        eq = Polynomial.zero(ring)
        for i, f in enumerate(fs):
            eq = eq + alphas[i] * f.derivative(x) * others[i]
        equations.append(eq)
    return CriticalSystem(
        equations=equations,
        ring=ring,
        unknowns=unknowns,
        saturators=fs,
    )


def _torus_saturation(ideal: Ideal):
    """(G, d): the ideal's ``torus_saturation`` G and its dimension (the
    number of variables for the zero ideal, -1 for the unit ideal), counted
    once per G in the current job, so the critical system of a stratum's
    saturated ideal G reuses both."""
    G = torus_saturation(ideal)
    memo = current_job().memo
    key = (_torus_saturation, G.vars, G.gens)
    if key not in memo:
        memo[key] = ideal_dimension(G)
    return G, memo[key]


def _ideal_system(spec, data):
    """The generators of the ideal and the (c+1)-minors of its Jacobian
    augmented by the dlog row that contain that row, c the codimension
    (Catanese, Hosten, Khetan and Sturmfels 2006); minors without the
    dlog row vanish on the variety.  The torus monomial is the saturator.
    """
    I = spec.ideal
    coords = spec.coordinates
    p = len(coords)
    codim = I.nvars - _torus_saturation(I)[1]
    ring, alphas = _data_entries(data, coords)
    pad = (0,) * (len(ring) - p)
    gens = [g.extend_ring(ring) for g in I.gens]
    # row of cleared logarithmic differentials: a_i * prod_{j != i} t_j
    u_row = []
    for i in range(p):
        e = tuple(1 if j != i else 0 for j in range(p)) + pad
        u_row.append(alphas[i] * Polynomial({e: Fraction(1)}, ring))
    jac = [[g.derivative(x) for x in coords] for g in gens]
    equations = list(gens)
    for rows in combinations(jac, codim):
        for csel in combinations(range(p), codim + 1):
            equations.append(_poly_det([[row[c] for c in csel] for row in (u_row, *rows)]))
    torus = Polynomial({(1,) * p + pad: Fraction(1)}, ring)
    return CriticalSystem(
        equations=[e for e in equations if not e.is_zero],
        ring=ring,
        unknowns=coords,
        saturators=[torus],
    )


def _poly_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    ring = m[0][0].vars
    total = Polynomial.zero(ring)
    for j in range(n):
        minor = [[m[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = m[0][j] * _poly_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def critical_system(spec: VarietySpec, data) -> CriticalSystem:
    """Polynomial system of the likelihood critical points.

    ``data`` holds one entry per coordinate: rationals for a data vector,
    or polynomials over one data ring, such as the components of a data
    curve in t or the s-variables of the likelihood correspondence.  The
    system's ring is the unknowns followed by that data ring.
    """
    if spec.kind == "ideal":
        return _ideal_system(spec, data)
    return _dlog_system(spec, data)


def sample_alpha(p, rng: Random):
    """Generic rational data vector with entries in [-997, 997]."""
    out = []
    for _ in range(p):
        num = 0
        while num == 0:
            num = rng.randint(-SAMPLE_RANGE, SAMPLE_RANGE)
        out.append(Fraction(num, rng.randint(1, SAMPLE_RANGE)))
    return tuple(out)


def saturated_critical_ideal(system: CriticalSystem) -> GroebnerBasis:
    """Reduced grlex basis of the system's ideal with every saturator made
    invertible: one ``saturate`` by the product of the saturators, whose
    policy splits off their monomial part (a constant saturator is a
    unit already).  Counts pass rational data, so the ring holds only the
    unknowns; the likelihood correspondence passes the s-variables, which
    stay free.
    """
    product = Polynomial.constant(1, system.ring)
    for f in system.saturators:
        product = product * f
    return saturate(Ideal(system.equations, system.ring), product)


def _critical_count(spec, alpha):
    system = critical_system(spec, alpha)
    G = saturated_critical_ideal(system)
    if G.is_zero:
        raise NotZeroDimensional("critical scheme is not zero-dimensional")
    if G.is_unit:
        return 0, G
    basis = quotient_basis(G)
    if not squarefree_check(G, basis):
        warnings.warn(
            "critical system is non-reduced; count includes multiplicity",
            SquarefreeCheckFailed,
            stacklevel=3,
        )
    return len(basis), G


def ml_degree(spec: VarietySpec) -> int:
    """Generic critical-point count (with multiplicity), resampling a few
    times on degenerate data before giving up."""
    rng = current_job().rng
    last = None
    for _ in range(MAX_RESAMPLE):
        alpha = sample_alpha(spec.p, rng)
        try:
            count, _ = _critical_count(spec, alpha)
            return count
        except NotZeroDimensional as exc:
            last = exc
    raise DegenerateSample(
        f"no generic sample after {MAX_RESAMPLE} attempts: {last}"
    )


def _linear_arrangement(G: GroebnerBasis) -> Arrangement:
    """The hyperplanes that the coordinates cut out of the linear space
    V(G) of a reduced grlex basis of degree one, in the space's own
    coordinates: the variables that lead no element.  Each leading
    variable is the affine function of them that its element sets it to.
    A constant coordinate cuts out nothing, and proportional coordinates
    cut out one hyperplane, which is kept once."""
    leading = {lt.index(1): g for lt, g in zip(G.leading_terms, G.gens)}
    free = [i for i in range(G.nvars) if i not in leading]
    column = {j: k for k, j in enumerate(free)}
    rows = {}
    for i in range(G.nvars):
        coeffs = [Fraction(0)] * len(free)
        const = Fraction(0)
        if i in leading:
            for e, c in leading[i].terms.items():
                if not any(e):
                    const = -c
                elif e.index(1) != i:
                    coeffs[column[e.index(1)]] = -c
        else:
            coeffs[column[i]] = Fraction(1)
        if any(coeffs):
            rows.setdefault(hyperplane_key(coeffs, const), (coeffs, const))
    return Arrangement(list(rows.values()), nvars=len(free))


def torus_euler_characteristic(ideal: Ideal) -> int:
    """Euler characteristic of V(ideal) on the torus, from its saturation
    G by the torus monomial.

    A linear G of dimension d > 0 cuts out the complement of the affine
    hyperplanes its coordinates vanish on (``_linear_arrangement``), whose
    topological Euler characteristic is the Moebius sum
    ``chi_complement`` of their intersection lattice.  A zero-dimensional
    G counts the length of its quotient, multiplicity included: the
    scheme length, which is the topological count only when G is
    radical.  Otherwise the count is (-1)^d times the ML degree of G,
    which depends on the variety only (Huh 2013), assuming the usual
    smoothness caveats.
    """
    G, d = _torus_saturation(ideal)
    if G.is_zero:
        return 1 if ideal.nvars == 0 else 0
    if G.is_unit:
        return 0
    if d == 0:
        return len(quotient_basis(G))
    if all(g.total_degree() <= 1 for g in G.gens):
        return chi_complement(_linear_arrangement(G))
    count = ml_degree(VarietySpec(kind="ideal", ideal=G))
    return count if d % 2 == 0 else -count


# -- closed-form estimator ------------------------------------------------------------


@dataclass
class MLEFormula:
    """Per-coordinate monomial in the slope linear forms, times a rational
    constant: psi_i = c_i * prod_tau g_tau^(v_tau)_i."""

    svars: tuple
    constants: list
    rays: list  # ray vectors; exponent of factor tau in psi_i is rays[tau][i]
    normals: list  # sign-normalized hyperplane normals g_tau

    def factor_poly(self, tau: int) -> Polynomial:
        terms = {}
        for j, c in enumerate(self.normals[tau]):
            if c:
                e = [0] * len(self.svars)
                e[j] = 1
                terms[tuple(e)] = Fraction(c)
        return Polynomial(terms, self.svars)

    def numerator_denominator(self, i: int):
        num = Polynomial.constant(self.constants[i], self.svars)
        den = Polynomial.constant(1, self.svars)
        for tau, v in enumerate(self.rays):
            e = v[i]
            if e > 0:
                num = num * self.factor_poly(tau) ** e
            elif e < 0:
                den = den * self.factor_poly(tau) ** (-e)
        return num, den

    def evaluate(self, alpha):
        alpha = [Fraction(a) for a in alpha]
        out = []
        for i in range(len(self.constants)):
            val = self.constants[i]
            for tau, v in enumerate(self.rays):
                if v[i]:
                    g = dot(self.normals[tau], alpha)
                    val = val * Fraction(g) ** v[i]
            out.append(val)
        return tuple(out)

    def coordinate_str(self, i: int) -> str:
        num_parts, den_parts = [], []
        for tau, v in enumerate(self.rays):
            e = v[i]
            if e == 0:
                continue
            g = self.factor_poly(tau)
            body = str(g) if len(g.terms) == 1 else f"({g})"
            if abs(e) > 1:
                body = f"({g})^{abs(e)}"
            (num_parts if e > 0 else den_parts).append(body)
        c = self.constants[i]
        num = "*".join(num_parts)
        if not num:
            num = str(c)
        elif c == -1:
            num = "-" + num
        elif c != 1:
            num = f"{c}*{num}"
        if not den_parts:
            return num
        den = "*".join(den_parts)
        if len(den_parts) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def to_json(self):
        return [
            {
                "coordinate": i,
                "constant": str(self.constants[i]),
                "factors": [
                    {"normal": list(self.normals[tau]), "exponent": v[i]}
                    for tau, v in enumerate(self.rays)
                    if v[i]
                ],
            }
            for i in range(len(self.constants))
        ]


def mle_closed_form(spec: VarietySpec, rays) -> MLEFormula:
    """Closed-form estimator for ML-degree-one models.

    Exponents come from the ray coordinates; constants are fitted exactly
    at one random rational data vector and verified at a second.  Each
    sample is one critical-point count, whose basis also gives the
    critical point; a count other than one raises ``MLDegreeNotOne``, and
    the first sample decides that before the rays are checked.
    """
    rng = current_job().rng
    vecs = [tuple(r.v) for r in rays]
    p = spec.p
    total = tuple(sum(v[i] for v in vecs) for i in range(p))
    normals = [SlopeHyperplane(normal=v).normal for v in vecs]
    samples = []
    attempts = 0
    while len(samples) < 2 and attempts < 5 * MAX_RESAMPLE:
        attempts += 1
        alpha = sample_alpha(p, rng)
        if any(dot(v, alpha) == 0 for v in vecs) or alpha in [a for a, _ in samples]:
            continue
        try:
            count, G = _critical_count(spec, alpha)
        except NotZeroDimensional:
            continue
        if count != 1:
            raise MLDegreeNotOne(
                "the model does not have maximum likelihood degree one"
            )
        if any(total):
            raise UnbalancedRays(
                f"rigid rays must sum to zero for a degree-one model, got "
                f"{total}; rays outside the search bound (--bound) are missing"
            )
        point = dict(zip(G.vars, solve_degree_one(G)))
        values = [
            f.evaluate({v: point[v] for v in spec.unknowns})
            for f in spec.tuple_polys()
        ]
        consts = []
        for i in range(p):
            denom = Fraction(1)
            for tau, v in enumerate(vecs):
                if v[i]:
                    denom *= Fraction(dot(normals[tau], alpha)) ** v[i]
            consts.append(values[i] / denom)
        samples.append((alpha, consts))
    if len(samples) < 2:
        raise DegenerateSample("could not fit constants at two generic samples")
    (_, c1), (_, c2) = samples
    if c1 != c2:
        raise VerificationFailed(
            f"constants disagree between samples: {c1} vs {c2}"
        )
    return MLEFormula(svars=spec.svars, constants=c1, rays=vecs, normals=normals)
