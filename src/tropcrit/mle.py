"""Likelihood critical systems, ML degrees, closed-form estimators.

A variety can be given as a torus ideal, a polynomial parametrization, or
a hyperplane arrangement.  Critical systems encode the vanishing of the
logarithmic differential sum(a_i * df_i / f_i) with denominators cleared;
solutions are counted on the locus where every f_i is invertible, which
matches the signed Euler characteristic of the complement for generic
data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random

from .arrangement import Arrangement
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
    groebner_basis,
    ideal_dimension,
    quotient_basis,
    saturate,
    solve_degree_one,
    squarefree_check,
)
from .rings import Polynomial, dot
from .tropical import _sign_normalize

DEFAULT_SEED = 170839
SAMPLE_RANGE = 997
MAX_RESAMPLE = 5


class SquarefreeCheckFailed(UserWarning):
    """The sampled critical system may carry multiplicities."""


def _svar_name(coord: str) -> str:
    if coord[:1].isalpha() and coord[1:].isdigit():
        return "s" + coord[1:]
    return "s_" + coord


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
        return tuple(_svar_name(c) for c in self.coordinates)

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
    points; symbolic data uses the s-variables of the spec."""

    equations: list
    ring: tuple
    unknowns: tuple
    aux: tuple
    data: tuple | None
    data_vars: tuple
    saturators: list
    formulation: str


def _data_entries(p, data, ring, svars):
    if data is not None:
        return [Polynomial.constant(Fraction(a), ring) for a in data]
    return [Polynomial.variable(s, ring) for s in svars]


def _dlog_system(spec, data):
    unknowns = tuple(spec.unknowns)
    svars = spec.svars if data is None else ()
    ring = unknowns + svars
    fs = [f.extend_ring(ring) for f in spec.tuple_polys()]
    p = len(fs)
    alphas = _data_entries(p, data, ring, spec.svars)
    # prefix/suffix products of the f_l to clear denominators
    prefix = [Polynomial.constant(1, ring)]
    for f in fs:
        prefix.append(prefix[-1] * f)
    suffix = [Polynomial.constant(1, ring)]
    for f in reversed(fs):
        suffix.append(suffix[-1] * f)
    suffix.reverse()
    equations = []
    for x in unknowns:
        eq = Polynomial.zero(ring)
        for i, f in enumerate(fs):
            others = prefix[i] * suffix[i + 1]
            eq = eq + alphas[i] * f.derivative(x) * others
        equations.append(eq)
    return CriticalSystem(
        equations=equations,
        ring=ring,
        unknowns=unknowns,
        aux=(),
        data=tuple(Fraction(a) for a in data) if data is not None else None,
        data_vars=svars,
        saturators=fs,
        formulation="dlog",
    )


def _torus_saturation(ideal: Ideal):
    """(G, d): the reduced grlex basis of the saturation of the ideal by
    the torus monomial, as ``saturate`` returns it, and its dimension (the
    number of variables for the zero ideal, -1 for the unit ideal),
    memoized in the current job.

    The entry is also recorded for G itself, which is its own
    saturation, so the critical system of a stratum's saturated ideal
    reuses it instead of saturating again.
    """
    memo = current_job().memo
    key = (_torus_saturation, ideal.gens, ideal.vars)
    if key not in memo:
        e = tuple(1 for _ in ideal.vars)
        G = saturate(ideal, Polynomial({e: Fraction(1)}, ideal.vars))
        memo[key] = memo[_torus_saturation, G.gens, G.vars] = (G, ideal_dimension(G))
    return memo[key]


def _ideal_system(spec, data, formulation):
    I = spec.ideal
    coords = spec.coordinates
    p = len(coords)
    gens = list(I.gens)
    k = len(gens)
    codim = I.nvars - _torus_saturation(I)[1]
    if formulation == "auto":
        formulation = "minors" if codim <= 2 else "lagrange"
    svars = spec.svars if data is None else ()
    if formulation == "minors":
        ring = coords + svars
        alphas = _data_entries(p, data, ring, spec.svars)
        gens_r = [g.extend_ring(ring) for g in gens]
        # row of cleared logarithmic differentials: a_i * prod_{j != i} t_j
        u_row = []
        for i in range(p):
            e = tuple(1 if j != i else 0 for j in range(p)) + (0,) * len(svars)
            u_row.append(alphas[i] * Polynomial({e: Fraction(1)}, ring))
        jac = [[g.derivative(coords[i]) for i in range(p)] for g in gens_r]
        matrix = [u_row] + jac
        size = codim + 1
        equations = list(gens_r)
        for rsel in combinations(range(len(matrix)), size):
            if 0 not in rsel:
                continue  # minors without the dlog row vanish on the variety
            for csel in combinations(range(p), size):
                equations.append(_poly_det([[matrix[r][c] for c in csel] for r in rsel]))
        aux = ()
    else:
        lam = tuple(f"lam{i+1}" for i in range(k))
        ring = coords + lam + svars
        alphas = _data_entries(p, data, ring, spec.svars)
        gens_r = [g.extend_ring(ring) for g in gens]
        equations = list(gens_r)
        for i, x in enumerate(coords):
            xi = Polynomial.variable(x, ring)
            acc = Polynomial.zero(ring)
            for j, g in enumerate(gens_r):
                acc = acc + Polynomial.variable(lam[j], ring) * g.derivative(x)
            equations.append(xi * acc - alphas[i])
        aux = lam
    torus = Polynomial(
        {tuple(1 for _ in coords) + (0,) * (len(ring) - p): Fraction(1)}, ring
    )
    return CriticalSystem(
        equations=[e for e in equations if not e.is_zero],
        ring=ring,
        unknowns=coords,
        aux=aux,
        data=tuple(Fraction(a) for a in data) if data is not None else None,
        data_vars=svars,
        saturators=[torus],
        formulation=formulation,
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


def critical_system(spec: VarietySpec, data=None, formulation="auto") -> CriticalSystem:
    """Polynomial system of the likelihood critical points.

    ``data`` is a rational vector, or None for the symbolic incidence
    system in the s-variables.
    """
    if spec.kind == "ideal":
        return _ideal_system(spec, data, formulation)
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
    invertible, as the last saturation returns it.

    One saturation per saturator: with the data variables in the ring, a
    single saturation by their product is far slower (2,216 against 362
    reduction steps on the symbolic conic system).  A constant saturator,
    such as a coordinate fixed on a linear stratum, is a unit already and
    needs none.
    """
    I = Ideal(system.equations, system.ring)
    for f in system.saturators:
        if f.is_constant():
            continue
        I = saturate(I, f)
        if I.is_zero:
            break
    return groebner_basis(I)


def _critical_count(spec, alpha, formulation, rng):
    system = critical_system(spec, alpha, formulation)
    G = saturated_critical_ideal(system)
    if G.is_zero:
        raise NotZeroDimensional("critical scheme is not zero-dimensional")
    if G.is_unit:
        return 0, G
    basis = quotient_basis(G)
    if rng is not None and not squarefree_check(G, basis, rng):
        warnings.warn(
            "critical system may be non-reduced; count includes multiplicity",
            SquarefreeCheckFailed,
            stacklevel=3,
        )
    return len(basis), G


def ml_degree(spec: VarietySpec, rng=None, formulation="auto", slopes=None) -> int:
    """Generic critical-point count (with multiplicity), resampling a few
    times on degenerate data before giving up."""
    rng = rng or Random(DEFAULT_SEED)
    last = None
    for _ in range(MAX_RESAMPLE):
        alpha = sample_alpha(spec.p, rng)
        if slopes and any(dot(h.normal, alpha) == 0 for h in slopes):
            continue
        try:
            count, _ = _critical_count(spec, alpha, formulation, rng)
            return count
        except NotZeroDimensional as exc:
            last = exc
    raise DegenerateSample(
        f"no generic sample after {MAX_RESAMPLE} attempts: {last}"
    )


def _linear_parametrization(G: GroebnerBasis) -> VarietySpec:
    """The linear space V(G) of a reduced grlex basis of degree one,
    parametrized by its own coordinates: the variables that lead no
    element are the parameters, and each leading variable is the affine
    expression in them that its element sets it to."""
    leading = {lt.index(1): g for lt, g in zip(G.leading_terms, G.gens)}
    params = tuple(v for i, v in enumerate(G.vars) if i not in leading)
    functions = []
    for i, v in enumerate(G.vars):
        x = Polynomial.variable(v, G.vars)
        if i in leading:
            x = x - leading[i]
        functions.append(x.restrict_ring(params))
    return VarietySpec(kind="parametrization", functions=functions, coordinates=G.vars)


def torus_euler_characteristic(ideal: Ideal, rng=None) -> int:
    """Signed-count Euler characteristic of V(ideal) on the torus.

    Zero-dimensional loci are counted directly; otherwise the generic
    critical-point count of the coordinate tuple is used, with sign
    (-1)^dim.  Assumes the usual smoothness caveats.

    The count is the ML degree of the saturated ideal G, which depends on
    the variety only (Huh 2013), so any presentation may count it.  When
    G is linear, the critical points are counted in the linear space's
    own coordinates (``_linear_parametrization``): the dlog system in its
    d parameters replaces the minors or Lagrange system of G in all p
    torus coordinates.
    """
    rng = rng or Random(DEFAULT_SEED)
    G, d = _torus_saturation(ideal)
    if G.is_zero:
        return 1 if ideal.nvars == 0 else 0
    if G.is_unit:
        return 0
    if d == 0:
        return len(quotient_basis(G))
    if all(g.total_degree() <= 1 for g in G.gens):
        spec = _linear_parametrization(G)
    else:
        spec = VarietySpec(kind="ideal", ideal=G)
    count = ml_degree(spec, rng=rng)
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


def mle_closed_form(spec: VarietySpec, rays, rng=None) -> MLEFormula:
    """Closed-form estimator for ML-degree-one models.

    Exponents come from the ray coordinates; constants are fitted exactly
    at one random rational data vector and verified at a second.  Each
    sample is one critical-point count, whose basis also gives the
    critical point; a count other than one raises ``MLDegreeNotOne``, and
    the first sample decides that before the rays are checked.
    """
    rng = rng or Random(DEFAULT_SEED)
    vecs = [tuple(r.v) for r in rays]
    p = spec.p
    total = tuple(sum(v[i] for v in vecs) for i in range(p))
    normals = [_sign_normalize(v) for v in vecs]
    samples = []
    attempts = 0
    while len(samples) < 2 and attempts < 5 * MAX_RESAMPLE:
        attempts += 1
        alpha = sample_alpha(p, rng)
        if any(dot(v, alpha) == 0 for v in vecs) or alpha in [a for a, _ in samples]:
            continue
        try:
            count, G = _critical_count(spec, alpha, "auto", rng)
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
