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
from itertools import accumulate, combinations
from math import prod
from operator import mul
from random import Random

from .arrangement import (
    Arrangement,
    chi_complement,
    matroid_components,
    matroid_invariants,
)
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
from .linalg import integer_row, nullspace, rref, sign_normalize
from .rings import Polynomial, dot
from .tropical import SlopeHyperplane

SAMPLE_RANGE = 997
MAX_RESAMPLE = 5


class SquarefreeCheckFailed(UserWarning):
    """The sampled critical system is not radical."""

    code = "squarefree_check_failed"


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
    one = Polynomial.constant(1, ring)
    prefix = list(accumulate(fs, mul, initial=one))
    suffix = list(accumulate(reversed(fs), mul, initial=one))[::-1]
    others = [prefix[i] * suffix[i + 1] for i in range(len(fs))]
    jac = _jacobian(fs, unknowns)
    equations = [
        sum((a * row[j] * g for a, row, g in zip(alphas, jac, others)), Polynomial.zero(ring))
        for j in range(len(unknowns))
    ]
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
    return G, current_job().once(
        (_torus_saturation, G.vars, G.gens), lambda: ideal_dimension(G)
    )


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
    equations = list(gens)
    for rows in combinations(_jacobian(gens, coords), codim):
        for csel in combinations(range(p), codim + 1):
            equations.append(_poly_det([[row[c] for c in csel] for row in (u_row, *rows)]))
    torus = Polynomial({(1,) * p + pad: Fraction(1)}, ring)
    return CriticalSystem(
        equations=[e for e in equations if not e.is_zero],
        ring=ring,
        unknowns=coords,
        saturators=[torus],
    )


def _jacobian(equations, unknowns):
    """Rows of the partial derivatives of the equations by the unknowns."""
    return [[eq.derivative(x) for x in unknowns] for eq in equations]


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
    product = prod(system.saturators, start=Polynomial.constant(1, system.ring))
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
            key = sign_normalize(integer_row([*coeffs, const]))
            rows.setdefault(key, (coeffs, const))
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
        """psi at a data vector of exact numbers, each linear form g_tau
        evaluated once; integer data keep the products in integers."""
        forms = [dot(n, alpha) for n in self.normals]
        out = []
        for i, c in enumerate(self.constants):
            num = den = 1
            for g, v in zip(forms, self.rays):
                if v[i] > 0:
                    num *= g ** v[i]
                elif v[i] < 0:
                    den *= g ** -v[i]
            out.append(c * Fraction(num) / den)
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

    Exponents come from the ray coordinates and the constants are fitted
    exactly: for an arrangement by linear algebra on the critical
    equations (``_arrangement_constants``), with no Groebner run;
    otherwise at the critical points of two random data vectors
    (``_sampled_constants``).  A model whose ML degree is not one raises
    ``MLDegreeNotOne``, and that is decided before the rays are checked.
    """
    vecs = [tuple(r.v) for r in rays]
    formula = MLEFormula(
        svars=spec.svars,
        constants=[Fraction(1)] * spec.p,
        rays=vecs,
        normals=[SlopeHyperplane(normal=v).normal for v in vecs],
    )
    if spec.kind == "arrangement":
        formula.constants = _arrangement_constants(spec, formula)
    else:
        formula.constants = _sampled_constants(spec, formula)
    return formula


def _check_balanced(formula):
    """Raise ``UnbalancedRays`` unless the formula's rays sum to zero."""
    p = len(formula.constants)
    total = tuple(sum(v[i] for v in formula.rays) for i in range(p))
    if any(total):
        raise UnbalancedRays(
            f"rigid rays must sum to zero for a degree-one model, got "
            f"{total}; rays outside the search bound (--bound) are missing"
        )


def _generic_samples(formula):
    """Distinct data vectors at which no factor of ``formula`` vanishes,
    from at most 5 * MAX_RESAMPLE draws of the job's random stream; past
    them, ``DegenerateSample``."""
    rng = current_job().rng
    seen = []
    for _ in range(5 * MAX_RESAMPLE):
        alpha = sample_alpha(len(formula.constants), rng)
        scaled = integer_row(alpha)
        if alpha not in seen and all(dot(v, scaled) for v in formula.rays):
            seen.append(alpha)
            yield alpha
    raise DegenerateSample(
        f"could not fit constants in {5 * MAX_RESAMPLE} draws of generic data"
    )


def _sampled_constants(spec, formula):
    """Constants of a formula with unit constants, fitted at one random
    data vector and verified at a second.  Each sample is one
    critical-point count, whose basis also gives the critical point; the
    first count decides the ML degree."""
    samples = _generic_samples(formula)
    fits = []
    while len(fits) < 2:
        alpha = next(samples)
        try:
            count, G = _critical_count(spec, alpha)
        except NotZeroDimensional:
            continue
        if count != 1:
            raise MLDegreeNotOne(
                "the model does not have maximum likelihood degree one"
            )
        _check_balanced(formula)
        point = dict(zip(G.vars, solve_degree_one(G)))
        values = [
            f.evaluate({v: point[v] for v in spec.unknowns})
            for f in spec.tuple_polys()
        ]
        fits.append([x / m for x, m in zip(values, formula.evaluate(alpha))])
    c1, c2 = fits
    if c1 != c2:
        raise VerificationFailed(
            f"constants disagree between samples: {c1} vs {c2}"
        )
    return c1


def _arrangement_constants(spec, formula):
    """Constants of an arrangement's formula with unit constants, by exact
    linear algebra on the critical equations, with no Groebner run.

    With l_i = a_i.x + b_i and the estimate psi = c m(alpha), m the
    monomials of ``formula``, the critical equations A^T (alpha / psi) = 0
    are linear in z = 1/c: sum_i alpha_i a_ij z_i / m_i(alpha) = 0 for
    j = 1..d.  Once the rays are balanced each m_i has degree 0, so the
    data vectors are scaled to integers.  Stacked over samples until
    their rank is p minus the number of components of the matroid of the
    a_i, these rows leave one kernel vector per component, supported on
    it, and c_i = lambda_k / z_i there.  At a fresh sample the scales
    lambda_k solve N (c m(alpha) - b) = 0, N the left kernel of A: psi
    lies on the arrangement's linear space.  One more fresh sample checks
    exactly that psi lies on it, has no zero coordinate and is critical;
    otherwise ``VerificationFailed``.  Each echelon form ticks the
    current job once per pivot.
    """
    arr = spec.arrangement
    if matroid_invariants(arr).ml_degree != 1:
        raise MLDegreeNotOne("the model does not have maximum likelihood degree one")
    _check_balanced(formula)
    job = current_job()
    linear = [a for a, _ in arr.rows]
    offsets = [b for _, b in arr.rows]
    p, d = arr.size, arr.nvars
    samples = _generic_samples(formula)

    def monomials():
        alpha = integer_row(next(samples))
        return alpha, formula.evaluate(alpha)

    components = len(matroid_components(linear))
    rows = []
    kernel = None
    while kernel is None or len(kernel) > components:
        alpha, m = monomials()
        rows += [[x * a[j] / y for x, a, y in zip(alpha, linear, m)] for j in range(d)]
        kernel = nullspace(rows)
        job.tick(p - len(kernel))
    supports = [{i for i, x in enumerate(z) if x} for z in kernel]
    if sum(map(len, supports)) != p or set().union(*supports) != set(range(p)):
        raise VerificationFailed(
            "the critical equations fit no constants of the estimator's form"
        )
    cokernel = nullspace([list(column) for column in zip(*linear)])
    job.tick(p - len(cokernel))
    k = len(kernel)
    pivots = ()
    while len(pivots) < k:
        _, m = monomials()
        parts = [[y / x if x else 0 for x, y in zip(z, m)] for z in kernel]
        system = [[dot(n, u) for u in parts] + [dot(n, offsets)] for n in cokernel]
        red, pivots = rref(system)
        job.tick(len(pivots))
        if k in pivots:
            raise VerificationFailed(
                "no scaling of the estimator's monomials lies on the arrangement"
            )
    constants = [None] * p
    for z, row in zip(kernel, red):
        for i, x in enumerate(z):
            if x:
                constants[i] = row[k] / x
    alpha, m = monomials()
    psi = [c * y for c, y in zip(constants, m)]
    if (
        not all(psi)
        or any(dot(n, psi) != dot(n, offsets) for n in cokernel)
        or any(
            sum(x * a[j] / y for x, a, y in zip(alpha, linear, psi)) for j in range(d)
        )
    ):
        raise VerificationFailed(
            f"the constants {constants} fail the critical equations at a fresh sample"
        )
    return constants
