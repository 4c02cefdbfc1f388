"""Series lifts of critical points along curves of data vectors.

The critical system is built along a data curve alpha(t) approaching a
slope hyperplane, with the curve's components as its data, in the ring of
the unknowns and t, and saturated once into the curve's critical ideal
J; branches are Laurent-series solutions in t.  A branch with valuations
v (nonzero for escaping ones) solves the ansatz x_i = t^{v_i} X_i, and
lifts on J's Groebner-cone basis at the weight (v, 1) under the ansatz,
whose t = 0 layer is the initial ideal of J at that weight.

``branches`` is the library entry the CLI calls: for one curve and the
rigid rays it chooses the valuation ansaetze, seeds and lifts each, and
returns the branches the ``asymptotics`` report renders.

The Hensel lift solves for one coefficient order at a time.  It reads the
residuals from a ``series.RelaxedEvaluator``, which computes the newest
series coefficient of the system provisionally and once more when it is
final, and takes t, the ring's last variable, as a shift of the
coefficient index; it runs in one scalar type per lift: ``Fraction``
for exact seeds (kept as integer numerator and denominator pairs inside
the evaluator), ``complex`` for floating ones.  Its final check of every
residual coefficient, the t = 0 layer at the seed included, is the only
test that accepts a lift.  ``valuation_vector`` reads each coordinate
function's order lazily on the same kind of evaluator, rescaled by the
branch valuations, up to its first certified-nonzero coefficient.
Floating seeds and their lifts are computed in pure Python: the t = 0
layer by ``groebner.solve_zero_dim_numeric``, the Jacobian inverse by
pivoted Gauss-Jordan elimination; ``refine_seed_exact`` Newton-refines a
real floating seed on the exact layer, evaluating each polynomial by
``Polynomial.evaluate``, which sums a rational point's terms over the
integers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod

from .errors import (
    AlphaNotOnHyperplane,
    CurveNotGeneric,
    DegenerateSample,
    NoConvergence,
    NotZeroDimensional,
    SingularJacobian,
    TruncationTooShort,
)
from .groebner import (
    Ideal,
    current_job,
    quotient_basis,
    saturate,
    solve_degree_one,
    solve_zero_dim_numeric,
    torus_saturation,
)
from .linalg import complex_gauss_jordan, inverse, mat_vec
from .mle import CriticalSystem, VarietySpec, _jacobian, critical_system
from .rings import Polynomial, dot
from .series import LaurentSeries, RelaxedEvaluator
from .tropical import Ray, TropicalEngine, critical_slopes

CURVE_VAR = "t"
DEFAULT_ORDER = 8
RESIDUAL_RTOL = 1e-10
NUMERIC_ZERO = 1e-8


class ApproximateBranch(UserWarning):
    """Branch coefficients are floating approximations."""

    code = "approximate_coefficients"


@dataclass(frozen=True)
class DataCurve:
    """Polynomial curve of data vectors, one component per coordinate."""

    components: tuple

    @classmethod
    def parse(cls, texts):
        return cls(tuple(Polynomial.parse(s, (CURVE_VAR,)) for s in texts))

    def value_at_zero(self):
        return tuple(c.constant_coeff() for c in self.components)

    def validate(self, ray=None, slopes=None):
        """Value at t=0 on the ray's hyperplane, transverse approach, and
        a generic point off every given slope at one random rational t."""
        a0 = self.value_at_zero()
        if ray is not None:
            if dot(a0, ray.v) != 0:
                raise AlphaNotOnHyperplane(
                    f"curve value {a0} at t=0 is not on the hyperplane of {ray.v}"
                )
            terms = (c * v for c, v in zip(self.components, ray.v))
            pairing = sum(terms, Polynomial.zero((CURVE_VAR,)))
            slope = pairing.derivative(CURVE_VAR).constant_coeff()
            if slope == 0:
                raise CurveNotGeneric(
                    "curve does not cross the hyperplane transversely"
                )
        if slopes:
            rng = current_job().rng
            t0 = Fraction(rng.randint(1, 997), rng.randint(1, 997))
            val = tuple(c.evaluate({CURVE_VAR: t0}) for c in self.components)
            for h in slopes:
                if dot(h.normal, val) == 0:
                    raise CurveNotGeneric(
                        f"curve is not generic: lies on {h} at t={t0}"
                    )


@dataclass
class SeriesSolution:
    """Branch of critical points as truncated Laurent series."""

    branch: tuple  # LaurentSeries per unknown
    exact: bool
    residual_order: int  # residuals vanish (numerically) below this order


def _rescale(equations, ring, valuations):
    """Substitute x_j = t^{v_j} X_j and clear the global t-power of each
    equation, then its monomial factor in X (a unit on the torus, present
    for Laurent parametrizations); the result is polynomial in (X, t)."""
    n = len(ring) - 1  # unknowns, t last
    out = []
    for eq in equations:
        shifted = {}
        for e, c in eq.terms.items():
            k = e[-1] + sum(valuations[j] * e[j] for j in range(n))
            key = e[:-1] + (k,)
            shifted[key] = shifted.get(key, Fraction(0)) + c
        shifted = {e: c for e, c in shifted.items() if c}
        if not shifted:
            continue
        m0 = min(e[-1] for e in shifted)
        out.append(
            Polynomial(
                {e[:-1] + (e[-1] - m0,): c for e, c in shifted.items()}, ring
            ).laurent_normalize()
        )
    return out


def _num_inverse(rows):
    """Floating inverse by pivoted Gauss-Jordan elimination, or None for a
    non-square matrix or one with |det| < 1e-12 max(1, max|m|^n)."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        return None
    aug = [
        list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)
    ]
    pivots, red = complex_gauss_jordan(aug, n, n)
    det = 1.0
    for _, _, a in pivots:
        det *= abs(a)
    size = max((abs(complex(x)) for row in rows for x in row), default=0.0)
    if len(pivots) < n or det < 1e-12 * max(1.0, size**n):
        return None
    inv = [None] * n
    for r, c, _ in pivots:
        inv[c] = red[r][n:]
    return inv


def _square_subsystem(rows, exact):
    """Indices of n equations whose Jacobian rows, given as values at a
    point, form an invertible matrix, and its inverse; (None, None) if
    there are none."""
    if not rows or len(rows) < len(rows[0]):
        return None, None
    for subset in combinations(range(len(rows)), len(rows[0])):
        jac = [rows[i] for i in subset]
        inv = inverse(jac) if exact else _num_inverse(jac)
        if inv is not None:
            return subset, inv
    return None, None


def _abs_poly(eq):
    return Polynomial({e: abs(c) for e, c in eq.terms.items()}, eq.vars)


def _derived(equations, unknowns):
    """(Jacobian rows by the unknowns, absolute-value polynomials) of a
    system, derived once per job for all the seeds that read them."""
    return current_job().once(
        (_derived, tuple(equations), tuple(unknowns)),
        lambda: (_jacobian(equations, unknowns), [_abs_poly(eq) for eq in equations]),
    )


def _magnitudes(abs_polys, inputs):
    """The float ``RelaxedEvaluator`` of the absolute-value polynomials on
    the inputs' absolute values, the magnitude of each coefficient's terms."""
    return RelaxedEvaluator(
        abs_polys, {name: [abs(c) for c in cs] for name, cs in inputs.items()}, float
    )


def _hensel(equations, ring, seed, order, exact):
    """Order-by-order linear lift; the Jacobian at the seed must be
    invertible for some square subsystem.

    One ``RelaxedEvaluator`` over the whole system gives residual
    coefficient k of the subsystem at step k, with x_k still 0, and the
    final residuals of every equation; each coefficient of each power and
    term is computed once more when it is final, and kept.  The Jacobian
    rows and the absolute-value polynomials come from ``_derived``, once
    per job.  The lift runs in one scalar type:
    ``Fraction`` for an exact seed, ``complex`` for a floating one (whose
    inverse ``_num_inverse`` computes), ``float`` for the magnitudes that
    floating residuals are judged against.
    """
    n = len(ring) - 1
    jacobian, abs_polys = _derived(equations, ring[:-1])
    env = dict(zip(ring, seed))
    env[CURVE_VAR] = Fraction(0) if exact else 0.0
    rows = [[d.evaluate(env) for d in row] for row in jacobian]
    subset, inv = _square_subsystem(rows, exact)
    if subset is None:
        raise SingularJacobian("no square subsystem with invertible Jacobian")
    scalar = Fraction if exact else complex
    zero = scalar(0)
    coeffs = [[seed[j]] + [zero] * order for j in range(n)]
    inputs = dict(zip(ring, coeffs))
    residuals = RelaxedEvaluator(equations, inputs, scalar)
    for k in range(1, order + 1):
        rhs = [r[k] for r in residuals.coefficients(k + 1, subset)]
        for j, d in enumerate(mat_vec(inv, rhs)):
            coeffs[j][k] = -d
    # final residual check against the FULL system
    final = residuals.coefficients(order + 1)
    if exact:
        bad = [[c != 0 for c in r] for r in final]
    else:
        magnitudes = _magnitudes(abs_polys, inputs).coefficients(order + 1)
        bad = [
            [abs(c) > RESIDUAL_RTOL * max(1.0, m) for c, m in zip(r, mag)]
            for r, mag in zip(final, magnitudes)
        ]
    failures = [row.index(True) for row in bad if True in row]
    if failures:
        raise NoConvergence(
            f"residual of order {min(failures)} does not vanish"
        )
    return coeffs


def series_newton_lift(
    system: CriticalSystem,
    seed,
    order: int = DEFAULT_ORDER,
    valuations=None,
) -> SeriesSolution:
    """Lift a t=0 seed to a truncated Laurent-series branch of the system
    built along a data curve.

    ``seed`` holds the leading coefficients of the unknowns; escaping
    branches supply the valuation vector of the unknowns.  The lift runs
    on the ansatz's rescaled cone basis of the curve's critical ideal
    (``_ansatz``).  Rational seeds produce exact branches, floating seeds
    floating ones.  The lift's residual check is the only acceptance: a
    seed off the t = 0 layer fails at order 0 (``NoConvergence``), or on a
    singular Jacobian (``SingularJacobian``).
    """
    lift, _, valuations = _ansatz(system, valuations)
    ring = system.ring
    n = len(ring) - 1
    seed = tuple(seed)
    if len(seed) != n:
        raise ValueError(f"seed must give {n} leading coefficients")
    exact = all(isinstance(x, (int, Fraction)) for x in seed)
    if exact:
        seed = tuple(Fraction(x) for x in seed)
    else:
        seed = tuple(complex(x) for x in seed)
        warnings.warn(
            "floating seed: branch coefficients are approximations",
            ApproximateBranch,
            stacklevel=2,
        )
    coeffs = _hensel(lift, ring, seed, order, exact)
    branch = tuple(
        LaurentSeries(valuations[j], coeffs[j], valuations[j] + order + 1)
        for j in range(n)
    )
    return SeriesSolution(
        branch=branch,
        exact=exact,
        residual_order=order + 1,
    )


def _saturated_equations(equations, ring, extra=()):
    """The system's ideal saturated by every variable of the ring (unknowns
    and t) and by the saturators in ``extra``, as the reduced grlex basis
    of one ``saturate`` by the torus monomial of the ring times their
    product.  ``_ansatz`` calls it once per curve, on the critical system
    and its saturators.
    """
    torus = Polynomial({(1,) * len(ring): Fraction(1)}, ring)
    return saturate(Ideal(equations, ring), prod(extra, start=torus))


def _ansatz(system, valuations=None):
    """(lift system, t = 0 layer, valuations) of the system along a data
    curve under the valuation ansatz x_j = t^{v_j} X_j.

    The curve's critical ideal J, the system saturated by the torus of
    (unknowns, t) and by the saturators, is memoized in the job, and its
    Groebner cones are those of the job's ``TropicalEngine.of(J)``, the
    engine a ray search on J would use.  The lift system is that engine's
    basis at the weight w = (v, 1) under ``_rescale``, whose t^0 parts are
    the initial forms at w (at t = 1, up to a monomial); they generate
    init_w(J), so they are the t = 0 layer on the torus (Maclagan and
    Sturmfels, Introduction to Tropical Geometry, ch. 2).  Memoized per
    ansatz in the job.
    """
    ring = system.ring
    if ring != system.unknowns + (CURVE_VAR,):
        raise ValueError("series lifting needs a critical system along a curve in t")
    n = len(system.unknowns)
    valuations = tuple(valuations) if valuations else (0,) * n
    if len(valuations) != n:
        raise ValueError(f"valuations must cover all {n} unknowns")
    job = current_job()
    key = (_ansatz, tuple(system.equations), tuple(system.saturators), ring)

    def make():
        J = job.once(
            key, lambda: _saturated_equations(system.equations, ring, system.saturators)
        )
        engine = TropicalEngine.of(J)
        lift = tuple(_rescale(engine.basis(valuations + (1,)), ring, valuations))
        layer = [
            Polynomial({e[:-1]: c for e, c in g.terms.items() if not e[-1]}, ring[:-1])
            for g in lift
        ]
        return lift, [g for g in layer if not g.is_zero]

    return (*job.once((key, valuations), make), valuations)


def branch_seeds(system: CriticalSystem, valuations=None):
    """Leading coefficients of all branches with the given valuation
    ansatz: the points on the torus of the ansatz's t = 0 layer, the
    initial ideal of the curve's critical ideal (``_ansatz``).

    Returns (exact_seeds, numeric_seeds); exact seeds are rational tuples
    (found when the layer has degree one), numeric seeds complex tuples,
    one per distinct point in the order of ``solve_zero_dim_numeric``.
    """
    _, layer, _ = _ansatz(system, valuations)
    if not layer:
        raise NotZeroDimensional("saturated system is trivial")
    G = torus_saturation(Ideal(layer, system.unknowns))
    if G.is_zero:
        raise NotZeroDimensional("t=0 layer is not zero-dimensional")
    if G.is_unit:
        return [], []
    basis = quotient_basis(G)
    if len(basis) == 1:
        return [solve_degree_one(G)], []
    return [], solve_zero_dim_numeric(G)


def refine_seed_exact(system, seed, valuations=None, bits: int = 192):
    """Newton-refine a floating seed on the exact t=0 layer of the
    ansatz (``_ansatz``), in rational arithmetic, to roughly 2^-bits
    accuracy.

    Only real seeds are refined: a complex seed gives None.
    """
    size = max([abs(complex(x)) for x in seed] + [1.0])
    if any(abs(complex(x).imag) > 1e-9 * size for x in seed):
        return None
    _, layer, _ = _ansatz(system, valuations)
    jacobian, _ = _derived(layer, system.unknowns)
    x = [Fraction(complex(v).real).limit_denominator(10**12) for v in seed]
    scale = Fraction(2) ** (2 * bits)
    target = Fraction(1, 2**bits)
    for _ in range(64):
        point = dict(zip(system.unknowns, x))
        vals = [eq.evaluate(point) for eq in layer]
        if all(abs(v) < target for v in vals):
            return tuple(x)
        rows = [[d.evaluate(point) for d in row] for row in jacobian]
        subset, inv = _square_subsystem(rows, True)
        if subset is None:
            raise SingularJacobian("refinement Jacobian is singular")
        delta = mat_vec(inv, [vals[i] for i in subset])
        x = [
            Fraction(round((xi - di) * scale), scale)
            for xi, di in zip(x, delta)
        ]
    raise NoConvergence("seed refinement did not reach the target accuracy")


def valuation_vector(sol: SeriesSolution, spec: VarietySpec):
    """Orders ord_t of the coordinate functions along the branch, read
    lazily: the first certified-nonzero coefficient of each.

    Each branch series is t^{v_j} X_j with X_j(0) != 0.  A coordinate
    function f is rescaled as ``_rescale`` does, into g(X, t) with
    f(t^v X) = t^{m0} X^{-a} g(X, t) for the least shift m0 and a monomial
    X^a clearing the Laurent exponents; X^{-a} is a unit, so
    ord f = m0 + ord g.  One ``RelaxedEvaluator`` computes the
    coefficients of every g one at a time, and each read stops at the
    first nonzero one; a floating one must exceed ``NUMERIC_ZERO`` times
    the coefficient of the same evaluation on absolute values (by the
    triangle inequality a computed coefficient never exceeds that bound,
    so the ratio measures cancellation).  The read covers the window the
    branch determines: each term is known to its shift plus the least
    relative precision of the unknowns in it (its scalar and t are
    exact), and f to the least of these over its terms; a constant f is
    its one coefficient.  ``TruncationTooShort`` is raised when no
    coefficient of the window is certified.
    """
    unknowns = spec.unknowns
    vals = [b.valuation for b in sol.branch]
    precision = [b.truncation_order - b.valuation for b in sol.branch]
    ring = unknowns + (CURVE_VAR,)
    polys = []
    windows = []
    for f in spec.tuple_polys():
        f = f.extend_ring(ring)
        shifts = [dot(vals, e) for e in f.terms]
        m0 = min(shifts)
        ends = [
            s + min(precision[j] for j, x in enumerate(e[:-1]) if x)
            for s, e in zip(shifts, f.terms)
            if any(e[:-1])
        ]
        polys.extend(_rescale([f], ring, vals))
        windows.append((m0, min(ends, default=m0 + 1) - m0))
    # zeros past a branch's precision pad the inputs to the widest window;
    # they never reach a coefficient below the first nonzero one of g
    width = max(w for _, w in windows)
    scalar = Fraction if sol.exact else complex
    inputs = {
        name: list(b.coeffs) + [scalar(0)] * (width - len(b.coeffs))
        for name, b in zip(unknowns, sol.branch)
    }
    values = RelaxedEvaluator(polys, inputs, scalar)
    if not sol.exact:
        magnitudes = _magnitudes([_abs_poly(g) for g in polys], inputs)
    out = []
    for i, (m0, window) in enumerate(windows):
        for k in range(window):
            (c,) = values.coefficients(k + 1, [i])
            if sol.exact:
                nonzero = c[k] != 0
            else:
                (m,) = magnitudes.coefficients(k + 1, [i])
                nonzero = abs(c[k]) > NUMERIC_ZERO * max(m[k], 1e-300)
            if nonzero:
                out.append(m0 + k)
                break
        else:
            raise TruncationTooShort(
                "series vanishes to truncation order; cannot certify its order"
                if sol.exact
                else "no numerically nonzero coefficient found"
            )
    return tuple(out)


@dataclass(frozen=True)
class Branch:
    """One lifted branch of critical points along a data curve."""

    unknown_valuations: tuple  # the valuation ansatz of its job
    ray: Ray | None  # the ray of an escaping job; None for interior ones
    solution: SeriesSolution
    valuation_vector: tuple
    refined_leading: tuple | None  # rational leading coefficients, if refined


def _unknown_valuations(spec: VarietySpec, ray):
    """Valuation ansatz for the unknowns induced by a ray in data space,
    and notes on the unknowns it leaves at valuation 0."""
    if spec.kind == "ideal":
        return tuple(ray), []
    vals = [0] * len(spec.unknowns)
    matched = set()
    notes = []
    for i, f in enumerate(spec.tuple_polys()):
        if f.is_term() and f.total_degree() == 1:
            ((e, c),) = f.terms.items()
            j = next(k for k, x in enumerate(e) if x)
            vals[j] = ray[i]
            matched.add(j)
    for j, name in enumerate(spec.unknowns):
        if j not in matched:
            notes.append(
                f"no coordinate function equals unknown {name}; valuation 0 assumed"
            )
    return tuple(vals), notes


def branches(spec, curve, rays, order=DEFAULT_ORDER, bits=53):
    """Series branches of the critical points along a data curve.

    Returns (branches, notes).  The curve is checked against the first
    ray whose hyperplane holds alpha(0) and against every critical slope
    of the rays.  Everything runs in one ``Job``, the current one or a
    fresh one, so the curve's critical ideal is saturated once.  Seeds
    come from the interior job (valuation zero) and from one escaping job
    per such ray with a nonzero ansatz; each seed is
    lifted to ``order``, and to twice the order when that is too short to
    certify the valuation vector.  With ``bits`` above 53 the real leading
    coefficients of a floating branch are refined to about 2^-bits.  A
    seed that fails to lift, or a layer that ``solve_zero_dim_numeric``
    cannot read, becomes a note.
    """
    with current_job():
        alpha0 = curve.value_at_zero()
        on = [r for r in rays if dot(alpha0, r.v) == 0]
        if on:
            curve.validate(ray=on[0], slopes=critical_slopes(rays))
        system = critical_system(spec, curve.components)
        notes = []
        jobs = [((0,) * len(spec.unknowns), None)]
        for ray in on:
            vals, warn = _unknown_valuations(spec, ray.v)
            notes.extend(warn)
            if any(vals):
                jobs.append((vals, ray))
        out = []
        for vals, ray in jobs:
            try:
                exact, numeric = branch_seeds(system, valuations=vals)
            except NotZeroDimensional:
                continue
            except DegenerateSample as exc:
                notes.append(f"branches at {vals} have no seeds: {exc}")
                continue
            for seed in exact + numeric:
                try:
                    sol = series_newton_lift(system, seed, order, vals)
                except (SingularJacobian, NoConvergence) as exc:
                    notes.append(f"branch at {vals} failed to lift: {exc}")
                    continue
                try:
                    vv = valuation_vector(sol, spec)
                except TruncationTooShort:
                    sol = series_newton_lift(system, seed, 2 * order, vals)
                    vv = valuation_vector(sol, spec)
                refined = None
                if not sol.exact and bits > 53:
                    refined = refine_seed_exact(system, seed, vals, bits)
                out.append(Branch(vals, ray, sol, vv, refined))
        return out, notes
