"""Buchberger-based Groebner engine over the rationals.

Supports weight-refined orders (used on homogenized input only, where any
weight vector is legal), block elimination orders, saturation, weighted
initial ideals via single-variable homogenization, zero-dimensional degree
counts through standard monomials, and homogeneity spaces.

Weighted initial ideals look up the Groebner cones computed so far first
(Mora and Robbiano's Groebner fan): every weight in one cone shares one
reduced homogeneous basis, so Buchberger runs only for a weight outside
every stored cone.

Reduction steps are counted against the current ``Job``: ``with
Job(limit):`` makes one step budget and one set of memo tables hold for
everything run inside it.  Outside any ``with``, each entry point gets a
fresh ``Job()`` (10**6 steps, empty memo).  Exceeding the limit raises
ResourceBudgetExceeded instead of running away.
"""

from __future__ import annotations

from contextvars import ContextVar
from fractions import Fraction
from heapq import heappop, heappush
from operator import mul

from .errors import NotZeroDimensional, ResourceBudgetExceeded
from .linalg import mat_vec, nullspace, solve_linear
from .rings import (
    Polynomial,
    TermOrder,
    grlex,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

DEFAULT_BUDGET = 10**6


class Ideal:
    """A finite generating set; Laurent generators are normalized by a
    monomial factor (harmless on the torus) at construction."""

    __slots__ = ("gens", "vars")

    def __init__(self, gens, vars=None):
        gens = list(gens)
        if vars is None:
            if not gens:
                raise ValueError("cannot infer variables of the empty ideal")
            vars = gens[0].vars
        self.vars = tuple(vars)
        seen = []
        for g in gens:
            if g.vars != self.vars:
                g = g.extend_ring(self.vars)
            g = g.laurent_normalize()
            if not g.is_zero and g not in seen:
                seen.append(g)
        self.gens = tuple(seen)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def __repr__(self):
        return f"Ideal({', '.join(map(str, self.gens))})"


class Job:
    """One run: a reduction-step budget shared by every Groebner call made
    while the job is current, and memo tables that live as long as it.

    ``with Job(limit):`` makes the job current; ``current_job()`` returns
    it, or a fresh default job outside any ``with``.
    """

    __slots__ = ("steps", "limit", "memo", "_tokens")

    def __init__(self, limit=None):
        self.steps = 0
        self.limit = DEFAULT_BUDGET if limit is None else limit
        self.memo = {}
        self._tokens = []

    def tick(self, n=1):
        self.steps += n
        if self.steps > self.limit:
            raise ResourceBudgetExceeded(
                f"reduction budget of {self.limit} steps exceeded"
            )

    def __enter__(self):
        self._tokens.append(_CURRENT_JOB.set(self))
        return self

    def __exit__(self, *exc):
        _CURRENT_JOB.reset(self._tokens.pop())


_CURRENT_JOB = ContextVar("tropcrit_job", default=None)


def current_job() -> Job:
    """The job of the innermost enclosing ``with Job(...)``, else a fresh
    one (so calls outside a job keep a per-call default budget)."""
    return _CURRENT_JOB.get() or Job()


def _reduce_terms(terms, reducers, lts, lcs, sugars, order, budget, sugar=None):
    """Multivariate division; returns (remainder dict, sugar of result)."""
    key = order.key
    p = dict(terms)
    r = {}
    while p:
        m = max(p, key=key)
        c = p.pop(m)
        for i, g in enumerate(reducers):
            if mono_divides(lts[i], m):
                budget.tick()
                q = mono_div(m, lts[i])
                f = c / lcs[i]
                if sugar is not None:
                    sugar = max(sugar, sugars[i] + sum(q))
                # subtracted terms are order-smaller than m, so they can
                # only collide with entries still in p, never with r
                for e, gc in g.terms.items():
                    if e == lts[i]:
                        continue
                    me = mono_mul(e, q)
                    s = p.get(me, Fraction(0)) - f * gc
                    if s:
                        p[me] = s
                    else:
                        p.pop(me, None)
                break
        else:
            r[m] = c
    return r, sugar


def _nf_poly(f, reducers, lts, lcs, order, budget):
    terms, _ = _reduce_terms(f.terms, reducers, lts, lcs, None, order, budget)
    out = Polynomial.__new__(Polynomial)
    out.terms = terms
    out.vars = f.vars
    return out


def _interreduce(polys, order, budget):
    """Minimal then tail-reduced monic basis, canonically sorted.

    Domination is checked in both directions: under a weight-refined
    order a divisor monomial need not be order-smaller.
    """
    key = order.key
    polys = [p for p in polys if not p.is_zero]
    if not polys:
        return []
    polys.sort(key=lambda p: key(p.leading(order)[0]))
    all_lts = [p.leading(order)[0] for p in polys]
    minimal = []
    lts = []
    for i, p in enumerate(polys):
        dominated = False
        for j, lt_other in enumerate(all_lts):
            if i == j:
                continue
            if mono_divides(lt_other, all_lts[i]) and (
                lt_other != all_lts[i] or j < i
            ):
                dominated = True
                break
        if not dominated:
            minimal.append(p)
            lts.append(all_lts[i])
    lcs = [p.leading(order)[1] for p in minimal]
    result = []
    for i, p in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        olts = lts[:i] + lts[i + 1 :]
        olcs = lcs[:i] + lcs[i + 1 :]
        r = _nf_poly(p, others, olts, olcs, order, budget)
        if not r.is_zero:
            result.append(r.monic(order))
    result.sort(key=lambda p: key(p.leading(order)[0]))
    return result


def _buchberger(gens, order, budget):
    """Reduced Groebner basis of the generator list (sugar selection, both
    Buchberger criteria, global step budget).

    Each pair is queued once, when its younger element joins the basis, in
    a heap ordered by (sugar, order key of the lcm, i, j).  A pair's
    selection data never changes, so the heap's minimum is the minimum
    over all pending pairs.  The ``pending`` set only serves the chain
    criterion.
    """
    key = order.key
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    for g in gens:
        if g.is_constant():
            return [Polynomial.constant(1, g.vars)]
    G = []
    lts = []
    lcs = []
    sugars = []
    pending = set()
    queue = []

    def add(f, sugar):
        i = len(G)
        lt, lc = f.leading(order)
        for j in range(i):
            lcm = mono_lcm(lts[j], lt)
            pair_sugar = max(
                sugars[j] + sum(mono_div(lcm, lts[j])),
                sugar + sum(mono_div(lcm, lt)),
            )
            heappush(queue, (pair_sugar, key(lcm), j, i, lcm))
            pending.add((j, i))
        G.append(f)
        lts.append(lt)
        lcs.append(lc)
        sugars.append(sugar)

    for g in sorted(gens, key=lambda p: key(p.leading(order)[0])):
        r, s = _reduce_terms(
            g.terms, G, lts, lcs, sugars, order, budget, sugar=g.total_degree()
        )
        if r:
            f = Polynomial.__new__(Polynomial)
            f.terms = r
            f.vars = g.vars
            if f.is_constant():
                return [Polynomial.constant(1, g.vars)]
            add(f.monic(order), s)

    while queue:
        sugar, _, i, j, lcm = heappop(queue)
        pending.discard((i, j))
        # product criterion
        if lcm == mono_mul(lts[i], lts[j]):
            continue
        # chain criterion
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if mono_divides(lts[k], lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        fi, fj = G[i], G[j]
        s_terms = {}
        qi = mono_div(lcm, lts[i])
        qj = mono_div(lcm, lts[j])
        inv_i = Fraction(1) / lcs[i]
        inv_j = Fraction(1) / lcs[j]
        for e, c in fi.terms.items():
            me = mono_mul(e, qi)
            s_terms[me] = s_terms.get(me, Fraction(0)) + c * inv_i
        for e, c in fj.terms.items():
            me = mono_mul(e, qj)
            s = s_terms.get(me, Fraction(0)) - c * inv_j
            if s:
                s_terms[me] = s
            else:
                s_terms.pop(me, None)
        budget.tick()
        r, s_sugar = _reduce_terms(
            s_terms, G, lts, lcs, sugars, order, budget, sugar=sugar
        )
        if r:
            f = Polynomial.__new__(Polynomial)
            f.terms = r
            f.vars = gens[0].vars
            if f.is_constant():
                return [Polynomial.constant(1, gens[0].vars)]
            add(f.monic(order), s_sugar)
    return _interreduce(G, order, budget)


class GroebnerBasis:
    """Reduced Groebner basis with its order; membership via normal_form."""

    __slots__ = ("order", "elements", "reduced", "_lts", "_lcs")

    def __init__(self, elements, order, reduced=True):
        self.order = order
        self.elements = tuple(elements)
        self.reduced = reduced
        self._lts = [g.leading(order)[0] for g in self.elements]
        self._lcs = [g.leading(order)[1] for g in self.elements]

    @property
    def is_unit(self) -> bool:
        return any(g.is_constant() and not g.is_zero for g in self.elements)

    @property
    def leading_terms(self):
        return list(self._lts)

    def normal_form(self, f: Polynomial) -> Polynomial:
        return _nf_poly(
            f, self.elements, self._lts, self._lcs, self.order, current_job()
        )

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero

    def __repr__(self):
        return f"GroebnerBasis([{', '.join(map(str, self.elements))}])"


def groebner_basis(ideal, order=None) -> GroebnerBasis:
    """Reduced Groebner basis of an Ideal (or list of polynomials)."""
    if isinstance(ideal, Ideal):
        gens = list(ideal.gens)
        nvars = ideal.nvars
    else:
        gens = list(ideal)
        if not gens:
            raise ValueError("need at least one generator (or pass an Ideal)")
        nvars = len(gens[0].vars)
    if order is None:
        order = grlex(nvars)
    elements = _buchberger(gens, order, current_job())
    return GroebnerBasis(elements, order)


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of f on division by a reduced basis."""
    return G.normal_form(f)


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Decide equality via the uniqueness of reduced Groebner bases."""
    if I.is_zero or J.is_zero:
        return I.is_zero and J.is_zero
    gi = groebner_basis(I, grlex(I.nvars))
    gj = groebner_basis(J, grlex(J.nvars))
    return list(gi.elements) == list(gj.elements)


# -- weighted initial ideals ------------------------------------------------------


_HOMOG_VAR = "_h"


def _homogenize(g: Polynomial, hvars) -> Polynomial:
    d = g.total_degree()
    res = {}
    for e, c in g.terms.items():
        res[tuple(e) + (d - sum(e),)] = c
    return Polynomial(res, hvars)


def _dehomogenize(g: Polynomial, vars) -> Polynomial:
    res = {}
    for e, c in g.terms.items():
        key = tuple(e[:-1])
        res[key] = res.get(key, Fraction(0)) + c
    return Polynomial(res, vars)


class InitialIdealEngine:
    """Computes init_w(I) for arbitrary integer weights (min convention).

    The base Groebner basis under a degree-compatible order is computed
    once.  Per weight, a lookup among the Groebner cones stored so far
    comes first: a weight inside a stored cone reuses that cone's reduced
    homogeneous basis, and a homogeneous Groebner run under the
    negated-weight refinement happens only on a miss, storing a new cone.
    Initial forms of the basis elements then give init_w(I).
    """

    def __init__(self, ideal: Ideal):
        self.ideal = ideal
        self.nvars = ideal.nvars
        self._cones = []
        if ideal.is_zero:
            self.base = None
            self.hgens = []
            return
        self.base = groebner_basis(ideal, grlex(self.nvars))
        hvars = ideal.vars + (_HOMOG_VAR,)
        self.hgens = [_homogenize(g, hvars) for g in self.base.elements]

    def initial(self, w) -> Ideal:
        if len(w) != self.nvars:
            raise ValueError("weight length does not match the ring")
        if self.base is None:
            return Ideal([], self.ideal.vars)
        if all(x == 0 for x in w):
            return Ideal(list(self.base.elements), self.ideal.vars)
        if self.base.is_unit:
            return Ideal([Polynomial.constant(1, self.ideal.vars)], self.ideal.vars)
        order = TermOrder(
            self.nvars + 1, weight=tuple(-x for x in w) + (0,)
        )
        cone = self._cone_of(w) or self._new_cone(order)
        # the order _interreduce gives the basis under this weight
        basis = sorted(cone.basis, key=lambda item: order.key(item[0]))
        return Ideal([g.weight_initial(w) for _, g in basis], self.ideal.vars)

    def _cone_of(self, w):
        """The stored cone holding w, moved to the front of the list."""
        for i, cone in enumerate(self._cones):
            if cone.holds(w):
                if i:
                    self._cones.insert(0, self._cones.pop(i))
                return cone
        return None

    def _new_cone(self, order):
        gh = _buchberger(list(self.hgens), order, current_job())
        cone = _GroebnerCone(gh, order, self.ideal.vars)
        self._cones.insert(0, cone)
        return cone


class _GroebnerCone:
    """A reduced homogeneous basis and the weights it serves.

    The basis stays the reduced basis under the order of w exactly when
    every element keeps its leading monomial m, i.e. when w.(e - m) > 0
    for every other term e, or w.(e - m) = 0 and the degree-lex tie-break
    still ranks m above e.  On homogeneous input equal leading monomials
    make it the unique reduced basis of the new order.
    """

    __slots__ = ("strict", "weak", "basis")

    def __init__(self, elements, order, vars):
        self.strict = []
        self.weak = []
        self.basis = []
        for g in elements:
            m = g.leading(order)[0]
            for e in g.terms:
                if e != m:
                    d = tuple(x - y for x, y in zip(e[:-1], m[:-1]))
                    (self.weak if m > e else self.strict).append(d)
            self.basis.append((m, _dehomogenize(g, vars)))

    def holds(self, w) -> bool:
        return all(sum(map(mul, w, d)) > 0 for d in self.strict) and all(
            sum(map(mul, w, d)) >= 0 for d in self.weak
        )


def initial_ideal(ideal: Ideal, w) -> Ideal:
    """Ideal of w-minimal initial forms (min convention), any w in Z^p."""
    return InitialIdealEngine(ideal).initial(w)


# -- saturation and elimination -----------------------------------------------------


_SAT_VAR = "_y"


def _saturate_single(ideal: Ideal, f: Polynomial) -> Ideal:
    if ideal.is_zero:
        return ideal
    vars2 = (_SAT_VAR,) + ideal.vars
    n = len(vars2)
    order = TermOrder(n, blocks=((0,), tuple(range(1, n))))
    gens2 = [g.extend_ring(vars2) for g in ideal.gens]
    y = Polynomial.variable(_SAT_VAR, vars2)
    gens2.append(Polynomial.constant(1, vars2) - y * f.extend_ring(vars2))
    G = _buchberger(gens2, order, current_job())
    kept = [g for g in G if 0 not in g.support_vars()]
    return Ideal([g.restrict_ring(ideal.vars) for g in kept], ideal.vars)


def saturate(ideal: Ideal, f: Polynomial) -> Ideal:
    """(I : f^infty) by one elimination of y from I + (1 - y*f).

    A monomial f is replaced by the squarefree monomial of its support,
    which has the same saturation; a constant f leaves I unchanged.
    """
    if f.is_zero:
        raise ValueError("cannot saturate by zero")
    if ideal.is_zero:
        return ideal
    if f.is_term():
        ((e, _),) = f.terms.items()
        if not any(e):
            return ideal
        f = Polynomial({tuple(int(x > 0) for x in e): Fraction(1)}, f.vars)
    return _saturate_single(ideal, f)


def eliminate(ideal: Ideal, keep, restrict=True) -> Ideal:
    """Intersection with the subring of the kept variables (block order)."""
    keep = list(keep)
    drop_idx = tuple(i for i, v in enumerate(ideal.vars) if v not in keep)
    keep_idx = tuple(i for i, v in enumerate(ideal.vars) if v in keep)
    if not drop_idx:
        return ideal
    if ideal.is_zero:
        kept_vars = tuple(ideal.vars[i] for i in keep_idx)
        return Ideal([], kept_vars if restrict else ideal.vars)
    order = TermOrder(ideal.nvars, blocks=(drop_idx, keep_idx))
    G = _buchberger(list(ideal.gens), order, current_job())
    kept = [g for g in G if not (g.support_vars() & set(drop_idx))]
    if restrict:
        kept_vars = tuple(ideal.vars[i] for i in keep_idx)
        return Ideal([g.restrict_ring(kept_vars) for g in kept], kept_vars)
    return Ideal(kept, ideal.vars)


# -- zero-dimensional machinery ---------------------------------------------------


def quotient_basis(G: GroebnerBasis):
    """Standard monomials of a reduced basis; raises if infinite."""
    if G.is_unit:
        return []
    lts = G.leading_terms
    if not lts:
        raise NotZeroDimensional("the zero ideal has infinite quotient")
    p = len(G.elements[0].vars)
    bounds = []
    for i in range(p):
        pure = [
            m[i]
            for m in lts
            if all(m[j] == 0 for j in range(p) if j != i) and m[i] > 0
        ]
        if not pure:
            raise NotZeroDimensional(
                f"no pure power of variable index {i} among leading terms"
            )
        bounds.append(min(pure))
    basis = []

    # depth-first product over exponent ranges, pruned by divisibility
    def rec(prefix):
        if len(prefix) == p:
            basis.append(tuple(prefix))
            return
        i = len(prefix)
        for x in range(bounds[i]):
            cand = tuple(prefix) + (x,)
            partial = cand + (0,) * (p - len(cand))
            if any(
                mono_divides(lt, partial)
                for lt in lts
                if all(lt[j] == 0 for j in range(len(cand), p))
            ):
                continue
            rec(cand)

    rec(())
    # final divisibility filter (partial pruning above is only a shortcut)
    return sorted(
        m for m in basis if not any(mono_divides(lt, m) for lt in lts)
    )


def zero_dim_degree(ideal) -> int:
    """Vector-space dimension of the quotient = solution count with
    multiplicity; raises NotZeroDimensional when infinite."""
    if isinstance(ideal, GroebnerBasis):
        G = ideal
    else:
        if ideal.is_zero:
            if ideal.nvars == 0:
                return 1
            raise NotZeroDimensional("zero ideal in a positive-dim ring")
        G = groebner_basis(ideal, grlex(ideal.nvars))
    if G.is_unit:
        return 0
    return len(quotient_basis(G))


def multiplication_matrix(G: GroebnerBasis, basis, var_index):
    """Matrix of multiplication by a variable on the quotient basis."""
    idx = {m: k for k, m in enumerate(basis)}
    vars = G.elements[0].vars
    n = len(basis)
    cols = []
    for m in basis:
        e = list(m)
        e[var_index] += 1
        xm = Polynomial({tuple(e): Fraction(1)}, vars)
        r = G.normal_form(xm)
        col = [Fraction(0)] * n
        for mm, c in r.terms.items():
            col[idx[mm]] = c
        cols.append(col)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def minimal_polynomial(matrix, start):
    """Monic minimal polynomial (ascending coefficients) of the matrix on
    the Krylov space of ``start``, exact over Q."""
    vecs = [list(start)]
    rows = [list(start)]
    while True:
        nxt = mat_vec(matrix, vecs[-1])
        # dependence test: solve for nxt in the span of the Krylov vectors
        sol = solve_linear([list(col) for col in zip(*rows)], nxt)
        if sol is not None:
            # nxt = sum sol_j vecs_j  ->  minpoly = x^k - sum sol_j x^j
            coeffs = [-c for c in sol] + [Fraction(1)]
            return coeffs
        vecs.append(nxt)
        rows.append(nxt)


def poly_gcd_univ(a, b):
    """gcd of univariate coefficient lists (ascending), monic result."""

    def deg(u):
        d = len(u) - 1
        while d >= 0 and u[d] == 0:
            d -= 1
        return d

    a = list(a)
    b = list(b)
    while deg(b) >= 0:
        da, db = deg(a), deg(b)
        if da < db:
            a, b = b, a
            continue
        f = a[da] / b[db]
        shift = da - db
        for i in range(db + 1):
            a[i + shift] -= f * b[i]
        if deg(a) < deg(b):
            a, b = b, a
    d = deg(a)
    if d < 0:
        return [Fraction(0)]
    lead = a[d]
    return [c / lead for c in a[: d + 1]]


def derivative_univ(a):
    return [a[i] * i for i in range(1, len(a))]


def squarefree_check(G: GroebnerBasis, basis, rng) -> bool:
    """Radicality heuristic: the minimal polynomial of a random linear form
    should be squarefree of degree equal to the quotient dimension."""
    vars = G.elements[0].vars
    p = len(vars)
    n = len(basis)
    if n <= 1:
        return True
    mats = [multiplication_matrix(G, basis, i) for i in range(p)]
    coeffs = [rng.randint(-20, 20) for _ in range(p)]
    m = [
        [sum(coeffs[k] * mats[k][i][j] for k in range(p)) for j in range(n)]
        for i in range(n)
    ]
    one = basis.index((0,) * p)
    start = [Fraction(i == one) for i in range(n)]
    mp = minimal_polynomial(m, start)
    if len(mp) - 1 != n:
        return False
    g = poly_gcd_univ(mp, derivative_univ(mp))
    return len(g) == 1


def solve_degree_one(G: GroebnerBasis):
    """Exact coordinates of the unique solution of a degree-1 system."""
    vars = G.elements[0].vars
    basis = quotient_basis(G)
    if len(basis) != 1:
        raise ValueError(f"system has degree {len(basis)}, not 1")
    out = []
    for name in vars:
        r = G.normal_form(Polynomial.variable(name, vars))
        out.append(r.constant_coeff())
    return tuple(out)


def solve_zero_dim_numeric(G: GroebnerBasis, rng):
    """Numeric solutions (complex tuples, with multiplicity repeats) via
    eigenvectors of a random multiplication matrix."""
    import numpy as np

    vars = G.elements[0].vars
    p = len(vars)
    basis = quotient_basis(G)
    n = len(basis)
    if n == 0:
        return []
    mats = [multiplication_matrix(G, basis, i) for i in range(p)]
    coeffs = [rng.randint(-20, 20) for _ in range(p)]
    m = np.array(
        [
            [float(sum(coeffs[k] * mats[k][i][j] for k in range(p))) for j in range(n)]
            for i in range(n)
        ]
    )
    mats_np = [np.array([[float(x) for x in row] for row in mat]) for mat in mats]
    _, vecs = np.linalg.eig(m.T)
    sols = []
    for c in range(n):
        w = vecs[:, c]
        k = int(np.argmax(np.abs(w)))
        point = []
        for i in range(p):
            point.append(complex((w @ mats_np[i])[k] / w[k]))
        sols.append(tuple(point))
    return sols


# -- homogeneity space and dimension ---------------------------------------------


def homogeneity_space(ideal):
    """Basis of the space of weights u for which the ideal is u-graded,
    computed from the reduced Groebner basis (exponent differences within
    each element)."""
    if isinstance(ideal, GroebnerBasis):
        elements = ideal.elements
        p = len(elements[0].vars) if elements else 0
    else:
        p = ideal.nvars
        if ideal.is_zero:
            return nullspace([], ncols=p)
        elements = groebner_basis(ideal, grlex(p)).elements
    rows = []
    for g in elements:
        exps = list(g.terms)
        e0 = exps[0]
        for e in exps[1:]:
            rows.append([Fraction(x - y) for x, y in zip(e, e0)])
    if not rows:
        return nullspace([], ncols=p)
    return nullspace(rows, ncols=p)


def ideal_dimension(ideal) -> int:
    """Affine Krull dimension via independent variable subsets of the
    leading-term ideal (-1 for the unit ideal)."""
    from itertools import combinations

    if isinstance(ideal, GroebnerBasis):
        G = ideal
        p = len(G.elements[0].vars)
    else:
        p = ideal.nvars
        if ideal.is_zero:
            return p
        G = groebner_basis(ideal, grlex(p))
    if G.is_unit:
        return -1
    lts = G.leading_terms
    supports = [frozenset(i for i, x in enumerate(m) if x) for m in lts]
    for size in range(p, -1, -1):
        for S in combinations(range(p), size):
            sset = set(S)
            if not any(sup <= sset for sup in supports):
                return size
    return 0
