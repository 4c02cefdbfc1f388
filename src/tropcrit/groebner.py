"""Buchberger-based Groebner engine over the rationals.

The kernel computes over the integers on packed monomials: polynomials
are kept primitive over Z and reduced by pseudo-division, each monomial
is the one int ``TermOrder.key`` gives it (``rings.Packing``), and
exponent tuples and ``Fraction`` appear only at its boundary, in the
monic reduced bases it returns and the exact remainders of
``GroebnerBasis.normal_form``.  The leading term of a packed dict is its
max, a monomial product a sum, and divisibility one subtraction; an
exponent that reaches ``EXPONENT_LIMIT`` raises ResourceBudgetExceeded.

Every run is under one kind of order, an integer-matrix ``TermOrder``:
grlex, a weight row refined by degree (used on homogenized input only,
where any weight vector is legal), or a block elimination order.  On top
of it sit saturation, weighted initial ideals via single-variable
homogenization, zero-dimensional degree counts through standard
monomials, and Krull dimensions.

A reduced basis is a ``GroebnerBasis``, an ``Ideal`` that knows its
order.  ``saturate`` and ``eliminate`` return the reduced grlex basis
their elimination run computed, and ``groebner_basis`` returns a basis
under the requested order as it is, so no caller rebuilds a basis.

Weighted initial ideals look up the Groebner cones computed so far first
(Mora and Robbiano's Groebner fan): every weight in one cone shares one
reduced homogeneous basis, so Buchberger runs only for a weight outside
every stored cone.  The lookup also finds the face of the cone that holds
the weight, named by the basis terms the weight ties with their leading
monomials, and returns one record per face (``Face``); init_w(I) is the
same on the relative interior of a face, so the record keeps every
answer that depends on it alone, such as its ``torus_saturation``, which
the job memoizes for every engine and layer that meets the same ideal.

``with Job(limit, seed):`` makes one step budget, one set of memo tables
and one random stream hold for everything run inside it.  Outside any
``with``, each entry point gets a fresh ``Job()`` (10**6 steps, empty
memo, ``DEFAULT_SEED``).  Exceeding the limit raises
ResourceBudgetExceeded instead of running away.
"""

from __future__ import annotations

from contextvars import ContextVar
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations
from math import cos, gcd, pi, sin
from operator import mul
from random import Random

from .errors import DegenerateSample, NotZeroDimensional, ResourceBudgetExceeded
from .linalg import complex_gauss_jordan, mat_vec, rref, solve_linear
from .rings import (
    EXPONENT_LIMIT,
    Polynomial,
    TermOrder,
    _integral,
    block_order,
    grlex,
    mono_divides,
)

DEFAULT_BUDGET = 10**6
DEFAULT_SEED = 20240
MAX_FORMS = 5


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
    while the job is current, memo tables that live as long as it, read
    and written by ``once`` alone, and the random stream ``rng`` that all
    its random choices are drawn from.

    ``with Job(limit, seed):`` makes the job current; ``current_job()``
    returns it, or a fresh default job outside any ``with``, so an entry
    point that draws reads ``current_job().rng`` once.  The stream is
    seeded from ``seed`` when ``rng`` is first read, so a job that draws
    nothing does not pay for it.
    """

    __slots__ = ("steps", "limit", "memo", "seed", "_rng", "_tokens")

    def __init__(self, limit=None, seed=DEFAULT_SEED):
        self.steps = 0
        self.limit = DEFAULT_BUDGET if limit is None else limit
        self.memo = {}
        self.seed = seed
        self._rng = None
        self._tokens = []

    @property
    def rng(self) -> Random:
        if self._rng is None:
            self._rng = Random(self.seed)
        return self._rng

    def once(self, key, make):
        """The value kept under ``key`` in this job, made by ``make()`` on
        first use; a ``make`` that raises keeps nothing."""
        if key not in self.memo:
            self.memo[key] = make()
        return self.memo[key]

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


def _primitive(terms, lt):
    """Integer terms divided by their content, signed so that the
    coefficient of the leading monomial ``lt`` is positive."""
    g = gcd(*terms.values())
    if terms[lt] < 0:
        g = -g
    if g == 1:
        return terms
    return {e: c // g for e, c in terms.items()}


def _pack(terms, packing):
    """Integer terms keyed by exponent tuples, rekeyed by packed monomials.

    Every exponent must lie in [0, EXPONENT_LIMIT): a larger one raises
    ResourceBudgetExceeded, and a negative one ValueError (callers
    normalize Laurent input by a monomial first)."""
    weights = packing.weights
    out = {}
    for e, c in terms.items():
        if e and (min(e) < 0 or max(e) >= EXPONENT_LIMIT):
            if min(e) < 0:
                raise ValueError(f"negative exponent {e} in the Groebner kernel")
            raise _too_large(e)
        out[sum(map(mul, e, weights))] = c
    return out


def _too_large(e):
    return ResourceBudgetExceeded(
        f"monomial {e} reaches the exponent limit {EXPONENT_LIMIT}"
    )


def _lcm(a, b, weights):
    """The packed lcm of two exponent tuples."""
    return sum(map(mul, map(max, a, b), weights))


def _reduce_terms(terms, reducers, lts, lcs, sugars, packing, budget, sugar=None):
    """Multivariate division over Z by pseudo-division, on packed monomials.

    ``terms`` and the ``reducers`` map packed monomials (``rings.Packing``)
    to ints, and ``lts`` and ``lcs`` hold the reducers' leading monomials
    and coefficients.  To cancel a term c*m by a reducer g with leading
    coefficient a, the pending terms and the remainder are scaled by a/h,
    h = gcd(a, c), and (c/h)*q*g is subtracted, q = m - lt packed.
    Returns (remainder, sugar of the result, multiplier), where the
    multiplier is the product of the scalings: remainder / multiplier is
    the remainder of the same division over Q, which takes the same
    steps.  Each term goes to the first reducer whose leading monomial
    divides it.

    No exponent overflows its field.  Every reducer term and every input
    term has all exponents in [0, EXPONENT_LIMIT) (``_pack`` checks them,
    and a reducer built by the kernel holds only popped monomials), and a
    popped m is checked before use, so raising ResourceBudgetExceeded when
    one of its exponents reaches EXPONENT_LIMIT.  A new term e + q sums a
    reducer term e and q = m - lt, whose exponents are at most m's, so its
    exponents are below 2 * EXPONENT_LIMIT, the guard bit, and no field
    carries into the next before that term is popped and checked.
    """
    guard, top, degree = packing.guard, packing.top, packing.degree
    p = dict(terms)
    r = {}
    mult = 1
    while p:
        m = max(p)
        c = p.pop(m)
        if m & top:
            raise _too_large(packing.unpack(m))
        mg = m | guard
        for i, lt in enumerate(lts):
            if (mg - lt) & guard == guard:
                budget.tick()
                a = lcs[i]
                h = gcd(a, c)
                if h != a:
                    k = a // h
                    mult *= k
                    p = {e: x * k for e, x in p.items()}
                    if r:
                        r = {e: x * k for e, x in r.items()}
                f = c // h
                q = m - lt
                if sugar is not None:
                    sugar = max(sugar, sugars[i] + (q & degree))
                # subtracted terms are order-smaller than m, so they can
                # only collide with entries still in p, never with r
                for e, gc in reducers[i].items():
                    if e == lt:
                        continue
                    me = e + q
                    s = p.get(me, 0) - f * gc
                    if s:
                        p[me] = s
                    else:
                        p.pop(me, None)
                break
        else:
            r[m] = c
    return r, sugar, mult


def _interreduce(polys, vars, order, budget):
    """Minimal then tail-reduced basis, canonically sorted.

    Takes primitive integer term dicts on the packed monomials of
    ``order`` and emits monic Fraction polynomials over ``vars``, keyed by
    exponent tuples.  Domination is checked in both directions: under a
    weight-refined order a divisor monomial need not be order-smaller.
    """
    packing = order.packing(len(vars))
    guard = packing.guard
    polys = [p for p in polys if p]
    if not polys:
        return []
    polys.sort(key=max)
    all_lts = [max(p) for p in polys]
    minimal = []
    lts = []
    for i, p in enumerate(polys):
        lg = all_lts[i] | guard
        dominated = False
        for j, lt_other in enumerate(all_lts):
            if i == j:
                continue
            if (lg - lt_other) & guard == guard and (lt_other != all_lts[i] or j < i):
                dominated = True
                break
        if not dominated:
            minimal.append(p)
            lts.append(all_lts[i])
    lcs = [p[lt] for p, lt in zip(minimal, lts)]
    result = []
    unpack = packing.unpack
    for i, p in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        olts = lts[:i] + lts[i + 1 :]
        olcs = lcs[:i] + lcs[i + 1 :]
        r, _, _ = _reduce_terms(p, others, olts, olcs, None, packing, budget)
        # no other leading monomial divides lts[i], so it leads r too
        a = r[lts[i]]
        terms = {unpack(e): Fraction(c, a) for e, c in r.items()}
        result.append((lts[i], Polynomial._from_clean(terms, vars)))
    result.sort(key=lambda item: item[0])
    return [g for _, g in result]


def _buchberger(gens, order, budget):
    """Reduced Groebner basis of the generator list (sugar selection, both
    Buchberger criteria, global step budget).

    The kernel runs on primitive integer term dicts keyed by packed
    monomials (``rings.Packing``): each generator is cleared of
    denominators, packed and divided by its content, S-polynomials
    cross-multiply the leading coefficients, and a remainder joins the
    basis after its content is divided out.  These are scalar multiples
    of the polynomials a kernel over Q would hold, so the same pairs are
    reduced by the same reducers in the same order; ``_interreduce``
    returns monic Fraction polynomials over exponent tuples.

    Each pair is queued once, when its younger element joins the basis, in
    a heap ordered by (sugar, packed lcm, i, j).  A pair's selection data
    never changes, so the heap's minimum is the minimum over all pending
    pairs.  The ``pending`` set only serves the chain criterion.  Every
    lcm has exponents below 2 * EXPONENT_LIMIT, as the sum of two checked
    leading monomials has, so the divisibility tests and degrees read
    from it are exact; so does a term e + (lcm - lt_i) of an
    S-polynomial, whose exponents are at most those of e + lt_j.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    vars = gens[0].vars
    for g in gens:
        if g.is_constant():
            return [Polynomial.constant(1, vars)]
    packing = order.packing(len(vars))
    guard, degree, weights = packing.guard, packing.degree, packing.weights
    G = []
    lts = []
    tuple_lts = []
    lcs = []
    sugars = []
    pending = set()
    queue = []

    def add(r, sugar):
        """False when the remainder r is a constant (the unit ideal)."""
        if len(r) == 1 and 0 in r:
            return False
        lt = max(r)
        f = _primitive(r, lt)
        tlt = packing.unpack(lt)
        i = len(G)
        for j in range(i):
            lcm_ = _lcm(tuple_lts[j], tlt, weights)
            d = lcm_ & degree
            pair_sugar = max(
                sugars[j] + d - (lts[j] & degree), sugar + d - (lt & degree)
            )
            heappush(queue, (pair_sugar, lcm_, j, i))
            pending.add((j, i))
        G.append(f)
        lts.append(lt)
        tuple_lts.append(tlt)
        lcs.append(f[lt])
        sugars.append(sugar)
        return True

    packed = [_pack(_integral(g.terms)[0], packing) for g in gens]
    for terms in sorted(packed, key=max):
        r, s, _ = _reduce_terms(
            terms, G, lts, lcs, sugars, packing, budget,
            sugar=max(e & degree for e in terms),
        )
        if r and not add(r, s):
            return [Polynomial.constant(1, vars)]

    while queue:
        sugar, lcm_, i, j = heappop(queue)
        pending.discard((i, j))
        # product criterion
        if lcm_ == lts[i] + lts[j]:
            continue
        # chain criterion
        lg = lcm_ | guard
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if (lg - lts[k]) & guard == guard:
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        # S-polynomial (lc_j/h) qi fi - (lc_i/h) qj fj, h = gcd(lc_i, lc_j)
        h = gcd(lcs[i], lcs[j])
        ci = lcs[j] // h
        cj = lcs[i] // h
        qi = lcm_ - lts[i]
        qj = lcm_ - lts[j]
        s_terms = {e + qi: c * ci for e, c in G[i].items()}
        for e, c in G[j].items():
            me = e + qj
            s = s_terms.get(me, 0) - c * cj
            if s:
                s_terms[me] = s
            else:
                s_terms.pop(me, None)
        budget.tick()
        r, s_sugar, _ = _reduce_terms(
            s_terms, G, lts, lcs, sugars, packing, budget, sugar=sugar
        )
        if r and not add(r, s_sugar):
            return [Polynomial.constant(1, vars)]
    return _interreduce(G, vars, order, budget)


class GroebnerBasis(Ideal):
    """Reduced Groebner basis under ``order``: an Ideal over ``vars``
    whose generators are the monic Fraction basis elements, sorted by
    leading monomial; membership via normal_form.

    Cleared of denominators, a monic polynomial is primitive over Z with
    a positive leading coefficient; these integer reducers, on packed
    monomials, are made once, by the first normal form.
    """

    __slots__ = ("order", "_lts", "_reducers")

    def __init__(self, elements, order, vars):
        self.gens = tuple(elements)
        self.vars = tuple(vars)
        self.order = order
        self._lts = [g.leading(order)[0] for g in self.gens]
        self._reducers = None

    @property
    def is_unit(self) -> bool:
        return any(g.is_constant() for g in self.gens)

    @property
    def leading_terms(self):
        return list(self._lts)

    def normal_form(self, f: Polynomial) -> Polynomial:
        """Remainder of f on division by the basis, exact over Q.

        f is cleared of denominators and divided over Z by the integer
        reducers; the remainder is then divided by that denominator and by
        the division's multiplier.  A Laurent term of f, with a negative
        exponent, raises ValueError (``_pack``).
        """
        packing = self.order.packing(len(self.vars))
        if self._reducers is None:
            reducers = [_pack(_integral(g.terms)[0], packing) for g in self.gens]
            lts = [max(g) for g in reducers]
            self._reducers = reducers, lts, [g[lt] for g, lt in zip(reducers, lts)]
        terms, d = _integral(f.terms)
        r, _, mult = _reduce_terms(
            _pack(terms, packing), *self._reducers, None, packing, current_job()
        )
        d *= mult
        terms = {packing.unpack(e): Fraction(c, d) for e, c in r.items()}
        return Polynomial._from_clean(terms, f.vars)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero

    def __repr__(self):
        return f"GroebnerBasis([{', '.join(map(str, self.gens))}])"


def groebner_basis(ideal: Ideal, order=None) -> GroebnerBasis:
    """Reduced Groebner basis of an Ideal under ``order``, grlex by
    default; a GroebnerBasis under that order is returned as it is, and
    an ideal without generators needs no run."""
    if order is None:
        order = grlex(ideal.nvars)
    if isinstance(ideal, GroebnerBasis) and ideal.order.rows == order.rows:
        return ideal
    elements = _buchberger(ideal.gens, order, current_job()) if ideal.gens else []
    return GroebnerBasis(elements, order, ideal.vars)


# -- weighted initial ideals ------------------------------------------------------


def _fresh_var(name, vars) -> str:
    """``name`` behind as many underscores as keep it out of ``vars``."""
    while name in vars:
        name = "_" + name
    return name


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


class Face:
    """A face of the Groebner fan of an ideal, as ``InitialIdealEngine.face``
    returns it: the Groebner cone holding it (None where init_w(I) = I) and
    the tie pattern of its weights in that cone.  It keeps the answers that
    depend on init_w(I) alone, each None until first asked for:
    ``saturation``, the ``torus_saturation`` of init_w(I), which
    ``InitialIdealEngine.initial`` builds, and ``rigid``, whether the face
    is a rigid ray (``tropical.TropicalEngine``)."""

    __slots__ = ("cone", "ties", "saturation", "rigid")

    def __init__(self, cone, ties):
        self.cone, self.ties = cone, ties
        self.saturation = self.rigid = None


class InitialIdealEngine:
    """Computes init_w(I) for arbitrary integer weights (min convention).

    The base Groebner basis under a degree-compatible order is computed
    once.  ``face(w)`` looks w up among the Groebner cones stored so far
    and returns the record of the face of the Groebner fan whose relative
    interior holds w, one per (cone, tie pattern) pair; a homogeneous
    Groebner run under the negated-weight refinement happens only on a
    miss, storing a new cone.  init_w(I) is the same for every weight of
    one face; ``initial(w)`` takes it from the initial forms of the cone's
    basis.  ``basis`` and ``initial`` take w's record by the keyword
    ``face`` when the caller has already looked it up.
    """

    def __init__(self, ideal: Ideal):
        self.ideal = ideal
        self.nvars = ideal.nvars
        self._cones = []
        self._faces = {}
        self.base = groebner_basis(ideal, grlex(self.nvars))
        # init_w(I) = I for every w when I is the zero or the unit ideal
        self._fixed = ideal.is_zero or self.base.is_unit
        hvars = ideal.vars + (_fresh_var("_h", ideal.vars),)
        self.hgens = [_homogenize(g, hvars) for g in self.base.gens]

    def face(self, w) -> Face:
        """The record of the face holding w; its cone is None where
        init_w(I) = I: at w = 0 and for the zero and unit ideals.  A hit
        moves its cone to the front of the list."""
        if len(w) != self.nvars:
            raise ValueError("weight length does not match the ring")
        key = self._lookup(w) if not self._fixed and any(w) else (None, ())
        record = self._faces.get(key)
        if record is None:
            record = self._faces[key] = Face(*key)
        return record

    def _lookup(self, w):
        cones = self._cones
        for i, cone in enumerate(cones):
            ties = cone.ties(w)
            if ties is not None:
                if i:
                    cones.insert(0, cones.pop(i))
                return cone, ties
        order = _weight_order(w)
        gh = _buchberger(list(self.hgens), order, current_job())
        cone = _GroebnerCone(gh, order, self.ideal.vars)
        cones.insert(0, cone)
        return cone, cone.ties(w)

    def basis(self, w, face=None):
        """The dehomogenized basis of the cone that holds w, in the order
        ``_interreduce`` gives the basis under this weight; the base basis
        where init_w(I) = I."""
        face = face or self.face(w)
        if face.cone is None:
            return list(self.base.gens)
        order = _weight_order(w)
        return [g for _, g in sorted(face.cone.basis, key=lambda item: order.key(item[0]))]

    def initial(self, w, face=None) -> Ideal:
        """init_w(I), from the initial forms of ``basis(w)``, in that order."""
        face = face or self.face(w)
        return Ideal([g.weight_initial(w) for g in self.basis(w, face=face)], self.ideal.vars)


def _weight_order(w):
    """The homogeneous order of a weight: -w on the torus variables,
    refined by degree."""
    return TermOrder([tuple(-x for x in w) + (0,), (1,) * (len(w) + 1)])


class _GroebnerCone:
    """A reduced homogeneous basis, the weights it serves and its faces.

    The basis stays the reduced basis under the order of w exactly when
    every element keeps its leading monomial m, i.e. when w.(e - m) > 0
    for every other term e, or w.(e - m) = 0 and the order's tie-break
    (its key without the weight entry) still ranks m above e.  On
    homogeneous input equal leading monomials make it the unique reduced
    basis of the new order, so the stored cones never overlap.

    The initial form at w of an element is m plus its terms with
    w.(e - m) = 0, and only a ``weak`` difference can be zero.  So the
    weak differences orthogonal to w, the tie pattern, fix init_w(I): it
    is constant on the relative interior of each face of the cone.
    """

    __slots__ = ("strict", "weak", "basis")

    def __init__(self, elements, order, vars):
        strict = {}
        weak = {}
        self.basis = []
        tie = TermOrder(order.rows[1:]).key
        for g in elements:
            m = g.leading(order)[0]
            km = tie(m)
            for e in g.terms:
                if e != m:
                    d = tuple(x - y for x, y in zip(e[:-1], m[:-1]))
                    (weak if km > tie(e) else strict)[d] = None
            self.basis.append((m, _dehomogenize(g, vars)))
        self.strict = tuple(strict)
        self.weak = tuple(weak)

    def ties(self, w):
        """None for a w outside the cone, else the indices of the weak
        differences d with w.d = 0, in one pass over the dot products."""
        for d in self.strict:
            if sum(map(mul, w, d)) <= 0:
                return None
        tied = []
        for i, d in enumerate(self.weak):
            x = sum(map(mul, w, d))
            if x < 0:
                return None
            if not x:
                tied.append(i)
        return tuple(tied)


# -- saturation and elimination -----------------------------------------------------


def _saturate_single(ideal: Ideal, f: Polynomial) -> GroebnerBasis:
    if ideal.is_zero or f.is_constant():
        return groebner_basis(ideal)
    name = _fresh_var("_y", ideal.vars)
    vars2 = (name,) + ideal.vars
    gens2 = [g.extend_ring(vars2) for g in ideal.gens]
    y = Polynomial.variable(name, vars2)
    gens2.append(Polynomial.constant(1, vars2) - y * f.extend_ring(vars2))
    return _elimination_basis(gens2, vars2, (0,))


def _elimination_basis(gens, vars, drop) -> GroebnerBasis:
    """The ideal of ``gens`` intersected with the subring of the variables
    whose indices are not in ``drop``, as its reduced grlex basis: the
    elements of the reduced block-order basis free of the dropped
    variables (the Elimination Theorem; Cox, Little and O'Shea, ch. 3
    section 1), which the block order ranks as grlex does."""
    keep = tuple(i for i in range(len(vars)) if i not in drop)
    G = _buchberger(gens, block_order(len(vars), (drop, keep)), current_job())
    kept_vars = tuple(vars[i] for i in keep)
    kept = [g for g in G if not g.support_vars() & set(drop)]
    return GroebnerBasis(
        [g.restrict_ring(kept_vars) for g in kept], grlex(len(keep)), kept_vars
    )


def _linear_saturation(gens, vars, support) -> GroebnerBasis:
    """I : m^infty for generators of degree at most one and a monomial m
    with the given support, as its reduced grlex basis, by one ``rref``.

    A linear ideal is prime or the unit ideal, so I : m^infty is I itself
    unless m lies in I, which for a prime I means that a variable of m's
    support does; then it is the unit ideal.  The coefficient matrix has
    the columns x1, ..., xn, 1, grlex's order on monomials of degree at
    most one, so each pivot is its row's leading monomial.  A pivot in the
    constant column puts 1 in I, and an rref row equal to e_i puts x_i in
    I.  Otherwise the monic rref rows, sorted by ascending leading
    monomial, are the reduced grlex basis of I.  Each pivot counts as one
    step of the current job.
    """
    n = len(vars)
    columns = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    columns.append((0,) * n)
    red, pivots = rref([[g.terms.get(e, 0) for e in columns] for g in gens])
    current_job().tick(len(pivots))
    rows = red[: len(pivots)]
    if n in pivots or any(
        c in support and sum(map(bool, row)) == 1 for row, c in zip(rows, pivots)
    ):
        elements = [Polynomial.constant(1, vars)]
    else:
        # pivots ascend by column, so leading monomials descend
        elements = [Polynomial(dict(zip(columns, row)), vars) for row in rows[::-1]]
    return GroebnerBasis(elements, grlex(n), vars)


def saturate(ideal: Ideal, f: Polynomial) -> GroebnerBasis:
    """(I : f^infty) as its reduced grlex basis, by at most one
    elimination of y from I + (1 - y*g) and one saturation by a monomial.

    f splits into its monomial content m and the cofactor g = f/m, and
    I : f^infty = (I : g^infty) : m^infty.  Each generator of I is first
    divided by its monomial factor in the variables of m's support (a
    unit modulo the saturation), and in those only: a variable outside
    it may vanish at a point of I : f^infty.  One elimination by g runs
    when g is not constant.  Then one saturation by the squarefree
    monomial of m's support, which has the same saturation as m, runs on
    the stripped result.  It needs no run when one generator h is left:
    no variable of m divides h, so (h) : m^infty = (h) in the UFD, and
    h made monic is the basis.  When every generator has degree at most
    one, I is linear, hence prime or the unit ideal, and one ``rref``
    replaces the elimination (``_linear_saturation``).  A constant f, or the zero
    ideal, leaves I unchanged: the result is the basis of I, which is I
    itself when I already is a grlex basis.

    The critical systems of ``mle`` and ``asymptotics`` saturate by the
    product of all their saturators in one call.  Counts pass rational
    data, so their ring holds only the unknowns; a series lift builds its
    system along the data curve, so t is its one data variable.
    """
    if f.is_zero:
        raise ValueError("cannot saturate by zero")
    low = [min(column) for column in zip(*f.terms)]
    support = [i for i, x in enumerate(low) if x]
    g = f.strip_monomial()
    if not g.is_constant():
        ideal = _saturate_single(_strip(ideal, support), g)
    if not support:
        return groebner_basis(ideal)
    ideal = _strip(ideal, support)
    if len(ideal.gens) == 1:
        order = grlex(ideal.nvars)
        return GroebnerBasis([ideal.gens[0].monic(order)], order, ideal.vars)
    if ideal.gens and all(h.total_degree() <= 1 for h in ideal.gens):
        return _linear_saturation(ideal.gens, ideal.vars, support)
    m = Polynomial({tuple(int(x != 0) for x in low): Fraction(1)}, ideal.vars)
    return _saturate_single(ideal, m)


def torus_saturation(ideal: Ideal) -> GroebnerBasis:
    """I : (x_1...x_n)^infty as its reduced grlex basis, made once per
    ring and generator set in the current job; the result is recorded as
    its own saturation.  The zero ideal is its own saturation, and an
    ideal with a monomial generator saturates to the unit ideal, with no
    Groebner run; any other ideal is saturated by the torus monomial
    (``saturate``)."""
    job = current_job()

    def make():
        if ideal.is_zero or any(g.is_term() for g in ideal.gens):
            one = [Polynomial.constant(1, ideal.vars)] if ideal.gens else []
            sat = GroebnerBasis(one, grlex(ideal.nvars), ideal.vars)
        else:
            torus = Polynomial({(1,) * ideal.nvars: Fraction(1)}, ideal.vars)
            sat = saturate(ideal, torus)
        return job.once((torus_saturation, sat.vars, frozenset(sat.gens)), lambda: sat)

    return job.once((torus_saturation, ideal.vars, frozenset(ideal.gens)), make)


def _strip(ideal: Ideal, support) -> Ideal:
    """I with each generator divided by its monomial factor in the
    variables at the indices in ``support``; I itself when none has one."""
    gens = [g.strip_monomial(support) for g in ideal.gens]
    if all(s is g for s, g in zip(gens, ideal.gens)):
        return ideal
    return Ideal(gens, ideal.vars)


def eliminate(ideal: Ideal, keep) -> GroebnerBasis:
    """Intersection with the subring of the kept variables, as its reduced
    grlex basis: the kept elements of one block-order run."""
    keep = set(keep)
    drop = tuple(i for i, v in enumerate(ideal.vars) if v not in keep)
    if not drop:
        return groebner_basis(ideal)
    return _elimination_basis(list(ideal.gens), ideal.vars, drop)


# -- zero-dimensional machinery ---------------------------------------------------


def quotient_basis(G: GroebnerBasis):
    """Standard monomials of a reduced basis, 1 first; raises if
    infinite."""
    if G.is_unit:
        return []
    lts = G.leading_terms
    p = G.nvars
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

    # depth-first product over exponent ranges, pruned by divisibility; at
    # full length every leading term is tested, and the monomials come out
    # in ascending lex order
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
    return basis


def multiplication_matrix(G: GroebnerBasis, basis, var_index):
    """Matrix of multiplication by a variable on the quotient basis."""
    idx = {m: k for k, m in enumerate(basis)}
    vars = G.vars
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
    the Krylov space of ``start``, exact over Q.  For the multiplication
    matrix of an element of A = Q[x]/I and start 1, it is the element's
    minimal polynomial in A: q(M) 1 = q(element)."""
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


def _quotient_univ(a, b):
    """Exact quotient of univariate coefficient lists (ascending)."""
    a = list(a)
    db = len(b) - 1
    q = [Fraction(0)] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + db] / b[db]
        for i in range(db + 1):
            a[k + i] -= c * b[i]
    return q


def _exact_value_and_slope(a, z):
    """p(z) and p'(z) for rational coefficients ``a`` (ascending) at the
    floating point z, computed exactly and then rounded."""
    x, y = Fraction(z.real), Fraction(z.imag)
    vr = vi = dr = di = Fraction(0)
    for c in reversed(a):
        dr, di = dr * x - di * y + vr, dr * y + di * x + vi
        vr, vi = vr * x - vi * y + c, vr * y + vi * x
    return complex(vr, vi), complex(dr, di)


def complex_roots(a):
    """Roots of a squarefree univariate polynomial with rational
    coefficients (ascending, degree >= 1), in floating point.

    Aberth-Ehrlich iteration on the rounded coefficients, from points on
    a circle of the roots' size, then two Newton steps per root on the
    exact polynomial: close roots are ill-conditioned in the rounded
    coefficients, not in the exact ones.  A root that is its conjugate's
    nearest root is real and loses its imaginary part; two roots nearest
    to each other's conjugates become an exact conjugate pair.  The roots
    are sorted by real part, then imaginary part.
    """
    c = [float(x) for x in a]
    d = len(c) - 1
    c = [x / c[d] for x in c]

    def value_and_slope(z):
        v, dv = 0j, 0j
        for x in reversed(c):
            dv = dv * z + v
            v = v * z + x
        return v, dv

    radius = max(abs(c[k]) ** (1 / (d - k)) for k in range(d)) or 1.0
    angles = [2 * pi * k / d + 0.4 for k in range(d)]
    z = [radius * complex(cos(t), sin(t)) for t in angles]
    for _ in range(200):
        moved = False
        for k in range(d):
            v, dv = value_and_slope(z[k])
            pull = sum(1 / (z[k] - z[j]) for j in range(d) if j != k)
            denominator = dv - v * pull
            if v and denominator:
                step = v / denominator
                z[k] -= step
                moved = moved or abs(step) > 1e-15 * radius
        if not moved:
            break
    for k in range(d):
        for _ in range(2):
            v, dv = _exact_value_and_slope(a, z[k])
            if not (v and dv):
                break
            z[k] -= v / dv
    roots = list(z)
    mates = [
        min(range(d), key=lambda j: abs(z[j] - z[k].conjugate())) for k in range(d)
    ]
    for k, j in enumerate(mates):
        if j == k:
            roots[k] = complex(z[k].real)
        elif mates[j] == k:
            re, im = (z[k].real + z[j].real) / 2, (z[k].imag - z[j].imag) / 2
            roots[k] = complex(re, im)
    return sorted(roots, key=lambda r: (r.real, r.imag))


def squarefree_check(G: GroebnerBasis, basis) -> bool:
    """Is the zero-dimensional ideal I of G radical?  By Seidenberg's lemma
    (Cox, Little and O'Shea, *Using Algebraic Geometry*, ch. 2 sec. 2), iff
    the minimal polynomial of each variable on A = Q[x]/I is squarefree."""
    if len(basis) <= 1:
        return True
    start = [Fraction(i == 0) for i in range(len(basis))]
    for i in range(G.nvars):
        mp = minimal_polynomial(multiplication_matrix(G, basis, i), start)
        if len(poly_gcd_univ(mp, derivative_univ(mp))) > 1:
            return False
    return True


def solve_degree_one(G: GroebnerBasis):
    """Exact coordinates of the unique solution of a degree-1 system."""
    vars = G.vars
    basis = quotient_basis(G)
    if len(basis) != 1:
        raise ValueError(f"system has degree {len(basis)}, not 1")
    out = []
    for name in vars:
        r = G.normal_form(Polynomial.variable(name, vars))
        out.append(r.constant_coeff())
    return tuple(out)


def solve_zero_dim_numeric(G: GroebnerBasis):
    """Numeric solutions of a zero-dimensional system, one complex tuple
    per distinct point.

    The values of a random linear form at the points are the roots of its
    minimal polynomial on A = Q[x]/I (the univariate half of a rational
    univariate representation), found in floating point from the exact
    squarefree part.  Each root lambda gives its point through a left null
    vector w of M - lambda I, a common left eigenvector of the
    multiplication matrices: x_i = (w M_i)_k / w_k at the largest entry
    w_k.  The points come in the order of ``complex_roots``: by the form's
    value, real part first.  Each eigenvalue needs one eigenvector (n - 1
    pivots), which holds iff the minimal polynomial has degree n; the form,
    integers in [-20, 20] from the job's stream, is redrawn until it does,
    as generic forms do on reduced and curvilinear schemes, and
    ``DegenerateSample`` is raised after ``MAX_FORMS`` forms.
    """
    basis = quotient_basis(G)
    n = len(basis)
    if n == 0:
        return []
    p = G.nvars
    mats = [multiplication_matrix(G, basis, i) for i in range(p)]
    start = [Fraction(i == 0) for i in range(n)]
    rng = current_job().rng
    for _ in range(MAX_FORMS):
        coeffs = [rng.randint(-20, 20) for _ in range(p)]
        m = [
            [sum(coeffs[k] * mats[k][i][j] for k in range(p)) for j in range(n)]
            for i in range(n)
        ]
        mp = minimal_polynomial(m, start)
        if len(mp) - 1 == n:
            break
    else:
        raise DegenerateSample(f"none of {MAX_FORMS} linear forms generates Q[x]/I")
    squarefree = _quotient_univ(mp, poly_gcd_univ(mp, derivative_univ(mp)))
    mats = [[[float(x) for x in row] for row in mat] for mat in mats]
    transposed = [[float(x) for x in col] for col in zip(*m)]
    sols = []
    for lam in complex_roots(squarefree):
        shifted = [
            [x - lam if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(transposed)
        ]
        pivots, red = complex_gauss_jordan(shifted, n, n - 1)
        free = min(set(range(n)) - {c for _, c, _ in pivots})
        w = [0j] * n
        w[free] = 1 + 0j
        for r, c, _ in pivots:
            w[c] = -red[r][free]
        k = max(range(n), key=lambda i: abs(w[i]))
        sols.append(
            tuple(
                sum(w[j] * mat[j][k] for j in range(n)) / w[k] for mat in mats
            )
        )
    return sols


# -- dimension ---------------------------------------------------------------------


def ideal_dimension(ideal) -> int:
    """Affine Krull dimension via independent variable subsets of the
    leading-term ideal (-1 for the unit ideal)."""
    G = groebner_basis(ideal)
    if G.is_unit:
        return -1
    p = G.nvars
    supports = [frozenset(i for i, x in enumerate(m) if x) for m in G.leading_terms]
    for size in range(p, -1, -1):
        for S in combinations(range(p), size):
            sset = set(S)
            if not any(sup <= sset for sup in supports):
                return size
    return 0
