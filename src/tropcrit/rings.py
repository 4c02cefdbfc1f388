"""Exact multivariate (Laurent) polynomials over the rationals.

Monomials are plain int tuples (negative entries allowed for Laurent
monomials).  Polynomials map exponent tuples to nonzero Fractions and are
immutable after construction.  A term order is an integer matrix (max
convention, as used by the Groebner engine): monomials compare by their
dot products with its rows, then by their exponent tuples.  ``grlex``
and ``block_order`` build the orders the engine uses.  An order's key
of a monomial is one int, its packed form (``Packing``), which the
Groebner kernel also uses as the monomial itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul, sub

from .errors import DimensionMismatch, PolyParseError

Mono = tuple  # exponent tuple


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """True if the monomial a divides b (all exponents <=)."""
    return all(x <= y for x, y in zip(a, b))


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


# Width in bits of one exponent field of a packed monomial, and the
# exponent limit of the Groebner kernel, the field's top-but-one bit.
EXPONENT_BITS = 32
EXPONENT_LIMIT = 1 << (EXPONENT_BITS - 2)
_FIELD = (1 << EXPONENT_BITS) - 1


class Packing:
    """The packed monomials of one order on n variables.

    Variable i gets the integer weight C_i, and a monomial e packs to
    K(e) = sum e_i C_i.  C_i puts r_i in the field of each order row r
    (signed fields, the first row highest), 1 in the EXPONENT_BITS-wide
    field of e_i (e_0 highest) and 1 in the lowest field, which holds the
    total degree.  K is linear, K(e + q) = K(e) + K(q), and K(a) > K(b)
    exactly when a ranks above b: K(a) - K(b) = K(a - b) is the sum of the
    fields of a - b, each scaled by its place.  While every exponent
    difference is below 2**(EXPONENT_BITS - 1) in magnitude, each field of
    a - b is below half its field's range in magnitude (a row field is as
    many bits wider than an exponent field as the row's absolute sum has,
    and the degree field as many as n has), so the fields below one sum
    to less than one unit of it and the topmost nonzero field, a row's
    dot or an exponent, decides the sign.

    For exponents in [0, 2**(EXPONENT_BITS - 1)) the fields from the
    exponents down are the plain bits of K below ``low``, so ``unpack``
    reads them back, ``k & degree`` is the total degree, ``k & top`` is
    nonzero iff an exponent reaches EXPONENT_LIMIT, and a divides b iff
    ``((K(b) | guard) - K(a)) & guard == guard``: the guard bit on top of
    each field stays set iff that field of b is at least a's, and no
    field borrows from the next.
    """

    __slots__ = ("weights", "shifts", "low", "guard", "top", "degree")

    def __init__(self, rows, n):
        if any(len(r) != n for r in rows):
            raise DimensionMismatch(f"order rows do not match {n} variables")
        b = EXPONENT_BITS
        width = b + n.bit_length()
        s = width + n * b
        self.shifts = tuple(range(s - b, width - 1, -b))
        # one 1 at the bottom of each exponent field
        ones = ((1 << (n * b)) - 1) // ((1 << b) - 1) << width
        self.degree = (1 << width) - 1
        self.guard = (ones << (b - 1)) | (1 << (width - 1))
        self.top = ones << (b - 2)
        self.low = (1 << s) - 1
        weights = [(1 << sh) + 1 for sh in self.shifts]
        for r in reversed(rows):
            weights = [c + (x << s) for c, x in zip(weights, r)]
            s += b + sum(map(abs, r)).bit_length()
        self.weights = tuple(weights)

    def unpack(self, k) -> Mono:
        return tuple([(k >> s) & _FIELD for s in self.shifts])


class TermOrder:
    """Integer-matrix monomial order: the leading term has the max key.

    Monomials compare by their dot product with each row in turn, then by
    the exponent tuple itself, so every order is total (Robbiano, "Term
    orderings on the polynomial ring", EUROCAL 1985).  A row with
    negative entries makes a global order only on homogeneous input,
    which is the only place the engine uses one.  ``key`` is the packed
    monomial of ``packing``, which compares as this order does.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(map(tuple, rows))

    def packing(self, n) -> Packing:
        """The packing on n variables (lex, with no rows, serves any n)."""
        return _packing(self.rows, n)

    def key(self, e: Mono) -> int:
        return sum(map(mul, e, _packing(self.rows, len(e)).weights))


@lru_cache(maxsize=256)
def _packing(rows, n) -> Packing:
    """One ``Packing`` per layout: every run and every printed polynomial
    builds its order anew."""
    return Packing(rows, n)


def grlex(nvars) -> TermOrder:
    """Degree, then lexicographic on exponent tuples."""
    return TermOrder([(1,) * nvars])


def block_order(nvars, blocks) -> TermOrder:
    """Elimination order: earlier blocks dominate, degree then lex within
    each block.

    Each block gets a row of ones on its variables, and every block but
    the last also gets its unit rows; ties within the last block fall to
    the exponent tuple, i.e. lex in variable index order.
    """
    if sorted(i for blk in blocks for i in blk) != list(range(nvars)):
        raise ValueError("blocks must partition the variables")
    rows = []
    for k, blk in enumerate(blocks):
        rows.append(tuple(int(i in blk) for i in range(nvars)))
        if k < len(blocks) - 1:
            rows.extend(tuple(int(i == j) for i in range(nvars)) for j in blk)
    return TermOrder(rows)


def _integral(terms):
    """(integer terms, d): the coefficients times their common
    denominator d."""
    d = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (d // c.denominator) for e, c in terms.items()}, d


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be rational, got {type(c).__name__}")


class Polynomial:
    """Finite map from exponent tuples to nonzero rational coefficients.

    Nothing changes ``terms`` after construction, so the hash is computed
    on first use and kept: memo keys hash whole systems on every lookup.
    """

    __slots__ = ("terms", "vars", "_hash")

    def __init__(self, terms, vars):
        self.vars = tuple(vars)
        n = len(self.vars)
        clean = {}
        for e, c in terms.items():
            if len(e) != n:
                raise DimensionMismatch(
                    f"exponent tuple {e} does not match {n} variables"
                )
            c = _as_fraction(c)
            if c:
                clean[tuple(e)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls({}, vars)

    @classmethod
    def constant(cls, c, vars):
        vars = tuple(vars)
        return cls({(0,) * len(vars): _as_fraction(c)}, vars)

    @classmethod
    def variable(cls, name, vars):
        vars = tuple(vars)
        i = vars.index(name)
        e = [0] * len(vars)
        e[i] = 1
        return cls({tuple(e): Fraction(1)}, vars)

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(x == 0 for x in e) for e in self.terms)

    def is_term(self) -> bool:
        return len(self.terms) == 1

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_coeff(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def support_vars(self):
        """Indices of variables actually appearing."""
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x != 0:
                    used.add(i)
        return used

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.vars, tuple(sorted(self.terms.items()))))
            return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise DimensionMismatch(
                f"polynomials over different variables: {self.vars} vs {other.vars}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.vars)
        self._check(other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, Fraction(0)) + c
            if s:
                res[e] = s
            else:
                res.pop(e, None)
        out = Polynomial.__new__(Polynomial)
        out.terms = res
        out.vars = self.vars
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        out.terms = {e: -c for e, c in self.terms.items()}
        out.vars = self.vars
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return Polynomial.zero(self.vars)
            out = Polynomial.__new__(Polynomial)
            out.terms = {e: k * c for e, k in self.terms.items()}
            out.vars = self.vars
            return out
        self._check(other)
        # convolve integer numerators over one common denominator per
        # operand; a running sum vanishes exactly when the rational one does
        left, d1 = _integral(self.terms)
        right, d2 = _integral(other.terms)
        res = {}
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                e = mono_mul(e1, e2)
                s = res.get(e, 0) + c1 * c2
                if s:
                    res[e] = s
                else:
                    res.pop(e, None)
        d = d1 * d2
        out = Polynomial.__new__(Polynomial)
        out.terms = {e: Fraction(c, d) for e, c in res.items()}
        out.vars = self.vars
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- leading data --------------------------------------------------------

    def leading(self, order: TermOrder):
        """(monomial, coefficient) of the order-largest term."""
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def monic(self, order: TermOrder) -> "Polynomial":
        _, c = self.leading(order)
        return self * (Fraction(1) / c)

    # -- calculus / substitution ---------------------------------------------

    def derivative(self, var) -> "Polynomial":
        i = self.vars.index(var) if isinstance(var, str) else var
        res = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            res[tuple(d)] = c * e[i]
        return Polynomial(res, self.vars)

    def evaluate(self, values: dict):
        """Evaluate at scalars (Fraction / int / float / complex); every
        variable that appears needs a value, and the KeyError names the
        first missing one of the first term that has one."""
        unset = [i for i, name in enumerate(self.vars) if name not in values]
        missing = self.support_vars().intersection(unset) if unset else ()
        if missing:
            for e in self.terms:
                for i, x in enumerate(e):
                    if x and i in missing:
                        raise KeyError(f"no value for variable {self.vars[i]}")
        point = [values.get(name) for name in self.vars]
        total = 0
        for e, c in self.terms.items():
            acc = c
            for v, x in zip(point, e):
                if x:
                    acc = acc * v**x
            total = total + acc
        return total

    def extend_ring(self, vars) -> "Polynomial":
        """Reinterpret in a larger ring containing all current variables."""
        vars = tuple(vars)
        pos = [vars.index(v) for v in self.vars]
        n = len(vars)
        res = {}
        for e, c in self.terms.items():
            d = [0] * n
            for i, x in enumerate(e):
                d[pos[i]] = x
            res[tuple(d)] = c
        return Polynomial(res, vars)

    def restrict_ring(self, vars) -> "Polynomial":
        """Project to a subring; dropped variables must not appear."""
        vars = tuple(vars)
        pos = {v: i for i, v in enumerate(self.vars)}
        keep = [pos[v] for v in vars]
        dropped = set(range(len(self.vars))) - set(keep)
        res = {}
        for e, c in self.terms.items():
            if any(e[i] for i in dropped):
                raise ValueError("polynomial involves a dropped variable")
            res[tuple(e[i] for i in keep)] = c
        return Polynomial(res, vars)

    # -- Laurent / weight utilities -------------------------------------------

    def laurent_normalize(self) -> "Polynomial":
        """Clear negative exponents by multiplying with a monomial (a unit
        on the torus); returns self when already polynomial."""
        if not self.terms:
            return self
        n = len(self.vars)
        shift = [0] * n
        for e in self.terms:
            for i, x in enumerate(e):
                if x < shift[i]:
                    shift[i] = x
        if all(s == 0 for s in shift):
            return self
        up = tuple(-s for s in shift)
        return Polynomial({mono_mul(e, up): c for e, c in self.terms.items()}, self.vars)

    def strip_monomial(self, support=None) -> "Polynomial":
        """Divide by the largest monomial factor in the variables at the
        indices in ``support`` (every variable by default), a unit on the
        torus of those variables; returns self when there is none."""
        if not self.terms:
            return self
        low = [min(column) for column in zip(*self.terms)]
        if support is not None:
            low = [x if i in support else 0 for i, x in enumerate(low)]
        if not any(low):
            return self
        return Polynomial(
            {tuple(map(sub, e, low)): c for e, c in self.terms.items()}, self.vars
        )

    def weight_initial(self, w) -> "Polynomial":
        """Initial form: the terms of minimal w-weight (min convention)."""
        if not self.terms:
            return self
        weights = {e: dot(w, e) for e in self.terms}
        m = min(weights.values())
        return Polynomial(
            {e: c for e, c in self.terms.items() if weights[e] == m}, self.vars
        )

    def apply_exponent_map(self, matrix) -> "Polynomial":
        """Monomial change of coordinates: exponent e maps to matrix^T e.

        ``matrix`` is a square integer matrix whose columns give the
        exponent vectors of the old variables in the new ones.  The result
        may be Laurent; callers normalize as needed.
        """
        n = len(self.vars)
        res = {}
        for e, c in self.terms.items():
            d = tuple(sum(matrix[i][j] * e[i] for i in range(n)) for j in range(n))
            s = res.get(d, Fraction(0)) + c
            if s:
                res[d] = s
            else:
                res.pop(d, None)
        return Polynomial(res, self.vars)

    # -- printing -------------------------------------------------------------

    def _term_str(self, e, c):
        parts = []
        for name, x in zip(self.vars, e):
            if x == 1:
                parts.append(name)
            elif x != 0:
                parts.append(f"{name}^{x}")
        mono = "*".join(parts)
        if not mono:
            return str(c)
        if c == 1:
            return mono
        if c == -1:
            return f"-{mono}"
        return f"{c}*{mono}"

    def __str__(self):
        if not self.terms:
            return "0"
        key = grlex(len(self.vars)).key
        items = sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)
        out = self._term_str(*items[0])
        for e, c in items[1:]:
            s = self._term_str(e, c)
            if s.startswith("-"):
                out += " - " + s[1:]
            else:
                out += " + " + s
        return out

    def __repr__(self):
        return f"Polynomial({self})"

    # -- parsing ----------------------------------------------------------------

    @classmethod
    def parse(cls, text: str, vars) -> "Polynomial":
        return _Parser(text, tuple(vars)).parse()


class _Parser:
    """Recursive-descent parser for +, -, *, ^, parentheses and rational
    literals over declared variable names."""

    def __init__(self, text, vars):
        self.text = text
        self.vars = vars
        self.pos = 0

    def error(self, msg):
        raise PolyParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Polynomial:
        result = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return result

    def expr(self) -> Polynomial:
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            result = -self.term()
        elif ch == "+":
            self.pos += 1
            result = self.term()
        else:
            result = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                result = result + self.term()
            elif ch == "-":
                self.pos += 1
                result = result - self.term()
            else:
                return result

    def term(self) -> Polynomial:
        result = self.factor()
        while self.peek() == "*":
            self.pos += 1
            result = result * self.factor()
        return result

    def factor(self) -> Polynomial:
        base = self.base()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            neg = False
            if self.peek() == "-":
                neg = True
                self.pos += 1
            n = self.integer()
            if neg:
                if not base.is_term():
                    self.error("negative exponent on a non-monomial")
                ((e, c),) = base.terms.items()
                if abs(c) != 1:
                    self.error("negative exponent needs unit coefficient")
                return Polynomial({tuple(-n * x for x in e): c**n}, self.vars)
            return base**n
        return base

    def base(self) -> Polynomial:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return inner
        if ch == "-":
            self.pos += 1
            return -self.base()
        if ch.isdigit():
            num = self.integer()
            if self.peek() == "/":
                self.pos += 1
                den = self.integer()
                if den == 0:
                    self.error("zero denominator")
                return Polynomial.constant(Fraction(num, den), self.vars)
            return Polynomial.constant(num, self.vars)
        if ch.isalpha() or ch == "_":
            name = self.name()
            if name not in self.vars:
                self.error(f"undeclared variable {name!r}")
            return Polynomial.variable(name, self.vars)
        self.error("expected a number, variable or '('")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


def poly_parse(text: str, vars) -> Polynomial:
    """Parse an expression into a canonical term map (round-trips through str)."""
    return Polynomial.parse(text, vars)
