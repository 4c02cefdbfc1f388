"""Truncated Laurent series in one parameter t.

Coefficients are exact Fractions or floating (complex) numbers; a series
is tagged exact only while every coefficient is rational.  The field
``truncation_order`` is the first unknown exponent: a series knows its
coefficients for exponents valuation .. truncation_order-1 and prints as
``c_v*t^v + ... + O(t^N)``.

``poly_eval_series`` evaluates a polynomial at complete series.
``RelaxedEvaluator`` evaluates a polynomial system in (X, t), t the
ring's last variable, at power series for X whose coefficients arrive one
at a time, as in a Hensel lift or a lazy read of a valuation: it computes
the newest coefficient of each power and term provisionally, and once
more when it is final, and keeps it (relaxed evaluation; van der Hoeven,
"Relax, but don't be too lazy", JSC 2002).  A power of t is a
shift of the coefficient index, not a product.  Both do the same floating
arithmetic, up to additions of exact zeros, in the same order, so their
floating results agree bit for bit.  Their
exact arithmetic is over the integers: a rational is a (numerator,
denominator) pair, and each convolution, like each sum of terms in the
evaluator, is summed as integer numerators over a common denominator
and normalised once per coefficient (``_dot``, ``_sum``).  ``Fraction``
arithmetic would normalise after every product and every partial sum,
which is most of the cost of an exact lift; the evaluator keeps pairs in
its nodes and builds a ``Fraction`` only for the coefficients it
returns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import SeriesInversionError
from .rings import Polynomial

_EXACT_TYPES = (int, Fraction)


def _pairs(values):
    """(numerator, denominator) pairs of rational values."""
    return [(v.numerator, v.denominator) for v in values]


def _sum(pairs):
    """Sum of (numerator, denominator) pairs as one normalised pair."""
    n, d = 0, 1
    for a, e in pairs:
        if e == d:
            n += a
        else:
            m = lcm(d, e)
            n = n * (m // d) + a * (m // e)
            d = m
    g = gcd(n, d)
    return n // g, d // g


def _dot(left, right):
    """Sum of a*b over the terms of two sequences of pairs, as one
    normalised pair."""
    n, d = 0, 1
    for (an, ad), (bn, bd) in zip(left, right):
        if an and bn:
            e = ad * bd
            if e == d:
                n += an * bn
            else:
                m = lcm(d, e)
                n = n * (m // d) + an * bn * (m // e)
                d = m
    g = gcd(n, d)
    return n // g, d // g


class LaurentSeries:
    __slots__ = ("valuation", "coeffs", "truncation_order", "exact")

    def __init__(self, valuation: int, coeffs, truncation_order: int):
        coeffs = list(coeffs)
        if truncation_order - valuation != len(coeffs):
            raise ValueError("coefficient list does not match truncation window")
        # strip leading exact zeros so the valuation is honest
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            valuation += 1
        exact = all(isinstance(c, _EXACT_TYPES) for c in coeffs)
        if exact:
            coeffs = [Fraction(c) for c in coeffs]
        self.valuation = valuation if coeffs else truncation_order
        self.coeffs = tuple(coeffs)
        self.truncation_order = truncation_order
        self.exact = exact

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, truncation_order: int) -> "LaurentSeries":
        return cls(truncation_order, [], truncation_order)

    @classmethod
    def from_scalar(cls, c, truncation_order: int) -> "LaurentSeries":
        return cls(0, [c] + [0] * (truncation_order - 1), truncation_order) if truncation_order > 0 else cls.zero(truncation_order)

    @classmethod
    def t_power(cls, k: int, truncation_order: int) -> "LaurentSeries":
        if truncation_order <= k:
            return cls.zero(truncation_order)
        return cls(k, [1] + [0] * (truncation_order - k - 1), truncation_order)

    @classmethod
    def from_polynomial(cls, p: Polynomial, truncation_order: int) -> "LaurentSeries":
        """Univariate (Laurent) polynomial in one variable, typically t."""
        if len(p.vars) != 1:
            raise ValueError("series conversion needs a univariate polynomial")
        if p.is_zero:
            return cls.zero(truncation_order)
        val = min(e[0] for e in p.terms)
        coeffs = [Fraction(0)] * (truncation_order - val)
        for (k,), c in p.terms.items():
            if k < truncation_order:
                coeffs[k - val] = c
        return cls(val, coeffs, truncation_order)

    # -- queries ----------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int):
        """Coefficient of t^k; k must be below the truncation order."""
        if k >= self.truncation_order:
            raise IndexError(f"coefficient t^{k} beyond truncation O(t^{self.truncation_order})")
        if k < self.valuation:
            return Fraction(0)
        return self.coeffs[k - self.valuation]

    def leading(self):
        if self.is_zero:
            raise ValueError("zero series has no leading coefficient")
        return self.coeffs[0]

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and self.valuation == other.valuation
            and self.truncation_order == other.truncation_order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.valuation, self.coeffs, self.truncation_order))

    # -- arithmetic ---------------------------------------------------------------

    def __neg__(self):
        return LaurentSeries(self.valuation, [-c for c in self.coeffs], self.truncation_order)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            other = LaurentSeries.from_scalar(other, self.truncation_order)
        order = min(self.truncation_order, other.truncation_order)
        if self.is_zero and other.is_zero:
            return LaurentSeries.zero(order)
        val = min(
            [s.valuation for s in (self, other) if not s.is_zero] or [order]
        )
        val = min(val, order)
        coeffs = []
        for k in range(val, order):
            a = self.coeff(k) if k < self.truncation_order else 0
            b = other.coeff(k) if k < other.truncation_order else 0
            coeffs.append(a + b)
        return LaurentSeries(val, coeffs, order)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            other = LaurentSeries.from_scalar(other, self.truncation_order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "LaurentSeries":
        if c == 0:
            return LaurentSeries.zero(self.truncation_order)
        return LaurentSeries(self.valuation, [c * x for x in self.coeffs], self.truncation_order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            return self.scale(other)
        if self.is_zero or other.is_zero:
            # valuation of an (unknown) tail still bounds the product window
            order = min(
                self.truncation_order + other.valuation,
                other.truncation_order + self.valuation,
            )
            return LaurentSeries.zero(order)
        order = min(
            self.truncation_order + other.valuation,
            other.truncation_order + self.valuation,
        )
        val = self.valuation + other.valuation
        n = order - val
        if self.exact and other.exact:
            a, b = _pairs(self.coeffs), _pairs(other.coeffs)
            return LaurentSeries(
                val, [Fraction(*_dot(a, b[k::-1])) for k in range(n)], order
            )
        acc = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                k = i + j
                if k >= n:
                    break
                acc[k] = acc[k] + a * b
        return LaurentSeries(val, acc, order)

    __rmul__ = __mul__

    def invert(self) -> "LaurentSeries":
        """Multiplicative inverse; requires a nonzero leading coefficient."""
        if self.is_zero:
            raise SeriesInversionError("cannot invert the zero series")
        lead = self.coeffs[0]
        n = len(self.coeffs)
        one = Fraction(1) if self.exact else 1.0
        inv = [one / lead]
        for k in range(1, n):
            s = 0
            for j in range(1, k + 1):
                s = s + self.coeffs[j] * inv[k - j] if j < n else s
            inv.append(-s / lead)
        return LaurentSeries(-self.valuation, inv, -self.valuation + n)

    def __pow__(self, k: int) -> "LaurentSeries":
        if k == 0:
            return LaurentSeries.from_scalar(1, self.truncation_order - self.valuation)
        base = self if k > 0 else self.invert()
        k = abs(k)
        result = base
        for _ in range(k - 1):
            result = result * base
        return result

    # -- printing --------------------------------------------------------------

    def __str__(self):
        if self.is_zero:
            return f"O(t^{self.truncation_order})"
        out = ""
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            k = self.valuation + i
            body = str(c)
            neg = body.startswith("-")
            if neg:
                body = body[1:]
            if k != 0:
                power = "t" if k == 1 else f"t^{k}"
                body = power if body == "1" else f"{body}*{power}"
            if not out:
                out = f"-{body}" if neg else body
            else:
                out += f" - {body}" if neg else f" + {body}"
        return f"{out} + O(t^{self.truncation_order})"

    def __repr__(self):
        return f"LaurentSeries({self})"


def poly_eval_series(f: Polynomial, env: dict, truncation_order: int) -> LaurentSeries:
    """Evaluate a (Laurent) polynomial at series values for its variables.

    Variables may carry negative exponents; those invert the series value.
    """
    total = LaurentSeries.zero(truncation_order)
    powers = {}
    for e, c in f.terms.items():
        acc = LaurentSeries.from_scalar(c, truncation_order)
        for i, name in enumerate(f.vars):
            if e[i] == 0:
                continue
            key = (name, e[i])
            if key not in powers:
                powers[key] = env[name] ** e[i]
            acc = acc * powers[key]
        total = total + acc
    return total


_CONSTANT, _SCALE, _PRODUCT, _SUM, _PAIRS, _FRACTION = range(6)


class RelaxedEvaluator:
    """Polynomials in (X, t) evaluated at power series for X whose
    coefficients arrive one at a time.

    t is the last variable of the polynomials' ring and stands for the
    series parameter itself.  ``inputs`` maps each other variable to the
    caller's list of its coefficients c_0, c_1, ...; the evaluator reads
    the lists in place, so the caller may fill them in as a lift
    proceeds.  ``scalar`` (``Fraction``, ``complex`` or ``float``, the
    type of the input coefficients) converts the polynomial coefficients
    once.  Exponents must be nonnegative.

    The arithmetic is that of ``poly_eval_series`` at t's series t.  One
    node per power x^e is the left fold x^(e-1) * x, shared by all the
    polynomials; one node per term prefix c * x^a * y^b ... multiplies in
    the variable order of the ring; a term c * X^a * t^e is the node of
    c * X^a (or the constant c) read with its index shifted by e, and a
    polynomial sums its terms in dict order.  A product's coefficient k is
    the convolution ``LaurentSeries.__mul__`` computes: ascending index of
    the left factor, zero left factors skipped, summed from zero.  Its
    product by t^e would add only exact-zero products to that sum besides
    the shifted coefficient, and a sum that starts from +0 never holds -0,
    so reading the shifted coefficient gives the same bits.  With
    ``scalar=Fraction`` the nodes hold (numerator, denominator) pairs: one
    node per variable reads the caller's coefficients as pairs, a
    product's and a polynomial's coefficients are ``_dot`` and ``_sum`` of
    pairs, and one node per polynomial turns its pairs into the
    ``Fraction``s returned.  The ``complex`` and ``float`` paths keep the
    arithmetic and order above.

    Every node keeps the coefficients it computed.  The last of them is
    provisional, because the caller may still change that coefficient of
    an input (a lift computes residual k with x_k still 0); the next call
    recomputes it, final by then, and goes on from there.
    """

    def __init__(self, polys, inputs, scalar):
        self._exact = scalar is Fraction
        self._zero = (0, 1) if self._exact else scalar(0)
        convert = (lambda c: (c.numerator, c.denominator)) if self._exact else scalar
        self._inputs = list(inputs.values())
        self._nodes = []  # (kind, left, right, out), in dependency order
        self._polys = []  # (out, indices of the nodes it needs)
        self._schedules = {}  # which -> sorted indices of the nodes it needs
        powers = {}  # (variable, e) -> (out, indices of the nodes it needs)
        for f in polys:
            needs = set()
            terms = []  # (out of c * X^a, shift e)
            for e, c in f.terms.items():
                if any(x < 0 for x in e):
                    raise ValueError("relaxed evaluation needs nonnegative exponents")
                chain = None
                for name, x in zip(f.vars[:-1], e):
                    if x:
                        power = self._power(name, inputs[name], x, powers, needs)
                        if chain is None:
                            chain = self._node(_SCALE, convert(c), power, needs)
                        else:
                            chain = self._node(_PRODUCT, chain, power, needs)
                if chain is None:
                    chain = self._node(_CONSTANT, convert(c), None, needs)
                terms.append((chain, e[-1]))
            out = self._node(_SUM, terms, None, needs)
            if self._exact:
                out = self._node(_FRACTION, out, None, needs)
            self._polys.append((out, needs))

    def _node(self, kind, left, right, needs):
        out = []
        needs.add(len(self._nodes))
        self._nodes.append((kind, left, right, out))
        return out

    def _power(self, name, base, e, powers, needs):
        """x^e as a left fold of products by x, one node per exponent;
        x^1 is the caller's list, or with exact scalars the node of its
        pairs."""
        if (name, e) not in powers:
            own = set()
            if e > 1:
                prev = self._power(name, base, e - 1, powers, own)
                x = self._power(name, base, 1, powers, own)
                out = self._node(_PRODUCT, prev, x, own)
            elif self._exact:
                out = self._node(_PAIRS, base, None, own)
            else:
                out = base
            powers[name, e] = (out, own)
        out, own = powers[name, e]
        needs |= own
        return out

    def coefficients(self, n, which=None):
        """Coefficients 0 .. n-1 of the polynomials numbered in ``which``
        (all by default), one list per polynomial.

        The input coefficients below n-1 must be final; coefficient n-1 is
        provisional until the next call.
        """
        if any(len(c) < n for c in self._inputs):
            raise ValueError(f"every input needs {n} coefficients")
        which = range(len(self._polys)) if which is None else tuple(which)
        schedule = self._schedules.get(which)
        if schedule is None:
            needs = set().union(*(self._polys[i][1] for i in which))
            schedule = self._schedules[which] = sorted(needs)
        zero = self._zero
        exact = self._exact
        for index in schedule:
            kind, left, right, out = self._nodes[index]
            start = max(min(len(out), n) - 1, 0)
            del out[start:]
            span = range(start, n)
            if kind == _PRODUCT:
                if exact:
                    out.extend([_dot(left, right[k::-1]) for k in span])
                    continue
                for k in span:
                    s = zero
                    for a, b in zip(left, right[k::-1]):
                        if a:
                            s = s + a * b
                    out.append(s)
            elif kind == _SCALE:
                if exact:
                    cn, cd = left
                    for k in span:
                        rn, rd = right[k]
                        g = gcd(cn * rn, cd * rd)
                        out.append((cn * rn // g, cd * rd // g))
                else:
                    out.extend([zero + left * right[k] for k in span])
            elif kind == _SUM:
                if exact:
                    for k in span:
                        out.append(_sum([term[k - e] for term, e in left if k >= e]))
                    continue
                for k in span:
                    s = zero
                    for term, e in left:
                        if k >= e:
                            s = s + term[k - e]
                    out.append(s)
            elif kind == _PAIRS:
                out.extend(_pairs(left[start:n]))
            elif kind == _FRACTION:
                out.extend([Fraction(*left[k]) for k in span])
            else:
                out.extend([left if k == 0 else zero for k in span])
        return [self._polys[i][0][:n] for i in which]
