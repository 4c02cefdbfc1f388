"""Exact linear algebra over the rationals and integer lattice utilities.

``rref``, and with it nullspace, solve and inverse, eliminates
fraction-free on primitive integer rows (``integer_rref``) and returns
Fractions; ``rank`` counts the pivots of ``integer_rref`` directly.  A
span kept as its echelon rows grows one vector at a time
(``extend_echelon``) and reduces vectors modulo itself
(``echelon_residue``) in integers.  ``complex_gauss_jordan`` is the one
floating routine: pivoted elimination for the inverses and null vectors of
floating branch seeds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


_ZERO = Fraction(0)


def integer_row(row):
    """A row of exact numbers (ints, Fractions, floats) as the primitive
    integer row on its line: times the lcm of its denominators, divided by
    the gcd of its entries.  A zero row stays zero."""
    ratios = [x.as_integer_ratio() for x in row]
    d = lcm(*(q for _, q in ratios))
    return _primitive([n * (d // q) for n, q in ratios])


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def integer_rref(rows):
    """Reduced row echelon form of integer rows up to row scaling; returns
    (rows, pivot_columns), each row a primitive integer multiple of the
    row of the reduced form, and the rows past the last pivot row zero.

    Fraction-free on integer rows, each divided by its content first.
    Clearing entry x of row i against pivot a of row r replaces row i by
    (a/h) row_i - (x/h) row_r, h = gcd(a, x), and divides out its content.
    """
    m = [_primitive(row) for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        a = prow[c]
        for i in range(len(m)):
            x = m[i][c]
            if i != r and x:
                h = gcd(a, x)
                ai, xi = a // h, x // h
                m[i] = _primitive([ai * u - xi * v for u, v in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rref(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns).

    The rows (ints, Fractions or floats, taken exactly) are scaled to
    integer rows (``integer_row``) and eliminated by ``integer_rref``;
    each pivot row is divided by its pivot once, at the end, into
    Fractions, and the result is the unique reduced form.
    """
    m, pivots = integer_rref([integer_row(row) for row in rows])
    if not m:
        return [], []
    ncols = len(m[0])
    # rows past the last pivot row are zero
    out = [
        [Fraction(x, row[c]) if x else _ZERO for x in row]
        for row, c in zip(m, pivots)
    ]
    out += [[_ZERO] * ncols for _ in range(len(m) - len(pivots))]
    return out, pivots


def rank(rows) -> int:
    """The number of pivots of ``integer_rref`` on the rows as
    ``integer_row``s."""
    return len(integer_rref([integer_row(row) for row in rows])[1])


def nullspace(rows, ncols=None):
    """Basis of {x : A x = 0} as Fraction tuples."""
    if not rows:
        if ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return [tuple(Fraction(i == j) for j in range(ncols)) for i in range(ncols)]
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def solve_linear(rows, rhs):
    """One solution of A x = b (free variables set to 0), or None."""
    if not rows:
        return None
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None  # inconsistent: pivot in the constant column
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def inverse(rows):
    """Exact inverse, or None if singular."""
    n = len(rows)
    aug = [
        list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)
    ]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def mat_vec(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


# -- floating complex elimination ---------------------------------------------


def complex_gauss_jordan(rows, ncols, steps):
    """Gauss-Jordan elimination of complex rows with complete pivoting.

    Takes up to ``steps`` pivots from the first ``ncols`` columns, each the
    entry of largest modulus among the rows and columns not pivoted yet,
    and stops early at an exact zero.  Returns (pivots, m): the (row,
    column, pivot value) triples in turn, and the reduced rows, each pivot
    row divided by its pivot and its pivot column cleared in every other
    row.
    """
    m = [[complex(x) for x in row] for row in rows]
    rows_left = list(range(len(m)))
    cols_left = list(range(ncols))
    pivots = []
    for _ in range(min(steps, len(rows_left), ncols)):
        r, c = max(
            ((i, j) for i in rows_left for j in cols_left),
            key=lambda ij: abs(m[ij[0]][ij[1]]),
        )
        a = m[r][c]
        if not a:
            break
        prow = m[r] = [x / a for x in m[r]]
        for i, row in enumerate(m):
            x = row[c]
            if i != r and x:
                m[i] = [u - x * v for u, v in zip(row, prow)]
        rows_left.remove(r)
        cols_left.remove(c)
        pivots.append((r, c, a))
    return pivots, m


# -- integer lattice helpers ---------------------------------------------------


def vec_gcd(v) -> int:
    return gcd(*v)


def make_primitive(v):
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def sign_normalize(v):
    """A nonzero vector as a tuple, negated if its first nonzero entry is
    negative."""
    for x in v:
        if x > 0:
            return tuple(v)
        if x < 0:
            return tuple(-y for y in v)
    raise ValueError("zero normal vector")


def echelon_residue(space, v):
    """v reduced modulo the span of the echelon rows ``space`` (as
    ``extend_echelon`` keeps them): zero exactly when v lies in the span,
    else a positive integer multiple of the one vector of v + span that
    vanishes at every pivot."""
    for c, row in space:
        if v[c]:
            v = [row[c] * x - v[c] * y for x, y in zip(v, row)]
    return v


def extend_echelon(space, v):
    """The echelon rows of the span of ``space`` and the integer vector v;
    ``space`` itself when v lies in it.

    A span is a tuple of (pivot, row) pairs sorted by pivot: its reduced
    echelon rows, each a primitive integer row with a positive pivot,
    which the span determines.  The residue of v, made primitive and
    sign-normalized, is the new row, and its pivot is cleared from the
    others.  Read as the equations of a subspace, the result is the
    subspace on the hyperplane v.w = 0.
    """
    v = echelon_residue(space, v)
    if not any(v):
        return space
    v = sign_normalize(make_primitive(v))
    lead = next(i for i, x in enumerate(v) if x)
    a = v[lead]
    out = [(lead, v)]
    for c, row in space:
        if row[lead]:
            row = make_primitive([a * x - row[lead] * y for x, y in zip(row, v)])
        out.append((c, row))
    return tuple(sorted(out))


def unimodular_completion(v):
    """Integer matrix B with det +-1 and first column the primitive vector v.

    Works by reducing v to e1 with elementary integer row operations U and
    returning B = U^-1; columns 2..p complete v to a lattice basis.
    """
    v = list(v)
    p = len(v)
    if vec_gcd(v) != 1:
        raise ValueError("unimodular completion needs a primitive vector")
    u = [[1 if i == j else 0 for j in range(p)] for i in range(p)]
    w = list(v)

    def rowop(i, j, q):
        # w[i] -= q*w[j], same on U
        w[i] -= q * w[j]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    while True:
        nz = [i for i in range(p) if w[i] != 0]
        if len(nz) == 1:
            k = nz[0]
            if k != 0:
                w[0], w[k] = w[k], w[0]
                u[0], u[k] = u[k], u[0]
            if w[0] < 0:
                w[0] = -w[0]
                u[0] = [-a for a in u[0]]
            break
        k = min(nz, key=lambda i: abs(w[i]))
        for i in nz:
            if i != k:
                rowop(i, k, w[i] // w[k])
    assert w[0] == 1
    inv = inverse(u)
    b = [[int(x) for x in row] for row in inv]
    assert all(b[i][0] == v[i] for i in range(p))
    return b
