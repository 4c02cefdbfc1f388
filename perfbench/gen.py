"""Seeded input generators: essential line arrangements and data curves.

Everything here is stdlib-only and deterministic in the ``random.Random``
passed in, so one benchmark seed always yields byte-identical inputs.  It
does not use tropcrit's own linear algebra, so a defect in the program
cannot bend the preconditions that the generated inputs must meet.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

COEFF_RANGE = (-2, 2)


def rank(rows) -> int:
    """Rank of a small rational matrix by fraction-exact elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def central_vectors(matrix):
    """Functionals of the projective closure; the line at infinity is last."""
    return [list(row) for row in matrix] + [[0] * (len(matrix[0]) - 1) + [1]]


def is_essential(matrix) -> bool:
    """Rows [a_1, .., a_n, c] with full-rank functionals, no zero functional
    and no two proportional rows."""
    n = len(matrix[0]) - 1
    if any(not any(row[:n]) for row in matrix):
        return False
    if any(rank([r1, r2]) < 2 for r1, r2 in combinations(matrix, 2)):
        return False
    return rank([row[:n] for row in matrix]) == n


def is_connected(vectors) -> bool:
    """Matroid connectivity: no proper split S | E-S with r(S) + r(E-S) = r(E)."""
    total = rank(vectors)
    idx = range(len(vectors))
    for k in range(1, len(vectors)):
        for part in combinations(idx, k):
            rest = [vectors[i] for i in idx if i not in part]
            if rank([vectors[i] for i in part]) + rank(rest) == total:
                return False
    return True


def line_type(matrix) -> tuple:
    """Combinatorial type of a line arrangement's projective closure: the
    sorted (size, meets infinity) of every point where three or more of its
    lines meet.  Parallel lines meet on the line at infinity."""
    vectors = central_vectors(matrix)
    inf = len(vectors) - 1
    points = set()
    for i, j in combinations(range(len(vectors)), 2):
        pair = [vectors[i], vectors[j]]
        flat = frozenset(
            k for k in range(len(vectors)) if rank(pair + [vectors[k]]) == 2
        )
        if len(flat) >= 3:
            points.add(flat)
    return tuple(sorted((len(f), inf in f) for f in points))


def arrangement(rng, nlines: int, kind: tuple) -> dict:
    """Spec of an essential, indecomposable affine line arrangement of the
    given ``line_type``, integer coefficients drawn from COEFF_RANGE."""
    lo, hi = COEFF_RANGE
    while True:
        rows = []
        while len(rows) < nlines:
            row = [rng.randint(lo, hi) for _ in range(3)]
            if any(row[:2]) and all(rank([row, r]) == 2 for r in rows):
                rows.append(row)
        if (
            is_essential(rows)
            and line_type(rows) == kind
            and is_connected(central_vectors(rows))
        ):
            return {
                "kind": "arrangement",
                "variables": ["x", "y"],
                "matrix": rows,
                "projective_closure": True,
            }


def _dot(u, v):
    return sum(Fraction(a) * b for a, b in zip(u, v))


def curve_ok(value0, velocity, ray, rays) -> bool:
    """alpha(t) = value0 + t*velocity meets the slope hyperplane of ``ray``
    transversely at t = 0, lies on no other slope hyperplane at t = 0, and
    crosses none of them at t > 0 (where the CLI samples genericity)."""
    if _dot(value0, ray) != 0 or _dot(velocity, ray) == 0:
        return False
    for other in rays:
        if tuple(other) == tuple(ray):
            continue
        a, b = _dot(value0, other), _dot(velocity, other)
        if a == 0 or (b != 0 and -a / b > 0):
            return False
    return True


def curve_on_ray(rng, ray, rays) -> dict:
    """Linear data curve whose value at t = 0 lies on exactly the slope
    hyperplane of ``ray``, entering it transversely."""
    p = len(ray)
    pivot = next(i for i, x in enumerate(ray) if x)
    while True:
        value0 = [Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(p)]
        rest = sum(value0[i] * ray[i] for i in range(p) if i != pivot)
        value0[pivot] = -rest / ray[pivot]
        velocity = [rng.randint(-3, 3) for _ in range(p)]
        if curve_ok(value0, velocity, ray, rays):
            return {"components": [_linear(a, b) for a, b in zip(value0, velocity)]}


def _linear(a, b) -> str:
    if b == 0:
        return str(a)
    tail = f"{b}*t" if b not in (1, -1) else ("t" if b == 1 else "-t")
    if a == 0:
        return tail
    return f"{a}+{tail}" if b > 0 else f"{a}{tail}"
