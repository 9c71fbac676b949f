"""Exact dense linear algebra over Fraction vectors.

Vectors are tuples of Fraction, matrices are tuples of row tuples. Sizes
here are desk scale (dim <= 16, a few dozen rows), so clarity and
exactness beat asymptotics. The three hot loops do not run through
here: the double description step over hundreds of rays keeps its rays
as integer tuples (cones.enumerate_rays), the simplex keeps each tableau
row as integers over one denominator (lp.solve_lp), and membership
tests each facet as an integer row against the vector cleared to
integers (cones.ConeRep.contains).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatchError
from .scalars import exactify

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(values) -> Vec:
    return tuple(exactify(v) for v in values)


def mat(rows) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionMismatchError("ragged matrix")
    return out


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def dot(a: Vec, b: Vec) -> Fraction:
    if len(a) != len(b):
        raise DimensionMismatchError(f"dot of lengths {len(a)} and {len(b)}")
    return sum((x * y for x, y in zip(a, b)), ZERO)


def combination(weights: Sequence[Fraction], vectors: Sequence[Vec]) -> Vec:
    """sum_j weights[j] * vectors[j]; one weight per vector, one length."""
    if len(weights) != len(vectors):
        raise DimensionMismatchError(
            f"{len(weights)} weights for {len(vectors)} vectors")
    return tuple(sum((w * x for w, x in zip(weights, column)), ZERO)
                 for column in zip(*vectors, strict=True))


def proportion(x: Vec, y: Vec) -> Fraction:
    """The c of x = c.y, read at y's first largest-magnitude entry."""
    j = max(range(len(y)), key=lambda i: abs(y[i]))
    return x[j] / y[j]


def zeros(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def identity(n: int) -> Mat:
    return tuple(unit_vec(n, i) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def matvec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def matmul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    rows = [list(r) for r in m]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def nullspace(m: Mat) -> tuple[Vec, ...]:
    """Basis of {x : m @ x = 0}, one vector per free column."""
    if not m:
        return ()
    ncols = len(m[0])
    reduced, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def inverse(m: Mat) -> Mat | None:
    """Matrix inverse, or None when singular."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatchError("inverse of a non-square matrix")
    aug = tuple(row + unit_vec(n, i) for i, row in enumerate(m))
    reduced, pivots = rref(aug)
    if len(pivots) != n or any(p >= n for p in pivots):
        return None
    return tuple(row[n:] for row in reduced)


def integer_row(v: Vec) -> tuple[tuple[int, ...], Fraction]:
    """Coprime integers r and a positive scale c with v = c * r; r is all
    zero, and c one over the common denominator, when v is zero.

    Float-embedded data has power-of-two denominators, so the lcm stays
    small and this is cheap even for trig coordinates.
    """
    d = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (d // x.denominator) for x in v]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints), Fraction(g, d)


def canonical_ray(v: Vec) -> Vec:
    """Scale a nonzero vector to coprime integers, preserving direction."""
    return tuple(map(Fraction, integer_row(v)[0]))


def lex_key(v: Vec) -> tuple:
    return tuple((x.numerator, x.denominator) for x in v)
