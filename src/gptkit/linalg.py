"""Exact dense linear algebra over Fraction vectors.

Vectors are tuples of Fraction, matrices are tuples of row tuples. Sizes
here are desk scale (dim <= 16, a few dozen rows). Elimination runs on
every cone's rank check and on the base of each double description, so
it works on integers: each row is cleared to coprime integers
(integer_row) and eliminated fraction-free with one gcd division per
row. rank and cones.independent_subset read the pivot columns only,
and inverse_rays the base rays of a double description, the inverse's
columns as coprime rows; none of them makes a Fraction. rref, and
through it nullspace and inverse, turns the rows back into Fractions
for the callers that want exact vectors: the circuits of
cones.partition_rays, a simplex factor's rays (cones.ConeRep.facet_rays)
and the protocols' and spaces' matrix inverses. Every exact pairing
(dot, and so matvec and matmul, and each coordinate of combination)
adds numerator products over one running denominator and makes one
Fraction per result. The other hot loops keep integers of their own:
double description its normals (canonical_ray) and rays, returned as
int tuples that the cone keeps as a side's rows (cones.enumerate_rays),
the simplex each tableau row over its basic entry, on columns cleared
once by integer_row (lp.solve_lp), membership each facet row
(cones.ConeRep.contains), positivity each image of a generator under a
matrix cleared once by integer_row (cones.maps_into, on those facet
rows, and on the composite checks' integer matrices at their rows'
scales), and scalars.close each within-eps comparison. An int row
passes as a vector.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatchError, InvalidInputError
from .scalars import exactify

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(values) -> Vec:
    try:
        items = iter(values)
    except TypeError:
        raise InvalidInputError(
            f"expected a sequence of numbers, got {values!r}") from None
    return tuple(exactify(v) for v in items)


def mat(rows) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionMismatchError("ragged matrix")
    return out


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def _pair(a, b) -> Fraction:
    """sum_i a[i] * b[i] of rationals, as integers: numerator products are
    added over one running denominator (rescaled through one gcd when a
    term's denominator differs from it), and one Fraction is made at the
    end, canonical like the Fraction sum."""
    num, den = 0, 1
    for x, y in zip(a, b):
        d = x.denominator * y.denominator
        if d == den:
            num += x.numerator * y.numerator
        else:
            g = gcd(den, d)
            num = num * (d // g) + x.numerator * y.numerator * (den // g)
            den = den // g * d
    return Fraction(num, den)


def dot(a: Vec, b: Vec) -> Fraction:
    if len(a) != len(b):
        raise DimensionMismatchError(f"dot of lengths {len(a)} and {len(b)}")
    return _pair(a, b)


def combination(weights: Sequence[Fraction], vectors: Sequence[Vec]) -> Vec:
    """sum_j weights[j] * vectors[j]; one weight per vector, one length."""
    if len(weights) != len(vectors):
        raise DimensionMismatchError(
            f"{len(weights)} weights for {len(vectors)} vectors")
    return tuple(_pair(weights, column)
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


def _eliminate(m: Mat) -> tuple[list[list[int]], tuple[int, ...]]:
    """Gauss-Jordan on coprime integer rows: the eliminated rows and the
    pivot column indices. Scaling a row by a nonzero constant leaves the
    RREF unchanged, so each row is cleared to integers once and
    eliminated fraction-free (p * row - f * pivot row, then divided by
    its gcd); row r then holds pivot r's row of the RREF times its pivot.
    """
    rows = [list(integer_row(v)[0]) for v in m]
    pivots: list[int] = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = _combine(p, row, f, top)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, tuple(pivots)


def _primitive(row: list[int]) -> list[int]:
    """An integer row over the gcd of its entries; a zero row as it is."""
    g = gcd(*row)
    return row if g < 2 else [x // g for x in row]


def _combine(p: int, row, f: int, other) -> list[int]:
    """The fraction-free step p * row - f * other, made primitive."""
    return _primitive([p * x - f * y for x, y in zip(row, other)])


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices: _eliminate's
    rows, each pivot row divided by its pivot, the rest zero."""
    rows, pivots = _eliminate(m)
    if not rows:
        return (), ()
    reduced = [tuple(Fraction(x, row[c]) if x else ZERO for x in row)
               for row, c in zip(rows, pivots)]
    reduced += [zeros(len(rows[0]))] * (len(rows) - len(pivots))
    return tuple(reduced), pivots


def rank(m: Mat) -> int:
    return len(_eliminate(m)[1])


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


def inverse_rays(m) -> tuple[tuple[int, ...], ...] | None:
    """The coprime integer row of each column of m's inverse, in column
    order (canonical_ray of inverse's columns), or None when m is
    singular. One fraction-free elimination of [m | I] leaves row i as
    (p_i e_i | p_i times row i of the inverse), so column j is the right
    blocks' entries j over their pivots, cleared by the pivots' lcm."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatchError("inverse of a non-square matrix")
    rows, pivots = _eliminate(
        [tuple(row) + tuple(int(i == j) for j in range(n))
         for i, row in enumerate(m)])
    if pivots != tuple(range(n)):
        return None
    heads = [row[i] for i, row in enumerate(rows)]
    d = lcm(*heads)
    factors = [d // p for p in heads]  # exact, and of p's sign
    return tuple(tuple(_primitive([f * row[n + j]
                                   for f, row in zip(factors, rows)]))
                 for j in range(n))


def integer_row(v: Vec) -> tuple[tuple[int, ...], Fraction]:
    """Coprime integers r and a positive scale c with v = c * r; r is all
    zero, and c one over the common denominator, when v is zero.

    Float-embedded data has power-of-two denominators, so the lcm stays
    small and this is cheap even for trig coordinates.
    """
    d = lcm(*[x.denominator for x in v])
    if d == 1:
        ints = [x.numerator for x in v]
    else:
        ints = [x.numerator * (d // x.denominator) for x in v]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    elif d == 1:
        return tuple(ints), ONE
    return tuple(ints), Fraction(g or 1, d)


def canonical_ray(v: Vec) -> tuple[int, ...]:
    """The coprime integer row of a nonzero vector, preserving direction:
    the one row normalisation of double description."""
    return integer_row(v)[0]
