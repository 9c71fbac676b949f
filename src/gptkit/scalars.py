"""Scalar layer: exact rationals inside, floats at the boundary.

All geometry in this package runs on fractions.Fraction. Spaces tagged
"float" embed their data exactly (Fraction(float) is lossless; float
denominators are powers of two) and convert back to floats only when a
value leaves the library. Tolerances therefore matter in exactly one
place: predicates over float-mode spaces, which compare against EPS
instead of zero. tolerance_for picks that slack and close applies it to
every two-sided comparison (close_rows, on vectors already cleared to
integer rows). Values cross the boundary here: exactify
reads every input scalar and emit writes every output one;
rows_emit_exactly says whether emit's output of a side held as integer
rows reads back as the same value.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatchError, InvalidInputError

RATIONAL = "rational"
FLOAT = "float"

DEFAULT_TOLERANCE = Fraction(1, 10**9)


def exactify(value: int | float | Fraction | str) -> Fraction:
    """Convert a finite number (or a "p/q" string) to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidInputError("booleans are not scalars")
    if isinstance(value, (int, float, str)):
        try:
            return Fraction(value)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"cannot parse scalar {value!r}") from exc
    raise InvalidInputError(f"cannot parse scalar of type {type(value).__name__}")


def merge_arithmetic(*modes: str) -> str:
    """Combined arithmetic mode: float wins over rational."""
    for mode in modes:
        if mode not in (RATIONAL, FLOAT):
            raise InvalidInputError(f"unknown arithmetic mode {mode!r}")
    return FLOAT if FLOAT in modes else RATIONAL


def tolerance_for(tol: Fraction | float | str | None, *spaces) -> Fraction:
    """Comparison slack: tol if given (a finite number >= 0), else zero
    when every space is rational and EPS when any is float."""
    if tol is not None:
        eps = exactify(tol)
        if eps < 0:
            raise InvalidInputError(f"tolerance must be >= 0, got {tol}")
        return eps
    mode = merge_arithmetic(*(s.arithmetic for s in spaces))
    return Fraction(0) if mode == RATIONAL else DEFAULT_TOLERANCE


def close(a, b, eps: Fraction) -> bool:
    """|a - b| <= eps, entrywise on tuples or lists nested to any depth.

    Scalars are exact (Fraction or int). With a = p/q, b = r/s and
    eps = e/f, all denominators positive, the test is
    |p s - r q| f <= e q s, on integers, so no Fraction is made. Two
    sequences of different lengths (or a sequence against a scalar)
    raise DimensionMismatchError when the comparison reaches them.
    """
    seqs = isinstance(a, (tuple, list)), isinstance(b, (tuple, list))
    if not any(seqs):
        q, s = a.denominator, b.denominator
        gap = a.numerator * s - b.numerator * q
        return abs(gap) * eps.denominator <= eps.numerator * q * s
    if not all(seqs) or len(a) != len(b):
        raise DimensionMismatchError("compared values differ in shape")
    return all(close(x, y, eps) for x, y in zip(a, b))


def close_rows(xs, xscale: Fraction, ys, yscale: Fraction,
               eps: Fraction) -> bool:
    """close(xscale * xs, yscale * ys, eps) for integer rows and positive
    scales (as linalg.integer_row gives them): with xscale = p/q, yscale
    = r/s and eps = e/f, |p s x - r q y| f <= e q s entrywise."""
    if len(xs) != len(ys):
        raise DimensionMismatchError("compared values differ in shape")
    a = xscale.numerator * yscale.denominator * eps.denominator
    b = yscale.numerator * xscale.denominator * eps.denominator
    bound = eps.numerator * xscale.denominator * yscale.denominator
    return all(abs(a * x - b * y) <= bound for x, y in zip(xs, ys))


def first_close_row(xs, xscale: Fraction, rows, eps: Fraction) -> int | None:
    """The index of the first (ys, yscale) in rows with close_rows(xs,
    xscale, ys, yscale, eps), or None, for nonempty rows. A row goes to
    close_rows only after its first entry passes the same test on
    integers, so a scan compares whole rows with few candidates besides
    its match."""
    p, q = xscale.numerator, xscale.denominator
    e, f = eps.numerator, eps.denominator
    first = xs[0] * p * f
    for k, (ys, yscale) in enumerate(rows):
        r, s = yscale.numerator, yscale.denominator
        if abs(first * s - ys[0] * r * q * f) > e * q * s:
            continue
        if close_rows(xs, xscale, ys, yscale, eps):
            return k
    return None


def emit(value, mode: str) -> int | str | float | list:
    """Render a scalar for JSON: ints or "p/q" in rational mode, float
    otherwise. Tuples and lists, nested to any depth, become lists."""
    if isinstance(value, (tuple, list)):
        return [emit(x, mode) for x in value]
    if mode == RATIONAL:
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return float(value)


def rows_emit_exactly(rows, mode: str) -> bool:
    """Whether emit(vectors, mode) reads back as the vectors scale * row,
    for integer rows and positive scales (as linalg.integer_row gives
    them): always in rational mode, and in float mode when every entry
    is exactly a float, decided on integers: with scale = p/q, entry x
    reads back exactly when the float nearest p x / q (an int division,
    rounded as float() rounds the Fraction) equals it. Stops at the
    first entry that does not."""
    if mode == RATIONAL:
        return True
    for row, scale in rows:
        p, q = scale.numerator, scale.denominator
        for x in row:
            n = p * x
            a, b = (n / q).as_integer_ratio()
            if a * q != n * b:
                return False
    return True
