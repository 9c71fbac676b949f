import random
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gptkit.errors import DimensionMismatchError, InvalidInputError
from gptkit.linalg import integer_row
from gptkit.scalars import (DEFAULT_TOLERANCE, FLOAT, RATIONAL, close,
                            close_rows, emit, exactify, tolerance_for)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"),
                                   "inf", "nan", "1/0", "x"], ids=repr)
def test_exactify_rejects_non_finite(value):
    with pytest.raises(InvalidInputError):
        exactify(value)


def test_tolerance_for_rejects_negative():
    with pytest.raises(InvalidInputError):
        tolerance_for(-1)
    with pytest.raises(InvalidInputError):
        tolerance_for("-1/10")
    assert tolerance_for("1e-6") == Fraction(1, 10 ** 6)
    assert tolerance_for(0) == 0


scalars = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                    st.fractions(max_denominator=10 ** 6))
nested = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple)),
    max_leaves=20)


def _elementwise(value, mode):
    if isinstance(value, (tuple, list)):
        return [_elementwise(x, mode) for x in value]
    return emit(value, mode)


def _leaves(value):
    if isinstance(value, (tuple, list)):
        for x in value:
            yield from _leaves(x)
    else:
        yield value


@given(nested)
def test_emit_is_elementwise(value):
    for mode in (RATIONAL, FLOAT):
        assert emit(value, mode) == _elementwise(value, mode)
    leaves = list(_leaves(value))
    assert list(_leaves(emit(value, FLOAT))) == [float(x) for x in leaves]
    assert list(_leaves(emit(value, RATIONAL))) == [
        int(x) if Fraction(x).denominator == 1
        else f"{x.numerator}/{x.denominator}" for x in leaves]
    assert all(type(y) is int for x, y in
               zip(leaves, _leaves(emit(value, RATIONAL)))
               if isinstance(x, int))


def _rebuild(value, leaves):
    """value's shape and container types, leaves drawn from an iterator."""
    if isinstance(value, (tuple, list)):
        return type(value)(_rebuild(x, leaves) for x in value)
    return next(leaves)


def _grow(value, n):
    """value with a 0 appended to its n-th sequence (preorder)."""
    seen = count()

    def walk(v):
        if not isinstance(v, (tuple, list)):
            return v
        extra = [0] if next(seen) == n else []
        return type(v)([walk(x) for x in v] + extra)
    return walk(value)


def _sequence_count(value) -> int:
    if not isinstance(value, (tuple, list)):
        return 0
    return 1 + sum(_sequence_count(x) for x in value)


@given(nested, st.data())
def test_close_at_zero_is_equality(value, data):
    leaves = list(_leaves(value))
    other = [data.draw(st.one_of(st.just(x), scalars)) for x in leaves]
    assert close(value, _rebuild(value, iter(other)), 0) == (leaves == other)


@given(nested, st.data(), st.fractions(min_value=0, max_denominator=100))
def test_close_moves_one_entry_within_eps(value, data, eps):
    leaves = list(_leaves(value))
    assume(leaves)
    k = data.draw(st.integers(0, len(leaves) - 1))
    delta = data.draw(st.one_of(st.sampled_from([eps, -eps]),
                                st.fractions(max_denominator=100)))
    leaves[k] += delta
    moved = _rebuild(value, iter(leaves))
    assert close(value, moved, eps) == (abs(delta) <= eps)
    assert close(moved, value, eps) == (abs(delta) <= eps)


@given(nested, st.data())
def test_close_rejects_length_mismatch(value, data):
    sequences = _sequence_count(value)
    assume(sequences)
    grown = _grow(value, data.draw(st.integers(0, sequences - 1)))
    with pytest.raises(DimensionMismatchError):
        close(value, grown, 1)
    with pytest.raises(DimensionMismatchError):
        close(grown, value, 1)


def test_close_rejects_scalar_against_sequence():
    with pytest.raises(DimensionMismatchError):
        close(0, (0,), 1)
    with pytest.raises(DimensionMismatchError):
        close([0], 0, 1)


def reference_close(a, b, eps):
    """The Fraction difference: |a - b| <= eps, entrywise."""
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(
            reference_close(x, y, eps) for x, y in zip(a, b))
    return abs(a - b) <= eps


def test_close_matches_the_fraction_difference_seeded():
    # Fractions with float-embedded (power-of-two) and other denominators,
    # ints, and pairs exactly eps apart or one 2^-80 step to either side
    rng = random.Random(2026)

    def scalar():
        kind = rng.randrange(3)
        if kind == 0:
            return rng.randint(-5, 5)
        if kind == 1:
            return Fraction(rng.uniform(-2, 2))
        return Fraction(rng.randint(-10 ** 6, 10 ** 6),
                        rng.randint(1, 10 ** 6))

    def pair(eps):
        a = scalar()
        way = rng.randrange(4)
        if way == 0:
            return a, scalar()
        step = rng.choice([0, Fraction(1, 2 ** 80), -Fraction(1, 2 ** 80)])
        return a, a + rng.choice([-1, 1]) * eps + step * (way - 2)

    verdicts = []
    for _ in range(3000):
        eps = rng.choice([0, Fraction(0), DEFAULT_TOLERANCE,
                          Fraction(rng.randint(1, 100), rng.randint(1, 100)),
                          Fraction(rng.uniform(0, 1e-6))])
        a, b = pair(eps)
        verdicts.append(close(a, b, eps))
        assert verdicts[-1] == reference_close(a, b, eps), (a, b, eps)
        rows = [pair(eps) for _ in range(rng.randint(1, 3))]
        nested = (tuple((x,) for x, _ in rows), [[y] for _, y in rows])
        assert close(*nested, eps) == reference_close(*nested, eps)
    assert 1000 < verdicts.count(True) < 2000


def test_close_rows_is_close_on_the_scaled_values_seeded():
    # integer rows with negative entries and scales of their own (rows
    # not always coprime), at eps 0 and above, and pairs exactly eps
    # apart or one 2^-80 step to either side
    rng = random.Random(3100)
    verdicts = []
    for _ in range(2000):
        eps = rng.choice([Fraction(0), DEFAULT_TOLERANCE,
                          Fraction(rng.randint(1, 100), rng.randint(1, 100)),
                          Fraction(rng.uniform(0, 1e-6))])
        n = rng.randint(1, 9)
        xs = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
        xscale = rng.choice([Fraction(1), Fraction(rng.uniform(0.01, 4)),
                             Fraction(rng.randint(1, 99), rng.randint(1, 99))])
        x = [xscale * v for v in xs]
        y = [v + rng.choice([-1, 0, 1]) * eps for v in x]
        i = rng.randrange(n)  # one entry moved off, or a step either way
        y[i] += rng.choice([0, Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                            Fraction(rng.choice([-1, 1]), 2 ** 80)])
        ys, yscale = integer_row(y)
        k = rng.randint(1, 3)
        ys, yscale = [k * v for v in ys], yscale / k
        verdicts.append(close_rows(xs, xscale, ys, yscale, eps))
        assert verdicts[-1] == close(tuple(x), tuple(y), eps)
    assert 400 < verdicts.count(True) < 1600


def test_close_rows_compares_rows_of_one_length():
    with pytest.raises(DimensionMismatchError):
        close_rows((1, 2), Fraction(1), (1,), Fraction(1), DEFAULT_TOLERANCE)


def test_close_keeps_its_shape_check():
    with pytest.raises(DimensionMismatchError):
        close(((Fraction(1, 3),),), ((Fraction(1, 3), 0),), DEFAULT_TOLERANCE)
    with pytest.raises(DimensionMismatchError):
        close((1, 2), 1, Fraction(0))
