from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptkit.errors import DimensionMismatchError
from gptkit.linalg import (canonical_ray, combination, dot, identity, inverse,
                           lex_key, mat, matmul, matvec, nullspace, rank,
                           rref, transpose, vec, zeros)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def square(n):
    return st.lists(st.lists(fractions, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(mat)


def test_rref_frozen():
    m = mat(((1, 2, 3), (2, 4, 6), (1, 0, 1)))
    reduced, pivots = rref(m)
    assert pivots == (0, 1)
    assert rank(m) == 2
    assert reduced[0] == (1, 0, 1)
    assert reduced[1] == (0, 1, 1)


def test_inverse_frozen():
    m = mat(((2, 1), (1, 1)))
    assert inverse(m) == ((1, -1), (-1, 2))
    assert inverse(mat(((1, 2), (2, 4)))) is None


def test_nullspace_rank_nullity():
    m = mat(((1, 1, 0), (0, 0, 1)))
    basis = nullspace(m)
    assert len(basis) == 1
    assert matvec(m, basis[0]) == (0, 0)


@settings(max_examples=60)
@given(square(3))
def test_inverse_round_trip(m):
    inv = inverse(m)
    if inv is None:
        assert rank(m) < 3
    else:
        assert matmul(m, inv) == identity(3)
        assert matmul(inv, m) == identity(3)


@settings(max_examples=40)
@given(square(2), square(2), square(2))
def test_matmul_associative(a, b, c):
    assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


@settings(max_examples=60)
@given(st.lists(fractions, min_size=4, max_size=4).map(vec),
       st.fractions(min_value=Fraction(1, 6), max_value=5, max_denominator=6))
def test_canonical_ray_scale_invariant(v, c):
    assert canonical_ray(tuple(c * x for x in v)) == canonical_ray(v)
    assert lex_key(canonical_ray(v)) == lex_key(canonical_ray(canonical_ray(v)))


@settings(max_examples=40)
@given(square(3))
def test_transpose_involution(m):
    assert transpose(transpose(m)) == m
    v = vec((1, 2, 3))
    w = vec((4, 5, 6))
    assert dot(matvec(m, v), w) == dot(v, matvec(transpose(m), w))


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=4).flatmap(lambda n: st.lists(
    st.tuples(fractions, st.lists(fractions, min_size=n, max_size=n).map(vec)),
    min_size=1, max_size=5)))
def test_combination_matches_loop(pairs):
    weights = [w for w, _ in pairs]
    vectors = [v for _, v in pairs]
    expected = zeros(len(vectors[0]))
    for w, v in pairs:
        expected = tuple(e + w * x for e, x in zip(expected, v))
    assert combination(weights, vectors) == expected
    with pytest.raises(DimensionMismatchError):
        combination(weights[1:], vectors)
    with pytest.raises(ValueError):
        combination(weights + [Fraction(1)],
                    vectors + [vectors[0] + (Fraction(1),)])
