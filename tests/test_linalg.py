import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptkit.cones import independent_subset
from gptkit.errors import DimensionMismatchError, InvalidInputError
from gptkit.linalg import (ONE, ZERO, _eliminate, canonical_ray,
                           combination, dot, identity, integer_row, inverse,
                           inverse_rays, mat, matmul, matvec, nullspace, rank,
                           rref, transpose, unit_vec, vec, zeros)
from gptkit.models import make_polygon

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def reference_rref(m):
    """Reference Gauss-Jordan on Fraction rows: each pivot row is divided
    by its pivot at once and subtracted from every other row."""
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


def reference_nullspace(m):
    if not m:
        return ()
    ncols = len(m[0])
    reduced, pivots = reference_rref(m)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def reference_inverse(m):
    n = len(m)
    reduced, pivots = reference_rref(
        tuple(row + unit_vec(n, i) for i, row in enumerate(m)))
    if len(pivots) != n or any(p >= n for p in pivots):
        return None
    return tuple(row[n:] for row in reduced)


def reference_independent_subset(vectors):
    return tuple(vectors[j] for j in reference_rref(tuple(zip(*vectors)))[1])


def assert_rref(reduced, pivots):
    """Pivot entries 1, zeros elsewhere in pivot columns and left of each
    pivot, pivots increasing, zero rows last."""
    assert list(pivots) == sorted(set(pivots))
    for r, row in enumerate(reduced):
        if r >= len(pivots):
            assert not any(row)
            continue
        c = pivots[r]
        assert row[c] == 1 and not any(row[:c])
        assert all(other[c] == 0
                   for i, other in enumerate(reduced) if i != r)


def square(n):
    return st.lists(st.lists(fractions, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(mat)


def test_a_scalar_is_not_a_vector():
    with pytest.raises(InvalidInputError, match="expected a sequence"):
        vec(5)
    with pytest.raises(InvalidInputError, match="expected a sequence"):
        mat((1, 2, 3))


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
@given(st.lists(fractions | st.integers(-4, 4).map(Fraction), min_size=0,
                max_size=5).map(tuple))
def test_integer_row_is_coprime_integers_times_a_scale(v):
    # v = scale * ints with coprime ints; the zero vector has unit scale
    ints, scale = integer_row(v)
    assert all(type(x) is int for x in ints) and type(scale) is Fraction
    assert scale > 0 and tuple(scale * x for x in ints) == v
    assert math.gcd(*ints) == (1 if any(v) else 0)
    if not any(v):
        assert scale == 1


@settings(max_examples=60)
@given(st.lists(fractions, min_size=4, max_size=4).map(vec),
       st.fractions(min_value=Fraction(1, 6), max_value=5, max_denominator=6))
def test_canonical_ray_scale_invariant(v, c):
    assert canonical_ray(tuple(c * x for x in v)) == canonical_ray(v)
    assert canonical_ray(v) == canonical_ray(canonical_ray(v))


@settings(max_examples=60)
@given(st.lists(fractions | st.integers(-4, 4), min_size=1, max_size=5)
       .filter(any).map(tuple))
def test_canonical_ray_is_a_coprime_int_tuple(v):
    # v is a positive multiple of its ray, a tuple of coprime ints
    ray = canonical_ray(v)
    assert type(ray) is tuple and all(type(x) is int for x in ray)
    assert math.gcd(*ray) == 1
    j = next(i for i, x in enumerate(ray) if x)
    c = Fraction(v[j]) / ray[j]
    assert c > 0 and tuple(c * x for x in ray) == v


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


def reference_dot(a, b):
    """The Fraction sum: one Fraction per product and per partial sum."""
    return sum((x * y for x, y in zip(a, b)), ZERO)


def assert_pairings_match(a, b):
    # dot and combination against the Fraction sum: same canonical value
    # (repr compares numerator and denominator) and always a Fraction.
    want = reference_dot(a, b)
    got = [dot(a, b)]
    if a:  # with no vectors, combination has no columns
        got += combination(a, [(y,) for y in b])
    for x in got:
        assert type(x) is Fraction and repr(x) == repr(want), (a, b)


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=16).flatmap(lambda n: st.tuples(
    *[st.lists(st.fractions(min_value=-50, max_value=50,
                            max_denominator=40), min_size=n, max_size=n)
      .map(tuple)] * 2)))
def test_dot_matches_reference(pair):
    a, b = pair
    assert_pairings_match(a, b)
    assert_pairings_match(b, a)


def test_dot_matches_reference_on_polygons():
    # Float-embedded coordinates: power-of-two denominators, ~50 bits.
    for n in (5, 7, 14):
        cone = make_polygon(n).cone
        vertices = cone.generators
        for f in cone.facets:
            for v in vertices:
                assert_pairings_match(f, v)
            vectors = vertices[:len(f)]
            assert repr(combination(f, vectors)) == repr(tuple(
                reference_dot(f, column) for column in zip(*vectors)))


def test_dot_exact_cases():
    ints = ((1, -2, 3), (4, 5, -6))
    assert_pairings_match(*ints)
    assert dot(*ints) == -24
    # terms with different denominators that cancel exactly
    mixed = (Fraction(1, 3), Fraction(1, 2), Fraction(-5, 6))
    assert_pairings_match(mixed, (3, -2, 0))
    assert repr(dot(mixed, (3, -2, 0))) == "Fraction(0, 1)"
    assert_pairings_match(mixed, (Fraction(3, 7), Fraction(1, 7),
                                  Fraction(3, 7)))
    assert_pairings_match((), ())
    assert combination((), ()) == ()
    with pytest.raises(DimensionMismatchError):
        dot((ONE, ONE), (ONE,))
    with pytest.raises(DimensionMismatchError):
        dot((), (ONE,))


def seeded_matrices(rng, count):
    """Small ints, small Fractions and float-embedded polygon coordinates
    (dyadic, ~50-bit); rows that combine others and all-zero rows; wide,
    tall, 1x1 and empty shapes."""
    coords = sorted({x for n in (5, 7) for g in make_polygon(n).cone.generators
                     for x in g})
    entries = (lambda: Fraction(rng.randint(-3, 3)),
               lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 7)),
               lambda: rng.choice(coords) if rng.random() < 0.8 else ZERO)
    for trial in range(count):
        shape = trial % 5
        if shape == 0:  # wide
            nrows = rng.randint(1, 4)
            ncols = rng.randint(nrows + 1, 9)
        elif shape == 1:  # tall
            ncols = rng.randint(1, 4)
            nrows = rng.randint(ncols + 1, 9)
        elif shape == 2:  # square, 1x1 among them
            nrows = ncols = rng.randint(1, 5)
        else:  # anything, empty shapes included
            nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
        entry = entries[trial % 3]
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        if nrows >= 3 and trial % 4 == 0:
            a, b, c = rng.sample(range(nrows), 3)
            s, t = Fraction(rng.randint(-3, 3)), entries[1]()
            rows[a] = [s * x + t * y for x, y in zip(rows[b], rows[c])]
        if nrows and trial % 6 == 0:
            rows[rng.randrange(nrows)] = [ZERO] * ncols
        yield tuple(tuple(r) for r in rows)


def test_rref_matches_reference_seeded():
    # Exact tuple equality (order, values, entry types) of rref and of
    # everything built on it, against the Fraction Gauss-Jordan.
    rng = random.Random(15)
    shapes = set()
    for m in seeded_matrices(rng, 2400):
        want = reference_rref(m)
        got = rref(m)
        assert got == want and repr(got) == repr(want), m
        assert rank(m) == len(want[1])
        assert repr(nullspace(m)) == repr(reference_nullspace(m)), m
        if m and len(m) == len(m[0]):
            assert repr(inverse(m)) == repr(reference_inverse(m)), m
        if m and m[0]:
            columns = tuple(zip(*m))
            assert (independent_subset(columns)
                    == reference_independent_subset(columns)), m
        shapes.add((min(len(m), 2), min(len(m[0]), 2) if m else None))
    assert shapes >= {(0, None), (1, 0), (1, 1), (2, 2)}


def test_rref_row_cancels_to_zeros():
    # Row 2 is 2 * row 0 + row 1: it is all zero after the second pivot,
    # where the integer elimination must not divide by gcd 0.
    m = mat(((1, 2, 3), (0, 1, 1), (2, 5, 7)))
    assert rref(m) == reference_rref(m)
    assert rref(m) == (((1, 0, 1), (0, 1, 1), (0, 0, 0)), (0, 1))
    assert nullspace(m) == ((-1, -1, 1),)


def test_rref_negative_pivot():
    m = mat(((-3, 6, 1), (1, -1, 0)))
    reduced, pivots = rref(m)
    assert (reduced, pivots) == reference_rref(m)
    assert pivots == (0, 1)
    assert reduced == ((1, 0, Fraction(1, 3)), (0, 1, Fraction(1, 3)))
    assert inverse(mat(((-2, 0), (0, -4)))) == ((Fraction(-1, 2), 0),
                                                (0, Fraction(-1, 4)))


def test_rref_skips_column_without_pivot():
    # Column 1 has no pivot between pivot columns 0 and 2.
    m = mat(((2, 4, 1), (4, 8, 3)))
    assert rref(m) == reference_rref(m)
    assert rref(m) == (((1, 2, 0), (0, 0, 1)), (0, 2))
    assert nullspace(m) == ((-2, 1, 0),)


def test_inverse_of_square_singular_is_none():
    m = mat(((1, 2, 3), (4, 5, 6), (7, 8, 9)))
    assert inverse(m) is None and reference_inverse(m) is None
    assert rank(m) == 2
    assert inverse(mat(((0,),))) is None


def test_inverse_rays_are_the_inverses_coprime_columns_seeded():
    # Random integer bases: unimodular ones (a product of unit triangular
    # factors, then signed and permuted), non-unimodular ones with negative
    # pivots, and singular ones; inverse_rays must give canonical_ray of
    # inverse's columns, in column order, and None exactly where inverse
    # does.
    rng = random.Random(49)
    kinds = {"unimodular": 0, "non-unimodular": 0, "negative pivot": 0,
             "singular": 0}
    for trial in range(1500):
        n = rng.randint(1, 7)
        if trial % 3 == 0:
            m = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(n - 1):
                i, j = rng.sample(range(n), 2)
                f = rng.randint(-3, 3)
                m[i] = [x + f * y for x, y in zip(m[i], m[j])]
            rng.shuffle(m)
            m = [[-x for x in row] if rng.random() < 0.5 else row
                 for row in m]
        else:
            m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            if trial % 4 == 1 and n > 1:
                a, b = rng.sample(range(n), 2)
                k = rng.randint(-2, 2)
                m[a] = [k * x for x in m[b]]
        m = tuple(map(tuple, m))
        inv = inverse(m)
        got = inverse_rays(m)
        if inv is None:
            assert got is None, m
            kinds["singular"] += 1
            continue
        assert got == tuple(canonical_ray(c) for c in zip(*inv)), m
        assert all(type(x) is int for row in got for x in row)
        kinds["unimodular" if all(x.denominator == 1 for row in inv
                                  for x in row) else "non-unimodular"] += 1
        rows, _ = _eliminate([r + unit_vec(n, i) for i, r in enumerate(m)])
        kinds["negative pivot"] += any(row[i] < 0
                                       for i, row in enumerate(rows))
    assert min(kinds.values()) >= 50, kinds


def test_inverse_rays_edge_shapes():
    assert inverse_rays(()) == ()
    assert inverse_rays(((-3,),)) == ((-1,),)
    assert inverse_rays(((0,),)) is None
    assert inverse_rays(((2, 0), (0, -4))) == ((1, 0), (0, -1))
    assert inverse_rays(((1, 2), (2, 4))) is None
    with pytest.raises(DimensionMismatchError):
        inverse_rays(((1, 2),))


@settings(max_examples=80)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.lists(
    st.lists(fractions, min_size=n, max_size=n), min_size=1, max_size=5)),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9)
             .filter(bool), min_size=5, max_size=5))
def test_rref_invariant_under_row_scaling(rows, scales):
    m = mat(rows)
    scaled = tuple(tuple(s * x for x in row) for s, row in zip(scales, m))
    reduced, pivots = rref(m)
    assert rref(scaled) == (reduced, pivots)
    assert_rref(reduced, pivots)
