import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptkit.cones import (ConeRep, canonical_form, enumerate_rays,
                          independent_subset, partition_rays)
from gptkit.errors import (DegenerateConeError, DimensionCapError,
                           UnsupportedConeError)
from gptkit.linalg import canonical_ray, dot, lex_key, nullspace, rank, vec
from gptkit.models import make_polygon, make_squit

F = Fraction

SQUARE_GENS = ((1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1))
SQUARE_FACETS = ((-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1))


def ray_set(rays):
    return {lex_key(canonical_ray(r)) for r in rays}


def brute_force_rays(halfspaces, dim):
    """Reference enumeration by (dim-1)-subsets of normals."""
    out = {}
    for subset in combinations(range(len(halfspaces)), dim - 1) if dim > 1 else [()]:
        rows = tuple(halfspaces[i] for i in subset)
        if rows and rank(rows) != dim - 1:
            continue
        kernel = nullspace(rows) if rows else ((F(1),),)
        if len(kernel) != 1:
            continue
        for candidate in (kernel[0], tuple(-x for x in kernel[0])):
            if all(dot(h, candidate) >= 0 for h in halfspaces):
                active = tuple(h for h in halfspaces if dot(h, candidate) == 0)
                if rank(active) == dim - 1 or dim == 1:
                    c = canonical_ray(candidate)
                    out[lex_key(c)] = c
    return tuple(v for _, v in sorted(out.items()))


def greedy_by_rank(vectors):
    """Reference independent subset: keep v when it raises the rank."""
    kept = []
    for v in vectors:
        if rank(tuple(kept + [v])) > len(kept):
            kept.append(v)
    return tuple(kept)


def test_square_facets_from_generators():
    cone = ConeRep.from_generators(SQUARE_GENS)
    assert ray_set(cone.facets) == ray_set(SQUARE_FACETS)


def test_square_generators_from_facets():
    cone = ConeRep.from_facets(SQUARE_FACETS)
    assert ray_set(cone.generators) == ray_set(SQUARE_GENS)


def test_from_both_validates():
    ConeRep.from_both(SQUARE_GENS, SQUARE_FACETS)
    with pytest.raises(DegenerateConeError):
        ConeRep.from_both(SQUARE_GENS, ((1, 0, 1), (0, 1, 1), (0, -1, 1)))


def test_double_description_round_trip():
    # facets of the generators of the facets reproduce the input
    cone = ConeRep.from_facets(SQUARE_FACETS)
    again = ConeRep.from_generators(cone.generators)
    assert ray_set(again.facets) == ray_set(SQUARE_FACETS)


def test_brute_force_oracle_seeded():
    # Exact equality: same rays, order and canonical scale, no duplicates.
    rng = random.Random(20240817)
    compared = 0
    for trial in range(160):
        dim = rng.choice((2, 3, 4, 5))
        count = rng.randint(dim, dim + 3)
        halfspaces = [
            vec(tuple(rng.randint(-3, 3) for _ in range(dim)))
            for _ in range(count)]
        if trial % 4 == 0:
            # a repeated normal, scaled by a positive factor
            halfspaces.append(tuple(rng.choice((1, 2, F(1, 3))) * x
                                    for x in rng.choice(halfspaces)))
        halfspaces = tuple(halfspaces)
        if rank(halfspaces) < dim:
            continue
        try:
            fast = enumerate_rays(halfspaces, dim)
        except DegenerateConeError:
            continue
        slow = brute_force_rays(halfspaces, dim)
        assert fast == slow, f"trial {trial}"
        compared += 1
    assert compared >= 100


def test_orthant_identity():
    eye = tuple(vec(tuple(1 if i == j else 0 for j in range(4)))
                for i in range(4))
    assert ray_set(enumerate_rays(eye, 4)) == ray_set(eye)


def test_dimension_cap():
    eye = tuple(vec(tuple(1 if i == j else 0 for j in range(17)))
                for i in range(17))
    with pytest.raises(DimensionCapError):
        enumerate_rays(eye, 17)


def test_non_pointed_input_rejected():
    with pytest.raises(DegenerateConeError):
        enumerate_rays((vec((1, 0, 0)), vec((0, 1, 0))), 3)


def test_contains_exact_boundary():
    cone = ConeRep.from_both(SQUARE_GENS, SQUARE_FACETS)
    assert cone.contains(vec((1, 1, 1)))
    assert cone.contains(vec((0, 0, 0)))
    assert not cone.contains(vec((1, 1, 1 - F(1, 10 ** 12))))
    assert cone.contains(vec((1, 1, 1 - F(1, 10 ** 12))), F(1, 10 ** 9))


def test_dual_swaps_lazily():
    cone = ConeRep.from_generators(SQUARE_GENS)
    dual = cone.dual()
    assert dual.has_facets() and not dual.has_generators()
    assert ray_set(dual.generators) == ray_set(SQUARE_FACETS)
    # double dual is member-set equal to the original
    assert ray_set(cone.dual().dual().generators) == ray_set(SQUARE_GENS)


def test_minimal_generators_drops_redundant():
    cone = ConeRep.from_generators(SQUARE_GENS + ((0, 0, 1), (2, 2, 2)))
    assert ray_set(cone.minimal_generators()) == ray_set(SQUARE_GENS)


def test_polygon_facets_analytic():
    # independently derived support lines of the regular n-gon
    for n in (3, 5, 6, 8):
        facets = make_polygon(n).cone.facets
        assert len(facets) == n
        expected = []
        for k in range(n):
            ang = (2 * k + 1) * math.pi / n
            expected.append(canonical_form(
                vec((-math.cos(ang), -math.sin(ang), math.cos(math.pi / n))),
                "float"))
        for want in expected:
            hit = min(facets,
                      key=lambda f: max(abs(a - b) for a, b in zip(f, want)))
            assert max(abs(a - b) for a, b in zip(hit, want)) < F(1, 10 ** 9)


def test_polygon_facets_support_two_adjacent_vertices():
    eps = F(1, 10 ** 9)
    for n in (5, 8):
        space = make_polygon(n)
        verts = space.vertices
        for f in space.cone.facets:
            touching = [i for i, v in enumerate(verts)
                        if abs(sum(a * b for a, b in zip(f, v))) <= eps]
            assert len(touching) == 2
            gap = (touching[1] - touching[0]) % n
            assert gap in (1, n - 1)


def test_partition_rays_blocks():
    squit = make_squit()
    assert len(partition_rays(squit.cone.generators, 3)) == 1
    eye = tuple(vec(tuple(1 if i == j else 0 for j in range(3)))
                for i in range(3))
    assert partition_rays(eye, 3) == ((0,), (1,), (2,))
    # square plus an independent ray splits into two summands
    padded = tuple(vec(g + (0,)) for g in SQUARE_GENS) + (vec((0, 0, 0, 1)),)
    blocks = partition_rays(padded, 4)
    assert len(blocks) == 2
    assert (4,) in blocks


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                max_size=6))
def test_independent_subset_is_greedy_by_rank(rows):
    vectors = tuple(vec(r) for r in rows)
    assert independent_subset(vectors) == greedy_by_rank(vectors)


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(5)))
def test_partition_rays_permutation_invariant(order):
    padded = tuple(vec(g + (0,)) for g in SQUARE_GENS) + (vec((0, 0, 0, 1)),)
    shuffled = tuple(padded[i] for i in order)
    blocks = partition_rays(shuffled, 4)
    as_rays = sorted(sorted(lex_key(shuffled[i]) for i in blk)
                     for blk in blocks)
    base = sorted(sorted(lex_key(padded[i]) for i in blk)
                  for blk in partition_rays(padded, 4))
    assert as_rays == base


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.lists(
    st.lists(st.integers(-1, 1), min_size=d, max_size=d).filter(any),
    min_size=1, max_size=7)))
def test_partition_rays_is_finest_direct_sum(rows):
    rays = tuple(vec(r) for r in rows)
    blocks = partition_rays(rays, len(rays[0]))
    assert sorted(i for blk in blocks for i in blk) == list(range(len(rays)))

    def block_rank(idx):
        return rank(tuple(rays[i] for i in idx))

    # the spans of the blocks are jointly independent ...
    assert sum(block_rank(blk) for blk in blocks) == rank(rays)
    # ... and no block is itself a direct sum of two parts
    for blk in blocks:
        whole = block_rank(blk)
        for size in range(1, len(blk)):
            for part in combinations(blk, size):
                rest = tuple(i for i in blk if i not in part)
                assert block_rank(part) + block_rank(rest) > whole


def test_lorentz_has_no_lists():
    cone = ConeRep.lorentz(4)
    assert cone.contains(vec((1, 0, 0, 2)))
    assert not cone.contains(vec((1, 1, 1, 1)))
    with pytest.raises(UnsupportedConeError):
        cone.generators
    with pytest.raises(UnsupportedConeError):
        cone.facets
    assert cone.dual() is cone
