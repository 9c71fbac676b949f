import math
import random
import sys
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptkit import cones, linalg
from gptkit.composites import (effect_on_min, max_tensor, min_tensor,
                               product_vec)
from gptkit.cones import (DIMENSION_CAP, POLYHEDRAL, ConeRep,
                          enumerate_rays, independent_subset, partition_rays)
from gptkit.errors import (DegenerateConeError, DimensionCapError,
                           DimensionMismatchError, InvalidInputError,
                           UnsupportedConeError)
from gptkit.linalg import (canonical_ray, combination, dot, integer_row, mat,
                           nullspace, rank, rref, vec)
from gptkit.lp import feasible_point
from gptkit.models import make_ball, make_classical, make_polygon, make_squit
from gptkit.scalars import (DEFAULT_TOLERANCE, FLOAT, RATIONAL, exactify,
                            tolerance_for)
from gptkit.spaces import (LinearMapRep, StateSpace, is_effect,
                           is_positive_map)
from test_linalg import (reference_independent_subset, reference_inverse,
                         seeded_matrices)

F = Fraction

SQUARE_GENS = ((1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1))
SQUARE_FACETS = ((-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1))


def ray_set(rays):
    return {canonical_ray(r) for r in rays}


def held_as_rows(cone) -> bool:
    """Whether each side slot of the cone and of its dual view holds None
    or rows (int tuples, each with a positive Fraction scale), and never
    Fraction vectors."""
    views = (cone,) if cone._dual is None else (cone, cone._dual)
    return all(side is None or all(
        type(scale) is F and scale > 0 and all(type(x) is int for x in row)
        for row, scale in side)
        for view in views for side in (view._generators, view._facets))


def record_clears(monkeypatch) -> list:
    """Wrap linalg.integer_row in every gptkit module that binds it. Each
    call is recorded as (direct, outer, vector): the module of the frame
    that called it, and of the first frame outside linalg (so a clear
    inside rank or canonical_ray counts for the module that asked)."""
    seen = []
    clear = linalg.integer_row

    def wrapped(v):
        frame = sys._getframe(1)
        direct = frame.f_globals["__name__"]
        while frame.f_globals["__name__"] == "gptkit.linalg":
            frame = frame.f_back
        seen.append((direct, frame.f_globals["__name__"], v))
        return clear(v)
    for name, module in list(sys.modules.items()):
        if name.startswith("gptkit") and \
                vars(module).get("integer_row") is clear:
            monkeypatch.setattr(module, "integer_row", wrapped)
    return seen


def brute_force_rays(halfspaces, dim):
    """Reference enumeration by (dim-1)-subsets of normals."""
    out = set()
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
                    out.add(canonical_ray(candidate))
    return tuple(sorted(out))


def reference_rays(halfspaces, dim):
    """Reference double description: Fraction rays, and an adjacency test
    that scans every ray for each (plus, minus) pair. Same output tuple
    (order, scale and int entries) and same errors as enumerate_rays. The base and its
    inverse come from the Fraction Gauss-Jordan of test_linalg, not from
    the library's elimination."""
    if dim > DIMENSION_CAP:
        raise DimensionCapError(
            f"ray enumeration in dimension {dim} exceeds cap {DIMENSION_CAP}")
    if any(len(h) != dim for h in halfspaces):
        raise DimensionMismatchError("halfspace length differs from dim")
    def fraction_ray(v):
        return tuple(map(F, canonical_ray(v)))

    seen = set()
    normals = []
    for h in halfspaces:
        c = fraction_ray(h)
        if not any(x != 0 for x in c) or c in seen:
            continue
        seen.add(c)
        normals.append(c)
    base = reference_independent_subset(tuple(normals))
    if len(base) < dim:
        raise DegenerateConeError(
            "halfspace normals do not span; the cone contains a line")
    base_idx = [normals.index(b) for b in base]
    rest_idx = [i for i in range(len(normals)) if i not in base_idx]
    rays = [fraction_ray(col) for col in zip(*reference_inverse(base))]
    all_base = sum(1 << k for k in base_idx)
    masks = [all_base & ~(1 << k) for k in base_idx]
    for hi in rest_idx:
        h = normals[hi]
        evals = [dot(h, r) for r in rays]
        plus = [i for i, e in enumerate(evals) if e > 0]
        zero = [i for i, e in enumerate(evals) if e == 0]
        minus = [i for i, e in enumerate(evals) if e < 0]
        if not minus:
            for i in zero:
                masks[i] |= 1 << hi
            continue
        new_rays = [rays[i] for i in plus + zero]
        new_masks = [masks[i] for i in plus] + [
            masks[i] | (1 << hi) for i in zero]
        for p in plus:
            for m in minus:
                shared = masks[p] & masks[m]
                if any(i != p and i != m and (masks[i] & shared) == shared
                       for i in range(len(rays))):
                    continue
                new_rays.append(fraction_ray(tuple(
                    evals[p] * rays[m][j] - evals[m] * rays[p][j]
                    for j in range(dim))))
                new_masks.append(shared | 1 << hi)
        rays, masks = new_rays, new_masks
    return tuple(tuple(x.numerator for x in r) for r in sorted(rays))


def outcome(enumerate_, halfspaces, dim):
    """The repr of the rays (so order, scale and entry types count), or
    the error's type and message."""
    try:
        return repr(enumerate_(halfspaces, dim))
    except (DegenerateConeError, DimensionMismatchError,
            DimensionCapError) as exc:
        return type(exc), str(exc)


def integer_rank(rows):
    """Rank of an integer matrix by fraction-free elimination."""
    rows = [list(r) for r in rows]
    done = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(done, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[done], rows[pivot] = rows[pivot], rows[done]
        top = rows[done]
        for i in range(done + 1, len(rows)):
            f = rows[i][c]
            if f:
                row = [top[c] * x - f * y for x, y in zip(rows[i], top)]
                g = math.gcd(*row) or 1
                rows[i] = [x // g for x in row]
        done += 1
    return done


def assert_extreme_rays(vectors, constraints, dim):
    """Each vector is a distinct coprime integer extreme ray of
    {x : <c, x> >= 0}: it violates no constraint and its active ones have
    integer rank dim - 1."""
    def ints(v):
        assert all(x.denominator == 1 for x in v)
        return tuple(x.numerator for x in v)

    cons = [ints(c) for c in constraints]
    rays = [ints(v) for v in vectors]
    assert len(set(rays)) == len(rays)
    for ray in rays:
        assert math.gcd(*ray) == 1
        values = [sum(a * b for a, b in zip(c, ray)) for c in cons]
        assert min(values) >= 0
        active = [c for c, value in zip(cons, values) if value == 0]
        assert integer_rank(active) == dim - 1


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


@pytest.mark.parametrize("side", (5, True, None, 2.5))
def test_a_side_that_is_no_sequence_is_invalid_input(side):
    # one validator for every constructor, with the nouns of its side
    for make, noun in ((ConeRep.from_generators, "generators"),
                       (ConeRep.from_facets, "facets")):
        with pytest.raises(InvalidInputError, match=f"sequence of {noun}"):
            make(side)
    with pytest.raises(InvalidInputError, match="sequence of generators"):
        ConeRep.from_both(side, SQUARE_FACETS)
    with pytest.raises(InvalidInputError, match="sequence of facets"):
        ConeRep.from_both(SQUARE_GENS, side)
    # a vector that is no sequence is refused as vec refuses it
    with pytest.raises(InvalidInputError, match="sequence of numbers"):
        ConeRep.from_facets((side, (1, 0)))


def test_side_validation_keeps_its_messages():
    for make, noun in ((ConeRep.from_generators, "generator"),
                       (ConeRep.from_facets, "facet")):
        with pytest.raises(DegenerateConeError, match=f"no {noun}s given"):
            make(())
        with pytest.raises(DimensionMismatchError,
                           match=f"{noun} length differs from dim"):
            make(((1, 0), (0, 1, 1)))
    with pytest.raises(DegenerateConeError, match="do not span"):
        ConeRep.from_generators(((1, 0, 0), (0, 1, 0)))
    with pytest.raises(DegenerateConeError, match="do not span"):
        ConeRep.from_facets(((1, 0, 0), (0, 1, 0)))


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


def seeded_kernel_inputs():
    """2000 seeded (trial, halfspaces, dim) in dims 1-6: zero, repeated,
    positively scaled and opposite normals, and inputs whose normals do
    not span."""
    rng = random.Random(20261018)
    for trial in range(2000):
        dim = rng.randint(1, 6)
        count = rng.randint(max(1, dim - 1), dim + 4)
        halfspaces = [tuple(rng.randint(-2, 2) for _ in range(dim))
                      for _ in range(count)]
        if trial % 5 == 0:
            halfspaces.append((0,) * dim)
        if trial % 3 == 0:
            scale = rng.choice((1, 2, F(1, 3)))
            halfspaces.append(tuple(scale * x
                                    for x in rng.choice(halfspaces)))
        if trial % 7 == 0:
            halfspaces.append(tuple(-x for x in rng.choice(halfspaces)))
        rng.shuffle(halfspaces)
        yield trial, tuple(vec(h) for h in halfspaces), dim


def test_kernel_reads_normals_as_rows_at_any_scale():
    # Fraction normals, their integer rows and the normals times random
    # positive rationals give the same rays, or the same error
    rng = random.Random(3939)
    for trial, halfspaces, dim in seeded_kernel_inputs():
        if trial % 2:
            continue
        want = outcome(enumerate_rays, halfspaces, dim)
        rows = tuple(integer_row(h)[0] for h in halfspaces)
        scales = [F(rng.randint(1, 99), rng.randint(1, 99))
                  for _ in halfspaces]
        scaled = tuple(tuple(c * x for x in h)
                       for c, h in zip(scales, halfspaces))
        assert outcome(enumerate_rays, rows, dim) == want, f"trial {trial}"
        assert outcome(enumerate_rays, scaled, dim) == want, f"trial {trial}"


def test_kernel_matches_reference_seeded():
    outcomes = set()
    for trial, halfspaces, dim in seeded_kernel_inputs():
        want = outcome(reference_rays, halfspaces, dim)
        assert outcome(enumerate_rays, halfspaces, dim) == want, \
            f"trial {trial}"
        outcomes.add(want if isinstance(want, tuple) else "rays")
    assert outcomes == {"rays", (DegenerateConeError, "halfspace normals "
                                 "do not span; the cone contains a line")}


def unimodular(rng, dim):
    """A seeded integer matrix of determinant +-1: row operations on the
    identity, then a sign flip and a row shuffle."""
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-1, 1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    flip = rng.randrange(dim)
    rows[flip] = [-a for a in rows[flip]]
    rng.shuffle(rows)
    return rows


def cube_and_cross(dim):
    """Two lists of normals: the facets of the cone over the (dim - 1)-
    cube, whose rays (the cube's vertices) are each zero on dim - 1 of
    them, and the cube's vertices, whose cone's rays (the cube's facets)
    are each zero on half of them."""
    n = dim - 1
    facets = [tuple(s * (i == j) for j in range(n)) + (1,)
              for i in range(n) for s in (1, -1)]
    vertices = [tuple(1 - 2 * (b >> j & 1) for j in range(n)) + (1,)
                for b in range(2 ** n)]
    return facets, vertices


def lattice_polygon(rng, k, box=3):
    """Lifted vertices and reference facets of a lattice polygon with
    exactly k vertices."""
    while True:
        lifts = sorted({(rng.randint(-box, box), rng.randint(-box, box), 1)
                        for _ in range(k)})
        if len(lifts) < k or rank(lifts) < 3:
            continue
        gens = tuple(map(vec, lifts))
        facets = reference_rays(gens, 3)
        if len(facets) == k:
            return gens, facets


def walk_inputs():
    """Cones with many simple and many degenerate rays: cube and
    cross-polytope cones in dims 4-7 both ways, each under a unimodular
    change of basis with shuffled normals, and max-tensor facet products
    and min-tensor generator products of lattice polygons, 4x4 to 5x5."""
    rng = random.Random(4096)
    for dim in range(4, 8):
        for normals in cube_and_cross(dim):
            u = unimodular(rng, dim)
            moved = [vec(tuple(sum(map(mul, row, h)) for row in u))
                     for h in normals]
            rng.shuffle(moved)
            yield tuple(moved), dim
    for trial in range(20):
        a = lattice_polygon(rng, 4 + trial % 2)
        b = lattice_polygon(rng, 4 + trial // 2 % 2)
        side = trial // 4 % 2  # 0: generator products, 1: facet products
        yield tuple(map(vec, products(a[side], b[side]))), 9


def test_kernel_matches_reference_on_walked_edges():
    # Simple minus rays find their neighbours along edges, degenerate
    # ones by the scan; both must give the reference's exact tuple.
    for halfspaces, dim in walk_inputs():
        assert outcome(enumerate_rays, halfspaces, dim) == \
            outcome(reference_rays, halfspaces, dim), (dim, halfspaces)


def test_kernel_makes_its_base_rays_without_a_fraction_inverse(monkeypatch):
    # The base rays come from one integer elimination beside an identity
    # block (linalg.inverse_rays), so the kernel still answers, with the
    # reference's rays, when inverse and rref refuse.
    inputs = [(h, d) for _, h, d in seeded_kernel_inputs()]
    inputs += list(walk_inputs())
    want = [outcome(reference_rays, h, d) for h, d in inputs]

    def refuse(*args):
        raise AssertionError("a Fraction elimination was called")
    monkeypatch.setattr(cones, "inverse", refuse)
    monkeypatch.setattr(linalg, "inverse", refuse)
    monkeypatch.setattr(linalg, "rref", refuse)
    for (halfspaces, dim), rays in zip(inputs, want):
        assert outcome(enumerate_rays, halfspaces, dim) == rays, dim


def test_permuted_and_repeated_normals_keep_the_rays():
    # The slots and live set depend on the order of the normals and on
    # repeats dropped on the way in; the rays must not.
    rng = random.Random(1996035)
    for trial in range(200):
        dim = rng.randint(2, 7)
        count = rng.randint(dim + 1, dim + 8)
        halfspaces = [vec(tuple(rng.randint(-2, 2) for _ in range(dim)))
                      for _ in range(count)]
        want = outcome(enumerate_rays, tuple(halfspaces), dim)
        for h in rng.sample(halfspaces, rng.randint(1, 3)):
            scale = rng.choice((1, 3, F(1, 2)))
            halfspaces.append(tuple(scale * x for x in h))
        rng.shuffle(halfspaces)
        assert outcome(enumerate_rays, tuple(halfspaces), dim) == want, \
            f"trial {trial}"


@pytest.mark.parametrize("halfspaces, rays", [
    (((1,),), ((1,),)),
    (((2,), (0,), (3,)), ((1,),)),
    (((1,), (-1,)), ()),
    (((0,),), None),
    # dim 2: the shared zero set of the two base rays is empty
    (((1, 0), (0, 1), (-1, 1)), ((0, 1), (1, 1))),
    (((1, 0), (0, 1), (-1, -1)), ()),
    (((1, 0), (-1, 0), (0, 1)), ((0, 1),)),
    (((1, 1), (1, -1), (1, 0)), ((1, -1), (1, 1))),
    (((1, 2), (2, 4)), None),
])
def test_kernel_dims_one_and_two(halfspaces, rays):
    dim = len(halfspaces[0])
    halfspaces = tuple(vec(h) for h in halfspaces)
    got = outcome(enumerate_rays, halfspaces, dim)
    assert got == outcome(reference_rays, halfspaces, dim)
    if rays is None:
        assert got[0] is DegenerateConeError
    else:
        assert got == repr(rays)


def test_kernel_input_errors_match_reference():
    eye = tuple(vec(tuple(1 if i == j else 0 for j in range(17)))
                for i in range(17))
    for halfspaces, dim in ((eye, 17), ((vec((1, 0)), vec((0, 1, 0))), 2)):
        got = outcome(enumerate_rays, halfspaces, dim)
        assert got == outcome(reference_rays, halfspaces, dim)
        assert got[0] in (DimensionCapError, DimensionMismatchError)


def test_lineal_generators_are_not_pointed():
    cone = ConeRep.from_generators(((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                    (0, 0, 1)))
    with pytest.raises(DegenerateConeError,
                       match="^generators describe a cone that is not "
                             "pointed$"):
        cone.facets


def test_flat_facets_are_not_generating():
    # every way to the generators names the sides as this view does
    eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    reads = (lambda c: c.generators, ConeRep.generator_rows,
             lambda c: cones.maps_into(eye, c, make_classical(3).cone, 0))
    for read in reads:
        cone = ConeRep.from_facets(((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                    (0, 0, 1)))
        with pytest.raises(DegenerateConeError,
                           match="^facets describe a cone that is not "
                                 "generating$"):
            read(cone)


def test_zero_generator_still_enumerates():
    cone = ConeRep.from_generators(((1, 0, 0), (0, 0, 0), (0, 1, 0),
                                    (0, 0, 1)))
    assert ray_set(cone.facets) == ray_set(((1, 0, 0), (0, 1, 0),
                                            (0, 0, 1)))


def rank_rule(known, dim):
    """The lazy side as the rank of the enumerated rays decides it."""
    rays = enumerate_rays(known, dim)
    return rays if rays and rank(rays) == dim else None


def sides_match_rank_rule(known, arithmetic):
    """Both lazy sides of known give rank_rule's verdict, its message or
    its rays (in float mode each scaled to top entry 1); True when the
    verdict is degenerate."""
    dim = len(known[0])
    want = rank_rule(known, dim)
    if want is not None:
        want = tuple(tuple(F(x, max(map(abs, r)) if arithmetic == FLOAT
                             else 1) for x in r) for r in want)
    for make, side, name, quality in (
            (ConeRep.from_generators, "facets", "generators", "pointed"),
            (ConeRep.from_facets, "generators", "facets", "generating")):
        cone = make(known, arithmetic)
        if want is None:
            with pytest.raises(DegenerateConeError,
                               match=f"^{name} describe a cone that is "
                                     f"not {quality}$"):
                getattr(cone, side)
        else:
            assert getattr(cone, side) == want, known
    return want is None


def test_spanning_check_matches_rank_rule_seeded():
    rng = random.Random(1996)
    verdicts = set()
    for trial in range(600):
        dim = rng.randint(1, 5)
        known = [tuple(rng.randint(-2, 2) for _ in range(dim))
                 for _ in range(rng.randint(dim, dim + 4))]
        if trial % 4 == 0:
            known.append(tuple(-x for x in rng.choice(known)))
        known = tuple(vec(k) for k in known)
        if rank(known) == dim:
            verdicts.add(sides_match_rank_rule(known, RATIONAL))
    assert verdicts == {True, False}


def test_spanning_check_matches_rank_rule_seeded_float():
    # Power-of-two denominators (scaled by 1/2 or 3/8, entries of
    # exactify(0.1)): the known side is not integer, the rays are.
    rng = random.Random(2009)
    tenth = exactify(0.1)
    verdicts = set()
    for trial in range(400):
        dim = rng.randint(1, 5)
        known = [tuple(rng.choice((-2, -1, 0, 1, 2, tenth, -tenth))
                       * rng.choice((1, F(1, 2), F(3, 8)))
                       for _ in range(dim))
                 for _ in range(rng.randint(dim, dim + 4))]
        if trial % 4 == 0:
            known.append(tuple(-x for x in rng.choice(known)))
        known = tuple(vec(k) for k in known)
        if rank(known) == dim:
            verdicts.add(sides_match_rank_rule(known, FLOAT))
    assert verdicts == {True, False}


def test_enumerated_sides_are_the_fraction_kernels_vectors_seeded(
        monkeypatch):
    # Read as vectors, each side enumerated from the seeded inputs is
    # what the kernel's Fraction rays made: the rays in rational mode,
    # each ray divided by its largest entry magnitude in float mode. Its
    # rows are the rays, filled with no vector made.
    made = []
    vectors = cones._vectors

    def counted(rows):
        made.append(rows)
        return vectors(rows)
    monkeypatch.setattr(cones, "_vectors", counted)
    compared = 0
    for trial, known, dim in seeded_kernel_inputs():
        if rank(known) != dim:
            continue
        rays = rank_rule(known, dim)
        for arithmetic in (RATIONAL, FLOAT):
            if rays is None:
                want = None
            elif arithmetic == RATIONAL:
                want = tuple(tuple(map(F, r)) for r in rays)
            else:
                want = tuple(tuple(x / max(map(abs, r)) for x in r)
                             for r in (tuple(map(F, r)) for r in rays))
            for make, side, rows_of in (
                    (ConeRep.from_generators, "facets", "facet_rows"),
                    (ConeRep.from_facets, "generators", "generator_rows")):
                cone = make(known, arithmetic)
                if want is None:
                    with pytest.raises(DegenerateConeError):
                        getattr(cone, rows_of)()
                    continue
                made.clear()
                rows = getattr(cone, rows_of)()
                assert made == [], trial
                assert repr(getattr(cone, side)) == repr(want), trial
                assert made == [rows]
                assert rows == tuple(map(linalg.integer_row, want))
                compared += 1
    assert compared > 1000


HEXAGON = StateSpace(
    ConeRep.from_generators(((1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1),
                             (-1, -1, 1), (0, -1, 1))),
    vec((0, 0, 1)))


def products(xs, ys):
    return [tuple(a * b for a in x for b in y) for x in xs for y in ys]


def test_hexagon_max_tensor_has_552_extreme_rays():
    gens = max_tensor(HEXAGON, HEXAGON).cone.generators
    assert len(gens) == 552
    facets = HEXAGON.cone.facets
    assert_extreme_rays(gens, products(facets, facets), 9)


def test_hexagon_min_tensor_has_552_facets():
    facets = min_tensor(HEXAGON, HEXAGON).cone.facets
    assert len(facets) == 552
    gens = HEXAGON.cone.generators
    assert_extreme_rays(facets, products(gens, gens), 9)


def test_squit_max_tensor_has_24_extreme_rays():
    sq = make_squit()
    gens = max_tensor(sq, sq).cone.generators
    assert len(gens) == 24
    assert_extreme_rays(gens, products(sq.cone.facets, sq.cone.facets), 9)


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


def top(v):
    """The largest entry magnitude of v, 1 when v is zero."""
    return max(map(abs, v)) or 1


def unit_top(v):
    """v over its largest entry magnitude: the direction of a facet or
    generator that a tolerant test reads."""
    return tuple(F(x) / top(v) for x in v)


def reference_contains(cone, x, tol=F(0)):
    """Reference polyhedral membership: a Fraction dot per facet, each
    facet taken at largest entry magnitude 1."""
    return all(dot(unit_top(f), x) >= -tol for f in cone.facets)


def oracle_cones(rng):
    """Rational and float polygons, classical:n, tensors of mixed pairs,
    and the dual view of each; every cone built fresh."""
    def rational_polygon():
        pts = {(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(8)}
        pts |= {(1, 0), (0, 1), (-1, -1)}
        return ConeRep.from_generators(
            [(F(a, 7), F(b, 5), 1) for a, b in sorted(pts)])

    def pairs():
        return ((make_squit(), make_classical(2)),
                (make_polygon(3), make_classical(2)),
                (make_polygon(5), make_squit()),
                (StateSpace(rational_polygon(), vec((0, 0, 1))),
                 make_classical(3)))

    cones = [rational_polygon() for _ in range(3)]
    cones += [make_squit().cone, HEXAGON.cone]
    cones += [make_polygon(n).cone for n in (3, 5, 6, 7)]
    cones += [make_classical(n).cone for n in (1, 2, 4)]
    cones += [max_tensor(a, b).cone for a, b in pairs()]
    cones += [min_tensor(a, b).cone for a, b in pairs()]
    return cones + [c.dual() for c in cones]


def oracle_points(cone, rng, count=6):
    """Boundary points of the cone (count of its generators and of its
    facets' faces), and points just inside and just outside them, offset
    by 10^-12 and 2^-60."""
    gens, facets = cone.generators, cone.facets
    inner = tuple(map(sum, zip(*gens)))
    boundary = rng.sample(gens, min(count, len(gens)))
    for f in rng.sample(facets, min(count, len(facets))):
        face = [g for g in gens if dot(f, g) == 0]
        weights = [rng.randint(1, 3) for _ in face]
        boundary.append(tuple(sum(w * g[i] for w, g in zip(weights, face))
                              for i in range(cone.dim)))
    points = list(boundary)
    for p in boundary:
        for eps in (F(1, 10 ** 12), F(1, 2 ** 60)):
            way = rng.choice((inner, rng.choice(facets)))
            points.append(tuple(a + eps * b for a, b in zip(p, way)))
            points.append(tuple(a - eps * b for a, b in zip(p, way)))
    return points


def oracle_tolerances(dots, rng):
    """Zero, the default slack, a random slack (a Fraction or a float)
    and, when a facet's dot is negative, the exact violation with one
    step to either side."""
    tols = [F(0), DEFAULT_TOLERANCE,
            rng.choice((F(rng.randint(1, 999), 10 ** 12),
                        rng.random() * 1e-9))]
    worst = min(dots)
    if worst < 0:
        step = F(1, 2 ** 80)
        tols += [-worst, -worst - step, -worst + step]
    return tols


def test_contains_matches_reference_seeded():
    rng = random.Random(13)
    verdicts = {True: 0, False: 0}
    mismatches = []
    for cone in oracle_cones(rng):
        for x in oracle_points(cone, rng):
            # reference_contains, its facet dots made once for every tol
            dots = [dot(unit_top(f), x) for f in cone.facets]
            for tol in oracle_tolerances(dots, rng):
                got = cone.contains(x, tol)
                verdicts[got] += 1
                if got != all(d >= -tol for d in dots):
                    mismatches.append((cone.dim, x, tol))
    assert not mismatches
    assert min(verdicts.values()) > 500


def test_weights_on_rows_are_the_vector_lps_weights_seeded():
    # weights hands the LP the generator rows and divides each weight by
    # its row's scale: that is the LP on the generator vectors, None
    # included, on the boundary, near it on either side and far outside
    rng = random.Random(39)
    answers = {True: 0, False: 0}
    for cone in oracle_cones(rng):
        gens = cone.generators
        if len(gens) > 40:  # two float tensors whose LPs take 30 s
            continue
        far = tuple(-x for x in map(sum, zip(*gens)))
        for x in oracle_points(cone, rng, count=2) + [far]:
            for tol in (F(0), 1e-9):
                want = feasible_point(gens, x, tol)[0]
                assert cone.weights(x, tol) == want, (cone.dim, x, tol)
                answers[want is not None] += 1
    assert min(answers.values()) > 200


def test_contains_below_the_cap_runs_no_lp(monkeypatch):
    calls = []
    solve = cones.feasible_point

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(cones, "feasible_point", counted)
    test_contains_matches_reference_seeded()
    assert calls == []
    # the counter sees the one LP an above-cap generators-only cone runs
    orthant = min_tensor(make_classical(4), make_classical(5)).cone
    assert orthant.contains((F(1),) * 20) and len(calls) == 1


def test_orthant_above_the_cap_is_decided_by_its_generators():
    # classical:4 (x)min classical:5 is the orthant of R^20, and so is the
    # dual of the max tensor: x is a member iff every x_i >= 0
    rng = random.Random(20)
    c4, c5 = make_classical(4), make_classical(5)
    cone = min_tensor(c4, c5).cone
    dual = max_tensor(c4, c5).cone.dual()
    assert cone.dim == 20 > DIMENSION_CAP
    verdicts = {True: 0, False: 0}
    for _ in range(40):
        x = [rng.choice((0, 0, 1, F(1, 3), 7)) for _ in range(20)]
        if rng.random() < 0.5:
            x[rng.randrange(20)] = -F(1, rng.choice((1, 10 ** 12)))
        x = vec(x)
        member = all(c >= 0 for c in x)
        assert cone.contains(x) is member and dual.contains(x) is member
        # as on the facet path, a NaN tolerance accepts nothing
        assert not cone.contains(x, math.nan)
        weights = cone.weights(x)
        assert (weights is not None) is member
        if member:
            assert combination(weights, cone.generators) == x
        verdicts[member] += 1
    assert min(verdicts.values()) >= 10, verdicts
    assert not cone.has_facets() and not dual.has_facets()


def check_generators_decide(space, factors, eps, margins, rng, rounds=10):
    """Seeded members (positive combinations of the generators, their
    weights checked exactly) and non-members (pushed below a product of
    factor facets, which every min-cone element pairs >= 0 with, by
    margin times its largest entry) of an above-cap min tensor."""
    cone = space.cone
    assert cone.dim > DIMENSION_CAP
    gens = cone.generators
    separators = factors[0].cone.facets
    for factor in factors[1:]:
        separators = [product_vec(s, f)
                      for s in separators for f in factor.cone.facets]
    for _ in range(rounds):
        picked = rng.sample(gens, rng.randint(1, 6))
        x = combination([F(rng.randint(1, 9), rng.randint(1, 4))
                         for _ in picked], picked)
        weights = cone.weights(x, eps)
        assert weights is not None and combination(weights, gens) == x
        assert cone.contains(x, eps)
        f = rng.choice(separators)
        gap = rng.choice(margins) * max(map(abs, f))
        y = tuple(a - (dot(f, x) + gap) / dot(f, f) * b
                  for a, b in zip(x, f))
        assert dot(f, y) == -gap < 0
        assert cone.weights(y, eps) is None and not cone.contains(y, eps)
    assert not cone.has_facets()


def test_min_of_min_above_the_cap_is_decided_by_its_generators():
    sq, bit = make_squit(), make_classical(2)
    space = min_tensor(min_tensor(sq, sq), bit)
    assert space.dim == 18
    check_generators_decide(space, (sq, sq, bit), F(0),
                            (F(1), F(1, 10 ** 12)), random.Random(18))


def test_float_min_above_the_cap_is_decided_at_the_default_tolerance():
    pentagon, six = make_polygon(5), make_classical(6)
    space = min_tensor(pentagon, six)
    eps = tolerance_for(None, space)
    assert eps == DEFAULT_TOLERANCE and space.dim == 18
    # a margin of the separator's largest entry keeps y at L1 distance
    # >= 1 from the cone, far outside eps
    check_generators_decide(space, (pentagon, six), eps, (F(1), F(3)),
                            random.Random(5))


def test_contains_tolerance_reads_no_facet_scale():
    # facets (3/2, 0) and (1, 0) are one direction, so the two cones give
    # one verdict: at x = (-1/5, 1) the facet of largest entry 1 pairs to
    # -1/5, whichever scale it is given at
    step = F(1, 10 ** 30)
    given = (ConeRep.from_facets(((F(3, 2), 0), (0, F(5, 7)))),
             ConeRep.from_facets(((1, 0), (0, F(5, 7)))))
    x = vec((F(-1, 5), 1))
    for tol, verdict in ((F(1, 5), True), (F(1, 5) - step, False),
                         (F(0), False), (F(3, 10), True)):
        for cone in given:
            assert cone.contains(x, tol) is verdict
            assert reference_contains(cone, x, tol) is verdict
    # a negative tol asks for a margin, read the same way: both facets
    # pair to 1 with y = (1, 1)
    y = vec((1, 1))
    for tol, verdict in ((-1, True), (-1 - step, False), (math.nan, False)):
        for cone in given:
            assert cone.contains(y, tol) is verdict
            assert reference_contains(cone, y, tol) is verdict


def test_contains_exactifies_entries_without_a_denominator():
    cone = make_polygon(5).cone
    for x in ((0.25, -0.5, 1.0), (0.9, 0.0, 1.0), (1, 0, 1), ("1/3", 0, 1)):
        assert cone.contains(x) == reference_contains(cone, vec(x))
    with pytest.raises(DimensionMismatchError):
        cone.contains((0.5, 1.0))


def tolerance_kinds(rng, dots):
    """Every kind of tol that membership and positivity accept: zeros
    (int, Fraction, float), a positive Fraction and float, negative
    ones, NaN and the infinities, and, when some dot is negative, its
    exact violation with one step to either side; when all are positive,
    the least dot as a margin with one step to either side."""
    step = F(1, 2 ** 80)
    tols = [0, F(0), 0.0, -0.0, DEFAULT_TOLERANCE,
            F(rng.randint(1, 999), 10 ** 12), rng.random() * 1e-9,
            -F(rng.randint(1, 999), 10 ** 12), -rng.random() * 1e-9,
            math.nan, math.inf, -math.inf]
    worst = min(dots, default=F(0))
    if worst:
        tols += [-worst, -worst - step, -worst + step]
    return tols


def test_meets_matches_fraction_arithmetic_seeded():
    # random rows with positive scales (1, float-like 1 / max, random
    # rationals) against vectors given by integers and a scale pair (c, d)
    # not always coprime: the verdict is the Fraction test, row by row,
    # on each row over its largest entry magnitude, whatever its scale
    rng = random.Random(40)
    verdicts = {True: 0, False: 0}
    for _ in range(600):
        dim = rng.randint(1, 5)
        rows = []
        for _ in range(rng.randint(0, 6)):
            row = tuple(rng.randint(-9, 9) for _ in range(dim))
            scale = rng.choice((F(1), F(1, max(map(abs, row)) or 1),
                                F(rng.randint(1, 99), rng.randint(1, 99))))
            rows.append((row, scale))
        xs = tuple(rng.randint(-9, 9) for _ in range(dim))
        k = rng.randint(1, 4)
        c, d = k * rng.randint(1, 30), k * rng.randint(1, 30)
        dots = [F(c, d) * sum(map(mul, row, xs)) / top(row)
                for row, _ in rows]
        for tol in tolerance_kinds(rng, dots):
            got = cones._meets(tuple(rows), xs, (c, d), tol)
            assert got == all(v >= -tol for v in dots), (rows, xs, c, d, tol)
            verdicts[got] += 1
    assert min(verdicts.values()) > 1500


def mode_cones(rng):
    """Rational and float cones of both kinds of side: rational polygons
    (scale-1 rows), float polygons (their rows' scales from the floats,
    their enumerated sides scaled by 1 / max), a float tensor and the
    dual view of each."""
    def rational_polygon():
        pts = {(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(6)}
        pts |= {(1, 0), (0, 1), (-1, -1)}
        return ConeRep.from_generators(
            [(F(a, 7), F(b, 5), 1) for a, b in sorted(pts)])

    def float_polygon():
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(5))
        return ConeRep.from_generators(
            [(math.cos(t), math.sin(t), 1.0) for t in angles], FLOAT)

    found = [rational_polygon(), rational_polygon(), make_squit().cone,
             make_classical(3).cone, float_polygon(), float_polygon(),
             make_polygon(5).cone, make_polygon(7).cone,
             max_tensor(make_polygon(3), make_classical(2)).cone]
    return found + [c.dual() for c in found]


def test_contains_and_maps_into_match_fraction_arithmetic_seeded():
    # in both arithmetic modes and at every kind of tol: membership of
    # boundary, near and far points, and positivity of maps that send a
    # cone's generators onto (a combination of) its generators, moved off
    # by nothing, 2^-60, 10^-12 or far, against Fraction dots of facets
    # and generators of largest entry magnitude 1
    rng = random.Random(4040)
    seen = {mode: {True: 0, False: 0} for mode in (RATIONAL, FLOAT)}
    for cone in mode_cones(rng):
        gens, facets = cone.generators, cone.facets
        far = tuple(-x for x in map(sum, zip(*gens)))
        units = [unit_top(f) for f in facets]
        for x in oracle_points(cone, rng, count=3) + [far]:
            dots = [dot(f, x) for f in units]
            for tol in tolerance_kinds(rng, dots):
                got = cone.contains(x, tol)
                assert got == all(v >= -tol for v in dots), (x, tol)
                seen[cone.arithmetic][got] += 1
        for _ in range(6):
            # sum_k w_k g_k f_k^t maps the cone into itself
            terms = [(rng.choice(gens), rng.choice(facets),
                      F(rng.randint(1, 5))) for _ in range(3)]
            matrix = [[sum(w * g[i] * f[j] for g, f, w in terms)
                       for j in range(cone.dim)] for i in range(cone.dim)]
            step = rng.choice((0, F(1, 2 ** 60), F(1, 10 ** 12), F(1, 3)))
            matrix[rng.randrange(cone.dim)][rng.randrange(cone.dim)] -= step
            matrix = mat(matrix)
            dots = [dot(f, linalg.matvec(matrix, unit_top(g)))
                    for g in gens for f in units]
            for tol in tolerance_kinds(rng, dots):
                got = cones.maps_into(matrix, cone, cone, tol)
                assert got == all(v >= -tol for v in dots), (matrix, tol)
                seen[cone.arithmetic][got] += 1
    assert all(min(counts.values()) > 300 for counts in seen.values()), seen


def rescaled(cone, rng):
    """The cone with each held generator and facet row times its own
    random positive rational."""
    def side(rows):
        return tuple((row, scale * F(rng.randint(1, 10 ** 6),
                                     rng.randint(1, 10 ** 6)))
                     for row, scale in rows)
    return ConeRep(cone.dim, POLYHEDRAL, cone.arithmetic,
                   side(cone.generator_rows()), side(cone.facet_rows()))


def test_verdicts_read_no_side_scale_seeded():
    # every cone of both families in both modes, rebuilt with each side
    # row at a random scale, gives every verdict that reads a side (at
    # tol 0, 1e-9 and a random tol): membership, states, effects,
    # positivity and effects on the minimal tensor
    rng = random.Random(41)
    verdicts = {True: 0, False: 0}
    found = mode_cones(rng) + oracle_cones(rng)[::3]
    assert {c.arithmetic for c in found} == {RATIONAL, FLOAT}
    for cone in found:
        gens, facets = cone.generators, cone.facets
        scaled = rescaled(cone, rng)
        unit = tuple(map(sum, zip(*map(unit_top, facets))))
        space, other = StateSpace(cone, unit), StateSpace(scaled, unit)
        points = oracle_points(cone, rng, count=2)
        states = [tuple(x / dot(unit, p) for x in p)
                  for p in points if dot(unit, p) > 0]
        # effects: dual boundary points, near ones, at most u on the cone
        effects = [tuple(x / peak for x in e)
                   for e in oracle_points(cone.dual(), rng, count=2)
                   for peak in [max(dot(e, g) / dot(unit, g) for g in gens)]
                   if peak > 0]
        terms = [(rng.choice(gens), rng.choice(facets), F(rng.randint(1, 5)))
                 for _ in range(3)]
        matrix = [[sum(w * g[i] * f[j] for g, f, w in terms)
                   for j in range(cone.dim)] for i in range(cone.dim)]
        matrix[rng.randrange(cone.dim)][rng.randrange(cone.dim)] -= \
            rng.choice((F(1, 10 ** 12), F(1, 3)))
        matrix = mat(matrix)
        products = [[[x * y / 2 for y in unit] for x in e]
                    for e in rng.sample(effects, min(3, len(effects)))]

        def read(cone, space, tol):
            return [cone.contains(x, tol) for x in points] \
                + [space.is_state(x, tol) for x in states] \
                + [is_effect(space, e, tol) for e in effects] \
                + [cones.maps_into(matrix, cone, cone, tol),
                   is_positive_map(LinearMapRep(space, space, matrix), tol)] \
                + [effect_on_min(space, space, f, tol) for f in products]

        for tol in (F(0), 1e-9, F(rng.randint(1, 999), 10 ** 10)):
            got = read(cone, space, tol)
            assert got == read(scaled, other, tol), (cone.dim, tol)
            for v in got:
                verdicts[v] += 1
    assert min(verdicts.values()) > 300, verdicts


def float_square(scale):
    """The square cone from its facets, each times scale, in float mode."""
    return ConeRep.from_facets([[scale * x for x in f] for f in SQUARE_FACETS],
                               FLOAT)


@pytest.mark.parametrize("scale", (1e6, 1.0, 1e-6))
def test_float_square_from_facets_reads_no_facet_scale(scale):
    # a point 10^-12 outside the facet (-1, 0, 1) is in at tol 1e-9, and
    # one 10^-4 outside is not, however the facets are scaled; the
    # generators' LP agrees each time
    cone = float_square(scale)
    for gap, verdict in ((F(1, 10 ** 12), True), (F(1, 10 ** 4), False)):
        x = vec((1, 1, 1 - gap))
        assert cone.contains(x, 1e-9) is verdict
        assert (cone.weights(x, 1e-9) is not None) is verdict


def test_weights_and_strict_positivity_exactify_entries():
    # a float entry is read as its Fraction, as contains reads it
    cone = make_squit().cone
    half = vec((F(1, 2), F(1, 2), 1))
    assert cone.weights((0.5, 0.5, 1.0)) == cone.weights(half)
    assert cone.weights((0.5, 0.5, 1.0)) is not None
    assert cone.weights((2.0, 0, 1)) is None
    assert cone.strictly_positive((0, 0, 1.0))
    assert not cone.strictly_positive((1.0, 0, 1))
    assert ConeRep.lorentz(3).strictly_positive((0.5, 0, 1.0))


def test_dual_swaps_lazily():
    cone = ConeRep.from_generators(SQUARE_GENS)
    dual = cone.dual()
    assert dual.has_facets() and not dual.has_generators()
    assert ray_set(dual.generators) == ray_set(SQUARE_FACETS)
    # double dual is member-set equal to the original
    assert ray_set(cone.dual().dual().generators) == ray_set(SQUARE_GENS)


def test_rows_cleared_through_one_view_are_the_other_views(monkeypatch):
    # a given side is cleared once, by the constructor, and an enumerated
    # side never, whichever view asks first and whether the dual view is
    # made before or after
    seen = record_clears(monkeypatch)
    for early in (True, False):
        seen.clear()
        cone = ConeRep.from_generators(SQUARE_GENS)
        if early:
            cone.dual()
        rows = cone.generator_rows()
        assert cone.dual().facet_rows() is rows
        assert cone.facet_rows() is cone.dual().generator_rows()
        assert cone.dual().dual() is cone
        facets = cone.facets
        assert cone.facet_rows() == tuple(map(linalg.integer_row, facets))
        assert cone.generators == cone.dual().facets
        # (the facets' double description clears its normals and base
        # besides)
        sides = set(cone.generators) | set(facets)
        mine = [v for direct, _, v in seen
                if direct == "gptkit.cones" and v in sides]
        assert mine == list(map(vec, SQUARE_GENS))
        assert rows == tuple(map(linalg.integer_row, cone.generators))
        assert held_as_rows(cone)
        # an enumerated side is known to both views
        assert cone.has_facets() and cone.dual().has_generators()
        other = ConeRep.from_facets(SQUARE_FACETS)
        if early:
            other.dual()
        assert ray_set(other.generators) == ray_set(SQUARE_GENS)
        assert other.has_generators() and other.dual().has_facets()
    # positivity reads the domain's generators through its dual view; the
    # domain reads the same rows
    space = make_polygon(5)
    assert cones.maps_into(((1, 0, 0), (0, 1, 0), (0, 0, 1)), space.cone,
                           space.cone, F(0))
    assert space.cone.generator_rows() is space.cone.dual().facet_rows()
    # handed-over rows are the rows read, through either view
    rows = space.cone._facets
    assert rows is not None and space.cone.facet_rows() is rows
    assert space.cone.dual().generator_rows() is rows
    assert held_as_rows(space.cone)


@pytest.mark.parametrize("n", (3, 5, 14))
def test_float_polygons_hand_over_their_vertex_rows(monkeypatch, n):
    # the rows that prove the edge facets are the cone's generator rows,
    # read with no clear and no double description
    seen = record_clears(monkeypatch)
    monkeypatch.setattr(cones, "enumerate_rays", None)
    cone = make_polygon(n).cone
    made = len(seen)
    rows = cone.generator_rows()
    assert rows is cone._generators and len(seen) == made
    assert rows == tuple(map(linalg.integer_row, cone.generators))
    assert cone.generators == cone.generators
    assert held_as_rows(cone)


def test_a_side_is_held_once_as_rows_seeded():
    # after any reads, through either view, each side slot holds rows or
    # None, and vectors read twice are equal
    rng = random.Random(3838)
    reads = ("generators", "facets", "generator_rows", "facet_rows",
             "minimal_generators", "dual")
    for _ in range(40):
        make = rng.choice((ConeRep.from_generators, ConeRep.from_facets))
        cone = make(SQUARE_GENS + ((0, 0, 1),) * rng.randint(0, 1)
                    if make is ConeRep.from_generators else SQUARE_FACETS,
                    rng.choice((RATIONAL, FLOAT)))
        view = cone
        for name in rng.choices(reads, k=6):
            got = getattr(view, name)
            got = got() if callable(got) else got
            if name == "dual":
                view = got
            elif name in ("generators", "facets"):
                assert got == getattr(view, name)
                assert all(type(x) is F for v in got for x in v)
            assert held_as_rows(cone)


def test_minimal_generators_drops_redundant():
    cone = ConeRep.from_generators(SQUARE_GENS + ((0, 0, 1), (2, 2, 2)))
    assert ray_set(cone.minimal_generators()) == ray_set(SQUARE_GENS)


def reference_minimal_generators(cone):
    """The generators whose zero facets, by Fraction dots, have rank
    dim - 1."""
    keep = []
    for g in cone.generators:
        active = tuple(f for f in cone.facets if dot(f, g) == 0)
        if (rank(active) if active else 0) >= cone.dim - 1:
            keep.append(g)
    return tuple(keep)


def test_minimal_generators_match_the_fraction_reference_seeded():
    rng = random.Random(3636)
    for _ in range(60):
        d = rng.randint(3, 5)
        points = [tuple(rng.randint(-2, 2) for _ in range(d - 1))
                  for _ in range(rng.randint(d + 1, 9))]
        # midpoints and a repeat: redundant, and on no more facets; the
        # greatest point, a vertex, listed twice; and a zero row
        p, q = rng.sample(points, 2)
        points += [tuple(F(x + y, 2) for x, y in zip(p, q)), points[0],
                   max(points)]
        gens = [vec(p + (1,)) for p in points]
        if rank(gens) < d:
            continue
        gens.insert(rng.randrange(len(gens) + 1), vec((0,) * d))
        arithmetic = rng.choice((RATIONAL, FLOAT))
        cone = ConeRep.from_generators(
            [tuple(x * rng.randint(1, 3) for x in g) for g in gens],
            arithmetic)
        assert cone.minimal_generators() == \
            reference_minimal_generators(cone)
    for space in (make_squit(), make_polygon(5), make_polygon(7),
                  make_classical(3)):
        assert space.cone.minimal_generators() == \
            reference_minimal_generators(space.cone)


def test_polygon_facets_analytic():
    # independently derived support lines of the regular n-gon
    for n in (3, 5, 6, 8):
        facets = make_polygon(n).cone.facets
        assert len(facets) == n
        expected = []
        for k in range(n):
            ang = (2 * k + 1) * math.pi / n
            normal = vec((-math.cos(ang), -math.sin(ang),
                          math.cos(math.pi / n)))
            top = max(map(abs, normal))
            expected.append(tuple(x / top for x in normal))
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
    assert len(partition_rays(squit.cone.generators)) == 1
    eye = tuple(vec(tuple(1 if i == j else 0 for j in range(3)))
                for i in range(3))
    assert partition_rays(eye) == ((0,), (1,), (2,))
    # square plus an independent ray splits into two summands
    padded = tuple(vec(g + (0,)) for g in SQUARE_GENS) + (vec((0, 0, 0, 1)),)
    blocks = partition_rays(padded)
    assert len(blocks) == 2
    assert (4,) in blocks


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                max_size=6))
def test_independent_subset_is_greedy_by_rank(rows):
    vectors = tuple(vec(r) for r in rows)
    assert independent_subset(vectors) == greedy_by_rank(vectors)


def test_rank_and_independent_subset_read_pivots_only(monkeypatch):
    # Both answer from the integer elimination alone, so they still
    # answer when rref, the only maker of the Fraction matrix, refuses.
    dyadic = (F(1, 2), F(3, 8), exactify(0.1))
    cases = [(), ((),), (vec((0, 0)), vec((0, 0))),
             mat(((0, 1, 2), (0, 3, 4), (0, -5, 6))),  # zero column
             mat(((-3, 6, 1), (1, -1, 0), (0, -2, -2))),  # negative pivots
             mat(((-1, 0), (0, -4), (2, -2))),
             mat((dyadic, (1, 0, dyadic[0]), tuple(2 * x for x in dyadic))),
             *seeded_matrices(random.Random(25), 600)]
    want = [(len(rref(m)[1]), greedy_by_rank(m)) for m in cases]

    def refuse(m):
        raise AssertionError("rref called")
    monkeypatch.setattr(linalg, "rref", refuse)
    # a module that imported rref by name holds its own binding
    monkeypatch.setattr(cones, "rref", refuse, raising=False)
    for m, (r, subset) in zip(cases, want):
        assert rank(m) == r, m
        assert independent_subset(m) == subset, m


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(5)))
def test_partition_rays_permutation_invariant(order):
    padded = tuple(vec(g + (0,)) for g in SQUARE_GENS) + (vec((0, 0, 0, 1)),)
    shuffled = tuple(padded[i] for i in order)
    blocks = partition_rays(shuffled)
    as_rays = sorted(sorted(shuffled[i] for i in blk) for blk in blocks)
    base = sorted(sorted(padded[i] for i in blk)
                  for blk in partition_rays(padded))
    assert as_rays == base


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.lists(
    st.lists(st.integers(-1, 1), min_size=d, max_size=d).filter(any),
    min_size=1, max_size=7)))
def test_partition_rays_is_finest_direct_sum(rows):
    rays = tuple(vec(r) for r in rows)
    blocks = partition_rays(rays)
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


def test_constructor_rejects_an_unknown_kind():
    with pytest.raises(UnsupportedConeError, match="banana"):
        ConeRep(3, "banana", "rational")


def test_lorentz_has_no_lists():
    cone = ConeRep.lorentz(4)
    assert cone.contains(vec((1, 0, 0, 2)))
    assert not cone.contains(vec((1, 1, 1, 1)))
    # int and float entries are made exact, as for polyhedral cones
    assert cone.contains((3, 4, 0, 5)) and not cone.contains((3, 4, 1, 5))
    assert cone.contains((0.5, -0.25, 0.0, 0.625))
    assert not cone.contains((0.5, -0.25, 0.0, 0.5))
    with pytest.raises(UnsupportedConeError):
        cone.generators
    with pytest.raises(UnsupportedConeError):
        cone.facets
    assert cone.dual() is cone


def test_lorentz_refuses_the_negative_axis():
    # (0, 0, -1) passes the squared test; only the sign of the last
    # coordinate refuses it, within tol too
    cone = make_ball(2).cone
    assert not cone.contains((0, 0, -1))
    assert not cone.contains((0, 0, -1), F(1, 2))
