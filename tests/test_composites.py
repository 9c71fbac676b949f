import math
import random
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptkit.composites import (BipartiteState, _as_matrix, _space_from_ref,
                               check_distributive_inclusion, conditional,
                               effect_on_max, effect_on_min, f_hat,
                               is_composite, is_entangled, marginal,
                               max_tensor, min_tensor, omega_hat, product_vec,
                               remote_evaluate)
from gptkit.cones import POLYHEDRAL, ConeRep, maps_into
from gptkit.errors import (DegenerateConeError, DimensionMismatchError,
                           InvalidInputError, UnitMismatchError)
from gptkit.linalg import (dot, identity, integer_row, mat, matvec, rank,
                           transpose, vec)
from gptkit.lp import feasible_point
from gptkit import cones, models
from gptkit.models import (entangled_state_coords, make_ball, make_classical,
                           make_polygon, make_squit)
from gptkit.scalars import FLOAT, tolerance_for
from gptkit.spaces import LinearMapRep, StateSpace, is_positive_map
from test_cones import (HEXAGON, held_as_rows, record_clears,
                        reference_contains, reference_rays, top, unit_top)

F = Fraction
EIGHTH = F(1, 8)

TELEPORT_EFFECT = ((EIGHTH, -EIGHTH, 0), (EIGHTH, EIGHTH, 0),
                   (0, 0, 2 * EIGHTH))


def squit_iso_state():
    sq = make_squit()
    return BipartiteState(max_tensor(sq, sq), entangled_state_coords(sq))


def test_product_vec_row_major():
    assert product_vec(vec((2, 3)), vec((5, 7))) == (10, 14, 15, 21)


def test_tensor_shapes_and_units():
    sq = make_squit()
    cl = make_classical(2)
    low = min_tensor(sq, cl)
    high = max_tensor(sq, cl)
    assert low.dim == high.dim == 6
    assert low.unit == high.unit == product_vec(vec(sq.unit), vec(cl.unit))
    assert low.name == "min(polygon:4,classical:2)"
    assert high.tensor == "max"
    assert low.split_dims() == (3, 2)


def test_min_generators_are_products():
    sq = make_squit()
    cl = make_classical(2)
    gens = set(min_tensor(sq, cl).cone.generators)
    want = {product_vec(x, y)
            for x in sq.cone.generators for y in cl.cone.generators}
    assert gens == want


# a square payload with fractional generators and facets that are not
# coprime, and a float-mode triangle with fractional, non-coprime vectors
FRACTIONAL = StateSpace.from_json_dict({
    "dim": 3, "kind": "polyhedral", "unit": [0, 0, 1],
    "generators": [["1/2", "1/2", "1/2"], [-3, 3, 3], ["-2/3", "-2/3", "2/3"],
                   [1, -1, 1]],
    "facets": [[-2, 0, 2], [0, "-1/3", "1/3"], [0, 6, 6], [1, 0, 1]]})
FLOAT_TRIANGLE = StateSpace.from_json_dict({
    "dim": 3, "kind": "polyhedral", "arithmetic": "float", "unit": [0, 0, 1],
    "generators": [[0.5, 0, 0.5], [0, 2, 2], [-0.75, -0.75, 0.75]]})


@pytest.mark.parametrize("a, b", [
    (make_squit(), make_classical(3)), (make_polygon(5), make_polygon(6)),
    (make_polygon(5), make_squit()), (make_classical(2), make_polygon(7)),
    (FRACTIONAL, make_squit()), (make_polygon(5), FRACTIONAL),
    (FLOAT_TRIANGLE, FRACTIONAL), (FLOAT_TRIANGLE, make_classical(2))],
    ids=["rational", "float", "float-rational", "rational-float",
         "payload-rational", "float-payload", "float-payload-payload",
         "float-payload-rational"])
def test_tensor_products_are_product_vec_in_order(a, b):
    low, high = min_tensor(a, b).cone, max_tensor(a, b).cone
    gens = low.generators
    want_gens = [product_vec(x, y)
                 for x in a.cone.generators for y in b.cone.generators]
    want_facets = [product_vec(x, y)
                   for x in a.cone.facets for y in b.cone.facets]
    for got, want in ((gens, want_gens), (high.facets, want_facets)):
        assert list(got) == want
        assert {type(x) for v in got for x in v} == {Fraction}
    # each tensor's side comes with its rows, already cleared
    assert low.generator_rows() == tuple(map(integer_row, want_gens))
    assert high.facet_rows() == tuple(map(integer_row, want_facets))


@pytest.mark.parametrize("a, b", [
    (make_classical(2), make_classical(3)), (make_squit(), make_squit()),
    (make_polygon(5), make_polygon(7)), (make_polygon(5), make_squit())],
    ids=["classical", "squit", "polygon", "polygon-squit"])
def test_tensor_sides_are_rows_until_read(a, b, monkeypatch):
    monkeypatch.setattr(cones, "enumerate_rays", None)
    low, high = min_tensor(a, b).cone, max_tensor(a, b).cone
    # each tensor holds its side as integer rows only, and it counts; the
    # classical pair, two simplices, holds its other side as rows too
    classical = a.name == "classical:2"
    assert low.has_generators() and high.has_facets()
    assert low.has_facets() is classical and high.has_generators() is classical
    assert held_as_rows(low) and held_as_rows(high)
    # each dual view reads the rows as its other side's rows
    assert low.dual().facet_rows() is low.generator_rows()
    assert high.dual().generator_rows() is high.facet_rows()
    # membership and positivity read the rows: no double description
    x = product_vec(a.vertices[0], b.vertices[-1])
    assert high.contains(x) and low.dual().contains(product_vec(a.unit,
                                                                b.unit))
    assert maps_into(identity(low.dim), low, high, F(0))
    # read, each side is the eager product_vec list, in order, read alike
    # through the dual view, and the cones still hold rows only
    assert list(low.generators) == [
        product_vec(x, y) for x in a.cone.generators
        for y in b.cone.generators]
    assert list(high.facets) == [
        product_vec(x, y) for x in a.cone.facets for y in b.cone.facets]
    assert low.dual().facets == low.generators
    assert high.dual().generators == high.facets
    assert held_as_rows(low) and held_as_rows(high)


@pytest.mark.parametrize("space", [make_polygon(5), FRACTIONAL, make_squit()],
                         ids=["float", "payload", "rational"])
def test_tensors_read_the_rows_positivity_cleared(space, monkeypatch):
    # maps_into clears the generators through the dual view; the tensors
    # then read those rows, and the facets' rows, and clear nothing
    assert maps_into(identity(space.dim), space.cone, space.cone, F(0))
    cleared = record_clears(monkeypatch)
    min_tensor(space, space)
    max_tensor(space, space)
    assert cleared == []


def test_products_of_coprime_rows_are_coprime_rows_seeded():
    rng = random.Random(3131)
    for _ in range(500):
        r, q = ([rng.randint(-30, 30) for _ in range(rng.randint(1, 5))]
                for _ in range(2))
        r, q = (tuple(x // (math.gcd(*v) or 1) for x in v) for v in (r, q))
        row = tuple(a * b for a in r for b in q)
        assert math.gcd(*row) == (1 if any(r) and any(q) else 0)
        x, y = vec(r), vec(q)
        if any(row):  # integer_row's row is unique for nonzero vectors
            assert integer_row(product_vec(x, y))[0] == row


def test_classical_composites_collapse():
    a, b = make_classical(2), make_classical(2)
    low = set(min_tensor(a, b).cone.generators)
    high = set(max_tensor(a, b).cone.generators)
    assert low == high


def test_squit_composites_differ():
    sq = make_squit()
    state = squit_iso_state()
    assert max_tensor(sq, sq).cone.contains(state.flat)
    assert is_entangled(state)  # outside the separable cone


def test_is_composite_accepts_both_tensors():
    sq = make_squit()
    assert is_composite(sq, sq, min_tensor(sq, sq))
    assert is_composite(sq, sq, max_tensor(sq, sq))


def test_is_composite_rejects_wrong_unit():
    sq = make_squit()
    cl = make_classical(3)
    candidate = min_tensor(sq, sq)
    with pytest.raises(UnitMismatchError):
        is_composite(sq, cl, candidate)


def test_marginals_of_iso_state():
    state = squit_iso_state()
    assert marginal(state, "a") == (0, 0, 1)
    assert marginal(state, "b") == (0, 0, 1)


def test_conditional_collapses_to_edge_midpoint():
    state = squit_iso_state()
    got = conditional(state, vec((F(1, 4), F(1, 4), F(1, 2))), "a")
    assert got == (0, 1, 1)
    # zero-probability outcome conditions to the zero vector
    assert conditional(state, vec((0, 0, 0)), "a") == (0, 0, 0)


def test_remote_evaluate_matches_hat_composition():
    state = squit_iso_state()
    rng = random.Random(11)
    for _ in range(40):
        alpha = vec(tuple(F(rng.randint(-4, 4), rng.randint(1, 5))
                          for _ in range(3)))
        by_hand = matvec(omega_hat(state),
                         matvec(f_hat(TELEPORT_EFFECT), alpha))
        assert remote_evaluate(alpha, state, TELEPORT_EFFECT) == by_hand


FLOAT_COORDS = ((0.25, 0, 0), (0, 0.25, 0), (0, 0, 1.0))


@pytest.mark.parametrize("read", [
    lambda s: marginal(s, "a"), lambda s: marginal(s, "b"),
    lambda s: conditional(s, (F(1, 4), F(1, 4), F(1, 2)), "a"),
    is_entangled, lambda s: remote_evaluate((0, 0, 1), s, TELEPORT_EFFECT),
    BipartiteState.to_json_dict],
    ids=["marginal_a", "marginal_b", "conditional", "is_entangled",
         "remote_evaluate", "to_json_dict"])
def test_bipartite_state_reads_float_coords_exactly(read):
    # the coords are made exact where they enter: a float state reads as
    # the same state given as Fractions
    sq = make_squit()
    state = BipartiteState(max_tensor(sq, sq), FLOAT_COORDS)
    state.validate()
    assert all(type(x) is F for row in state.coords for x in row)
    exact = BipartiteState(max_tensor(sq, sq), mat(FLOAT_COORDS))
    assert read(state) == read(exact)
    with pytest.raises(DimensionMismatchError, match="shape differs"):
        BipartiteState(max_tensor(sq, sq), FLOAT_COORDS[:2])


def test_remote_evaluate_shape_errors():
    state = squit_iso_state()
    with pytest.raises(DimensionMismatchError):
        remote_evaluate(vec((1, 0)), state, TELEPORT_EFFECT)
    with pytest.raises(DimensionMismatchError):
        remote_evaluate(vec((0, 0, 1)), state, mat(((1, 0), (0, 1), (0, 0))))


def test_effect_on_min_accepts_teleport_effect():
    sq = make_squit()
    assert effect_on_min(sq, sq, TELEPORT_EFFECT)
    too_big = tuple(tuple(9 * x for x in row) for row in TELEPORT_EFFECT)
    assert not effect_on_min(sq, sq, too_big)


def test_effect_on_max_requires_separability():
    sq = make_squit()
    u = vec(sq.unit)
    prod = tuple(tuple(F(1, 4) * ua * ub for ub in u) for ua in u)
    assert effect_on_max(sq, sq, prod)
    # the teleportation effect is entangled, so it fails the separable dual
    assert not effect_on_max(sq, sq, TELEPORT_EFFECT)
    assert effect_on_min(sq, sq, prod)


def test_product_effects_valid_on_min_of_mixed_pair():
    sq = make_squit()
    cl = make_classical(2)
    # facet normals scaled to unit peak value become product effects
    for fa in sq.cone.facets:
        ea = tuple(x / 2 for x in fa)  # squit facets peak at 2 on vertices
        for eb in cl.cone.facets:
            prod = tuple(tuple(a * b for b in eb) for a in ea)
            assert effect_on_min(sq, cl, prod)
            assert effect_on_max(sq, cl, prod)


def test_distributive_inclusion():
    sq = make_squit()
    c2 = make_classical(2)
    assert check_distributive_inclusion(sq, c2, sq)
    assert check_distributive_inclusion(c2, c2, c2)
    assert check_distributive_inclusion(make_classical(3), c2,
                                        make_classical(2))


def test_distributive_inclusion_hexagon_and_pentagon_cubed():
    for space in (HEXAGON, models.parse_model_name("polygon:5")):
        assert check_distributive_inclusion(space, space, space)


def test_bipartite_json_round_trip_named_models():
    state = squit_iso_state()
    body = state.to_json_dict()
    assert body["A"] == "polygon:4"
    assert body["tensor"] == "max"
    back = BipartiteState.from_json_dict(body)
    assert back.coords == state.coords
    assert back.composite.tensor == "max"


def test_bipartite_json_round_trip_inline_space():
    tri = make_polygon(3)
    cl = make_classical(2)
    low = min_tensor(tri, cl)
    coords = mat(tuple(tuple(x * y for y in (1, 0))
                       for x in tri.vertices[0]))
    state = BipartiteState(low, coords)
    state.validate()
    body = state.to_json_dict()
    back = BipartiteState.from_json_dict(body)
    assert back.composite.split_dims() == (3, 2)
    assert back.coords == state.coords


def test_bipartite_json_writes_a_name_only_for_that_model():
    triangle = ConeRep.from_generators(((1, 0, 1), (0, 1, 1), (-1, -1, 1)))
    payload = {**StateSpace(triangle, (0, 0, 1)).to_json_dict(),
               "name": "squit"}
    liar = _space_from_ref(payload)
    assert liar.name is None
    cl = make_classical(2)
    coords = mat(tuple(tuple(x * y for y in cl.vertices[1])
                       for x in liar.vertices[0]))
    state = BipartiteState.from_json_dict(
        {"tensor": "max", "A": payload, "B": "classical:2",
         "coords": [list(row) for row in coords]})
    body = state.to_json_dict()
    assert "name" not in body["A"]
    assert body["B"] == "classical:2"
    back = BipartiteState.from_json_dict(body)
    assert set(back.composite.factor_a.cone.generators) == \
        set(triangle.generators)
    assert back.coords == state.coords
    # a payload that is its named model is written by that name
    squit_body = {**body, "A": {**make_squit().to_json_dict(),
                                "name": "squit"}}
    squit_state = BipartiteState.from_json_dict(squit_body)
    assert squit_state.to_json_dict()["A"] == "squit"
    with pytest.raises(InvalidInputError):
        BipartiteState.from_json_dict({**body, "A": 3})


def test_bipartite_json_writes_no_name_the_factor_is_not():
    sq = make_squit()
    for name in ("polygon:x", "polygon:5", "classical:4"):
        named = StateSpace(sq.cone, sq.unit, name=name)
        state = BipartiteState(max_tensor(named, named),
                               entangled_state_coords(sq))
        body = state.to_json_dict()
        assert isinstance(body["A"], dict)
        back = BipartiteState.from_json_dict(body)
        assert set(back.composite.factor_a.cone.generators) == \
            set(sq.cone.generators)
        assert back.coords == state.coords


def test_factor_payload_keeps_a_model_name_only_for_that_model(monkeypatch):
    for model in (make_squit(), make_polygon(5), make_classical(3),
                  make_ball(2)):
        assert _space_from_ref(model.to_json_dict()).name == model.name
    squit = {**make_squit().to_json_dict(), "name": "squit"}
    assert _space_from_ref(squit).name == "squit"
    label = {**make_squit().to_json_dict(), "name": "my square"}
    assert _space_from_ref(label).name == "my square"
    for name in ("polygon:5", "polygon:x", "ball:2", "classical:0"):
        body = {**make_squit().to_json_dict(), "name": name}
        assert _space_from_ref(body).name is None

    def refuse(n):
        raise AssertionError("model built for a name of the wrong size")

    # a size that cannot fit the payload is dropped without building it
    monkeypatch.setattr(models, "make_classical", refuse)
    body = {**make_squit().to_json_dict(), "name": "classical:100000000"}
    assert _space_from_ref(body).name is None


def test_composite_sets_every_state_space_slot():
    sq = make_squit()
    for composite in (min_tensor(sq, sq), max_tensor(sq, sq)):
        for slot in StateSpace.__slots__:
            getattr(composite, slot)


def test_validate_rejects_non_states_with_one_message():
    sq = make_squit()
    composite = max_tensor(sq, sq)
    v = sq.vertices[0]
    product = tuple(tuple(x * y for y in v) for x in v)
    BipartiteState(composite, product).validate()
    doubled = tuple(tuple(2 * x for x in row) for row in product)
    outside = tuple(tuple(-x for x in row) for row in product)
    for coords in (doubled, outside):
        with pytest.raises(InvalidInputError,
                           match="not a normalized state of the composite"):
            BipartiteState(composite, coords).validate()


def test_above_the_cap_min_tensor_answers_from_its_generators():
    # classical:4 (x)min classical:5 (dim 20) holds no facets, and the cap
    # refuses to enumerate them; its generators answer instead
    c4, c5 = make_classical(4), make_classical(5)
    low = min_tensor(c4, c5)
    assert is_composite(c4, c5, low)
    uniform = tuple(tuple(F(1, 20) for _ in range(5)) for _ in range(4))
    BipartiteState(low, uniform).validate()
    tilted = ((F(-1, 20), F(3, 20)) + (F(1, 20),) * 3,) + uniform[1:]
    assert low.is_state(_flat(uniform)) and not low.is_state(_flat(tilted))
    with pytest.raises(InvalidInputError,
                       match="not a normalized state of the composite"):
        BipartiteState(low, tilted).validate()
    c20 = make_classical(20)
    eye = tuple(tuple(F(i == j) for j in range(20)) for i in range(20))
    assert is_positive_map(LinearMapRep(c20, low, eye))
    negated = (tuple(-x for x in eye[0]),) + eye[1:]
    assert not is_positive_map(LinearMapRep(c20, low, negated))
    assert not low.cone.has_facets()


def test_composites_do_not_reprove_the_product_unit(monkeypatch):
    sq = make_squit()

    def refuse(self, functional):
        raise AssertionError("unit proved again")

    monkeypatch.setattr(ConeRep, "strictly_positive", refuse)
    unit = product_vec(sq.unit, sq.unit)
    assert min_tensor(sq, sq).unit == unit
    assert max_tensor(sq, sq).unit == unit


def test_conditional_side_b_is_side_a_of_the_transpose():
    sq, cl = make_squit(), make_classical(2)
    v, w = sq.vertices[0], sq.vertices[2]
    coords = tuple(tuple((x * (j == 0) + y * (j == 1)) / 2 for j in range(2))
                   for x, y in zip(v, w))
    state = BipartiteState(max_tensor(sq, cl), coords)
    state.validate()
    swapped = BipartiteState(max_tensor(cl, sq), transpose(coords))
    swapped.validate()
    for effect in ((1, 0), (0, 1), (F(1, 2), F(1, 4)), (0, 0)):
        assert conditional(state, effect, side="b") == \
            conditional(swapped, effect, side="a")
    assert conditional(state, (1, 0), side="b") == v


def test_omega_hat_is_transpose():
    state = squit_iso_state()
    assert omega_hat(state) == transpose(state.coords)
    assert f_hat(TELEPORT_EFFECT) == transpose(mat(TELEPORT_EFFECT))


def test_min_effect_cap_uses_unit_products():
    sq = make_squit()
    cl = make_classical(2)
    u = product_vec(vec(sq.unit), vec(cl.unit))
    F_unit = tuple(tuple(u[i * 2 + j] for j in range(2)) for i in range(3))
    assert effect_on_min(sq, cl, F_unit)
    assert all(dot(vec(u), product_vec(x, y)) >= 0
               for x in sq.cone.generators for y in cl.cone.generators)


def test_effect_shape_checked():
    sq = make_squit()
    for bad in (((0, 0), (0, 0)), ((0,) * 9,)):
        for check in (effect_on_min, effect_on_max):
            with pytest.raises(DimensionMismatchError,
                               match="effect matrix must be dim A x dim B"):
                check(sq, sq, bad)


# -- product-loop oracles ----------------------------------------------------
# The composite checks written out over product vectors in the composite
# (or triple) space, as literal restatements of their definitions. A
# tolerant test reads each facet and each generator of a cone at largest
# entry magnitude 1 (unit_top).


def _flat(coords):
    return tuple(x for row in coords for x in row)


def oracle_is_composite(a, b, candidate, tol=None):
    eps = tolerance_for(tol, a, b, candidate)
    for x in a.cone.generators:
        for y in b.cone.generators:
            if not reference_contains(candidate.cone, product_vec(x, y), eps):
                return False
    return all(dot(g, product_vec(fa, fb)) >= -eps
               for g in candidate.cone.generators
               for fa in map(unit_top, a.cone.facets)
               for fb in map(unit_top, b.cone.facets))


def oracle_effect_on_min(a, b, f_coords, tol=None):
    F = mat(f_coords)
    eps = tolerance_for(tol, a, b)
    for x in map(unit_top, a.cone.generators):
        for y in map(unit_top, b.cone.generators):
            val = dot(matvec(F, y), x)
            cap = dot(vec(a.unit), x) * dot(vec(b.unit), y)
            if val < -eps or val > cap + eps:
                return False
    return True


def oracle_effect_on_max(a, b, f_coords, tol=None):
    F = mat(f_coords)
    eps = tolerance_for(tol, a, b)
    residual = tuple(tuple(ua * ub - x for ub, x in zip(b.unit, row))
                     for ua, row in zip(a.unit, F))
    products = [product_vec(x, y)
                for x in a.cone.facets for y in b.cone.facets]
    return all(feasible_point(products, _flat(G), eps)[0] is not None
               for G in (F, residual))


def oracle_distributive(a, b, c, tol=None):
    """Each pairing of x (x) H with F (x) f over |H f|, the facet of b's
    space that the check tests F^t x against."""
    eps = tolerance_for(tol, a, b, c)
    right = min_tensor(a, b).cone.facets
    for x in map(unit_top, a.cone.generators):
        for h in max_tensor(b, c).cone.generators:
            for fc in c.cone.facets:
                w = top(matvec(_as_matrix(h, b.dim, c.dim), fc))
                if any(dot(product_vec(x, h), product_vec(f, fc)) < -eps * w
                       for f in right):
                    return False
    return True


def random_polygon(rng, k, box=4):
    """Cone over an integer polygon with exactly k vertices, unit (0, 0, 1)."""
    while True:
        lifts = {(rng.randint(-box, box), rng.randint(-box, box), 1)
                 for _ in range(k)}
        if len(lifts) == k and rank(tuple(lifts)) == 3:
            cone = ConeRep.from_generators(sorted(lifts))
            if len(cone.minimal_generators()) == k:
                return StateSpace(cone, (0, 0, 1))


def random_candidates(rng, a, b):
    """min, max, sub-cones of max (some holding min) plus a stray vector
    near the product of the two barycentres, and for float factors
    pushed_candidate."""
    low, high = min_tensor(a, b), max_tensor(a, b)
    yield low
    yield high
    center = product_vec(*(tuple(map(sum, zip(*s.cone.generators)))
                           for s in (a, b)))
    for keep_min in (True, True, False):
        size = len(high.cone.generators)
        gens = list(rng.sample(high.cone.generators,
                               rng.randint(size // 2, size)))
        if keep_min:
            gens += low.cone.generators
        d = rng.choice((1, 16))
        gens.append(tuple(c + F(rng.randint(-6, 6), d) for c in center))
        if rank(tuple(gens)) == low.dim:
            yield StateSpace(ConeRep.from_generators(gens), low.unit)
    if high.arithmetic == FLOAT:
        yield pushed_candidate(a, b)


def random_effect(rng):
    """A random 3 x 3 rational near u (x) u / 2 for units (0, 0, 1)."""
    scale = rng.choice((F(1, 4), F(1, 10), F(1, 40), F(1, 400)))
    return tuple(tuple(scale * rng.randint(-1, 1) + F(i == j == 2, 2)
                       for j in range(3)) for i in range(3))


def pushed_candidate(a, b, eps=F(1, 1000)):
    """max(a, b) and one more generator x (x) y, x a's first generator and
    y b's first pushed past its vertex, away from b's barycentre, by eps:
    outside max(a, b) by a margin that tol 1/50 forgives and the exact or
    default tolerance does not, at a row scale far from 1 in float mode."""
    high = max_tensor(a, b)
    ys = b.cone.generators
    centre = [sum(c) / len(ys) for c in zip(*ys)]
    y = tuple((1 + eps) * v - eps * c for v, c in zip(ys[0], centre))
    gens = high.cone.generators + (product_vec(a.cone.generators[0], y),)
    return StateSpace(ConeRep.from_generators(gens, high.arithmetic),
                      high.unit)


def pulled_in(space, eps=F(1, 1000)):
    """The space as given, with each generator moved toward the unit
    axis by eps (x -> (1 - eps) x + eps <u, x> e_last) and its facets
    kept: facets that cut out a little more than the generators span,
    so pairings through it fall just below zero."""
    last = (0,) * (space.dim - 1) + (1,)
    gens = [tuple((1 - eps) * x + eps * dot(space.unit, g) * e
                  for x, e in zip(g, last)) for g in space.cone.generators]
    cone = ConeRep(space.dim, POLYHEDRAL, space.arithmetic,
                   tuple(integer_row(g) for g in gens),
                   space.cone.facet_rows())
    return StateSpace(cone, space.unit)


def float_inputs():
    """Float polygon:5 and polygon:6 against squit and classical:2: pairs
    and triples whose enumerated sides, and so the candidates' generator
    rows and min(a, b)'s facet rows, are held at scales other than 1.
    The last triple's middle factor is polygon:5 pulled in, so that its
    verdict turns on the tolerance at those scales."""
    p5, p6 = make_polygon(5), make_polygon(6)
    sq, cl = make_squit(), make_classical(2)
    pairs = [(p5, sq), (cl, p5), (p6, cl), (cl, p6)]
    triples = [(p5, sq, cl), (cl, p5, sq), (p6, cl, p5),
               (cl, pulled_in(p5), sq)]
    return pairs, triples


def test_composite_checks_match_product_loop_oracles():
    rng = random.Random(606)
    verdicts = {True: 0, False: 0}

    def agree(got, want):
        assert got == want
        verdicts[got] += 1

    float_pairs, float_triples = float_inputs()
    # drawn lazily, so the random polygons and candidates interleave
    pairs = ((random_polygon(rng, rng.randint(3, 4)),
              random_polygon(rng, rng.randint(3, 4))) for _ in range(6))
    for a, b in chain(pairs, float_pairs):
        candidates = list(random_candidates(rng, a, b))
        # random_effect is shaped for two factors of dim 3
        effects = [random_effect(rng) for _ in range(16)] \
            if a.dim == b.dim == 3 else []
        for tol in (None, F(1, 50)):
            for cand in candidates:
                agree(is_composite(a, b, cand, tol),
                      oracle_is_composite(a, b, cand, tol))
            for eff in effects:
                agree(effect_on_min(a, b, eff, tol),
                      oracle_effect_on_min(a, b, eff, tol))
            for eff in effects[:3]:  # two LPs each
                agree(effect_on_max(a, b, eff, tol),
                      oracle_effect_on_max(a, b, eff, tol))
    triples = (tuple(random_polygon(rng, rng.randint(3, 4)) for _ in range(3))
               for _ in range(2))
    for a, b, c in chain(triples, float_triples):
        for tol in (None, F(1, 50)):
            agree(check_distributive_inclusion(a, b, c, tol),
                  oracle_distributive(a, b, c, tol))
    assert verdicts[True] >= 100 and verdicts[False] >= 100, verdicts


# -- pairwise references -----------------------------------------------------
# The composite checks as they were before each pulled-back direction was
# tested once: every pulled-back vector, every pair, with each facet and
# generator of a cone and each facet w = H f of b's space at largest
# entry magnitude 1.


def _pullbacks(coords, xs):
    """coords^t x for each x, so <x (x) y, coords> = <coords^t x, y>."""
    t = transpose(coords)
    return [matvec(t, x) for x in xs]


def reference_is_composite(a, b, candidate, tol=None):
    eps = tolerance_for(tol, a, b, candidate)
    return all(candidate.cone.contains(g, eps)
               for g in min_tensor(a, b).cone.generators) and \
        all(reference_contains(b.cone, y, eps)
            for g in candidate.cone.generators
            for y in _pullbacks(_as_matrix(g, a.dim, b.dim),
                                map(unit_top, a.cone.facets)))


def reference_distributive(a, b, c, tol=None):
    eps = tolerance_for(tol, a, b, c)
    left, right = max_tensor(b, c), min_tensor(a, b)
    xs = [unit_top(x) for x in a.cone.generators]
    us = [u for f in right.cone.facets
          for u in _pullbacks(_as_matrix(f, a.dim, b.dim), xs)]
    ws = [matvec(_as_matrix(h, b.dim, c.dim), f)
          for h in left.cone.generators for f in c.cone.facets]
    return all(dot(u, unit_top(w)) >= -eps for u in us for w in ws)


def test_composite_checks_match_pairwise_references():
    rng = random.Random(1414)
    tols = (None, F(1, 50), F(1, 10**6), F(1, 3))
    verdicts = {True: 0, False: 0}

    def agree(got, want):
        assert got == want
        verdicts[got] += 1

    floats = models.parse_model_name("polygon:3"), \
        models.parse_model_name("polygon:5")
    pairs = [(random_polygon(rng, rng.randint(3, 4)),
              random_polygon(rng, rng.randint(3, 4))) for _ in range(12)]
    float_pairs, float_triples = float_inputs()
    inputs = [(pair, tols) for pair in pairs + [floats]]
    inputs += [(pair, tols[:2]) for pair in float_pairs]
    for (a, b), these in inputs:
        for cand in random_candidates(rng, a, b):
            for tol in these:
                agree(is_composite(a, b, cand, tol),
                      reference_is_composite(a, b, cand, tol))
    triples = [tuple(random_polygon(rng, rng.randint(3, 4)) for _ in range(3))
               for _ in range(4)]
    inputs = [(triple, tols) for triple in triples + [floats + floats[:1]]]
    inputs += [(triple, tols[:2]) for triple in float_triples]
    for (a, b, c), these in inputs:
        for tol in these:
            agree(check_distributive_inclusion(a, b, c, tol),
                  reference_distributive(a, b, c, tol))
    assert verdicts[False] >= 50, verdicts


def _redundant(generators, facets, unit):
    """A space built as given: parallel generators or facets, and facets
    that may cut out more than the generators span."""
    gens, fcts = (tuple(integer_row(vec(v)) for v in vs)
                  for vs in (generators, facets))
    return StateSpace(ConeRep(len(unit), POLYHEDRAL, "rational", gens, fcts),
                      unit)


def _lattice_space(rng, d, k, arithmetic="rational"):
    """The cone over k distinct integer points that span R^d once lifted,
    unit (0, ..., 0, 1); past a simplex (k > d) the generators also list
    a point twice, a scaled copy and an interior point, in seeded order."""
    while True:
        lifts = {tuple(rng.randint(-3, 3) for _ in range(d - 1)) + (1,)
                 for _ in range(k)}
        if len(lifts) == k and rank(tuple(lifts)) == d:
            break
    gens = sorted(lifts)
    if k > d:
        p = rng.choice(gens)
        gens += [p, tuple(2 * x for x in p), tuple(map(sum, zip(*gens)))]
        rng.shuffle(gens)
    cone = ConeRep.from_generators(gens, arithmetic)
    return StateSpace(cone, (0,) * (d - 1) + (1,))


def _facets_only(space, redundant):
    """The space rebuilt from its facets, with the sum of the first two
    appended (a redundant facet) when asked."""
    facets = list(space.cone.facets)
    if redundant:
        facets.append(tuple(x + y for x, y in zip(*facets[:2])))
    cone = ConeRep.from_facets(facets, space.arithmetic)
    return StateSpace(cone, space.unit)


def _simplex_pair_spaces(rng):
    """Simplex factors (dim generator rows, dim facet rows, or both) and
    other factors, in both arithmetics, built every way a cone is."""
    simplices = [make_classical(n) for n in range(1, 5)] + [
        make_polygon(3), FLOAT_TRIANGLE,
        _redundant(((1, 0), (0, 1)), ((2, 1), (1, 2)), (1, 1)),
        _redundant(((1,),), [(k,) for k in (1, 3)], (1,)),
        _redundant([(k,) for k in (3, 1)], ((1,),), (1,))]
    others = [make_squit(), make_polygon(5), FRACTIONAL]
    for d in (3, 3, 4):
        simplex = _lattice_space(rng, d, d, rng.choice(("rational", "float")))
        simplices += [simplex, _facets_only(simplex, False),
                      _facets_only(simplex, True)]
    for d, k in ((3, 4), (3, 5), (3, 6), (4, 5), (4, 6)):
        other = _lattice_space(rng, d, k, rng.choice(("rational", "float")))
        others += [other, _facets_only(other, True)]
    return simplices, others


def _dd_rows(cone, rows):
    """reference_rays of the held side's rows, at double description's
    scale: 1 in rational mode, one over the largest entry in float mode."""
    rays = reference_rays([r for r, _ in rows], cone.dim)
    return tuple((r, F(1) if cone.arithmetic == "rational" else F(1, top(r)))
                 for r in rays)


def test_simplex_factor_tensors_hand_over_the_enumerated_side_seeded():
    """With a simplex factor both tensors coincide, and within the cap
    each holds its other side as the factors' rays' products: row for
    row, in order and at scale, what double description makes of its
    held side, on every way a factor is given (with duplicate, scaled and
    interior generators, redundant facets, or two sides that disagree)."""
    rng = random.Random(4848)
    simplices, others = _simplex_pair_spaces(rng)
    # each simplex meets four others and three simplices (itself too)
    m, n = len(others), len(simplices)
    pairs = [(s, f) for i, s in enumerate(simplices) for f in
             [others[(4 * i + j) % m] for j in range(4)]
             + [simplices[(i + j) % n] for j in (0, 1, 7)]]
    handed = Counter()
    for s, o in pairs:
        for a, b in ((s, o), (o, s)):
            if a.dim * b.dim > cones.DIMENSION_CAP:
                continue
            low, high = min_tensor(a, b).cone, max_tensor(a, b).cone
            by_gens = any(len(c.cone.generator_rows()) == c.dim
                          for c in (a, b))
            by_facets = any(len(c.cone.facet_rows()) == c.dim
                            for c in (a, b))
            assert (low.has_facets(), high.has_generators()) == \
                (by_gens, by_facets), (a, b)
            if by_gens:
                assert low.facet_rows() == _dd_rows(low, low.generator_rows())
            if by_facets:
                assert high.generator_rows() == _dd_rows(high,
                                                         high.facet_rows())
            handed.update((by_gens, by_facets))
    assert handed[True] >= 300, handed


def test_simplex_side_stops_at_the_cap_and_at_degenerate_factors():
    c4, c5 = make_classical(4), make_classical(5)
    low, high = min_tensor(c4, c4), max_tensor(c4, c4)
    assert low.dim == 16
    assert low.cone.has_facets() and high.cone.has_generators()
    low, high = min_tensor(c4, c5), max_tensor(c4, c5)
    assert low.dim == 20
    assert not low.cone.has_facets() and not high.cone.has_generators()
    # three generator rows that do not span R^3: the tensor is built, and
    # reading its facets raises, as with no simplex factor
    flat = _redundant(((1, 0, 0), (0, 1, 0), (1, 1, 0)), ((0, 0, 1),),
                      (1, 1, 1))
    low = min_tensor(make_classical(2), flat).cone
    assert not low.has_facets()
    with pytest.raises(DegenerateConeError):
        low.facet_rows()


def test_simplex_pairs_enumerate_only_in_the_factor_dimensions(monkeypatch):
    dims = Counter()
    enumerate_rays = cones.enumerate_rays

    def counted(halfspaces, dim):
        dims[dim] += 1
        return enumerate_rays(halfspaces, dim)

    monkeypatch.setattr(cones, "enumerate_rays", counted)

    def read_all_sides(a, b):
        dims.clear()
        for composite in (min_tensor(a, b), max_tensor(a, b)):
            composite.cone.generators, composite.cone.facets
        return dict(dims)

    rng = random.Random(4849)
    triangle = _lattice_space(rng, 3, 3)
    pentagon = _lattice_space(rng, 3, 5)
    assert read_all_sides(make_classical(2), make_classical(3)) == {}
    assert read_all_sides(make_polygon(3), make_polygon(6)) == {3: 2}
    assert read_all_sides(triangle, pentagon) == {3: 3}
    tetrahedron = _lattice_space(rng, 4, 4, "float")
    assert read_all_sides(make_classical(4), tetrahedron) == {4: 1}
    # no simplex factor: the composite's sides are enumerated as before
    assert read_all_sides(make_squit(), make_squit()) == {9: 2}
    fours = random_polygon(rng, 4), random_polygon(rng, 4)
    assert read_all_sides(*fours) == {9: 2}


@pytest.mark.parametrize("small_first", (True, False))
def test_distributive_reads_each_direction_at_no_scale(small_first):
    """The inclusion holds on every consistent triple; it can fail only
    when b's facets cut out more than its generators span (an enumeration
    error or a float perturbation). Here a's parallel generators u, or
    c's parallel facets and so the parallel w = H f, come at scales 1
    and 3 and give the verdict of either alone: the pairing of F^t u
    with w, both at largest entry 1, is -1/2."""
    scales = (1, 3) if small_first else (3, 1)
    step = F(1, 10 ** 30)
    b = _redundant(((1, 0), (0, 1)), ((2, 1), (1, 2)), (1, 1))
    one = _redundant(((1,),), ((1,),), (1,))
    a = _redundant([(k,) for k in scales], ((1,),), (1,))  # parallel u
    c = _redundant(((1,),), [(k,) for k in scales], (1,))  # parallel w
    for triple in ((a, b, one), (one, b, c), (one, b, one)):
        for tol, verdict in ((F(1, 2), True), (F(1, 2) - step, False)):
            assert check_distributive_inclusion(*triple, tol=tol) is verdict
            assert reference_distributive(*triple, tol=tol) is verdict


@pytest.mark.parametrize("small_first", (True, False))
def test_is_composite_tests_each_direction_at_its_largest_scale(small_first):
    """Two parallel candidate generators pull a's facet back to -1 and -3
    on a facet of b: eps = 2 passes the smaller, not the larger."""
    a = make_classical(1)
    b = make_classical(2)
    scales = (1, 3) if small_first else (3, 1)
    gens = [(1, 0), (0, 1)] + [(-k, 2 * k) for k in scales]
    candidate = StateSpace(ConeRep.from_generators(gens), b.unit)
    assert not is_composite(a, b, candidate, 2)
    assert not reference_is_composite(a, b, candidate, 2)
    assert is_composite(a, b, candidate, 3)


small_ints = st.integers(-5, 5)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pullback_contraction_identity(data):
    """<x (x) H, F (x) f> = <H^t (F^t x), f> = <F^t x, H f> in the triple
    space."""
    m, n, k = (data.draw(st.integers(1, 4)) for _ in range(3))

    def draw_mat(rows, cols):
        return tuple(tuple(F(data.draw(small_ints)) for _ in range(cols))
                     for _ in range(rows))

    x, = draw_mat(1, m)
    f, = draw_mat(1, k)
    Fm, H = draw_mat(m, n), draw_mat(n, k)
    triple = dot(product_vec(x, _flat(H)), product_vec(_flat(Fm), f))
    u, = _pullbacks(Fm, [x])
    pulled, = _pullbacks(H, [u])
    assert triple == dot(pulled, f) == dot(u, matvec(H, f))
