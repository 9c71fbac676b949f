import random
from fractions import Fraction
from itertools import combinations

import pytest

from gptkit import cones
from hypothesis import given, settings
from hypothesis import strategies as st

from gptkit.composites import effect_on_min
from gptkit.cones import POLYHEDRAL, ConeRep
from gptkit.errors import (DegenerateConeError, DimensionCapError,
                           DimensionMismatchError, InvalidInputError,
                           UnsupportedConeError)
from gptkit.linalg import (combination, dot, identity, integer_row, inverse,
                           mat, matvec, transpose, vec)
from gptkit.lp import feasible_point
from gptkit.models import (direct_sum, make_ball, make_classical,
                           make_polygon, make_squit, symmetry_group)
from gptkit.scalars import DEFAULT_TOLERANCE, tolerance_for
from gptkit.spaces import (Effect, LinearMapRep, Observable, StateSpace,
                           base_norm, decompose_cone, dual_cone, is_effect,
                           is_norm_contractive, is_order_isomorphism,
                           is_positive_map,
                           one_shot_distinguishing_observable,
                           verify_self_duality_witness)
from gptkit.protocols import is_nondisturbing
from test_composites import random_polygon
from test_cones import held_as_rows, unit_top

F = Fraction
HALF = F(1, 2)

weights = st.fractions(min_value=0, max_value=1, max_denominator=8)


def rotation90(space):
    return LinearMapRep(space, space, mat(((0, -1, 0), (1, 0, 0), (0, 0, 1))))


def test_unit_must_be_strictly_positive():
    cone = ConeRep.from_generators(((1, 0), (0, 1)))
    StateSpace(cone, vec((1, 1)))
    with pytest.raises(DegenerateConeError):
        StateSpace(cone, vec((1, 0)))  # vanishes on a generator


SQUARE_FACETS_PAYLOAD = {"dim": 3, "kind": "polyhedral",
                         "facets": [[-1, 0, 1], [0, -1, 1], [0, 1, 1],
                                    [1, 0, 1]]}


def test_facets_only_payload_proves_its_unit():
    with pytest.raises(DegenerateConeError):
        StateSpace.from_json_dict({**SQUARE_FACETS_PAYLOAD,
                                   "unit": [0, 0, -1]})
    space = StateSpace.from_json_dict({**SQUARE_FACETS_PAYLOAD,
                                       "unit": [0, 0, 1]})
    assert set(space.vertices) == set(make_squit().vertices)


@pytest.mark.parametrize("sides", (("generators", "facets"),
                                   ("generators",), ("facets",)))
def test_payload_dim_must_be_its_cones(sides):
    rows = {"generators": [[1, 0], [0, 1]], "facets": [[1, 0], [0, 1]]}
    body = {"dim": 5, "kind": "polyhedral", "unit": [1, 1],
            **{side: rows[side] for side in sides}}
    with pytest.raises(DimensionMismatchError, match="payload dim 5"):
        StateSpace.from_json_dict(body)
    assert StateSpace.from_json_dict({**body, "dim": 2}).dim == 2


@pytest.mark.parametrize("side", ("generators", "facets"))
def test_payload_side_must_be_a_sequence(side):
    body = {"dim": 3, "kind": "polyhedral", "unit": [0, 0, 1], side: 5}
    with pytest.raises(InvalidInputError, match=f"sequence of {side}"):
        StateSpace.from_json_dict(body)
    both = {**make_squit().to_json_dict(), side: 5}
    with pytest.raises(InvalidInputError, match=f"sequence of {side}"):
        StateSpace.from_json_dict(both)


def test_facets_only_space_above_the_cap_fails_at_construction():
    cone = ConeRep.from_facets(identity(17))
    with pytest.raises(DimensionCapError):
        StateSpace(cone, (1,) * 17)


def test_payload_kind_must_be_known():
    body = {**make_squit().to_json_dict(), "kind": "banana"}
    with pytest.raises(InvalidInputError, match="banana"):
        StateSpace.from_json_dict(body)


@pytest.mark.parametrize("dim", [3.9, 3.0, "3", True, None, [3]])
def test_payload_dim_must_be_an_integer(dim):
    body = {**make_squit().to_json_dict(), "dim": dim}
    with pytest.raises(InvalidInputError, match="is not an integer"):
        StateSpace.from_json_dict(body)
    ball = {**make_ball(2).to_json_dict(), "dim": dim}
    with pytest.raises(InvalidInputError, match="is not an integer"):
        StateSpace.from_json_dict(ball)


@pytest.mark.parametrize("name", [5, True, ["a"], {"n": 1}], ids=repr)
def test_payload_name_must_be_a_string(name):
    for space in (make_squit(), make_ball(2)):
        body = {**space.to_json_dict(), "name": name}
        with pytest.raises(InvalidInputError, match="is not a string"):
            StateSpace.from_json_dict(body)
    # a name, None and the empty string are kept as given
    body = make_squit().to_json_dict()
    assert StateSpace.from_json_dict(body).name == body["name"]
    assert StateSpace.from_json_dict({**body, "name": None}).name is None
    assert StateSpace.from_json_dict({**body, "name": ""}).name == ""


def test_payload_arithmetic_must_be_known():
    for space in (make_squit(), make_ball(2)):
        body = {**space.to_json_dict(), "arithmetic": "banana"}
        with pytest.raises(InvalidInputError, match="unknown arithmetic"):
            StateSpace.from_json_dict(body)
        body = {**space.to_json_dict(), "arithmetic": ["float"]}
        with pytest.raises(InvalidInputError, match="unknown arithmetic"):
            StateSpace.from_json_dict(body)


def test_squit_effects():
    sq = make_squit()
    assert is_effect(sq, (HALF, 0, HALF))
    assert is_effect(sq, sq.unit)
    assert is_effect(sq, (0, 0, 0))
    assert not is_effect(sq, (0, 0, 2))  # exceeds the unit
    assert not is_effect(sq, (1, 1, 1))  # negative on v3


@settings(max_examples=40)
@given(st.lists(weights, min_size=4, max_size=4))
def test_effect_interval_symmetry(cs):
    # 0 <= a <= u iff 0 <= u - a <= u
    sq = make_squit()
    total = sum(cs) or F(1)
    a = tuple(sum(c * f[i] for c, f in zip(cs, sq.cone.facets)) / total
              for i in range(3))
    if is_effect(sq, a):
        assert is_effect(sq, tuple(u - x for u, x in zip(sq.unit, a)))


def test_base_norm_on_cone_is_unit_value():
    sq = make_squit()
    assert base_norm(sq, (1, 1, 1)) == 1
    assert base_norm(sq, (2, 2, 2)) == 2
    assert base_norm(sq, (0, 0, 0)) == 0


def test_base_norm_off_cone():
    sq = make_squit()
    # difference of two pure states: norm 2 when perfectly distinguishable
    assert base_norm(sq, (2, 0, 0)) == 2  # v1 - v3
    assert base_norm(sq, (0, 0, -1)) == 1


@settings(max_examples=40)
@given(st.lists(weights, min_size=4, max_size=4),
       st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4))
def test_base_norm_scale_and_cone_value(cs, scale):
    sq = make_squit()
    v = tuple(sum(c * g[i] for c, g in zip(cs, sq.cone.generators))
              for i in range(3))
    assert base_norm(sq, v) == v[2]  # u-value on the cone
    scaled = tuple(scale * x for x in v)
    assert base_norm(sq, scaled) == scale * v[2]


def rescaled(space, rng):
    """The same space built again from its generators and facets, each
    times a seeded positive rational: its rows have other scales."""
    def scaled(side):
        out = []
        for v in side:
            c = F(rng.randint(1, 9), rng.randint(1, 9))
            out.append(tuple(c * x for x in v))
        return out
    cone = ConeRep.from_both(scaled(space.cone.generators),
                             scaled(space.cone.facets), space.arithmetic)
    return StateSpace(cone, space.unit)


def oracle_polygons(rng):
    """Rational and float polygons, and each again with rescaled sides."""
    spaces = [make_squit(), make_classical(3), make_polygon(5),
              make_polygon(6)] + [random_polygon(rng, k) for k in (3, 4, 5)]
    return spaces + [rescaled(space, rng) for space in spaces]


def brute_force_base_norm(space, v):
    """min u(p) + u(m) over v = p - m in the cone, by every basic
    solution: v solved exactly on each dim of the columns g and -g."""
    gens = space.cone.generators
    columns = [(g, dot(space.unit, g)) for g in gens]
    columns += [(tuple(-x for x in g), c) for g, c in columns]
    best = None
    for basis in combinations(columns, space.dim):
        inv = inverse(transpose([g for g, _ in basis]))
        if inv is None:
            continue
        weights = matvec(inv, v)
        if all(w >= 0 for w in weights):
            cost = sum(w * c for w, (_, c) in zip(weights, basis))
            best = cost if best is None else min(best, cost)
    return best


def test_base_norm_matches_brute_force_on_rows_of_any_scale():
    # the base-norm LP's columns are the generator rows, whose scales do
    # not move its optimum
    rng = random.Random(3901)
    for space in oracle_polygons(rng):
        for _ in range(4):
            v = vec(F(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in range(space.dim))
            want = brute_force_base_norm(space, v)
            if space.arithmetic != "rational":
                want = float(want)
            assert base_norm(space, v) == want, (space, v)


def test_base_norm_lorentz():
    ball = make_ball(2)
    assert base_norm(ball, (0, 0, 1)) == 1
    assert base_norm(ball, (F(3, 5), F(4, 5), 1)) == 1
    norm = base_norm(ball, (3, 4, 1))
    assert abs(norm - 5) < F(1, 10 ** 9)  # outside: euclidean head norm


def test_dual_cone_involution():
    sq = make_squit()
    original = set(sq.cone.generators)
    again = dual_cone(StateSpace(dual_cone(sq), vec((1, 1, 4))))
    assert set(again.generators) == original


def test_dual_is_one_view_sharing_its_sides(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_rays(*args, **kwargs)

    enumerate_rays = cones.enumerate_rays
    monkeypatch.setattr(cones, "enumerate_rays", counted)
    p5 = make_polygon(5)
    assert p5.cone.dual() is p5.cone.dual()
    assert p5.cone.dual().dual() is p5.cone
    verify_self_duality_witness(p5, identity(3))
    # a built-in polygon holds its facets: none is enumerated
    assert calls == []
    # the dual's generators are the cone's facets: enumerated once
    q5 = StateSpace(ConeRep.from_generators(p5.cone.generators, "float"),
                    p5.unit)
    verify_self_duality_witness(q5, identity(3))
    assert q5.cone.dual().generator_rows() is q5.cone.facet_rows()
    assert q5.cone.dual().generators == q5.cone.facets
    assert len(calls) == 1 and held_as_rows(q5.cone)
    p7 = make_polygon(7)
    dual_cone(p7)
    assert p7.cone.has_facets()


def test_observable_must_sum_to_unit():
    sq = make_squit()
    a = Effect(sq, vec((HALF, 0, HALF)))
    b = Effect(sq, vec((-HALF, 0, HALF)))
    Observable(sq, (a, b))
    with pytest.raises(InvalidInputError):
        Observable(sq, (a, a))


def test_effect_must_have_space_dim():
    # a short effect must not be truncated into the unit sum
    sq = make_squit()
    with pytest.raises(DimensionMismatchError):
        Effect(sq, vec((-HALF, 0)))
    with pytest.raises(DimensionMismatchError):
        Observable(sq, (Effect(sq, vec((HALF, 0, HALF))),
                        Effect(sq, vec((-HALF, 0)))))


def test_one_shot_squit():
    sq = make_squit()
    v = sq.vertices
    obs = one_shot_distinguishing_observable(sq, (v[0], v[2]))
    assert obs is not None
    for i, e in enumerate(obs.effects):
        assert e.value(v[0]) == (1 if i == 0 else 0)
        assert e.value(v[2]) == (1 if i == 1 else 0)
    assert one_shot_distinguishing_observable(sq, (v[0], v[1])) is not None
    assert one_shot_distinguishing_observable(sq, (v[0], v[1], v[2])) is None


@pytest.mark.parametrize("n, j", [(6, 2), (10, 4), (14, 6)])
def test_one_shot_float_polygon_relaxed_point(n, j):
    # the embedded float polygons miss exact distinguishability of these
    # pairs by a residual below the default tolerance: the relaxed point
    # is accepted by default and refused at tol=0
    space = make_polygon(n)
    v = space.vertices
    obs = one_shot_distinguishing_observable(space, (v[0], v[j]))
    assert obs is not None
    eps = tolerance_for(None, space)
    for i, e in enumerate(obs.effects):
        assert abs(e.value(v[0]) - (1 if i == 0 else 0)) <= eps
        assert abs(e.value(v[j]) - (1 if i == 1 else 0)) <= eps
    assert one_shot_distinguishing_observable(space, (v[0], v[j]), 0) is None


def test_one_shot_classical_full_vertex_set():
    cl = make_classical(3)
    obs = one_shot_distinguishing_observable(cl, cl.vertices)
    assert obs is not None
    for i, e in enumerate(obs.effects):
        for j, w in enumerate(cl.vertices):
            assert e.value(w) == (1 if i == j else 0)


def reference_one_shot(space, states, eps):
    """The one-shot LP on the dual cone's generator vectors: the effects,
    or None."""
    duals = space.cone.facets
    k, r = len(states), len(duals)
    columns = [tuple(dot(duals[t], w) if block == i else 0
                     for block in range(k) for w in states) + duals[t]
               for i in range(k) for t in range(r)]
    target = tuple(F(i == j) for i in range(k) for j in range(k)) \
        + space.unit
    theta, _ = feasible_point(columns, target, eps)
    if theta is None:
        return None
    return tuple(combination(theta[i * r:(i + 1) * r], duals)
                 for i in range(k))


def test_one_shot_matches_the_vector_lp_on_rows_of_any_scale():
    # the LP's columns are the facet rows; a column's scale moves only
    # its weight, so the effects are the vector LP's, on every space and
    # on the space rebuilt with rescaled sides
    rng = random.Random(3902)
    spaces = oracle_polygons(rng)
    answers = {True: 0, False: 0}
    found = []
    for space in spaces:
        v = space.vertices
        eps = tolerance_for(None, space)
        effects = []
        for size in (2, 3):
            for states in combinations(v, size):
                obs = one_shot_distinguishing_observable(space, states)
                got = obs and tuple(e.functional for e in obs.effects)
                assert got == reference_one_shot(space, states, eps)
                answers[obs is not None] += 1
                effects.append(got)
        found.append(effects)
    half = len(spaces) // 2
    assert found[:half] == found[half:]
    assert min(answers.values()) > 20


def test_one_shot_rejects_duplicates():
    sq = make_squit()
    v = sq.vertices
    assert one_shot_distinguishing_observable(sq, (v[0], v[0])) is None


def test_self_duality_witness():
    sq = make_squit()
    good = ((1, -1, 0), (1, 1, 0), (0, 0, 2))
    assert verify_self_duality_witness(sq, good)
    assert verify_self_duality_witness(
        sq, tuple(tuple(3 * x for x in row) for row in good))
    # same rotation-scale with the wrong unit entry is not onto the dual
    assert not verify_self_duality_witness(sq, ((1, -1, 0), (1, 1, 0),
                                                (0, 0, 1)))
    assert not verify_self_duality_witness(sq, identity(3))


def assert_inverse_returned(T):
    """is_order_isomorphism hands back T's inverse, codomain to domain."""
    back = is_order_isomorphism(T)
    assert back.domain is T.codomain and back.codomain is T.domain
    assert back.matrix == inverse(T.matrix)


def test_positive_maps_polyhedral():
    sq = make_squit()
    assert is_positive_map(rotation90(sq))
    assert_inverse_returned(rotation90(sq))
    assert is_norm_contractive(rotation90(sq))
    shear = LinearMapRep(sq, sq, mat(((1, 1, 0), (0, 1, 0), (0, 0, 1))))
    assert not is_positive_map(shear)
    assert is_order_isomorphism(shear) is None
    double = LinearMapRep(sq, sq, mat(((2, 0, 0), (0, 2, 0), (0, 0, 2))))
    assert is_positive_map(double)
    assert not is_norm_contractive(double)
    assert_inverse_returned(double)
    # no map between spaces of unequal dimension is an order isomorphism
    marginal = LinearMapRep(sq, make_classical(2),
                            mat(((0, 0, HALF), (0, 0, HALF))))
    assert is_positive_map(marginal)
    assert is_order_isomorphism(marginal) is None


def test_positive_maps_lorentz():
    ball = make_ball(2)
    rot = LinearMapRep(ball, ball, mat(((0, -1, 0), (1, 0, 0), (0, 0, 1))))
    assert is_positive_map(rot)
    assert_inverse_returned(rot)
    squash = LinearMapRep(ball, ball, mat(((HALF, 0, 0), (0, HALF, 0),
                                           (0, 0, 1))))
    assert is_positive_map(squash)
    # inverse stretches out of cone
    assert is_order_isomorphism(squash) is None
    # the segment's two extreme rays onto the light cone's two
    light = make_ball(1)
    onto = LinearMapRep(make_classical(2), light, mat(((1, -1), (1, 1))))
    assert_inverse_returned(onto)
    assert is_order_isomorphism(LinearMapRep(light, ball, mat(
        ((1, 0), (0, 0), (0, 1))))) is None
    stretch = LinearMapRep(ball, ball, mat(((2, 0, 0), (0, 1, 0), (0, 0, 1))))
    assert not is_positive_map(stretch)


def test_lorentz_reflection_of_the_axis_is_not_positive():
    # T^t J T = J, so the S-lemma test alone would pass it; the axis
    # check refuses it, since T e_last = -e_last
    ball = make_ball(2)
    flip = LinearMapRep(ball, ball, mat(((1, 0, 0), (0, 1, 0), (0, 0, -1))))
    assert not is_positive_map(flip)


def test_lorentz_to_polyhedral_positive():
    ball = make_ball(2)
    cl = make_classical(2)
    # (s + x)/2, (s - x)/2 are nonnegative on the disk
    T = LinearMapRep(ball, cl, mat(((HALF, 0, HALF), (-HALF, 0, HALF))))
    assert is_positive_map(T)
    bad = LinearMapRep(ball, cl, mat(((1, 0, 0), (0, 0, 1))))
    assert not is_positive_map(bad)


def test_decompose_cone_counts():
    assert decompose_cone(make_classical(3)).summand_count == 3
    assert decompose_cone(make_squit()).summand_count == 1
    assert decompose_cone(direct_sum(make_squit(),
                                     make_classical(1))).summand_count == 2


def test_vertices_unsupported_for_lorentz():
    with pytest.raises(UnsupportedConeError):
        make_ball(2).vertices


# Reference positivity, the route before integer images: each
# generator's image, the generator at largest entry magnitude 1, made as
# Fractions by matvec, then `contains`. The Lorentz-domain branches are
# shared, so only this one is kept.
def reference_positive_between(matrix, dom, cod, eps):
    assert dom.kind == POLYHEDRAL
    return all(cod.contains(matvec(matrix, unit_top(g)), eps)
               for g in dom.generators)


# Reference effect test on the minimal composite: F and u (x) u - F,
# pulled back through each generator x of a (at largest entry magnitude
# 1), in the dual of b's cone.
def reference_effect_on_min(a, b, F, eps):
    residual = tuple(tuple(ua * ub - x for ub, x in zip(b.unit, row))
                     for ua, row in zip(a.unit, F))
    xs = [unit_top(x) for x in a.cone.generators]
    return all(b.cone.dual().contains(matvec(transpose(G), x), eps)
               for G in (F, residual) for x in xs)


def scaled_facets(rng, cone, arithmetic):
    """The cone from its facets, each scaled by a random positive
    rational, so no facet is at top entry 1 or coprime."""
    return ConeRep.from_facets(
        [tuple(F(rng.randint(1, 9), rng.randint(1, 7)) * x for x in f)
         for f in cone.facets], arithmetic)


def positivity_cones(rng):
    """Dimension-3 polyhedral cones of every kind the kernel meets."""
    integer = [random_polygon(rng, rng.randint(3, 6)).cone for _ in range(3)]
    floats = [make_polygon(n).cone for n in (5, 7, 8)]
    found = integer + floats + [make_classical(3).cone, make_squit().cone]
    found += [scaled_facets(rng, integer[0], "rational"),
              scaled_facets(rng, floats[0], "float")]
    return found + [c.dual() for c in found]


def positive_map(rng, dom, cod):
    """sum_k w_k y_k f_k^t with y_k in cod and f_k in dom's dual: positive."""
    ys = cod.generators if cod.kind == POLYHEDRAL else (
        (F(0), F(0), F(1)), (F(3, 5), F(4, 5), F(1)))
    terms = [(rng.choice(ys), rng.choice(dom.facets), F(rng.randint(1, 5)))
             for _ in range(3)]
    return tuple(tuple(sum(w * y[i] * f[j] for y, f, w in terms)
                       for j in range(3)) for i in range(3))


def perturbed(rng, matrix):
    """matrix moved in one entry by a step from exact to far, and half
    of the time rounded to floats (power-of-two denominators)."""
    step = rng.choice([0, F(1, 10 ** 12), F(1, 10 ** 10), F(1, 1000), 1])
    i, j = rng.randrange(3), rng.randrange(3)
    out = [list(row) for row in matrix]
    out[i][j] += rng.choice([-1, 1]) * step
    if rng.random() < 0.5:
        out = [[F(float(x)) for x in row] for row in out]
    return tuple(map(tuple, out))


def as_scaled_ints(matrix):
    """The matrix as an integer matrix and the positive scale that takes
    it back, the form a side's row is handed to maps_into in."""
    flat, scale = integer_row(tuple(x for row in matrix for x in row))
    n = len(matrix[0])
    return tuple(flat[i:i + n] for i in range(0, len(flat), n)), scale


def test_integer_positivity_matches_the_matvec_route_seeded():
    # and the matrix as integers with its scale beside it gives the same
    # verdict, into a Lorentz codomain and from a Lorentz domain too
    rng = random.Random(26)
    cones_ = positivity_cones(rng)
    codomains = cones_ + [ConeRep.lorentz(3)]
    seen, decided_by_tol = [], 0
    for _ in range(240):
        dom, cod = rng.choice(cones_), rng.choice(codomains)
        matrix = perturbed(rng, positive_map(rng, dom, cod))
        ints, scale = as_scaled_ints(matrix)
        verdicts = []
        for eps in (F(0), DEFAULT_TOLERANCE):
            got = cones.maps_into(matrix, dom, cod, eps)
            assert got == reference_positive_between(matrix, dom, cod, eps)
            assert cones.maps_into(ints, dom, cod, eps, scale) == got
            verdicts.append(got)
        seen += verdicts
        decided_by_tol += verdicts[0] != verdicts[1]
    assert seen.count(True) >= 100 and seen.count(False) >= 100
    assert decided_by_tol >= 10
    ball = ConeRep.lorentz(3)
    for cod in (ball, make_squit().cone):
        for k in (F(1, 3), F(1, 2), F(2, 3), 1):
            # k times the identity, less a step: inside or just outside
            matrix = tuple(tuple(k * (i == j) - (i == j == 2) * F(1, 10 ** 9)
                                 for j in range(3)) for i in range(3))
            ints, scale = as_scaled_ints(matrix)
            for eps in (F(0), DEFAULT_TOLERANCE, F(1, 3)):
                assert cones.maps_into(ints, ball, cod, eps, scale) == \
                    cones.maps_into(matrix, ball, cod, eps), (cod, k, eps)


def test_positivity_clears_a_domain_cone_once(monkeypatch):
    """A second check against the same cones clears only its matrix:
    the generators come from the domain's cached rows."""
    space = make_polygon(5)
    first, second = symmetry_group(space)[1:3]
    eps = tolerance_for(None, space)
    assert cones.maps_into(first, space.cone, space.cone, eps)
    cleared = []
    clear = cones.integer_row
    monkeypatch.setattr(cones, "integer_row",
                        lambda v: cleared.append(v) or clear(v))
    assert cones.maps_into(second, space.cone, space.cone, eps)
    assert cleared == [tuple(x for row in second for x in row)]


def test_integer_effect_on_min_matches_the_pullback_route_seeded():
    rng = random.Random(2626)
    spaces = [make_squit(), make_polygon(5), make_polygon(6),
              make_classical(2), make_classical(3)]
    spaces += [random_polygon(rng, rng.randint(3, 5)) for _ in range(2)]
    seen, decided_by_tol = [], 0
    for _ in range(120):
        a, b = rng.choice(spaces), rng.choice(spaces)
        # a product effect e (x) u_b / 2, e a facet of a scaled to be at
        # most 1 on a's vertices: on the boundary, both F and u (x) u - F
        e = rng.choice(a.cone.facets)
        e = tuple(x / max(dot(e, v) for v in a.vertices) for x in e)
        boundary = tuple(tuple(x * y / 2 for y in b.unit) for x in e)
        step = rng.choice([0, F(1, 10 ** 12), F(1, 1000), 1])
        i, j = rng.randrange(a.dim), rng.randrange(b.dim)
        effect = tuple(tuple(x + (rng.choice([-1, 1]) * step
                                  if (r, c) == (i, j) else 0)
                             for c, x in enumerate(row))
                       for r, row in enumerate(boundary))
        verdicts = []
        for tol in (0, DEFAULT_TOLERANCE, None):
            eps = tolerance_for(tol, a, b)
            got = effect_on_min(a, b, effect, tol)
            assert got == reference_effect_on_min(a, b, effect, eps)
            verdicts.append(got)
        seen += verdicts
        decided_by_tol += verdicts[0] != verdicts[1]
    assert seen.count(True) >= 60 and seen.count(False) >= 60
    assert decided_by_tol >= 5


FLOAT_IDENTITY = ((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0))


@pytest.mark.parametrize("predicate", [
    is_positive_map, is_order_isomorphism, is_norm_contractive,
    lambda T: is_nondisturbing(T.domain, T)],
    ids=["positive", "order_isomorphism", "norm_contractive",
         "nondisturbing"])
def test_map_predicates_read_a_float_matrix_exactly(predicate):
    # the matrix is made exact where it enters, so a float entry is its
    # Fraction and the verdict is the exact matrix's
    sq = make_squit()
    T = LinearMapRep(sq, sq, FLOAT_IDENTITY)
    assert T.matrix == identity(3)
    assert all(type(x) is F for row in T.matrix for x in row)
    assert predicate(T) == predicate(LinearMapRep(sq, sq, identity(3)))
    with pytest.raises(DimensionMismatchError, match="shape mismatch"):
        LinearMapRep(sq, sq, FLOAT_IDENTITY[:2])


def test_effects_and_observables_read_floats_exactly():
    sq = make_squit()
    effect = Effect(sq, (0, 0, 1.0))
    assert all(type(x) is F for x in effect.functional)
    assert effect.value((HALF, 0, 1)) == 1
    half = Effect(sq, (0.25, 0.25, 0.5))
    rest = Effect(sq, (-0.25, -0.25, 0.5))
    assert Observable(sq, (half, rest)).effects == (half, rest)
    assert half.value(sq.vertices[0]) == 1
    with pytest.raises(InvalidInputError, match="do not sum"):
        Observable(sq, (half, half))
    with pytest.raises(DimensionMismatchError, match="differs from dim"):
        Effect(sq, (0, 1.0))
