from fractions import Fraction

import pytest

from gptkit import cones
from hypothesis import given, settings
from hypothesis import strategies as st

from gptkit.composites import min_tensor
from gptkit.cones import ConeRep
from gptkit.errors import (DegenerateConeError, DimensionCapError,
                           DimensionMismatchError, InvalidInputError,
                           UnsupportedConeError)
from gptkit.linalg import dot, identity, inverse, lex_key, mat, vec
from gptkit.models import (direct_sum, make_ball, make_classical,
                           make_polygon, make_squit)
from gptkit.scalars import tolerance_for
from gptkit.spaces import (Effect, LinearMapRep, Observable, StateSpace,
                           base_norm, decompose_cone, dual_cone, is_effect,
                           is_norm_contractive, is_order_isomorphism,
                           is_positive_map, one_shot_distinguishing_observable,
                           verify_self_duality_witness)

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


def test_facets_only_space_above_the_cap_fails_at_construction():
    cone = ConeRep.from_facets(identity(17))
    with pytest.raises(DimensionCapError):
        StateSpace(cone, (1,) * 17)


def test_payload_kind_must_be_known():
    body = {**make_squit().to_json_dict(), "kind": "banana"}
    with pytest.raises(InvalidInputError, match="banana"):
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


def test_base_norm_lorentz():
    ball = make_ball(2)
    assert base_norm(ball, (0, 0, 1)) == 1
    assert base_norm(ball, (F(3, 5), F(4, 5), 1)) == 1
    norm = base_norm(ball, (3, 4, 1))
    assert abs(norm - 5) < F(1, 10 ** 9)  # outside: euclidean head norm


def test_dual_cone_involution():
    sq = make_squit()
    original = {lex_key(g) for g in sq.cone.generators}
    again = dual_cone(StateSpace(dual_cone(sq), vec((1, 1, 4))))
    assert {lex_key(g) for g in again.generators} == original


def test_dual_is_one_view_sharing_its_sides(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return enumerate_rays(*args)

    enumerate_rays = cones.enumerate_rays
    monkeypatch.setattr(cones, "enumerate_rays", counted)
    p5 = make_polygon(5)
    assert p5.cone.dual() is p5.cone.dual()
    assert p5.cone.dual().dual() is p5.cone
    verify_self_duality_witness(p5, identity(3))
    # the dual's generators are the cone's facets: enumerated once
    assert len(calls) == 1
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


@pytest.mark.parametrize("space", [
    make_classical(3), make_squit(), make_polygon(7),
    min_tensor(make_squit(), make_classical(2))], ids=repr)
def test_slacks_are_facet_values_on_vertices(space):
    slacks = space.slacks
    facets, verts = space.cone.facets, space.vertices
    assert len(slacks) == len(facets)
    for k, row in enumerate(slacks):
        assert row == tuple(dot(facets[k], v) for v in verts)
        assert min(row) == 0
    assert space.slacks is slacks


def test_slacks_unsupported_for_lorentz():
    with pytest.raises(UnsupportedConeError):
        make_ball(2).slacks
