from fractions import Fraction

import pytest

from gptkit.composites import BipartiteState, marginal, min_tensor, product_vec
from gptkit.cones import ConeRep
from gptkit.errors import InvalidInputError, UnsupportedConeError
from gptkit.linalg import matvec, vec
from gptkit.models import make_ball, make_classical, make_polygon, make_squit
from gptkit.protocols import build_cloner, is_broadcastable, is_clonable
from gptkit.spaces import StateSpace, one_shot_distinguishing_observable

F = Fraction
HALF = F(1, 2)


def test_clonability_squit():
    sq = make_squit()
    v = sq.vertices
    assert is_clonable(sq, (v[0], v[2]))
    assert is_clonable(sq, (v[0], v[1]))
    assert not is_clonable(sq, (v[0], v[1], v[2]))


def test_a_repeated_state_is_refused():
    """{v0, v2} is clonable; listing v0 twice names no other set."""
    sq = make_squit()
    v = sq.vertices
    for states in ((v[0], v[2], v[0]), (v[0], v[0])):
        with pytest.raises(InvalidInputError, match="listed twice"):
            is_clonable(sq, states)
        with pytest.raises(InvalidInputError, match="listed twice"):
            is_broadcastable(sq, states)


def test_clonability_classical():
    cl = make_classical(3)
    assert is_clonable(cl, cl.vertices)


def test_cloner_copies_the_distinguished_states():
    sq = make_squit()
    v = sq.vertices
    obs = one_shot_distinguishing_observable(sq, (v[0], v[2]))
    cloner = build_cloner((v[0], v[2]), obs)
    assert cloner.codomain.tensor == "min"
    assert matvec(cloner.matrix, v[0]) == product_vec(v[0], v[0])
    assert matvec(cloner.matrix, v[2]) == product_vec(v[2], v[2])


def test_cloner_leaves_its_composite_generators_unmade():
    # the cloner's codomain is read for its dim only: the min tensor's
    # products stay integer rows
    p5 = make_polygon(5)
    v = p5.vertices
    obs = one_shot_distinguishing_observable(p5, (v[0], v[2]))
    cone = build_cloner((v[0], v[2]), obs).codomain.cone
    assert cone.has_generators() and cone._generators is None
    assert cone._facets is None


def test_cloner_broadcasts_hull_points_without_cloning():
    sq = make_squit()
    v = sq.vertices
    obs = one_shot_distinguishing_observable(sq, (v[0], v[2]))
    cloner = build_cloner((v[0], v[2]), obs)
    mid = tuple(HALF * (a + b) for a, b in zip(v[0], v[2]))
    image = matvec(cloner.matrix, mid)
    mixture = tuple(HALF * (a + b) for a, b in
                    zip(product_vec(v[0], v[0]), product_vec(v[2], v[2])))
    assert image == mixture  # broadcast, not mid x mid
    assert image != product_vec(mid, mid)
    state = BipartiteState(min_tensor(sq, sq),
                           tuple(image[i * 3:(i + 1) * 3] for i in range(3)))
    assert marginal(state, "a") == mid
    assert marginal(state, "b") == mid


def test_cloner_rejects_non_distinguishing_observable():
    sq = make_squit()
    v = sq.vertices
    obs = one_shot_distinguishing_observable(sq, (v[0], v[2]))
    with pytest.raises(InvalidInputError):
        build_cloner((v[1], v[3]), obs)


def test_broadcast_clonable_set_is_its_own_witness():
    sq = make_squit()
    v = sq.vertices
    report = is_broadcastable(sq, (v[0], v[2]))
    assert report.status == "broadcastable"
    assert report.verdict is True
    assert set(report.witness) == {v[0], v[2]}


def test_broadcast_hull_point_reduces_to_segment():
    sq = make_squit()
    v = sq.vertices
    mid = tuple(HALF * (a + b) for a, b in zip(v[0], v[2]))
    report = is_broadcastable(sq, (v[0], v[2], mid))
    assert report.status == "broadcastable"
    assert set(report.witness) == {v[0], v[2]}


def test_broadcast_extreme_non_clonable_is_conclusive_no():
    sq = make_squit()
    v = sq.vertices
    report = is_broadcastable(sq, (v[0], v[1], v[2]))
    assert report.status == "not_broadcastable"
    assert report.verdict is False
    assert report.witness is None


def test_broadcast_extremes_are_the_cones_not_its_listed_generators():
    # the centre (0, 0, 1) listed as a fifth generator is not extreme, so
    # {centre, v0} is no all-extreme set: the search finds {v0, v2}
    sq = make_squit()
    v = sq.vertices
    padded = StateSpace(
        ConeRep.from_generators(sq.cone.generators + ((0, 0, 1),)), sq.unit)
    for space in (sq, padded):
        report = is_broadcastable(space, ((0, 0, 1), v[0]))
        assert report.status == "broadcastable"
        assert set(report.witness) == {v[0], v[2]}


def test_broadcast_singleton():
    sq = make_squit()
    report = is_broadcastable(sq, (sq.vertices[0],))
    assert report.status == "broadcastable"


def test_broadcast_inconclusive_when_search_exhausts():
    # {v0, v1, mid(v0, v2)}: no distinguishable simplex among the
    # candidates covers all three, and the set is not all-extreme, so
    # the search over every simplex of up to dim + 1 candidate vertices
    # must report inconclusive rather than no
    sq = make_squit()
    v = sq.vertices
    mid = tuple(HALF * (a + b) for a, b in zip(v[0], v[2]))
    report = is_broadcastable(sq, (v[0], v[1], mid))
    assert report.status == "inconclusive"
    assert report.verdict is None
    assert report.candidates_tried > 0


def test_broadcast_rejects_unnormalized():
    sq = make_squit()
    with pytest.raises(InvalidInputError):
        is_broadcastable(sq, (vec((1, 1, 2)),))


def test_empty_and_lorentz_inputs_are_refused():
    with pytest.raises(InvalidInputError, match="no states given"):
        is_broadcastable(make_squit(), [])
    ball = make_ball(2)
    with pytest.raises(UnsupportedConeError):
        one_shot_distinguishing_observable(ball, [ball.unit])
