import math
import random
from fractions import Fraction

import pytest

from gptkit import cones, models
from gptkit.composites import BipartiteState, is_entangled, max_tensor
from gptkit.cones import POLYHEDRAL, ConeRep
from gptkit.errors import InvalidInputError, UnsupportedConeError
from gptkit.linalg import (identity, integer_row, lex_key, matmul, matvec,
                           transpose, vec)
from gptkit.models import (_edge_rows, direct_sum, entangled_state_coords,
                           make_ball, make_classical, make_polygon,
                           make_squit, parse_model_name, symmetry_group)
from gptkit.scalars import FLOAT
from gptkit.spaces import StateSpace
from test_bitcommit import _convex_hull

F = Fraction
EPS = F(1, 10 ** 9)


def test_classical_is_orthant():
    cl = make_classical(3)
    assert cl.dim == 3
    assert cl.arithmetic == "rational"
    assert set(cl.vertices) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert cl.unit == (1, 1, 1)
    assert cl.name == "classical:3"


def test_squit_is_exact_square():
    sq = make_squit()
    assert sq.name == "polygon:4"
    assert sq.arithmetic == "rational"
    assert sq.vertices == ((1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1))
    assert {lex_key(f) for f in sq.cone.facets} == {
        lex_key(vec(f))
        for f in ((-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1))}
    # the hard-coded facets are exactly what double description derives
    assert ConeRep.from_generators(sq.cone.generators).facets == \
        sq.cone.facets


def test_polygon_facets_stay_lazy(monkeypatch):
    # a float polygon holds its proved edge facets as integer rows: no
    # double description runs, and the Fractions are made on first read
    monkeypatch.setattr(cones, "enumerate_rays", None)
    p5 = make_polygon(5)
    assert p5.arithmetic == "float"
    assert p5.cone.has_facets() and p5.cone._facets is None
    assert len(p5.cone.facets) == 5
    assert p5.cone._facets is not None


@pytest.mark.parametrize("n", [3, *range(5, 61), 199])
def test_polygon_facets_are_double_descriptions(n):
    # the edge facets are exactly the tuple double description and the
    # float-mode rescale give, in the same order
    p = make_polygon(n)
    assert p.cone._facets is None
    enumerated = ConeRep(3, POLYHEDRAL, FLOAT, p.cone.generators, None)
    assert p.cone.facets == enumerated.facets


def vertex_rows(gens):
    """The rows _edge_rows takes: each vertex cleared by integer_row."""
    return tuple(map(integer_row, gens))


def reference_edge_rows(gens):
    """The edge facets by their definition, each tested on every vertex:
    f_k = v_k x v_(k+1) on coprime integer rows, >= 0 on every vertex
    and 0 on exactly v_k and v_(k+1); None when one fails."""
    verts = [integer_row(g)[0] for g in gens]
    n = len(verts)
    rows = []
    for k in range(n):
        a, b = verts[k], verts[(k + 1) % n]
        f = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
             a[0] * b[1] - a[1] * b[0])
        if not any(f):
            return None
        f = tuple(x // math.gcd(*f) for x in f)
        values = [sum(x * y for x, y in zip(f, v)) for v in verts]
        zeros = [j for j, x in enumerate(values) if x == 0]
        if min(values) < 0 or zeros != sorted({k, (k + 1) % n}):
            return None
        rows.append(f)
    return tuple((f, F(1, max(map(abs, f)))) for f in sorted(rows))


def test_edge_rows_match_the_definition_seeded():
    # the O(n) proof accepts exactly the vertex cycles whose edges are
    # facets by their definition, and gives the same rows
    rng = random.Random(3434)
    accepted = 0
    for _ in range(400):
        points = [(rng.randint(-5, 5), rng.randint(-5, 5))
                  for _ in range(rng.randint(3, 12))]
        hull = _convex_hull(points)
        cycles = [points, hull, hull[::-1], hull[1:] + hull[:1],
                  hull[::2] + hull[1::2]]
        for cycle in cycles:
            # each lift at a scale of its own, now and then negative
            gens = tuple(vec((x * w, y * w, w)) for x, y in cycle
                         for w in [F(rng.choice((-1,) + (1,) * 19)
                                     * rng.randint(1, 9), rng.randint(1, 9))])
            if any(g[2] < 0 for g in gens):
                # the proof wants every vertex above the unit's plane
                assert _edge_rows(vertex_rows(gens)) is None, cycle
                continue
            want = reference_edge_rows(gens) if len(gens) >= 3 else None
            assert _edge_rows(vertex_rows(gens)) == want, cycle
            accepted += want is not None
    assert accepted > 400
    # a float pentagram turns left at every vertex but winds twice
    p5 = make_polygon(5).vertices
    assert _edge_rows(vertex_rows(p5[::2] + p5[1::2])) is None
    # three collinear lifts
    assert _edge_rows(vertex_rows(tuple(vec(g) for g in (
        (1, 0, 1), (0, 0, 1), (-1, 0, 1), (0, 1, 1))))) is None
    # the square's edges are its hard-coded facets
    assert _edge_rows(vertex_rows(make_squit().vertices)) == tuple(
        (tuple(int(x) for x in f), F(1)) for f in make_squit().cone.facets)


def test_polygon_vertices_on_circle():
    p7 = make_polygon(7)
    for k, v in enumerate(p7.vertices):
        ang = 2 * math.pi * k / 7
        assert abs(v[0] - F(math.cos(ang))) <= EPS
        assert abs(v[1] - F(math.sin(ang))) <= EPS
        assert v[2] == 1


def test_polygon_rejects_degenerate():
    with pytest.raises(InvalidInputError):
        make_polygon(2)
    with pytest.raises(InvalidInputError):
        make_classical(0)


def test_ball_is_lorentz():
    ball = make_ball(3)
    assert ball.kind == "lorentz"
    assert ball.dim == 4
    assert ball.unit == (0, 0, 0, 1)
    assert ball.is_state(vec((0, 0, 0, 1)))
    with pytest.raises(UnsupportedConeError):
        ball.vertices


def test_parse_model_name():
    assert parse_model_name("squit").name == "polygon:4"
    assert parse_model_name("classical:5").dim == 5
    assert parse_model_name("polygon:6").dim == 3
    assert parse_model_name("ball:2").kind == "lorentz"
    for bad in ("triangle", "classical", "classical:x", "polygon:1", ""):
        with pytest.raises(InvalidInputError):
            parse_model_name(bad)


def test_direct_sum_shape():
    both = direct_sum(make_squit(), make_classical(2))
    assert both.dim == 5
    assert both.unit == (0, 0, 1, 1, 1)
    assert len(both.cone.generators) == 6
    padded = {g[:3] for g in both.cone.generators if g[3:] == (0, 0)}
    assert padded == set(make_squit().cone.generators)


def test_direct_sum_rejects_lorentz():
    with pytest.raises(UnsupportedConeError):
        direct_sum(make_ball(2), make_classical(2))


def test_symmetry_group_squit():
    sq = make_squit()
    group = symmetry_group(sq)
    assert len(group) == 4
    assert group[0] == identity(3)
    verts = set(sq.vertices)
    for g in group:
        assert {tuple(matvec(g, v)) for v in sq.vertices} == verts
    # closure
    keys = {tuple(map(tuple, g)) for g in group}
    for g in group:
        for h in group:
            assert tuple(map(tuple, matmul(g, h))) in keys


def test_symmetry_group_classical_permutes():
    cl = make_classical(3)
    group = symmetry_group(cl)
    assert len(group) == 3
    orbit = {tuple(matvec(g, cl.vertices[0])) for g in group}
    assert orbit == set(cl.vertices)


def test_canonical_structure_builds_no_model(monkeypatch):
    # the name's size is checked by the makers' rule, not by a model
    p7, cl = make_polygon(7), make_classical(3)

    def refuse(*args):
        raise AssertionError("a model was built")
    monkeypatch.setattr(models, "_polygon", refuse)
    monkeypatch.setitem(models._MAKERS, "classical", refuse)
    assert len(symmetry_group(p7)) == 7 and len(symmetry_group(cl)) == 3
    assert len(entangled_state_coords(p7)) == 3
    assert len(entangled_state_coords(cl)) == 3
    for name in ("polygon:2", "classical:0"):
        p7.name = name
        with pytest.raises(UnsupportedConeError):
            symmetry_group(p7)


def test_symmetry_group_polygon_order():
    assert len(symmetry_group(make_polygon(6))) == 6
    with pytest.raises(UnsupportedConeError):
        symmetry_group(make_ball(2))


def test_entangled_state_coords_squit_frozen():
    sq = make_squit()
    coords = entangled_state_coords(sq)
    assert coords == ((1, 1, 0), (-1, 1, 0), (0, 0, 1))
    state = BipartiteState(max_tensor(sq, sq), coords)
    state.validate()
    assert is_entangled(state)


def test_entangled_state_coords_classical_separable():
    cl = make_classical(3)
    coords = entangled_state_coords(cl)
    assert coords == tuple(
        tuple(F(1, 3) if i == j else 0 for j in range(3)) for i in range(3))
    state = BipartiteState(max_tensor(cl, cl), coords)
    state.validate()
    assert not is_entangled(state)


def test_entangled_state_coords_polygon_normalized():
    for n in (3, 5, 6):
        pn = make_polygon(n)
        state = BipartiteState(max_tensor(pn, pn),
                               entangled_state_coords(pn))
        state.validate()
        u = vec(pn.unit)
        total = sum(ua * sum(x * ub for x, ub in zip(row, u))
                    for ua, row in zip(u, state.coords))
        assert abs(total - 1) <= EPS


def test_hat_map_sends_facets_to_vertices():
    # the isomorphism state's hat map sends every facet onto a vertex ray
    for n in (4, 5, 8):
        pn = make_polygon(n)
        omega_hat = transpose(entangled_state_coords(pn))
        verts = pn.vertices
        for f in pn.cone.facets:
            image = matvec(omega_hat, f)
            assert image[2] > 0
            ray = tuple(x / image[2] for x in image)
            assert any(all(abs(a - b) <= 2 * EPS for a, b in zip(ray, v))
                       for v in verts)


def test_model_json_round_trip():
    for space in (make_squit(), make_classical(2), make_polygon(3),
                  make_polygon(5), make_polygon(6), make_ball(3)):
        if space.kind == "polyhedral":
            space.cone.facets  # noqa: B018 - computed float facets are scaled
        body = space.to_json_dict()
        back = StateSpace.from_json_dict(body)
        assert back.dim == space.dim
        assert back.kind == space.kind
        assert back.unit == space.unit
        if space.kind == "polyhedral":
            assert {lex_key(g) for g in back.cone.generators} == {
                lex_key(g) for g in space.cone.generators}
            assert ("facets" in body) == (space.arithmetic == "rational")


def test_float_facets_only_payload_round_trip():
    # Given float facets read back exactly; the computed generators,
    # scaled to magnitude 1, do not, so they are not written.
    body = {"dim": 3, "kind": "polyhedral", "arithmetic": "float",
            "unit": [0, 0, 1],
            "facets": [[-0.5, 0.25, 1], [0.75, 0.5, 1], [0.125, -1.0, 1]]}
    space = StateSpace.from_json_dict(body)
    space.cone.generators  # noqa: B018
    again = space.to_json_dict()
    assert "generators" not in again and again["facets"] == body["facets"]
    back = StateSpace.from_json_dict(again)
    assert back.cone.facets == space.cone.facets
    assert back.cone.generators == space.cone.generators
