import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest

from gptkit.cones import ConeRep
from gptkit.errors import (InvalidInputError, SearchCapError, SolverError,
                           UnsupportedConeError)
from gptkit.linalg import (combination, dot, integer_row, rank, transpose,
                           unit_vec, vec)
from gptkit.lp import feasible_point, solve_lp
from gptkit.models import (make_ball, make_classical, make_polygon,
                           make_squit, parse_model_name)
from gptkit.protocols import (bc_cheat_bound, bc_cheat_curve, bc_run,
                              bitcommit, exposing_effect,
                              find_double_decomposition)
from gptkit.scalars import tolerance_for
from gptkit.spaces import StateSpace
from test_cones import record_clears

F = Fraction
HALF = F(1, 2)
QUARTER = F(1, 4)


def squit_dd():
    return find_double_decomposition(make_squit())


def test_squit_decomposition_frozen():
    dd = squit_dd()
    assert dd.omega == (0, 0, 1)
    branch0, branch1 = dd.branches
    assert [s for s, _ in branch0] == [(1, 1, 1), (-1, -1, 1)]
    assert [s for s, _ in branch1] == [(-1, 1, 1), (1, -1, 1)]
    assert all(p == HALF for _, p in branch0 + branch1)
    assert dd.distinguishers == (((QUARTER, QUARTER, HALF),
                                  (-QUARTER, -QUARTER, HALF)),
                                 ((-QUARTER, QUARTER, HALF),
                                  (QUARTER, -QUARTER, HALF)))
    assert dd.verify()
    assert not replace(dd, branches=((), branch1)).verify()


def _broken_squit_dds():
    """squit's decomposition with one property broken in each."""
    dd = squit_dd()
    branch0, branch1 = dd.branches
    (s0, p0), (s1, p1) = branch0
    (t0, _), (t1, _) = branch1
    (a0, a1), effects1 = dd.distinguishers
    return {
        "negative weight": replace(dd, branches=(((s0, -p0), (s1, p1)),
                                                 branch1)),
        "mixes elsewhere": replace(dd, branches=(branch0,
                                                 ((t0, QUARTER),
                                                  (t1, 3 * QUARTER)))),
        "shared state": replace(dd, branches=(branch0, branch0)),
        "not 1 on its state": replace(dd, distinguishers=((a1, a0),
                                                          effects1)),
        # 1 on (1, 1, 1) and on the vertex (1, -1, 1) too
        "1 on another vertex": replace(
            dd, distinguishers=(((HALF, 0, HALF), a1), effects1)),
        # 1, 0, -1, 0 on the vertices: below 1 elsewhere, but no effect
        "negative on a vertex": replace(
            dd, distinguishers=(((HALF, HALF, 0), a1), effects1)),
    }


@pytest.mark.parametrize("broken", sorted(_broken_squit_dds()))
def test_verify_rejects_each_broken_property(broken):
    assert squit_dd().verify()
    assert not _broken_squit_dds()[broken].verify()


def test_hiding_is_exact():
    # both branch mixtures are the same vector, zero tolerance
    dd = squit_dd()
    for branch in dd.branches:
        mix = tuple(sum(p * s[i] for s, p in branch) for i in range(3))
        assert mix == dd.omega


def test_simplex_has_no_decomposition():
    with pytest.raises(InvalidInputError):
        find_double_decomposition(make_classical(3))
    with pytest.raises(InvalidInputError):
        find_double_decomposition(make_classical(2))


def test_simplex_listed_with_a_redundant_generator_is_a_simplex():
    cone = ConeRep.from_generators(((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                    (1, 1, 1)))
    space = StateSpace(cone, (1, 1, 1))
    with pytest.raises(InvalidInputError, match="simplex"):
        find_double_decomposition(space)


def test_vertex_cap():
    with pytest.raises(SearchCapError):
        find_double_decomposition(make_polygon(16))


def test_hexagon_minimum_is_four():
    dd = find_double_decomposition(make_polygon(6))
    assert sum(len(branch) for branch in dd.branches) == 4
    assert dd.verify()


def test_exposing_effects_squit():
    sq = make_squit()
    for k, want in enumerate(((QUARTER, QUARTER, HALF),
                              (-QUARTER, QUARTER, HALF),
                              (-QUARTER, -QUARTER, HALF),
                              (QUARTER, -QUARTER, HALF))):
        effect, margin = exposing_effect(sq, k)
        assert effect == want
        assert margin == HALF
        assert dot(effect, sq.vertices[k]) == 1


def test_exposing_effect_index_out_of_range():
    sq = make_squit()
    for index in (-1, 4):
        with pytest.raises(InvalidInputError, match="out of range"):
            exposing_effect(sq, index)


def test_exposing_effects_pentagon():
    p5 = make_polygon(5)
    for k in range(5):
        hit = exposing_effect(p5, k)
        assert hit is not None
        effect, margin = hit
        assert margin > 0
        assert abs(dot(effect, p5.vertices[k]) - 1) <= F(1, 10 ** 9)


def test_honest_runs_always_accept():
    dd = squit_dd()
    for seed in (0, 1, 7, 123456789):
        for bit in (0, 1):
            t = bc_run(dd, bit, 20, seed)
            assert t.verdict == "accept"
            assert t.reveal == (bit, t.samples)
            assert len(t.samples) == 20
            assert set(t.samples) <= {"0", "1"}
            assert t.seed == seed


def test_runs_are_reproducible():
    dd = squit_dd()
    assert bc_run(dd, 0, 50, 99) == bc_run(dd, 0, 50, 99)
    assert bc_run(dd, 0, 50, 99) != bc_run(dd, 0, 50, 100)


def test_committed_states_match_samples():
    dd = squit_dd()
    t = bc_run(dd, 1, 10, 3)
    for digit, state in zip(t.samples, t.committed):
        assert state == dd.branches[1][int(digit)][0]


def test_wrong_claim_is_always_caught_on_squit():
    # the branch distinguishers evaluate to exactly 0 on the other state
    dd = squit_dd()
    for seed in range(8):
        t = bc_run(dd, 0, 6, seed)
        pos = 2
        wrong = 1 - int(t.samples[pos])
        bad = bc_run(dd, 0, 6, seed, tamper=(pos, wrong))
        assert bad.verdict == "reject"
        assert bad.samples == t.samples


def test_run_input_validation():
    dd = squit_dd()
    with pytest.raises(InvalidInputError):
        bc_run(dd, 2, 5, 0)
    with pytest.raises(InvalidInputError):
        bc_run(dd, 0, 0, 0)
    with pytest.raises(InvalidInputError):
        bc_run(dd, 0, 5, 0, tamper=(9, 0))


def test_cheat_counts_and_cone_kind_are_refused():
    bound = bc_cheat_bound(squit_dd())
    for n_max, trials in ((0, 10), (1, 0)):
        with pytest.raises(InvalidInputError,
                           match="n_max and trials must be positive"):
            bc_cheat_curve(bound, n_max, trials, 0)
    with pytest.raises(UnsupportedConeError):
        find_double_decomposition(make_ball(2))
    with pytest.raises(UnsupportedConeError, match="no finite vertex list"):
        exposing_effect(make_ball(2), 0)


def test_cheat_bound_exact():
    sq = make_squit()
    dd = squit_dd()
    bound = bc_cheat_bound(dd)
    assert bound.per_round == F(3, 4)
    assert bound.decomposition is dd
    sigma = bound.optimizer
    assert sq.is_state(sigma)
    assert min(max(dot(a, sigma) for a in effects)
               for effects in dd.distinguishers) == F(3, 4)


def test_cheat_curve_shape():
    bound = bc_cheat_bound(squit_dd())
    rows = bc_cheat_curve(bound, 5, 400, 17)
    assert [r[0] for r in rows] == [1, 2, 3, 4, 5]
    for n, analytic, emp, err in rows:
        assert analytic == F(3, 4) ** n
        assert 0 <= emp <= 1
        assert err >= 0
    assert rows == bc_cheat_curve(bound, 5, 400, 17)


# -- the face filter against the unfiltered scan ------------------------


def reference_find_double_decomposition(space, tol=None):
    """The unfiltered scan: every disjoint pair goes to the LP."""
    if space.kind != "polyhedral":
        raise UnsupportedConeError("decomposition needs a polyhedral space")
    verts = space.vertices
    m = len(verts)
    eps = tolerance_for(tol, space)
    if m == space.dim:
        raise InvalidInputError(
            "state set is a simplex; no double decomposition exists")
    if m > bitcommit._VERTEX_CAP:
        raise SearchCapError(f"subset search over {m} vertices exceeds cap")

    for total in range(4, m + 1):
        for k0 in range(2, total - 1):
            k1 = total - k0
            if k1 < k0:
                break
            for idx0 in combinations(range(m), k0):
                rest = [i for i in range(m) if i not in idx0]
                for idx1 in combinations(rest, k1):
                    if k0 == k1 and idx1[0] < idx0[0]:
                        continue  # unordered pair, count once
                    found = bitcommit._try_pair(space, verts, idx0, idx1,
                                                eps, tol)
                    if found is not None:
                        return found
    raise SearchCapError("no double decomposition among the extreme points")


def _convex_hull(points):
    """Strictly convex hull, counter-clockwise (monotone chain)."""
    pts = sorted(set(points))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                    (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]
    return chain(pts) + chain(reversed(pts))


def integer_polygons(count=20, seed=19):
    """Seeded strictly convex integer polygons with 5 to 10 vertices."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        hull = _convex_hull([(rng.randint(-6, 6), rng.randint(-6, 6))
                             for _ in range(rng.randint(8, 30))])
        if 5 <= len(hull) <= 10:
            found.append(hull)
    return found


def _polytope(points, name):
    """The cone over a full-dimensional polytope, unit the last coordinate."""
    gens = [tuple(p) + (1,) for p in points]
    d = len(gens[0])
    return StateSpace(ConeRep.from_generators(vec(g) for g in gens),
                      (F(0),) * (d - 1) + (F(1),), name=name)


CUBE = _polytope(list(product((-1, 1), repeat=3)), "cube")
CONES = (
    CUBE,
    _polytope([tuple(s if i == k else 0 for i in range(3))
               for k in range(3) for s in (-1, 1)], "octahedron"),
    _polytope([(x, y, 0) for x in (-1, 1) for y in (-1, 1)] + [(0, 0, 1)],
              "square pyramid"),
)
ORACLE_SPACES = ([make_squit()] + [make_polygon(n) for n in range(5, 15)]
                 + [_polytope(h, f"hull{i}")
                    for i, h in enumerate(integer_polygons())]
                 + list(CONES))


def _face_masks(space):
    # bit k of masks[j]: facet k vanishes on vertex j, by direct dots
    return [sum(1 << k for k, f in enumerate(space.cone.facets)
                if dot(f, v) == 0) for v in space.vertices]


def _meets(masks, idx):
    out = -1
    for j in idx:
        out &= masks[j]
    return out


@pytest.mark.parametrize("space", ORACLE_SPACES, ids=lambda s: s.name)
def test_filtered_search_matches_the_unfiltered_scan(space):
    got = find_double_decomposition(space)
    want = reference_find_double_decomposition(space)
    assert got == want
    assert got.verify()


def _outcome(search, space, tol):
    try:
        return search(space, tol)
    except SearchCapError as exc:
        return str(exc)


def test_filtered_search_matches_at_a_wide_tolerance():
    # at 1/3 no exposing margin passes on polygon:7 or the cube
    for space in (make_squit(), make_polygon(7), CUBE):
        for tol in (F(1, 100), F(1, 3)):
            assert _outcome(find_double_decomposition, space, tol) == \
                _outcome(reference_find_double_decomposition, space, tol)


def test_cones_have_multi_facet_faces():
    # in dimension 4 a vertex lies on three or more facets, so a face's
    # mask can hold several bits
    for space in CONES:
        assert all(bin(m).count("1") >= 3 for m in _face_masks(space))


@pytest.mark.parametrize("space, unfiltered_lps", [
    (make_polygon(14), 67), (make_squit(), 2)], ids=["polygon:14", "squit"])
def test_search_runs_one_lp(monkeypatch, space, unfiltered_lps):
    calls = []

    def counted(columns, target, tol=F(0)):
        calls.append(columns)
        return feasible_point(columns, target, tol)
    monkeypatch.setattr(bitcommit, "feasible_point", counted)
    dd = find_double_decomposition(space)
    assert len(calls) == 1
    del calls[:]
    assert reference_find_double_decomposition(space) == dd
    assert len(calls) == unfiltered_lps


def _skipped_pairs(space, max_total):
    masks = _face_masks(space)
    m = len(masks)
    for total in range(4, max_total + 1):
        for k0 in range(2, total // 2 + 1):
            for idx0 in combinations(range(m), k0):
                rest = [i for i in range(m) if i not in idx0]
                for idx1 in combinations(rest, total - k0):
                    if _meets(masks, idx0) != _meets(masks, idx1):
                        yield idx0, idx1


@pytest.mark.parametrize("space", ORACLE_SPACES, ids=lambda s: s.name)
def test_skipped_pairs_have_no_positive_mix(space):
    verts = space.vertices
    d = space.dim
    skipped = 0
    for idx0, idx1 in _skipped_pairs(space, 6):
        columns = [verts[j] + (F(1), F(0)) for j in idx0] + \
            [tuple(-x for x in verts[j]) + (F(0), F(1)) for j in idx1]
        weights, _ = feasible_point(columns, (F(0),) * d + (F(1), F(1)))
        assert weights is None or min(weights) == 0
        skipped += 1
    assert skipped


# -- exposing effects against the vertex-row LP ------------------------------


def _slack_matrix(space):
    """Row k, entry j: facet k's value on vertex j."""
    return [tuple(dot(f, v) for v in space.vertices)
            for f in space.cone.facets]


def reference_exposing_effect(space, index, tol=None):
    """The exposing LP with one row per vertex: maximize m subject to
    a(v_index) = 1 and a(v) + m <= 1 on every other vertex, a a
    nonnegative combination theta of the dual cone's generators."""
    verts = space.vertices
    duals = space.cone.facets
    eps = tolerance_for(tol, space)
    # columns: theta per dual generator, m, one slack per non-target row;
    # rows: a(target) = 1, then a(v) + m + slack = 1 per other vertex
    k = len(verts)
    columns = [(row[index],) + row[:index] + row[index + 1:]
               for row in _slack_matrix(space)]
    columns.append((F(0),) + (F(1),) * (k - 1))
    columns += [unit_vec(k, i) for i in range(1, k)]
    result = solve_lp(unit_vec(len(columns), len(duals)), transpose(columns),
                      (F(1),) * k, maximize=True)
    if not result.ok:
        return None
    margin = result.x[len(duals)]
    if margin <= eps:
        return None
    return combination(result.x[:len(duals)], duals), margin


def lattice_polytopes(count=300, seed=30):
    """Seeded cones of dimension 3 to 5 over lattice polytopes, each
    listing a redundant point (the midpoint of two listed points); 82 of
    the 300 also list a point twice. Many vertex LPs are degenerate."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        d = rng.randint(3, 5)
        points = [tuple(rng.randint(-2, 2) for _ in range(d - 1))
                  for _ in range(rng.randint(d + 1, 10))]
        p, q = rng.sample(points, 2)
        points.append(tuple(F(x + y, 2) for x, y in zip(p, q)))
        if rank([vec(point + (1,)) for point in points]) == d:
            found.append(_polytope(points, f"lattice{len(found)}"))
    return found


def _vertex_effects_match(space):
    for j in range(len(space.vertices)):
        assert exposing_effect(space, j) == \
            reference_exposing_effect(space, j), (space.name, j)


@pytest.mark.parametrize("space", ORACLE_SPACES, ids=lambda s: s.name)
def test_exposing_effect_matches_the_vertex_row_lp(space):
    _vertex_effects_match(space)


MODEL_NAMES = ([f"polygon:{n}" for n in range(3, 31)]
               + [f"classical:{n}" for n in range(1, 5)])


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_exposing_effect_matches_on_models(name):
    _vertex_effects_match(parse_model_name(name))


def test_single_vertex_is_not_exposed():
    assert exposing_effect(make_classical(1), 0) is None
    assert reference_exposing_effect(make_classical(1), 0) is None


def test_exposing_effect_matches_on_lattice_polytopes(monkeypatch):
    # Degenerate optima go to the vertex-row LP: 359 of the 2552 vertices
    # here; answering from the d-row LP's dual there instead would change
    # 170 of the effects. The sifted d-row LP is solved again for 566
    # other vertices, whose first restricted optimum a vertex left out of
    # it prices out (and for all 359 fallbacks).
    fallbacks, rows = [], []
    inner = bitcommit._vertex_row_effect

    def counted(space, index, margin):
        fallbacks.append(index)
        return inner(space, index, margin)

    def counted_lp(objective, eq_matrix, eq_rhs, **kwargs):
        rows.append(len(eq_matrix))
        return solve_lp(objective, eq_matrix, eq_rhs, **kwargs)
    monkeypatch.setattr(bitcommit, "_vertex_row_effect", counted)
    monkeypatch.setattr(bitcommit, "solve_lp", counted_lp)
    vertices = resolved = 0
    for space in lattice_polytopes():
        for j in range(len(space.vertices)):
            rows.clear()
            before = len(fallbacks)
            assert exposing_effect(space, j) == \
                reference_exposing_effect(space, j), (space.name, j)
            # the vertex-row LP has a row per listed point, more than dim
            if rows.count(space.dim) > 1 and len(fallbacks) == before:
                resolved += 1
        vertices += len(space.vertices)
    assert vertices > 2000 and len(fallbacks) >= 200 and resolved >= 400


def test_vertex_row_effect_reads_facet_rows_of_any_scale(monkeypatch):
    # The vertex-row LP's columns are the facet rows. Each lattice
    # polytope is rebuilt with every facet times a seeded positive
    # rational: its effects are the vector LP's and the unscaled space's,
    # the degenerate optima among them included.
    fallbacks = []
    inner = bitcommit._vertex_row_effect

    def counted(space, index, margin):
        fallbacks.append(space.name)
        return inner(space, index, margin)
    monkeypatch.setattr(bitcommit, "_vertex_row_effect", counted)
    rng = random.Random(3903)
    for space in lattice_polytopes(count=60):
        facets = []
        for f in space.cone.facets:
            c = F(rng.randint(1, 9), rng.randint(1, 9))
            facets.append(tuple(c * x for x in f))
        scaled = StateSpace(
            ConeRep.from_both(space.cone.generators, facets), space.unit,
            name="scaled")
        assert {s for _, s in scaled.cone.facet_rows()} != {1}
        for j in range(len(space.vertices)):
            got = exposing_effect(scaled, j)
            assert got == reference_exposing_effect(scaled, j), (space.name, j)
            assert got == exposing_effect(space, j), (space.name, j)
    assert fallbacks.count("scaled") >= 50


def test_exposing_lps_have_one_row_per_coordinate(monkeypatch):
    # every exposing effect on polygon:14 comes from one 3-row LP on at
    # most 9 columns, s and the z and w columns of 4 of the 13 other
    # vertices: no optimum there is degenerate, and none is priced out
    shapes = []

    def counted(objective, eq_matrix, eq_rhs, **kwargs):
        shapes.append((len(eq_matrix), len(objective)))
        return solve_lp(objective, eq_matrix, eq_rhs, **kwargs)
    monkeypatch.setattr(bitcommit, "solve_lp", counted)
    dd = find_double_decomposition(make_polygon(14))
    assert sum(len(branch) for branch in dd.branches) == len(shapes)
    assert {rows for rows, _ in shapes} == {3}
    assert max(columns for _, columns in shapes) <= 9


def reference_sift_order(space, index):
    """The vertices other than v_index, nearest first: the slack rows of
    the facets through v_index, concatenated and cleared to integers,
    then summed per vertex; ties keep index order."""
    m = len(space.vertices)
    through = integer_row(sum((row for row in _slack_matrix(space)
                               if row[index] == 0), ()))[0]
    return sorted((j for j in range(m) if j != index),
                  key=lambda j: sum(through[j::m]))


def test_sift_starts_from_the_nearest_and_farthest_vertices(monkeypatch):
    # the effect does not depend on the sift's path, so only the first
    # LP's columns show the order: its z_j columns are delta_j + (1,)
    # for exactly the d - 1 nearest and d - 1 farthest vertices
    firsts = []

    def recorded(objective, eq_matrix, eq_rhs, **kwargs):
        firsts.append(transpose(eq_matrix))
        return solve_lp(objective, eq_matrix, eq_rhs, **kwargs)
    monkeypatch.setattr(bitcommit, "solve_lp", recorded)
    spaces = ([parse_model_name(name) for name in MODEL_NAMES]
              + ORACLE_SPACES + lattice_polytopes())
    for space in spaces:
        verts, d = space.vertices, space.dim
        i = next(k for k, x in enumerate(space.unit) if x)
        for t in range(len(verts)):
            firsts.clear()
            exposing_effect(space, t)
            order = reference_sift_order(space, t)
            chosen = sorted(set(order[:d - 1] + order[::-1][:d - 1]))
            want = [tuple(verts[j][k] - verts[t][k] for k in range(d)
                          if k != i) + (F(1),) for j in chosen]
            columns = firsts[0]
            assert len(columns) == 2 * len(chosen) + 1, (space.name, t)
            assert list(columns[:len(chosen)]) == want, (space.name, t)


def test_search_reads_each_side_cleared_once_by_cones(monkeypatch):
    # the search and its exposing effects read the cone's rows: nothing
    # outside cones clears a generator, facet or vertex, and cones clears
    # each at most once, for the cone and its dual view together; the
    # spaces (squit and polygon:5 to 14 among them) are built anew, one
    # per model, as the square's vectors are shared constants
    spaces = [parse_model_name(s.name) if s.name.startswith("polygon")
              else StateSpace(ConeRep.from_generators(s.cone.generators),
                              s.unit, s.name)
              for s in ORACLE_SPACES]
    seen = record_clears(monkeypatch)
    found = [find_double_decomposition(space) for space in spaces]
    assert [dd.verify() for dd in found] == [True] * len(spaces)
    assert seen
    for space in spaces:
        # the vertices come from the generators' rows: none is cleared
        assert not any(v is x for _, _, v in seen for x in space.vertices)
        for side in (space.cone.generators, space.cone.facets):
            hits = [(direct, outer, id(v)) for direct, outer, v in seen
                    if any(v is x for x in side)]
            assert {outer for _, outer, _ in hits} <= {"gptkit.cones"}, space
            fills = [i for direct, _, i in hits if direct == "gptkit.cones"]
            assert len(set(fills)) == len(fills), space


def test_exposing_effect_checks_the_dual(monkeypatch):
    # a dual that is not an optimal effect is refused, not returned
    def skewed(objective, eq_matrix, eq_rhs, **kwargs):
        result = solve_lp(objective, eq_matrix, eq_rhs, **kwargs)
        return replace(result, dual=(F(1),) + result.dual[1:])
    monkeypatch.setattr(bitcommit, "solve_lp", skewed)
    with pytest.raises(SolverError, match="not an optimal effect"):
        exposing_effect(make_squit(), 0)
