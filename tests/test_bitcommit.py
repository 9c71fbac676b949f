import random
import time
from collections import Counter
from dataclasses import replace
from functools import cache
from fractions import Fraction
from itertools import combinations, product

import pytest

import gptkit.lp
from gptkit.cones import ConeRep
from gptkit.errors import (InvalidInputError, SearchCapError, SolverError,
                           UnsupportedConeError)
from gptkit.linalg import (combination, dot, integer_row, inverse, rank,
                           transpose, unit_vec, vec)
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
    rows = tuple(bc_cheat_curve(bound, 5, 400, 17))
    assert [r[0] for r in rows] == [1, 2, 3, 4, 5]
    for n, analytic, emp, err in rows:
        assert analytic == F(3, 4) ** n
        assert 0 <= emp <= 1
        assert err >= 0
    assert rows == tuple(bc_cheat_curve(bound, 5, 400, 17))


# -- the face filter against the unfiltered scan ------------------------


def reference_find_double_decomposition(space, tol=None, try_pair=None):
    """The unfiltered scan: every disjoint pair goes to the pair step,
    bitcommit._try_pair unless another is given."""
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
                    found = (try_pair or bitcommit._try_pair)(
                        space, verts, idx0, idx1, eps, tol)
                    if found is not None:
                        return found
    raise SearchCapError("no double decomposition among the extreme points")


def pair_columns(verts, idx0, idx1):
    """A pair's weight system: branch 0 and branch 1 mix to one state and
    each branch sums to one."""
    d = len(verts[0])
    columns = [verts[j] + (F(1), F(0)) for j in idx0] + \
        [tuple(-x for x in verts[j]) + (F(0), F(1)) for j in idx1]
    return columns, (F(0),) * d + (F(1), F(1))


def reference_try_pair(space, verts, idx0, idx1, eps, tol):
    """The pair step with its weights from the feasibility LP, phase 1's
    point, on every pair: what the elimination replaced."""
    weights, _ = feasible_point(*pair_columns(verts, idx0, idx1))
    if weights is None or any(w <= eps for w in weights):
        return None
    effects = [exposing_effect(space, j, tol) for j in idx0 + idx1]
    if None in effects:
        return None
    k0 = len(idx0)
    pairs = ((idx0, weights[:k0], effects[:k0]),
             (idx1, weights[k0:], effects[k0:]))
    return bitcommit.DoubleDecomposition(
        space, combination(weights[:k0], [verts[j] for j in idx0]),
        tuple(tuple(zip((verts[j] for j in idx), ws)) for idx, ws, _ in pairs),
        tuple(tuple(a for a, _ in hits) for _, _, hits in pairs))


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
    # the filtered search solves no LP, its pair weights and exposing
    # effects all proved exactly; the unfiltered scan, one feasibility
    # LP per pair (reference_try_pair), runs unfiltered_lps
    solved, lp_pairs = [], []

    def counted(*args, **kwargs):
        solved.append(1)
        return solve_lp(*args, **kwargs)

    def counted_pair(*args):
        lp_pairs.append(1)
        return reference_try_pair(*args)
    monkeypatch.setattr(bitcommit, "solve_lp", counted)
    dd = find_double_decomposition(space)
    assert solved == []
    assert reference_find_double_decomposition(space, None,
                                               counted_pair) == dd
    assert len(lp_pairs) == unfiltered_lps


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
    skipped = 0
    for idx0, idx1 in _skipped_pairs(space, 6):
        weights, _ = feasible_point(*pair_columns(space.vertices, idx0, idx1))
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
    # Many optima here are degenerate. Of the 2552 vertices, 361 are
    # answered by the basis step with no LP, 716 are refused with neither
    # (another listed point has phi = 0), and each of the other 1475 by
    # one vertex-row LP, which has one row per listed point.
    rows = []

    def counted_lp(objective, eq_matrix, eq_rhs, **kwargs):
        rows.append(len(eq_matrix))
        return solve_lp(objective, eq_matrix, eq_rhs, **kwargs)
    monkeypatch.setattr(bitcommit, "solve_lp", counted_lp)
    answers = Counter()
    for space in lattice_polytopes():
        for j in range(len(space.vertices)):
            rows.clear()
            got = exposing_effect(space, j)
            assert got == reference_exposing_effect(space, j), (space.name, j)
            assert rows in ([], [len(space.vertices)]), (space.name, j)
            answers["lp" if rows else "basis" if got else "refused"] += 1
    assert answers == {"basis": 361, "refused": 716, "lp": 1475}


def test_vertex_row_effect_reads_facet_rows_of_any_scale(monkeypatch):
    # The vertex-row LP's columns are the facet rows. Each lattice
    # polytope is rebuilt with every facet times a seeded positive
    # rational: its effects are the vector LP's and the unscaled space's,
    # the degenerate optima among them included.
    fallbacks = []
    inner = bitcommit._vertex_row_effect

    def counted(space, index, eps):
        fallbacks.append(space.name)
        return inner(space, index, eps)
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


def refuse_basis(monkeypatch):
    """Send every exposing effect to the vertex-row LP, as if no basis
    proved itself."""
    monkeypatch.setattr(bitcommit, "_basis_optimum", lambda *args: None)


def reference_phi(space, index):
    """phi(v_j) up to a positive factor, per vertex j other than v_index:
    the slack rows of the facets through v_index, concatenated and
    cleared to integers, then summed per vertex."""
    m = len(space.vertices)
    through = integer_row(sum((row for row in _slack_matrix(space)
                               if row[index] == 0), ()))[0]
    return {j: sum(through[j::m]) for j in range(m) if j != index}


def reference_phi_order(space, index):
    """The vertices other than v_index, nearest first; ties keep index
    order."""
    phi = reference_phi(space, index)
    return sorted(phi, key=phi.__getitem__)


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


@pytest.mark.parametrize("dual", [
    lambda y: (y[0] + 1,) + y[1:],  # y . b is not the margin
    # y . b kept (b is all ones), m's column (0, 1, ..., 1) violated
    lambda y: (sum(y),) + (F(0),) * (len(y) - 1),
], ids=["objective", "column"])
def test_exposing_effect_checks_the_dual(monkeypatch, dual):
    # a vertex-row LP dual that does not certify the margin is refused by
    # solve_lp, not returned (the basis step refused, so that squit's LP
    # is solved); the duals are skewed in solve_lp's min form
    refuse_basis(monkeypatch)
    squit = make_squit()
    assert exposing_effect(squit, 0) == reference_exposing_effect(squit, 0)
    inner = gptkit.lp._dual
    monkeypatch.setattr(gptkit.lp, "_dual", lambda *args: dual(inner(*args)))
    with pytest.raises(SolverError, match="dual does not certify"):
        exposing_effect(squit, 0)


# -- the basis step: exposing effects with no LP -----------------------------


def _counted_effect(monkeypatch, space, index, tol=None):
    """exposing_effect's answer, the number of LPs it solved and the
    number of bases its basis step tried (its eliminations)."""
    lps, bases = [], []
    lp, eliminate = bitcommit.solve_lp, bitcommit._eliminate

    def counted_lp(*args, **kwargs):
        lps.append(1)
        return lp(*args, **kwargs)

    def counted_basis(m):
        bases.append(1)
        return eliminate(m)
    with monkeypatch.context() as patch:
        patch.setattr(bitcommit, "solve_lp", counted_lp)
        patch.setattr(bitcommit, "_eliminate", counted_basis)
        got = exposing_effect(space, index, tol)
    return got, len(lps), len(bases)


def _basis_census(monkeypatch, spaces):
    """Per vertex: the number of the far vertex whose basis answered
    (1 for the farthest), or "lp" when the vertex-row LP answered."""
    census = Counter()
    for space in spaces:
        for j in range(len(space.vertices)):
            _, lps, bases = _counted_effect(monkeypatch, space, j)
            census["lp" if lps else bases] += 1
    return census


def test_basis_step_answers_polygons_and_squit_without_an_lp(monkeypatch):
    spaces = [make_squit()] + [make_polygon(n) for n in range(5, 15)]
    for space in spaces:
        for j in range(len(space.vertices)):
            got, lps, _ = _counted_effect(monkeypatch, space, j)
            assert lps == 0, (space.name, j)
            assert got == reference_exposing_effect(space, j), (space.name, j)
    assert _basis_census(monkeypatch, spaces) == {1: 81, 2: 18}


def test_basis_step_answers_almost_every_polygon_vertex(monkeypatch):
    # polygon:3's three optima are degenerate; every other vertex of
    # polygon:3 to 60 is proved on the farthest or second farthest vertex
    spaces = [parse_model_name(f"polygon:{n}") for n in range(3, 61)]
    assert _basis_census(monkeypatch, spaces) == \
        {1: 1665, 2: 159, "lp": 3}
    assert _basis_census(monkeypatch, spaces[:1]) == {"lp": 3}


def test_degenerate_optima_reach_the_vertex_row_lp(monkeypatch):
    # a simplex's exposing LPs have degenerate optima (classical:1 has no
    # other vertex), so no basis proves itself and the vertex-row LP
    # answers; classical:2's segment has a non-degenerate one
    for name in ["polygon:3"] + [f"classical:{n}" for n in (1, 3, 4, 5, 6)]:
        space = parse_model_name(name)
        for j in range(len(space.vertices)):
            got, lps, _ = _counted_effect(monkeypatch, space, j)
            assert lps == 1, (name, j)
            assert got == reference_exposing_effect(space, j), (name, j)
    assert _basis_census(monkeypatch, [make_classical(2)]) == {1: 2}


def reference_basis_refusals(space, index, tol=None):
    """Why each basis the step tries fails, in its order, or "proved":
    z on the d - 1 nearest vertices and w on one of the d - 1 farthest,
    read through Fraction inverse and checked on every vertex. Only
    "hidden" when another vertex has phi = 0: no basis is tried."""
    verts, d = space.vertices, space.dim
    eps = tolerance_for(tol, space)
    i = next(k for k, x in enumerate(space.unit) if x)
    if 0 in reference_phi(space, index).values():
        return ["hidden"]
    order = reference_phi_order(space, index)

    def delta(j):
        return tuple(verts[j][k] - verts[index][k] for k in range(d) if k != i)
    near = [delta(j) + (F(1),) for j in order[:d - 1]]
    out = []
    for far in order[::-1][:d - 1]:
        inv = inverse(transpose(near + [tuple(-x for x in delta(far))
                                        + (F(0),)]))
        if inv is None:
            out.append("singular")
            continue
        if any(row[-1] <= 0 for row in inv):
            out.append("x_B <= 0")
            continue
        *y, margin = inv[-1]
        if margin <= eps:
            out.append("margin <= eps")
            continue
        # a(v_j) = 1 + y . delta_j
        values = [1 + dot(y, delta(j)) for j in range(len(verts)) if j != index]
        fits = all(0 <= a <= 1 - margin for a in values)
        out.append("proved" if fits else "misfit")
    return out


def test_basis_step_falls_through_on_every_refusal(monkeypatch):
    # the step answers exactly where a reference basis proves itself, with
    # the reference effect; a hidden vertex is refused with no basis and
    # no LP; elsewhere the vertex-row LP answers it, refusals of every
    # kind among them
    refusals = Counter()
    spaces = ([parse_model_name(f"polygon:{n}") for n in range(3, 9)]
              + list(CONES) + lattice_polytopes(count=60))
    for space in spaces:
        for j in range(len(space.vertices)):
            reasons = reference_basis_refusals(space, j)
            got, lps, bases = _counted_effect(monkeypatch, space, j)
            assert got == reference_exposing_effect(space, j), (space.name, j)
            if reasons == ["hidden"]:
                assert got is None and lps == bases == 0, (space.name, j)
                refusals.update(reasons)
            elif "proved" in reasons:
                assert lps == 0 and bases == reasons.index("proved") + 1
            else:
                assert lps == 1 and bases == len(reasons), (space.name, j)
                refusals.update(reasons)
    assert set(refusals) == {"hidden", "singular", "x_B <= 0", "misfit"}


def test_basis_step_falls_through_at_a_margin_within_eps(monkeypatch):
    # squit's margins are 1/2: at tol 1/2 no vertex is exposed, and the
    # vertex-row LP says so; just below, the basis answers
    squit = make_squit()
    for tol, lps in ((HALF, 1), (F(499, 1000), 0)):
        for j in range(4):
            assert reference_basis_refusals(squit, j, tol)[0] == \
                ("margin <= eps" if lps else "proved")
            got, solved, _ = _counted_effect(monkeypatch, squit, j, tol)
            assert solved == lps and \
                got == reference_exposing_effect(squit, j, tol)
    assert exposing_effect(squit, 0, HALF) is None


def test_basis_step_falls_through_on_a_misfit(monkeypatch):
    # every basis the step tries is said to misfit: the vertex-row LP
    # answers, with the same effects
    monkeypatch.setattr(bitcommit, "_misfits",
                        lambda effect, margin, cleared, index: [index])
    for space in [make_squit(), make_polygon(7)]:
        for j in range(len(space.vertices)):
            got, lps, bases = _counted_effect(monkeypatch, space, j)
            assert lps == 1 and bases == space.dim - 1, (space.name, j)
            assert got == reference_exposing_effect(space, j), (space.name, j)


# -- certificates in place of LPs: the pair weights and the cheat bound -------


FAMILIES = {"oracle": lambda: ORACLE_SPACES, "lattice": lattice_polytopes}


def _searched(spaces):
    """find_double_decomposition on each space, or its error."""
    out = []
    for space in spaces:
        try:
            out.append(find_double_decomposition(space))
        except (InvalidInputError, SearchCapError) as exc:
            out.append((type(exc), str(exc)))
    return out


@cache
def family_decompositions(family):
    return tuple(dd for dd in _searched(FAMILIES[family]())
                 if isinstance(dd, bitcommit.DoubleDecomposition))


def reference_cheat_pair(a0, a1):
    """The cheat LP for effect values a0, a1 on the vertices: maximize
    t <= min(a0 . lambda, a1 . lambda), lambda in the simplex, t >= 0;
    (t, lambda) at the simplex's optimum, or None when infeasible."""
    m = len(a0)
    # columns: lambda per vertex, then t, s0, s1; rows: sum lambda = 1,
    # t + s0 - a0(state) = 0, t + s1 - a1(state) = 0
    columns = [(F(1), -x0, -x1) for x0, x1 in zip(a0, a1)] + [
        (F(0), F(1), F(1)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    result = solve_lp((F(0),) * m + (F(1), F(0), F(0)), transpose(columns),
                      (F(1), F(0), F(0)), maximize=True)
    return (result.x[m], result.x[:m]) if result.ok else None


def reference_cheat_bound(dd):
    """bc_cheat_bound with the cheat LP on every pair of distinguishers."""
    verts = dd.space.vertices
    values0, values1 = ([[dot(a, v) for v in verts] for a in effects]
                        for effects in dd.distinguishers)
    best = None
    for i0, a0 in enumerate(values0):
        for i1, a1 in enumerate(values1):
            found = reference_cheat_pair(a0, a1)
            if found is not None and (best is None or found[0] > best[0]):
                best = (*found, (i0, i1))
    if best is None:
        raise InvalidInputError("cheat LP failed on every distinguisher pair")
    c, weights, pair = best
    return bitcommit.CheatBound(dd, c, combination(weights, verts), pair)


def proved_unique(a0, a1, t, lam):
    """Whether (t, lam) has strictly negative reduced costs in the cheat
    LP, so that it is the LP's unique optimum: y weighs a0 and 1 - y a1,
    0 < y < 1 at a crossing, and y a0 + (1 - y) a1 < t off the support."""
    support = [j for j, w in enumerate(lam) if w]
    k = support[0]
    if len(support) == 1:
        y = F(a0[k] <= a1[k])
    else:
        l = support[1]
        y = (a1[l] - a1[k]) / (a0[k] - a1[k] - a0[l] + a1[l])
        if not 0 < y < 1:
            return False
    return all(y * x0 + (1 - y) * x1 < t for j, (x0, x1)
               in enumerate(zip(a0, a1)) if j not in support)


@pytest.mark.parametrize("family, unique, other", [
    ("oracle", 136, 0), ("lattice", 1202, 158)])
def test_cheat_bound_certificates_match_the_lp(family, unique, other):
    # the bound, the optimizer and the pair equal the cheat LP's on every
    # decomposition; per pair the value is the LP's, and where the
    # candidate is proved the unique optimum (unique of the pairs) its
    # weights are the simplex's x; the lattice family's degenerate and
    # tied optima are the other pairs
    dds = family_decompositions(family)
    assert [(b.per_round, b.optimizer, b.pair)
            for b in map(bc_cheat_bound, dds)] == \
        [(b.per_round, b.optimizer, b.pair)
         for b in map(reference_cheat_bound, dds)]
    census = Counter()
    for dd in dds:
        values0, values1 = ([[dot(a, v) for v in dd.space.vertices]
                             for a in effects] for effects in dd.distinguishers)
        for a0, a1 in product(values0, values1):
            (t, lam), (want_t, want_lam) = (bitcommit._cheat_optimum(a0, a1),
                                            reference_cheat_pair(a0, a1))
            assert t == want_t
            proved = proved_unique(a0, a1, t, lam)
            assert lam == want_lam or not proved
            census["unique" if proved else "other"] += 1
    assert census == Counter(unique=unique, other=other)


def test_cheat_optimum_takes_the_first_best_candidate():
    # a0 = 1 on v0 and v1, a1 = 1 on v2: the crossings (0, 2) and (1, 2)
    # both reach t = 1/2, and the first is taken
    assert bitcommit._cheat_optimum([F(1), F(1), F(0)],
                                    [F(0), F(0), F(1)]) == \
        (HALF, (HALF, F(0), HALF))
    assert bitcommit._cheat_optimum([F(1), F(0)], [F(0), F(1)]) == \
        (HALF, (HALF, HALF))
    # equal values at v0: the vertex, at weight 1 on a0 (v1 is lower)
    assert bitcommit._cheat_optimum([F(3), F(1)], [F(3), F(2)]) == \
        (F(3), (F(1), F(0)))
    # every candidate below 0: the LP is infeasible, and so no optimum
    assert bitcommit._cheat_optimum([F(-1), F(1)], [F(1), F(-2)]) is None
    assert reference_cheat_pair([F(-1), F(1)], [F(1), F(-2)]) is None


def test_cheat_optimum_is_the_lp_value_on_tied_pairs():
    # 5000 seeded small-integer value pairs, many tied: the first best
    # candidate has the cheat LP's value, and the min of the two effects
    # at its weights is exactly that value; on 317 of them it is another
    # optimum than the simplex's
    rng = random.Random(4601)
    other = 0
    for _ in range(5000):
        m = rng.randint(2, 5)
        a0, a1 = ([F(rng.randint(-1, 3)) for _ in range(m)] for _ in range(2))
        got, want = bitcommit._cheat_optimum(a0, a1), \
            reference_cheat_pair(a0, a1)
        assert (got is None) == (want is None), (a0, a1)
        if got is None:
            continue
        t, lam = got
        assert t == want[0] and sum(lam) == 1 and min(lam) >= 0
        assert min(dot(a0, lam), dot(a1, lam)) == t, (a0, a1)
        other += lam != want[1]
    assert other == 317


def test_cheat_bound_without_a_nonnegative_pair_is_refused():
    # every distinguisher is -1 on every squit vertex: no pair has a
    # common value of at least 0 (the cheat LP is infeasible on each)
    minus = (F(0), F(0), F(-1))
    dd = replace(squit_dd(), distinguishers=((minus, minus), (minus, minus)))
    with pytest.raises(InvalidInputError, match="^no distinguisher pair has "
                       "a nonnegative common value$"):
        bc_cheat_bound(dd)
    with pytest.raises(InvalidInputError):
        reference_cheat_bound(dd)


@pytest.mark.parametrize("family, dependent", [("oracle", 0), ("lattice", 3)])
def test_pair_weights_match_the_lp_only_search(monkeypatch, family,
                                               dependent):
    # the search with pair weights by elimination finds what the search
    # with the feasibility LP on every pair finds; the pairs it meets
    # with dependent columns get no weights, and the LP no positive ones
    met = []
    inner = bitcommit._unique_weights

    def recorded(columns, target):
        x = inner(columns, target)
        if rank(columns) < len(columns):
            point, _ = feasible_point(columns, target)
            assert x is None and (point is None or min(point) == 0)
            met.append(1)
        return x
    monkeypatch.setattr(bitcommit, "_unique_weights", recorded)
    spaces = FAMILIES[family]()
    got = _searched(spaces)
    assert len(met) == dependent
    monkeypatch.setattr(bitcommit, "_try_pair", reference_try_pair)
    assert got == _searched(spaces)


def test_dependent_pairs_have_a_zero_lp_weight():
    # the lemma behind no LP: feasible_point's point is a basic solution,
    # so with dependent columns at most rank-many weights are nonzero;
    # on every dependent pair of 4 to 6 points of polygon:6 and the
    # octahedron (the searches' own are checked above) the LP is
    # infeasible or its point has a zero weight, refused at every tol
    kinds = Counter()
    for space in [make_polygon(6), CONES[1]]:
        verts = space.vertices
        for total in range(4, 7):
            for k0 in range(2, total // 2 + 1):
                for idx0 in combinations(range(len(verts)), k0):
                    rest = [j for j in range(len(verts)) if j not in idx0]
                    for idx1 in combinations(rest, total - k0):
                        columns, target = pair_columns(verts, idx0, idx1)
                        if rank(columns) == len(columns):
                            continue
                        assert bitcommit._unique_weights(columns,
                                                         target) is None
                        point, _ = feasible_point(columns, target)
                        assert point is None or min(point) == 0
                        kinds["zero" if point else "infeasible"] += 1
    assert kinds == {"infeasible": 98, "zero": 68}


def test_independent_pairs_are_solved_by_elimination():
    # every 2 + 2 pair: with independent columns the elimination's weights
    # are feasible_point's point, or there is none (no solution, or a
    # negative weight) and the pair gives None; dependent ones get no
    # weights, and feasible_point's point has a zero weight
    kinds = Counter()
    for space in [make_squit(), make_polygon(5), make_polygon(6), CUBE]:
        verts = space.vertices
        for idx0 in combinations(range(len(verts)), 2):
            rest = [j for j in range(len(verts)) if j not in idx0]
            for idx1 in combinations(rest, 2):
                columns, target = pair_columns(verts, idx0, idx1)
                x = bitcommit._unique_weights(columns, target)
                point, _ = feasible_point(columns, target)
                if x is not None and min(x) >= 0:
                    assert x == point
                    kinds["solved"] += 1
                    continue
                assert bitcommit._try_pair(space, verts, idx0, idx1, F(0),
                                           None) is None
                if rank(columns) < 4:
                    assert x is None and (point is None or min(point) == 0)
                    kinds["dependent"] += 1
                    continue
                assert point is None
                kinds["negative" if x else "inconsistent"] += 1
    assert kinds == {"inconsistent": 348, "negative": 80, "solved": 66,
                     "dependent": 52}


# -- points no effect exposes are left out of the scan ------------------------


def test_search_skips_points_no_effect_exposes(monkeypatch):
    # on the lattice polytopes listing at most 8 points, simplices aside,
    # the search finds what the unfiltered scan finds and tries no pair
    # with a point exposing_effect refuses; each lists one (its midpoint),
    # and on 123 of the 128 the unfiltered scan tries pairs with it
    tried, try_pair = [], bitcommit._try_pair

    def recorded(space, verts, idx0, idx1, eps, tol):
        tried.append(set(idx0 + idx1))
        return try_pair(space, verts, idx0, idx1, eps, tol)
    monkeypatch.setattr(bitcommit, "_try_pair", recorded)
    spaces = [s for s in lattice_polytopes() if len(s.vertices) <= 8
              and len(s.cone.facet_rows()) > s.dim]
    unfiltered = 0
    for space in spaces:
        hidden = {j for j in range(len(space.vertices))
                  if exposing_effect(space, j) is None}
        assert hidden, space.name
        tried.clear()
        got = _outcome(find_double_decomposition, space, None)
        assert all(hidden.isdisjoint(idx) for idx in tried), space.name
        tried.clear()
        assert got == _outcome(reference_find_double_decomposition, space,
                               None), space.name
        unfiltered += any(not hidden.isdisjoint(idx) for idx in tried)
    assert (len(spaces), unfiltered) == (128, 123)


def test_pair_scan_stops_at_dim_plus_one_points(monkeypatch):
    # a pair's weights need independent columns, in dim + 2 rows of which
    # u(v) = 1 makes one redundant, so no pair of more than dim + 1
    # points passes and none is tried; the refusal stays the same
    sizes, try_pair = [], bitcommit._try_pair

    def recorded(space, verts, idx0, idx1, eps, tol):
        sizes.append(len(idx0) + len(idx1))
        return try_pair(space, verts, idx0, idx1, eps, tol)
    monkeypatch.setattr(bitcommit, "_try_pair", recorded)
    for name, tried in (("polygon:8", 110), ("polygon:12", 999)):
        space = parse_model_name(name)
        sizes.clear()
        with pytest.raises(SearchCapError, match="^no double decomposition "
                           "among the extreme points$"):
            find_double_decomposition(space, HALF)
        assert (max(sizes), len(sizes)) == (space.dim + 1, tried)
    monkeypatch.setattr(bitcommit, "_try_pair", try_pair)
    space = parse_model_name("polygon:8")
    assert _outcome(find_double_decomposition, space, HALF) == \
        _outcome(reference_find_double_decomposition, space, HALF)


def test_search_with_three_exposed_points_is_refused_at_once():
    # lattice200 lists 11 points, of which 3 are exposed: too few for a
    # pair, so the search refuses without trying one
    space = lattice_polytopes()[200]
    assert len(space.vertices) == 11
    assert sum(exposing_effect(space, j) is not None
               for j in range(11)) == 3
    start = time.process_time()
    with pytest.raises(SearchCapError, match="^no double decomposition "
                       "among the extreme points$"):
        find_double_decomposition(space)
    assert time.process_time() - start < 1
