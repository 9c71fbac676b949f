from dataclasses import replace
from fractions import Fraction

import pytest

from gptkit.errors import InvalidInputError, SearchCapError
from gptkit.linalg import dot
from gptkit.models import make_classical, make_polygon, make_squit
from gptkit.protocols import (bc_cheat_bound, bc_cheat_curve, bc_run,
                              exposing_effect, find_double_decomposition)

F = Fraction
HALF = F(1, 2)
QUARTER = F(1, 4)


def squit_dd():
    return find_double_decomposition(make_squit())


def test_squit_decomposition_frozen():
    dd = squit_dd()
    assert dd.omega == (0, 0, 1)
    assert [s for s, _ in dd.branch0] == [(1, 1, 1), (-1, -1, 1)]
    assert [s for s, _ in dd.branch1] == [(-1, 1, 1), (1, -1, 1)]
    assert all(p == HALF for _, p in dd.branch0 + dd.branch1)
    assert dd.distinguishers0 == ((QUARTER, QUARTER, HALF),
                                  (-QUARTER, -QUARTER, HALF))
    assert dd.distinguishers1 == ((-QUARTER, QUARTER, HALF),
                                  (QUARTER, -QUARTER, HALF))
    assert dd.verify()
    assert not replace(dd, branch0=()).verify()


def test_hiding_is_exact():
    # both branch mixtures are the same vector, zero tolerance
    dd = squit_dd()
    for branch in (dd.branch0, dd.branch1):
        mix = tuple(sum(p * s[i] for s, p in branch) for i in range(3))
        assert mix == dd.omega


def test_simplex_has_no_decomposition():
    with pytest.raises(InvalidInputError):
        find_double_decomposition(make_classical(3))
    with pytest.raises(InvalidInputError):
        find_double_decomposition(make_classical(2))


def test_vertex_cap():
    with pytest.raises(SearchCapError):
        find_double_decomposition(make_polygon(16))


def test_hexagon_minimum_is_four():
    dd = find_double_decomposition(make_polygon(6))
    assert len(dd.branch0) + len(dd.branch1) == 4
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
    sq = make_squit()
    dd = squit_dd()
    for seed in (0, 1, 7, 123456789):
        for bit in (0, 1):
            t = bc_run(sq, dd, bit, 20, seed)
            assert t.verdict == "accept"
            assert t.reveal == (bit, t.samples)
            assert len(t.samples) == 20
            assert set(t.samples) <= {"0", "1"}
            assert t.seed == seed


def test_runs_are_reproducible():
    sq = make_squit()
    dd = squit_dd()
    assert bc_run(sq, dd, 0, 50, 99) == bc_run(sq, dd, 0, 50, 99)
    assert bc_run(sq, dd, 0, 50, 99) != bc_run(sq, dd, 0, 50, 100)


def test_committed_states_match_samples():
    sq = make_squit()
    dd = squit_dd()
    t = bc_run(sq, dd, 1, 10, 3)
    for digit, state in zip(t.samples, t.committed):
        assert state == dd.branch1[int(digit)][0]


def test_wrong_claim_is_always_caught_on_squit():
    # the branch distinguishers evaluate to exactly 0 on the other state
    sq = make_squit()
    dd = squit_dd()
    for seed in range(8):
        t = bc_run(sq, dd, 0, 6, seed)
        pos = 2
        wrong = 1 - int(t.samples[pos])
        bad = bc_run(sq, dd, 0, 6, seed, tamper=(pos, wrong))
        assert bad.verdict == "reject"
        assert bad.samples == t.samples


def test_run_input_validation():
    sq = make_squit()
    dd = squit_dd()
    with pytest.raises(InvalidInputError):
        bc_run(sq, dd, 2, 5, 0)
    with pytest.raises(InvalidInputError):
        bc_run(sq, dd, 0, 0, 0)
    with pytest.raises(InvalidInputError):
        bc_run(sq, dd, 0, 5, 0, tamper=(9, 0))


def test_cheat_bound_exact():
    sq = make_squit()
    dd = squit_dd()
    bound = bc_cheat_bound(sq, dd, 20)
    assert bound.per_round == F(3, 4)
    assert bound.overall == F(3, 4) ** 20
    sigma = bound.optimizer
    assert sq.is_state(sigma)
    best0 = max(dot(a, sigma) for a in dd.distinguishers0)
    best1 = max(dot(a, sigma) for a in dd.distinguishers1)
    assert min(best0, best1) == F(3, 4)


def test_cheat_curve_shape():
    sq = make_squit()
    dd = squit_dd()
    rows = bc_cheat_curve(sq, dd, 5, 400, 17)
    assert [r[0] for r in rows] == [1, 2, 3, 4, 5]
    for n, analytic, emp, err in rows:
        assert analytic == F(3, 4) ** n
        assert 0 <= emp <= 1
        assert err >= 0
    assert rows == bc_cheat_curve(sq, dd, 5, 400, 17)
