import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptkit.cones import ConeRep
from gptkit.linalg import mat, matvec, transpose, vec
from gptkit.lp import feasible_point, solve_lp
from gptkit.protocols import (bc_cheat_bound, exposing_effect,
                              find_double_decomposition)
from gptkit.spaces import StateSpace, base_norm

F = Fraction
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonneg = st.fractions(min_value=0, max_value=3, max_denominator=4)


def test_known_optimum():
    # max x + y on the simplex x + y + s = 1
    res = solve_lp(vec((1, 1, 0)), mat(((1, 1, 1),)), vec((1,)),
                   maximize=True)
    assert res.status == "optimal"
    assert res.objective == 1
    res = solve_lp(vec((1, 1, 0)), mat(((1, 1, 1),)), vec((1,)))
    assert res.objective == 0


def test_exact_fractional_optimum():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, slack form; optimum (4, 0)
    rows = mat(((1, 1, 1, 0), (1, 3, 0, 1)))
    res = solve_lp(vec((3, 2, 0, 0)), rows, vec((4, 6)), maximize=True)
    assert res.status == "optimal"
    assert res.objective == 12
    assert res.x[0] == 4 and res.x[1] == 0


def test_infeasible_reports_residual():
    res = solve_lp(vec((0, 0)), mat(((1, 1),)), vec((-1,)))
    assert res.status == "infeasible"
    assert res.residual > 0
    assert not res.ok


def test_unbounded():
    res = solve_lp(vec((1, 0)), mat(((1, -1),)), vec((0,)), maximize=True)
    assert res.status == "unbounded"


def test_degenerate_terminates():
    # multiple bases describe the same vertex; Bland's rule must not cycle
    rows = mat(((1, 1, 1, 0, 0), (1, 0, 0, 1, 0), (0, 1, 0, 0, 1)))
    res = solve_lp(vec((1, 2, 0, 0, 0)), rows, vec((1, 1, 1)), maximize=True)
    assert res.status == "optimal"
    assert res.objective == 2


def test_feasible_point_gating():
    columns = mat(((1,), (1,)))
    x, residual = feasible_point(columns, vec((1,)), F(0))
    assert x is not None and residual == 0
    assert matvec(transpose(columns), x) == (1,)
    x, residual = feasible_point(mat(((1, 1), (0, 0))), vec((1, 2)), F(0))
    assert x is None
    assert residual >= 1


def test_feasible_point_relaxed_under_eps():
    # inconsistent by 1e-12; a loose tolerance accepts the relaxed point
    gap = F(1, 10 ** 12)
    columns = mat(((1, 1), (0, 0)))
    target = vec((1, 1 + gap))
    x, residual = feasible_point(columns, target, F(1, 10 ** 9))
    assert x is not None
    assert residual <= F(1, 10 ** 9)
    x, residual = feasible_point(columns, target, F(0))
    assert x is None


def test_feasible_point_without_columns():
    # the empty set of columns spans only the zero vector
    assert feasible_point((), vec((0, 0))) == ((), 0)
    x, residual = feasible_point((), vec((1, -2)))
    assert x is None and residual == 3
    x, _ = feasible_point(mat(((0, 0),)), vec((0, 1)))
    assert x is None


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda dim: st.lists(st.tuples(
        st.lists(st.integers(min_value=-3, max_value=3),
                 min_size=dim, max_size=dim).map(vec), nonneg),
        min_size=0, max_size=5).map(lambda pairs: (dim, pairs))))
def test_feasible_point_reaches_cone_members(case):
    # a nonnegative combination of the columns is always reached exactly
    dim, pairs = case
    columns = tuple(c for c, _ in pairs)
    target = tuple(sum((w * c[i] for c, w in pairs), F(0))
                   for i in range(dim))
    x, residual = feasible_point(columns, target)
    assert x is not None and residual == 0
    assert len(x) == len(columns) and all(v >= 0 for v in x)
    assert tuple(sum((v * c[i] for c, v in zip(columns, x)), F(0))
                 for i in range(dim)) == target


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(small, min_size=3, max_size=3),
                min_size=2, max_size=2).map(mat),
       st.lists(nonneg, min_size=3, max_size=3).map(vec),
       st.lists(nonneg, min_size=3, max_size=3).map(vec))
def test_random_feasible_lp(rows, x0, cost):
    # b is chosen feasible by construction and the cost is bounded below,
    # so the solver must find an exact optimum at least as good as x0
    b = matvec(rows, x0)
    res = solve_lp(cost, rows, b)
    assert res.status == "optimal"
    assert matvec(rows, res.x) == b
    assert all(x >= 0 for x in res.x)
    assert res.objective <= sum(c * x for c, x in zip(cost, x0))


# sha256 of the repr of the exact optimizing-LP results on integer polygons.
# Bland's rule makes the reported vertex depend on the column order, so a
# change to any LP's columns, rows or right-hand side shows here.
POLYGON_LPS = {
    "square": (((1, 0), (0, 1), (-1, 0), (0, -1)),
               "ec119792022d23d660082f3a54ef9c7ecb757350369be3c95b6816a8f0a91191"),
    "pentagon": (((2, 0), (1, 2), (-1, 2), (-2, 0), (0, -2)),
                 "ba52f3c7e850e8ae2d7b3656dfce3e34d1e01d613d73993b1083b75527ab3608"),
    "hexagon": (((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
                "7fb96b168cfdd23e394406258220b84158eb9465282771655983ddef2c938d1b"),
}


@pytest.mark.parametrize("name", POLYGON_LPS)
def test_optimizing_lps_pinned(name):
    points, digest = POLYGON_LPS[name]
    space = StateSpace(ConeRep.from_generators([p + (1,) for p in points]),
                       (0, 0, 1))
    effects = [exposing_effect(space, i) for i in range(len(points))]
    bound = bc_cheat_bound(space, find_double_decomposition(space), 3)
    norms = [base_norm(space, v) for v in ((1, 0, 0), (3, -2, 1))]
    text = repr((effects, bound, norms))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
