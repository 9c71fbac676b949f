import hashlib
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gptkit.lp
from gptkit.cones import ConeRep
from gptkit.errors import DimensionMismatchError, SolverError
from gptkit.linalg import (ZERO, inverse, mat, matvec, rank, transpose,
                           vec)
from gptkit.lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult,
                       feasible_point, solve_lp)
from gptkit.models import parse_model_name
from gptkit.protocols import (bc_cheat_bound, exposing_effect,
                              find_double_decomposition)
from gptkit.spaces import StateSpace, base_norm

F = Fraction
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonneg = st.fractions(min_value=0, max_value=3, max_denominator=4)


def _pivot(rows, obj, basis, r, c):
    inv = 1 / rows[r][c]
    rows[r] = [x * inv for x in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
    if obj[c] != 0:
        f = obj[c]
        obj[:] = [x - f * y for x, y in zip(obj, rows[r])]
    basis[r] = c


def _iterate(rows, obj, basis, ncols):
    for _ in range(50_000):
        entering = next((j for j in range(ncols) if obj[j] < 0), None)
        if entering is None:
            return OPTIMAL
        leaving = None
        best = None
        for i, row in enumerate(rows):
            if row[entering] > 0:
                ratio = row[-1] / row[entering]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            return UNBOUNDED
        _pivot(rows, obj, basis, leaving, entering)
    raise SolverError("simplex iteration cap exceeded")


def reference_lp(objective, eq_matrix, eq_rhs, *, maximize=False,
                 unit_start=True):
    """Reference two-phase simplex over Fractions: a dense tableau, Bland's
    rule in both phases. Same pivots and same LPResult as solve_lp; an
    infeasible result carries phase 1's basic point.

    With unit_start, as in solve_lp, the first column that is a positive
    multiple of e_i in sign-fixed row i starts basic there (the row over
    its entry), and only the other rows get artificials; without it every
    row does, a walk-independent oracle for the values."""
    n = len(objective)
    cost = [(-c if maximize else c) for c in objective]
    rows = []
    for row, rhs in zip(eq_matrix, eq_rhs, strict=True):
        if rhs < 0:
            rows.append([-x for x in row] + [-rhs])
        else:
            rows.append(list(row) + [rhs])
    basis = [None] * len(rows)
    for j in range(n if unit_start else 0):
        support = [i for i, row in enumerate(rows) if row[j] != 0]
        if len(support) == 1 and basis[support[0]] is None \
                and rows[support[0]][j] > 0:
            i = support[0]
            rows[i] = [x / rows[i][j] for x in rows[i]]
            basis[i] = j
    artificial = [i for i, b in enumerate(basis) if b is None]
    width = n + len(artificial)
    for i, row in enumerate(rows):
        rows[i] = row[:-1] + [ZERO] * len(artificial) + [row[-1]]
    for k, i in enumerate(artificial):
        rows[i][n + k] = F(1)
        basis[i] = n + k
    obj = [ZERO] * (width + 1)
    for j in range(n):
        obj[j] = -sum((rows[i][j] for i in artificial), ZERO)
    obj[-1] = -sum((rows[i][-1] for i in artificial), ZERO)
    if _iterate(rows, obj, basis, width) != OPTIMAL:
        raise SolverError("phase 1 reported unbounded")
    residual = -obj[-1]
    if residual > 0:
        return LPResult(INFEASIBLE, _basic_point(rows, basis, n), None,
                        residual)
    keep = []
    for i in range(len(rows)):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j] != 0), None)
            if col is None:
                continue
            _pivot(rows, obj, basis, i, col)
        keep.append(i)
    rows = [rows[i][:n] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    obj = list(cost) + [ZERO]
    for i, b in enumerate(basis):
        if obj[b] != 0:
            f = obj[b]
            obj = [x - f * y for x, y in zip(obj, rows[i])]
    if _iterate(rows, obj, basis, n) == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None, ZERO)
    x = _basic_point(rows, basis, n)
    value = sum((c * v for c, v in zip(cost, x)), ZERO)
    if maximize:
        value = -value
    return LPResult(OPTIMAL, x, value, ZERO,
                    _basis_dual(objective, eq_matrix, keep, basis))


def _basis_dual(objective, eq_matrix, keep, basis):
    """y with y . A_b = c_b on each basic column, over the kept rows of the
    LP as posed (0 on dropped rows): c_B times the basis inverse."""
    inv = inverse(tuple(tuple(F(eq_matrix[i][b]) for b in basis)
                        for i in keep)) if keep else ()
    dual = [ZERO] * len(eq_matrix)
    for i, column in zip(keep, transpose(inv)):
        dual[i] = sum((F(objective[b]) * x for b, x in zip(basis, column)),
                      ZERO)
    return tuple(dual)


def _basic_point(rows, basis, n):
    """The tableau's basic solution over the first n (real) columns."""
    x = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = rows[i][-1]
    return tuple(x)


def random_lp(seed):
    """A seeded small LP: (objective, rows, rhs, maximize).

    Entries are small rationals, or floats taken exactly (dyadic, with
    denominators near 2**52) for every fifth seed, with zeros mixed in.
    The right-hand side is A x0 for a sparse x0 >= 0 (feasible, often
    degenerate), sometimes perturbed (often infeasible); some rows are
    negated, so their right-hand side is negative; some LPs get a
    redundant row, the sum of two others, or a row with right-hand side 0.
    """
    rng = random.Random(seed)
    if seed % 5 == 4:
        def scalar():
            return F(rng.uniform(-3, 3)) if rng.random() < 0.7 else ZERO
    else:
        def scalar():
            return F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
    m, n = rng.randint(1, 4), rng.randint(1, 6)
    rows = [[scalar() for _ in range(n)] for _ in range(m)]
    x0 = [rng.choice((ZERO, ZERO, F(1), F(1, 2), F(2))) for _ in range(n)]
    rhs = list(matvec(rows, x0))
    if rng.random() < 0.25:
        rhs[rng.randrange(m)] += F(rng.choice((-1, 1)), rng.randint(1, 3))
    if rng.random() < 0.3 and m > 1:
        i, j = rng.sample(range(m), 2)
        rows.append([x + y for x, y in zip(rows[i], rows[j])])
        rhs.append(rhs[i] + rhs[j])
    if rng.random() < 0.3:
        k = rng.randrange(len(rows) + 1)
        rows.insert(k, [scalar() if x0[j] == 0 else ZERO for j in range(n)])
        rhs.insert(k, ZERO)
    for i in range(len(rows)):
        if rng.random() < 0.3:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    objective = [scalar() for _ in range(n)]
    return objective, rows, rhs, rng.random() < 0.5


def assert_dual_certifies(result, objective, eq_matrix, eq_rhs, maximize):
    """An optimum's dual is feasible and meets the objective, exactly:
    y . A_j <= c_j on every column (>= for a maximize) and y . b equals
    the objective, which proves both optimal. Other results carry none."""
    if result.status != OPTIMAL:
        assert result.dual is None
        return
    y = result.dual
    assert len(y) == len(eq_matrix)
    for j, c in enumerate(objective):
        value = sum((yi * row[j] for yi, row in zip(y, eq_matrix)), ZERO)
        assert (value >= c) if maximize else (value <= c)
    assert sum((yi * b for yi, b in zip(y, eq_rhs)), ZERO) == \
        result.objective


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


def l1_error(columns, x, target):
    """sum_i |sum_j x[j] * columns[j][i] - target[i]|, exactly."""
    image = matvec(transpose(columns), x)
    return sum((abs(a - b) for a, b in zip(image, target, strict=True)), ZERO)


def test_feasible_point_relaxed_under_eps():
    # inconsistent by 1e-12; a loose tolerance accepts phase 1's point,
    # whose equation error is the reported residual
    gap = F(1, 10 ** 12)
    columns = mat(((1, 1), (0, 0)))
    target = vec((1, 1 + gap))
    x, residual = feasible_point(columns, target, F(1, 10 ** 9))
    assert x is not None and all(v >= 0 for v in x)
    assert 0 < residual <= F(1, 10 ** 9)
    assert l1_error(columns, x, target) == residual
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


@pytest.fixture
def pivots(monkeypatch):
    """Pivots counted by solver: "lp" for solve_lp, "reference" for
    reference_lp, with the reference's degenerate pivots and solve_lp's
    drive-out pivots counted apart."""
    counts = Counter()

    def count(module, key):
        inner = module._pivot

        def counted(rows, obj, basis, r, c):
            counts[key] += 1
            if key == "reference" and rows[r][-1] == 0:
                counts["degenerate"] += 1
            if key == "lp" and obj is None:
                counts["drive-out"] += 1
            inner(rows, obj, basis, r, c)
        monkeypatch.setattr(module, "_pivot", counted)

    count(gptkit.lp, "lp")
    count(sys.modules[__name__], "reference")
    return counts


def test_integer_simplex_matches_reference(pivots):
    # Same (status, x, objective, residual) and the same number of pivots
    # as the Fraction tableau, LP by LP; the seeds reach every path.
    seen = Counter()
    for seed in range(400):
        objective, rows, rhs, maximize = random_lp(seed)
        before = pivots["reference"], pivots["lp"]
        want = reference_lp(objective, rows, rhs, maximize=maximize)
        got = solve_lp(objective, rows, rhs, maximize=maximize)
        assert (got.status, got.x, got.objective, got.residual,
                got.dual) == (want.status, want.x, want.objective,
                              want.residual, want.dual), seed
        assert_dual_certifies(got, objective, rows, rhs, maximize)
        if got.status == INFEASIBLE:
            assert all(v >= 0 for v in got.x), seed
            assert l1_error(transpose(rows), got.x, rhs) == got.residual, seed
        assert (pivots["reference"] - before[0]
                == pivots["lp"] - before[1]), seed
        seen[want.status] += 1
        seen["flipped"] += any(b < 0 for b in rhs)
        seen["dropped"] += want.status != INFEASIBLE and rank(rows) < len(rows)
        seen["dyadic"] += max(x.denominator for row in rows for x in row) > 2 ** 50
        seen["started"] += started_rows(rows, rhs) > 0
    assert min(seen[k] for k in (OPTIMAL, INFEASIBLE, UNBOUNDED, "flipped",
                                 "dropped", "dyadic", "started")) >= 10, seen
    assert pivots["degenerate"] >= 10 and pivots["drive-out"] >= 10, pivots


def random_scale(rng):
    """A positive rational: dyadic, over an odd denominator of about 50
    bits, or a large integer."""
    kind = rng.randrange(3)
    if kind == 0:
        return F(rng.randrange(1, 2 ** 20, 2), 2 ** rng.randint(0, 60))
    if kind == 1:
        return F(rng.randint(1, 2 ** 50),
                 rng.randrange(2 ** 49 + 1, 2 ** 50, 2))
    return F(rng.randint(2 ** 60, 2 ** 64))


def test_column_scaling_keeps_the_walk(pivots):
    # Column j times s_j > 0, with cost c_j * s_j, is the same LP in
    # x_j / s_j: the same status, objective and residual, the solution
    # over the scales, and the same Bland walk, pivot for pivot, in
    # solve_lp and in the Fraction tableau.
    for seed in range(400):
        objective, rows, rhs, maximize = random_lp(seed)
        rng = random.Random(-seed)
        scales = [random_scale(rng) for _ in objective]
        scaled_rows = [[x * s for x, s in zip(row, scales)] for row in rows]
        scaled_cost = [c * s for c, s in zip(objective, scales)]
        start = pivots["lp"]
        want = solve_lp(objective, rows, rhs, maximize=maximize)
        middle = pivots["lp"]
        got = solve_lp(scaled_cost, scaled_rows, rhs, maximize=maximize)
        assert pivots["lp"] - middle == middle - start, seed
        assert (got.status, got.objective, got.residual, got.dual) == (
            want.status, want.objective, want.residual, want.dual), seed
        assert_dual_certifies(got, scaled_cost, scaled_rows, rhs, maximize)
        if want.x is None:
            assert got.x is None, seed
        else:
            assert got.x == tuple(x / s for x, s in zip(want.x, scales)), seed
        before = pivots["reference"]
        assert reference_lp(scaled_cost, scaled_rows, rhs,
                            maximize=maximize) == got, seed
        assert pivots["reference"] - before == middle - start, seed


def started_rows(rows, rhs):
    """How many rows start basic: sign-fixed rows with a positive unit
    column."""
    signed = [[-x for x in row] if b < 0 else row for row, b in zip(rows, rhs)]
    return sum(
        any(row[j] > 0 and all(other[j] == 0 for other in signed
                               if other is not row)
            for j in range(len(row)))
        for row in signed)


def all_artificial_lp(objective, eq_matrix, eq_rhs, *, maximize=False):
    return reference_lp(objective, eq_matrix, eq_rhs, maximize=maximize,
                        unit_start=False)


def test_unit_start_keeps_the_values():
    # Phase 1 from the unit columns reaches the optimum of the all-
    # artificial phase 1 (a positive unit column trades for its row's
    # artificial), so status, objective and residual agree on every LP,
    # scaled columns included; only a non-unique optimum's point may move.
    for seed in range(2000):
        objective, rows, rhs, maximize = random_lp(seed)
        got = solve_lp(objective, rows, rhs, maximize=maximize)
        want = all_artificial_lp(objective, rows, rhs, maximize=maximize)
        assert (got.status, got.objective, got.residual) == (
            want.status, want.objective, want.residual), seed
        assert_dual_certifies(got, objective, rows, rhs, maximize)
        assert_dual_certifies(want, objective, rows, rhs, maximize)
    for seed in range(400):
        objective, rows, rhs, maximize = random_lp(seed)
        rng = random.Random(-seed)
        scales = [random_scale(rng) for _ in objective]
        rows = [[x * s for x, s in zip(row, scales)] for row in rows]
        objective = [c * s for c, s in zip(objective, scales)]
        got = solve_lp(objective, rows, rhs, maximize=maximize)
        want = all_artificial_lp(objective, rows, rhs, maximize=maximize)
        assert (got.status, got.objective, got.residual) == (
            want.status, want.objective, want.residual), seed


def test_known_duals():
    # max 3x + 2y with x + y <= 4, x + 3y <= 6: only the first row binds
    rows = mat(((1, 1, 1, 0), (1, 3, 0, 1)))
    got = solve_lp(vec((3, 2, 0, 0)), rows, vec((4, 6)), maximize=True)
    assert got.dual == (3, 0)
    # the same LP as a min, with its second row negated
    rows = mat(((1, 1, 1, 0), (-1, -3, 0, -1)))
    got = solve_lp(vec((-3, -2, 0, 0)), rows, vec((4, -6)))
    assert got.objective == -12 and got.dual == (-3, 0)
    # a redundant copy of row 0 is dropped in the drive-out and reads 0
    rows = mat(((1, 1, 1), (1, 1, 1)))
    got = solve_lp(vec((1, 2, 3)), rows, vec((1, 1)))
    assert got.objective == 1 and got.dual == (1, 0)


def test_feasible_point_duals_are_zero(monkeypatch):
    # Every cost is zero, so each optimum's dual is the zero vector (no
    # solve), here on the random suite's systems read as columns.
    results = []

    def recorded(*args, **kwargs):
        results.append(solve_lp(*args, **kwargs))
        return results[-1]
    monkeypatch.setattr(gptkit.lp, "solve_lp", recorded)
    for seed in range(400):
        _, rows, rhs, _ = random_lp(seed)
        feasible_point(transpose(rows), rhs)
    optima = [r for r in results if r.status == OPTIMAL]
    assert len(optima) >= 100
    assert all(r.dual == (0,) * len(r.dual) for r in optima)
    assert all(r.dual is None for r in results if r.status != OPTIMAL)


def test_zero_rhs_row_with_a_negative_unit_entry_keeps_its_artificial():
    # random_lp(803): x_0's column is -e_0 in a row with right-hand side 0.
    # Negating that row to start x_0 basic would penalize the other side
    # in phase 1 and report residual 1/3.
    lp = (vec((0, 1)), mat(((-1, -1), (0, 3))), vec((0, F(1, 3))))
    assert random_lp(803) == ([0, 1], [[-1, -1], [0, 3]], [0, F(1, 3)], True)
    got = solve_lp(*lp, maximize=True)
    assert got.status == INFEASIBLE and got.residual == F(1, 9)
    assert got == all_artificial_lp(*lp, maximize=True)


def test_every_row_started_makes_no_phase_1_pivot(pivots, monkeypatch):
    # Slack form: s_1 and s_2 start basic, so phase 1 has nothing to do
    # and every pivot is phase 2's; with a zero cost there are none.
    phases = []
    inner = gptkit.lp._iterate

    def counted(rows, obj, basis, ncols):
        before = pivots["lp"]
        status = inner(rows, obj, basis, ncols)
        phases.append(pivots["lp"] - before)
        return status
    monkeypatch.setattr(gptkit.lp, "_iterate", counted)
    rows = mat(((1, 1, 1, 0), (1, 3, 0, 1)))
    got = solve_lp(vec((3, 2, 0, 0)), rows, vec((4, 6)), maximize=True)
    assert got.objective == 12 and phases[0] == 0 and phases[1] > 0
    assert got == reference_lp(vec((3, 2, 0, 0)), rows, vec((4, 6)),
                               maximize=True)
    phases.clear()
    x, residual = feasible_point(mat(((1, 0), (0, 1), (1, 1))), vec((2, 3)))
    assert (x, residual) == ((2, 3, 0), 0) and phases == [0, 0]


def test_drive_out_pivots_on_a_negative_entry():
    # Phase 1 leaves the second artificial basic at zero over a -2 entry.
    rows = mat(((1, 1), (1, -1)))
    for maximize in (False, True):
        got = solve_lp(vec((1, 2)), rows, vec((0, 0)), maximize=maximize)
        assert got == reference_lp(vec((1, 2)), rows, vec((0, 0)),
                                   maximize=maximize)
        assert got.status == OPTIMAL and got.x == (0, 0)


def test_solve_lp_shape_errors(monkeypatch):
    scaled = []
    monkeypatch.setattr(gptkit.lp, "integer_row",
                        lambda column: scaled.append(column))
    with pytest.raises(DimensionMismatchError):
        solve_lp(vec((1, 0)), mat(((1, 1),)), vec((1, 2)))
    with pytest.raises(DimensionMismatchError):
        solve_lp(vec((1, 0)), mat(((1, 1), (1, 0))), vec((1,)))
    with pytest.raises(SolverError):
        solve_lp(vec((1, 0, 0)), mat(((1, 1),)), vec((1,)))
    # Columns are read by zip(*rows), which cuts every row to the
    # shortest: a row too short or too long after a full row raises
    # before any column is scaled.
    for ragged in ((vec((1, 1)), vec((1,))), (vec((1, 1)), vec((1, 1, 1)))):
        with pytest.raises(SolverError):
            solve_lp(vec((1, 0)), ragged, vec((1, 1)))
    assert scaled == []


def test_feasible_point_column_length_must_match_target():
    # a longer column is not cut short, a shorter one is not an IndexError
    with pytest.raises(DimensionMismatchError):
        feasible_point(((1, 0),), (1,))
    with pytest.raises(DimensionMismatchError):
        feasible_point(((1,),), (1, 0))
    with pytest.raises(DimensionMismatchError):
        feasible_point(mat(((1, 0), (0, 1))) + (vec((1,)),), vec((1, 1)))


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


def pinned_bound_text(bound, rounds=3):
    """The bound as the digests were pinned: the repr of a CheatBound
    that also held the round count and per_round**rounds."""
    c = bound.per_round
    return (f"CheatBound(per_round={c!r}, rounds={rounds}, "
            f"overall={c ** rounds!r}, optimizer={bound.optimizer!r}, "
            f"pair={bound.pair!r})")


@pytest.mark.parametrize("name", POLYGON_LPS)
def test_optimizing_lps_pinned(name):
    points, digest = POLYGON_LPS[name]
    space = StateSpace(ConeRep.from_generators([p + (1,) for p in points]),
                       (0, 0, 1))
    effects = [exposing_effect(space, i) for i in range(len(points))]
    bound = bc_cheat_bound(find_double_decomposition(space))
    norms = [base_norm(space, v) for v in ((1, 0, 0), (3, -2, 1))]
    text = f"({effects!r}, {pinned_bound_text(bound)}, {norms!r})"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# The same pin on float-embedded models, whose LPs carry denominators of
# about 110 bits: sha256 of (effects, bound) written as above.
FLOAT_POLYGON_LPS = {
    "polygon:5": "8512b4cdae5ab005c5dff6f932ca3c2082450ee946eeace34531a1a6e65e41bd",
    "polygon:7": "a6ea39f5d1e58f4fee0535971c10f6a5bc827eacd5888b2530ae80399282c8b5",
    "polygon:10": "6722d38d60f88d71f577074c8ebd27e6f8d8d6c28e4aa5fff013a2bcd7cbf907",
    "polygon:14": "419101a796d045b1c24dc40d47281c8f72ea4840edf32411ab22625bc24ffd38",
}


@pytest.mark.parametrize("name", FLOAT_POLYGON_LPS)
def test_float_optimizing_lps_pinned(name):
    space = parse_model_name(name)
    effects = [exposing_effect(space, i)
               for i in range(len(space.cone.generators))]
    bound = bc_cheat_bound(find_double_decomposition(space))
    text = f"({effects!r}, {pinned_bound_text(bound)})"
    assert hashlib.sha256(text.encode()).hexdigest() == FLOAT_POLYGON_LPS[name]
