"""Exact LP kernel: two-phase tableau simplex over integer rows.

Standard form only: min c.x subject to A x = b, x >= 0. Bland's rule on
both phases, so the walk terminates without cycling. Each tableau row is
a primitive list of Python ints [a_0, ..., a_{w-1}, rhs, z], z the
objective's column: a constraint row (z = 0) stands for itself over its
basic column's entry, which is positive, and the objective row for
itself over its z entry, also positive. Every row step, the pivot, the
pricing of either objective and the drive-out alike, is
linalg._combine(row[c], other, other[c], row), so no Fraction is made
inside the walk; signs and the ratio test read integers, and the result
is turned back into Fractions once. Infeasibility is a result,
not an exception: it carries phase 1's point, whose L1 equation error is
the residual, so float-mode callers can accept near-feasible systems
(residual <= eps) while rational-mode callers demand exactly zero.

Each column A_j is cleared once to coprime integers r_j times a positive
scale s_j (linalg.integer_row), and the tableau runs on y_j = s_j * x_j:
columns r_j, costs c_j / s_j, and x_j = y_j / s_j read back at the end.
So a row has only its right-hand side's denominator to clear, not the
lcm of every column's (float-embedded facets each carry their own
denominator of about 53 bits). The walk is the same one: positive column
scales multiply tableau entry (i, j) by s_B(i) / s_j, where B(i) is row
i's basic column, the right-hand side of row i by s_B(i) and reduced
cost j by 1 / s_j. Every sign, every ratio-test comparison and tie (all
ratios of one entering column scale alike), and so every Bland choice
stays as it was; the artificial columns are not scaled, so phase 1's
objective and residual are unchanged. So a column may be a cone side's
integer row: only its entry of the point moves, by the row's scale.

Phase 1 starts from the unit columns the LP supplies. A row whose
right-hand side is negative is negated (a zero right-hand side counts as
positive), and then the first column that is a positive multiple of e_i,
so exactly e_i once cleared, starts basic in row i: a slack column, or a
classical generator in a membership LP. Only the other rows get an
artificial column, numbered in row order after the real columns, and
phase 1 minimizes the sum of those; with no unit column this is the
all-artificial start. Nothing a caller reads changes, except the point of
an optimum that is not unique. A positive unit column appears in no other
row, so in any point of the all-artificial phase 1 row i's artificial can
be traded for that column's variable without raising the sum; both
phase-1 problems have the same optimum, so the same status, objective
and infeasibility residual. The sign comes from the right-hand side
alone: a zero-rhs row whose unit entry is negative keeps its artificial,
since negating it would change which side of the row phase 1 penalizes,
and with it the residual.

Every LP of the package is stated by its columns, one per variable.
feasible_point is the one conic-feasibility primitive: is the target a
nonnegative combination of the given columns? Hull membership,
decompositions and sections state their columns; membership from the
generators a cone holds is cones.ConeRep.weights (separability, effects
on the max tensor, and `contains` where the facets cannot be enumerated).
The optimizing LPs (the vertex-row exposing LP, where no basis proves
itself, and the base norm) pass transpose(columns) to solve_lp with
their cost and right-hand side.

Every optimal result carries its row multipliers, LPResult.dual: the y
with y . A_b = c_b on each column b of the final basis, solved once,
exactly, over the rows kept after the drive-out (a dropped, redundant
row gets 0). An LP whose basic costs are all zero, every feasible_point
LP among them, gets the zero vector without a solve; infeasible and
unbounded results carry None. Before an optimum with a nonzero cost is
returned, y is checked exactly to be an optimum of the LP dual, in min
form: y . b equals the objective and y . A_j <= c_j on every cleared
column (>= for a maximize, once read back), or SolverError is raised.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError, SolverError
from .linalg import (Mat, Vec, ZERO, _combine, _eliminate, _primitive, dot,
                     integer_row)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ITERATION_CAP = 50_000


@dataclass(frozen=True)
class LPResult:
    status: str
    x: Vec | None
    objective: Fraction | None
    residual: Fraction
    dual: Vec | None = None  # row multipliers of an optimum

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


def _pivot(rows: list[list[int]], obj: list[int] | None, basis: list[int],
           r: int, c: int) -> None:
    """Column c enters the basis in row r, made positive there."""
    row = rows[r]
    if row[c] < 0:
        row = rows[r] = [-x for x in row]
    for i, other in enumerate(rows):
        if i != r and other[c]:
            rows[i] = _combine(row[c], other, other[c], row)
    if obj is not None and obj[c]:
        obj[:] = _combine(row[c], obj, obj[c], row)
    basis[r] = c


def _priced(cost, rows: list[list[int]], basis: list[int]) -> list[int]:
    """The objective row of cost (one entry per column) with each basic
    column's cost priced out."""
    ints, scale = integer_row([*cost, ZERO])
    obj = [scale.numerator * x for x in ints] + [scale.denominator]
    for row, b in zip(rows, basis):
        if obj[b]:
            obj = _combine(row[b], obj, obj[b], row)
    return obj


def _iterate(rows: list[list[int]], obj: list[int], basis: list[int],
             ncols: int) -> str:
    for _ in range(_ITERATION_CAP):
        entering = next((j for j in range(ncols) if obj[j] < 0), None)
        if entering is None:
            return OPTIMAL
        # Ratio rhs / entry, compared as a/b < c/d (b, d > 0) by a*d < c*b.
        leaving = None
        for i, row in enumerate(rows):
            if row[entering] > 0:
                if leaving is None:
                    leaving = i
                    continue
                best = rows[leaving]
                lhs = row[-2] * best[entering]
                rhs = best[-2] * row[entering]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            return UNBOUNDED
        _pivot(rows, obj, basis, leaving, entering)
    raise SolverError("simplex iteration cap exceeded")


def solve_lp(objective: Vec, eq_matrix: Mat, eq_rhs: Vec, *,
             maximize: bool = False) -> LPResult:
    """Solve min (or max) objective.x with eq_matrix @ x = eq_rhs, x >= 0."""
    n = len(objective)
    m = len(eq_matrix)
    if len(eq_rhs) != m:
        raise DimensionMismatchError(
            f"{len(eq_rhs)} right-hand sides for {m} constraint rows")
    if any(len(row) != n for row in eq_matrix):
        raise SolverError("constraint row length does not match objective")
    # Column j as coprime integers times its scale; see the module doc.
    columns: list[tuple[int, ...]] = []
    scales: list[Fraction] = []
    for column in zip(*eq_matrix) if m else [()] * n:
        ints, scale = integer_row(column)
        columns.append(ints)
        scales.append(scale)
    cost = [c / s if c and s != 1 else c for c, s in zip(objective, scales)]
    if maximize:
        cost = [-c for c in cost]

    # Phase 1: minimize the sum of artificials. Row i is [A_i, b_i] times
    # b_i's denominator, integers, and z = 0. A negative rhs negates its
    # row, and then the first column that is a positive multiple of e_i
    # (a coprime 1 there) starts basic in row i; see the module doc.
    signs = [1 if rhs >= 0 else -1 for rhs in eq_rhs]
    basis: list[int] = [-1] * m
    for j, ints in enumerate(columns):
        support = [i for i, x in enumerate(ints) if x]
        if len(support) == 1:
            i = support[0]
            if basis[i] < 0 and ints[i] * signs[i] > 0:
                basis[i] = j
    # Each other row gets an artificial column, numbered in row order.
    artificial = [i for i in range(m) if basis[i] < 0]
    width = n + len(artificial)
    rows: list[list[int]] = []
    for ints, rhs, sign in zip(zip(*columns) if n else [()] * m, eq_rhs,
                               signs):
        den = rhs.denominator
        f = den * sign
        body = list(ints) if f == 1 else [x * f for x in ints]
        rows.append(body + [0] * len(artificial) + [abs(rhs.numerator), 0])
    for k, i in enumerate(artificial):
        rows[i][n + k] = eq_rhs[i].denominator
        basis[i] = n + k
    obj = _priced([0] * n + [1] * len(artificial), rows, basis)

    status = _iterate(rows, obj, basis, width)
    if status != OPTIMAL:  # phase 1 is always bounded below by zero
        raise SolverError("phase 1 reported unbounded")
    if obj[-2] < 0:
        return LPResult(INFEASIBLE, _point(rows, basis, scales), None,
                        Fraction(-obj[-2], obj[-1]))

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep: list[int] = []
    for i in range(len(rows)):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j] != 0), None)
            if col is None:
                continue
            _pivot(rows, None, basis, i, col)  # phase 1's objective is spent
        keep.append(i)
    rows = [_primitive(rows[i][:n] + rows[i][-2:]) for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2 over the real objective.
    obj = _priced(cost, rows, basis)
    status = _iterate(rows, obj, basis, n)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None, ZERO)

    value = Fraction(-obj[-2], obj[-1])
    dual = _dual(columns, cost, keep, basis, m)
    if any(cost) and (dot(dual, eq_rhs) != value or any(
            dot(dual, col) > c for col, c in zip(columns, cost))):
        raise SolverError("LP dual does not certify the optimum")
    if maximize:
        value = -value
        dual = tuple(-y for y in dual)
    return LPResult(OPTIMAL, _point(rows, basis, scales), value, ZERO, dual)


def _dual(columns: list[tuple[int, ...]], cost: list[Fraction],
          keep: list[int], basis: list[int], m: int) -> Vec:
    """The row multipliers of the final basis: y . r_b = cost_b on every
    basic column b, over the kept rows (0 on dropped ones). r_b is the
    column cleared before any row was negated and cost_b = c_b / s_b, so
    y needs no sign fix for a negated row."""
    dual = [ZERO] * m
    if not any(cost[b] for b in basis):
        return tuple(dual)
    # One equation per basic column; row r of the Gauss-Jordan result is
    # pivot r's row times its pivot, so y_r = rhs / pivot.
    system = [tuple(columns[b][i] for i in keep) + (cost[b],) for b in basis]
    solved, _ = _eliminate(system)
    for r, (i, row) in enumerate(zip(keep, solved)):
        dual[i] = Fraction(row[-1], row[r])
    return tuple(dual)


def _point(rows: list[list[int]], basis: list[int],
           scales: list[Fraction]) -> Vec:
    """The basic solution: a basic real column b reads its row's rhs over
    row[b], over its column's scale."""
    n = len(scales)
    x = [ZERO] * n
    for row, b in zip(rows, basis):
        if b < n:
            s = scales[b]
            x[b] = Fraction(row[-2] * s.denominator, row[b] * s.numerator)
    return tuple(x)


def feasible_point(columns: Sequence[Vec], target: Vec,
                   tol: Fraction = ZERO) -> tuple[Vec | None, Fraction]:
    """Weights x >= 0 with sum_j x[j] * columns[j] = target.

    Phase 1 decides, and its point is the answer; inside tol it misses
    the target by the residual in L1, so float-mode callers can accept
    near-members. Returns (x, residual); x is None when the residual
    exceeds tol. No columns span only the zero vector.
    """
    if any(len(c) != len(target) for c in columns):
        raise DimensionMismatchError(
            f"a column's length differs from the target's {len(target)}")
    rows = tuple(tuple(c[i] for c in columns) for i in range(len(target)))
    result = solve_lp((ZERO,) * len(columns), rows, target)
    if not result.residual <= tol:  # a NaN tol accepts nothing
        return None, result.residual
    return result.x, result.residual
