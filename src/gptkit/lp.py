"""Exact LP kernel: two-phase tableau simplex over integer rows.

Standard form only: min c.x subject to A x = b, x >= 0. Bland's rule on
both phases, so the walk terminates without cycling. Each tableau row, the
objective row included, is a list of Python ints whose last entry is the
row's positive denominator: [a_0, ..., a_k, rhs, d] stands for
[a_0, ..., rhs] / d. A pivot multiplies rows by integers and divides each
by the gcd of its entries, so no Fraction is made inside the walk; signs
and the ratio test read integers (the row denominators cancel), and the
result is turned back into Fractions once. Infeasibility is a result,
not an exception: it carries phase 1's point, whose L1 equation error is
the residual, so float-mode callers can accept near-feasible systems
(residual <= eps) while rational-mode callers demand exactly zero.

Every LP of the package is stated by its columns, one per variable.
feasible_point is the one cone-membership test: is the target a
nonnegative combination of the given columns? Every membership question
(separability, hull membership, decompositions, sections) is put to it.
The optimizing LPs (exposing effects, the cheat bound, the base norm)
pass transpose(columns) to solve_lp with their cost and right-hand side.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatchError, SolverError
from .linalg import Mat, Vec, ZERO

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

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


def _int_row(values) -> list[int]:
    """Exact rationals as integer numerators, then their one denominator."""
    den = lcm(*(v.denominator for v in values))
    return _reduced([v.numerator * (den // v.denominator) for v in values]
                    + [den])


def _reduced(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g == 1 else [x // g for x in row]


def _eliminated(row: list[int], pivot_row: list[int], c: int) -> list[int]:
    """row minus row[c] times pivot_row, whose entry in column c is 1."""
    f, p = row[c], pivot_row[-1]
    out = [x * p - f * y for x, y in zip(row, pivot_row)]
    out[-1] = row[-1] * p
    return _reduced(out)


def _pivot(rows: list[list[int]], obj: list[int] | None, basis: list[int],
           r: int, c: int) -> None:
    # Row r over its entry in column c: that entry becomes its denominator.
    p = rows[r][c]
    row = rows[r][:-1] + [p]
    if p < 0:
        row = [-x for x in row]
    row = rows[r] = _reduced(row)
    for i, other in enumerate(rows):
        if i != r and other[c]:
            rows[i] = _eliminated(other, row, c)
    if obj is not None and obj[c]:
        obj[:] = _eliminated(obj, row, c)
    basis[r] = c


def _iterate(rows: list[list[int]], obj: list[int], basis: list[int],
             ncols: int) -> str:
    for _ in range(_ITERATION_CAP):
        entering = next((j for j in range(ncols) if obj[j] < 0), None)
        if entering is None:
            return OPTIMAL
        # Ratio rhs / entry; the row's denominator cancels, so compare
        # a/b < c/d (b, d > 0) as a*d < c*b.
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
    cost = [(-c if maximize else c) for c in objective]

    # Phase 1: artificial basis, minimize the sum of artificials. Row i is
    # [A_i, e_i, b_i, d_i] over integers, meaning [A_i, e_i, b_i] / d_i.
    width = n + m
    basis = list(range(n, width))
    rows: list[list[int]] = []
    for i, (row, rhs) in enumerate(zip(eq_matrix, eq_rhs)):
        if len(row) != n:
            raise SolverError("constraint row length does not match objective")
        body = _int_row([*row, rhs] if rhs >= 0 else [-x for x in (*row, rhs)])
        artificial = [0] * m
        artificial[i] = body[-1]
        rows.append(body[:n] + artificial + body[n:])
    # The phase-1 objective row is minus the sum of the rows.
    den = lcm(*(row[-1] for row in rows))
    totals = [0] * (n + 1)
    for row in rows:
        scale = den // row[-1]
        totals = [t - scale * x for t, x in zip(totals, row[:n] + row[-2:-1])]
    obj = _reduced(totals[:n] + [0] * m + totals[n:] + [den])

    status = _iterate(rows, obj, basis, width)
    if status != OPTIMAL:  # phase 1 is always bounded below by zero
        raise SolverError("phase 1 reported unbounded")
    if obj[-2] < 0:
        return LPResult(INFEASIBLE, _point(rows, basis, n), None,
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
    rows = [_reduced(rows[i][:n] + rows[i][-2:]) for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2 over the real objective.
    obj = _int_row([*cost, ZERO])
    for row, b in zip(rows, basis):
        if obj[b]:
            obj = _eliminated(obj, row, b)
    status = _iterate(rows, obj, basis, n)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None, ZERO)

    value = Fraction(-obj[-2], obj[-1])
    if maximize:
        value = -value
    return LPResult(OPTIMAL, _point(rows, basis, n), value, ZERO)


def _point(rows: list[list[int]], basis: list[int], n: int) -> Vec:
    """The basic solution: a basic real column reads its row's rhs."""
    x = [ZERO] * n
    for row, b in zip(rows, basis):
        if b < n:
            x[b] = Fraction(row[-2], row[-1])
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
    if result.residual > tol:
        return None, result.residual
    return result.x, result.residual
