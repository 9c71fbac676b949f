"""Exact LP kernel: two-phase tableau simplex over Fractions.

Standard form only: min c.x subject to A x = b, x >= 0. Bland's rule on
both phases, so the walk terminates without cycling. Infeasibility is a
result, not an exception, and carries the phase-1 residual so float-mode
callers can accept near-feasible systems (residual <= eps) while
rational-mode callers demand exactly zero.

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

from .errors import SolverError
from .linalg import ONE, Mat, Vec, ZERO, transpose, unit_vec

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


def _pivot(rows: list[list[Fraction]], obj: list[Fraction], basis: list[int],
           r: int, c: int) -> None:
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


def _iterate(rows: list[list[Fraction]], obj: list[Fraction], basis: list[int],
             ncols: int) -> str:
    for _ in range(_ITERATION_CAP):
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


def solve_lp(objective: Vec, eq_matrix: Mat, eq_rhs: Vec, *,
             maximize: bool = False) -> LPResult:
    """Solve min (or max) objective.x with eq_matrix @ x = eq_rhs, x >= 0."""
    n = len(objective)
    m = len(eq_matrix)
    cost = [(-c if maximize else c) for c in objective]

    rows: list[list[Fraction]] = []
    for row, rhs in zip(eq_matrix, eq_rhs, strict=True):
        if len(row) != n:
            raise SolverError("constraint row length does not match objective")
        if rhs < 0:
            rows.append([-x for x in row] + [-rhs])
        else:
            rows.append(list(row) + [rhs])

    # Phase 1: artificial basis, minimize the sum of artificials.
    width = n + m
    basis = list(range(n, width))
    for i, row in enumerate(rows):
        body = row[:-1] + [ZERO] * m + [row[-1]]
        body[n + i] = Fraction(1)
        rows[i] = body
    obj = [ZERO] * (width + 1)
    for j in range(n):
        obj[j] = -sum(row[j] for row in rows)
    obj[-1] = -sum(row[-1] for row in rows)

    status = _iterate(rows, obj, basis, width)
    if status != OPTIMAL:  # phase 1 is always bounded below by zero
        raise SolverError("phase 1 reported unbounded")
    residual = -obj[-1]
    if residual > 0:
        return LPResult(INFEASIBLE, None, None, residual)

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep: list[int] = []
    for i in range(len(rows)):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j] != 0), None)
            if col is None:
                continue
            _pivot(rows, obj, basis, i, col)
        keep.append(i)
    rows = [rows[i][:n] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2 over the real objective.
    obj = list(cost) + [ZERO]
    for i, b in enumerate(basis):
        if obj[b] != 0:
            f = obj[b]
            obj = [x - f * y for x, y in zip(obj, rows[i])]
    status = _iterate(rows, obj, basis, n)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None, ZERO)

    x = [ZERO] * n
    for i, b in enumerate(basis):
        x[b] = rows[i][-1]
    value = sum((c * v for c, v in zip(cost, x)), ZERO)
    if maximize:
        value = -value
    return LPResult(OPTIMAL, tuple(x), value, ZERO)


def feasible_point(columns: Sequence[Vec], target: Vec,
                   tol: Fraction = ZERO) -> tuple[Vec | None, Fraction]:
    """Weights x >= 0 with sum_j x[j] * columns[j] = target.

    Phase 1 decides. A system inconsistent by a residual within tol gets
    the point of least L1 equation error instead, so float-mode callers
    can accept near-members. Returns (x, residual); x is None when the
    residual exceeds tol. No columns span only the zero vector.
    """
    rows = tuple(tuple(c[i] for c in columns) for i in range(len(target)))
    result = solve_lp((ZERO,) * len(columns), rows, target)
    if result.status == INFEASIBLE:
        if result.residual <= tol:
            return _relaxed_point(columns, target), result.residual
        return None, result.residual
    return result.x, ZERO


def _relaxed_point(columns: Sequence[Vec], target: Vec) -> Vec:
    """Minimize the L1 equation error directly; used only inside tol.

    Each equation i gets an error column e_i and one -e_i, at unit cost.
    """
    m = len(target)
    errors = [tuple(sign * x for x in unit_vec(m, i))
              for i in range(m) for sign in (ONE, -ONE)]
    cost = (ZERO,) * len(columns) + (ONE,) * (2 * m)
    result = solve_lp(cost, transpose([*columns, *errors]), target)
    if not result.ok or result.x is None:
        raise SolverError("relaxed feasibility LP failed")
    return result.x[:len(columns)]
