"""Cloning and broadcasting of state sets.

A finite set is clonable iff one measurement distinguishes its members
simultaneously; the cloning map is then a sum of measure-and-prepare
branches. Broadcastability is the weaker containment in a simplex with
one-shot distinguishable vertices; the search tries every candidate
simplex of up to dim + 1 vertices, and finding no witness among them is
reported as inconclusive rather than as a refusal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ..composites import min_tensor, product_vec
from ..errors import InvalidInputError, UnsupportedConeError
from ..linalg import Vec, combination, dot, rank, vec, vsub
from ..lp import feasible_point
from ..scalars import close, tolerance_for
from ..spaces import (
    LinearMapRep,
    Observable,
    StateSpace,
    one_shot_distinguishing_observable,
)

ONE = Fraction(1)


def is_clonable(space: StateSpace, states, tol=None) -> bool:
    """Simultaneous one-shot distinguishability, decided by the LP, of
    a set: a repeated state is refused."""
    omegas = tuple(vec(s) for s in states)
    if len(set(omegas)) < len(omegas):
        raise InvalidInputError("a state is listed twice")
    return one_shot_distinguishing_observable(space, omegas, tol) is not None


def build_cloner(states, observable: Observable, tol=None) -> LinearMapRep:
    """Measure-and-prepare map M = sum_i (w_i (x) w_i) a_i(.).

    Requires a_i(w_j) = delta_ij; M then clones every member of states
    and broadcasts their whole convex hull, on the observable's space.
    """
    space = observable.space
    omegas = tuple(vec(s) for s in states)
    eps = tolerance_for(tol, space)
    effects = observable.effects[:len(omegas)]
    if len(effects) < len(omegas):
        raise InvalidInputError("observable has fewer outcomes than states")
    for i, w in enumerate(omegas):
        for j, e in enumerate(effects):
            if not close(e.value(w), 1 if i == j else 0, eps):
                raise InvalidInputError(
                    "observable does not distinguish the given states")
    composite = min_tensor(space, space)
    clones = [product_vec(w, w) for w in omegas]
    # row r of M is sum_i (w_i (x) w_i)[r] a_i
    rows = tuple(combination([clone[r] for clone in clones],
                             [e.functional for e in effects])
                 for r in range(composite.dim))
    return LinearMapRep(space, composite, rows)


@dataclass(frozen=True)
class BroadcastReport:
    """Outcome of the simplex search: verdict plus the witness simplex."""
    status: str  # broadcastable | not_broadcastable | inconclusive
    witness: tuple[Vec, ...] | None
    candidates_tried: int

    @property
    def verdict(self) -> bool | None:
        if self.status == "broadcastable":
            return True
        if self.status == "not_broadcastable":
            return False
        return None


def _in_hull(point: Vec, hull_points: tuple[Vec, ...], eps) -> bool:
    columns = [tuple(p) + (ONE,) for p in hull_points]
    x, _ = feasible_point(columns, tuple(point) + (ONE,), eps)
    return x is not None


def is_broadcastable(space: StateSpace, states, tol=None) -> BroadcastReport:
    """Search for a distinguishable simplex containing the states.

    Decisive cases: a clonable set is its own witness, and a set made
    entirely of extreme points is broadcastable only if clonable (an
    extreme point inside a simplex in the state set must be one of its
    vertices). Otherwise candidate vertex sets are drawn from the
    extreme points and the states themselves, up to dim + 1 of them (a
    simplex has at most dim + 1 vertices); running out of candidates is
    inconclusive.
    """
    if space.kind != "polyhedral":
        raise UnsupportedConeError("broadcast search needs a polyhedral space")
    omegas = tuple(vec(s) for s in states)
    eps = tolerance_for(tol, space)
    for w in omegas:
        if not space.is_state(w, eps):
            raise InvalidInputError("broadcast inputs must be states")
    if not omegas:
        raise InvalidInputError("no states given")

    if is_clonable(space, omegas, tol):
        return BroadcastReport("broadcastable", omegas, 0)

    extremes = tuple(tuple(x / dot(space.unit, g) for x in g)
                     for g in space.cone.minimal_generators())
    extreme_set = set(extremes)  # Fractions hash by value
    if all(w in extreme_set for w in omegas):
        # all-extreme and not clonable: no witness can exist
        return BroadcastReport("not_broadcastable", None, 0)

    pool = list(extremes)
    for w in omegas:
        if w not in extreme_set:
            pool.append(w)
    tried = 0
    for size in range(1, min(space.dim + 1, len(pool)) + 1):
        for cand in combinations(range(len(pool)), size):
            pts = tuple(pool[i] for i in cand)
            if rank(tuple(vsub(p, pts[0]) for p in pts[1:])) != size - 1:
                continue  # not affinely independent, not a simplex
            tried += 1
            if not all(_in_hull(w, pts, eps) for w in omegas):
                continue
            if is_clonable(space, pts, tol):
                return BroadcastReport("broadcastable", pts, tried)
    return BroadcastReport("inconclusive", None, tried)
