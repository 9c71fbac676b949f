"""State spaces: an ordered vector space with a strictly positive unit.

A StateSpace pairs a pointed generating cone with an order-unit
functional u. Normalized states are cone elements with u = 1; effects
are dual-cone elements a with a <= u; observables are finite effect
lists summing to u. The operations here are the order-theoretic
workhorses: duality, base norm, positivity (each asks cones.maps_into)
and contractivity of linear maps, order isomorphisms, self-duality
witnesses, and the one-shot distinguishability LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cones import LORENTZ, POLYHEDRAL, ConeRep, maps_into, partition_rays
from .errors import (
    DegenerateConeError,
    DimensionMismatchError,
    InvalidInputError,
    UnsupportedConeError,
)
from .linalg import (
    Mat,
    ONE,
    Vec,
    ZERO,
    combination,
    dot,
    inverse,
    mat,
    matvec,
    transpose,
    vec,
    zeros,
)
from .lp import feasible_point, solve_lp
from .scalars import (FLOAT, RATIONAL, close, emit, rows_emit_exactly,
                      tolerance_for)


class StateSpace:
    """A cone plus an order unit, with lazy derived geometry.

    The unit is proved strictly positive here, once, for every cone; a
    facets-only cone enumerates its generators for the proof.
    """

    __slots__ = ("cone", "unit", "name", "_vertices")

    def __init__(self, cone: ConeRep, unit: Vec, name: str | None = None):
        unit = vec(unit)
        if len(unit) != cone.dim:
            raise DimensionMismatchError("unit length differs from cone dim")
        if not cone.strictly_positive(unit):
            raise DegenerateConeError(
                "unit is not strictly positive on the cone")
        self.cone = cone
        self.unit = unit
        self.name = name
        self._vertices: tuple[Vec, ...] | None = None

    # -- basics ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.cone.dim

    @property
    def kind(self) -> str:
        return self.cone.kind

    @property
    def arithmetic(self) -> str:
        return self.cone.arithmetic

    @property
    def vertices(self) -> tuple[Vec, ...]:
        """Normalized generators, in generator order: the extreme
        states when no generator is redundant."""
        if self._vertices is None:
            if self.kind == LORENTZ:
                raise UnsupportedConeError(
                    "lorentz spaces have no finite vertex list")
            verts = []
            for row, _ in self.cone.generator_rows():  # vertex r / u(r)
                u = dot(self.unit, row)
                n, d = u.denominator, u.numerator
                verts.append(tuple(Fraction(x * n, d) for x in row))
            self._vertices = tuple(verts)
        return self._vertices

    def is_state(self, x: Vec, tol: Fraction | float | None = None) -> bool:
        eps = tolerance_for(tol, self)
        x = vec(x)
        return self.cone.contains(x, eps) and close(dot(self.unit, x), 1, eps)

    def __repr__(self) -> str:
        label = self.name or f"{self.kind}:{self.dim}"
        return f"StateSpace({label}, {self.arithmetic})"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        body: dict = {
            "dim": self.dim,
            "kind": self.kind,
            "arithmetic": self.arithmetic,
            "unit": emit(self.unit, self.arithmetic),
        }
        if self.name:
            body["name"] = self.name
        if self.kind == POLYHEDRAL:
            # a side is written when it reads back exactly (computed float
            # sides are scaled), and generators whenever facets are not;
            # the test reads the rows, so only a written side is made
            mode, cone = self.arithmetic, self.cone
            exact = cone.has_facets() and rows_emit_exactly(
                cone.facet_rows(), mode)
            if not exact or rows_emit_exactly(cone.generator_rows(), mode):
                body["generators"] = emit(cone.generators, mode)
            if exact:
                body["facets"] = emit(cone.facets, mode)
        return body

    @classmethod
    def from_json_dict(cls, body: dict) -> StateSpace:
        try:
            dim = body["dim"]
            kind = body["kind"]
            arithmetic = body.get("arithmetic", RATIONAL)
            unit = vec(body["unit"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad state-space payload: {exc}") from exc
        if type(dim) is not int:  # a bool is an int, but no dim
            raise InvalidInputError(f"payload dim {dim!r} is not an integer")
        if kind not in (POLYHEDRAL, LORENTZ):
            raise InvalidInputError(f"unknown cone kind {kind!r}")
        if arithmetic not in (RATIONAL, FLOAT):
            raise InvalidInputError(f"unknown arithmetic {arithmetic!r}")
        gens = body.get("generators")
        facets = body.get("facets")
        if kind == LORENTZ:
            cone = ConeRep.lorentz(dim, arithmetic)
        elif gens and facets:
            cone = ConeRep.from_both(gens, facets, arithmetic)
        elif gens:
            cone = ConeRep.from_generators(gens, arithmetic)
        elif facets:
            cone = ConeRep.from_facets(facets, arithmetic)
        else:
            raise InvalidInputError(
                "polyhedral space needs generators or facets")
        if cone.dim != dim:
            raise DimensionMismatchError(
                f"payload dim {dim} differs from its cone's dim {cone.dim}")
        name = body.get("name")
        if name is not None and not isinstance(name, str):
            raise InvalidInputError(f"payload name {name!r} is not a string")
        return cls(cone, unit, name)


@dataclass(frozen=True)
class Effect:
    """A dual-cone functional a with 0 <= a <= u on the space."""
    space: StateSpace
    functional: Vec

    def __post_init__(self):
        if len(self.functional) != self.space.dim:
            raise DimensionMismatchError("effect length differs from dim")
        object.__setattr__(self, "functional", vec(self.functional))

    def value(self, state: Vec) -> Fraction:
        return dot(self.functional, state)


@dataclass(frozen=True)
class Observable:
    """Effects summing to the order unit."""
    space: StateSpace
    effects: tuple[Effect, ...]

    def __post_init__(self):
        # no effects combine to (), which sums to zero
        total = combination((ONE,) * len(self.effects),
                            [e.functional for e in self.effects]) \
            or zeros(self.space.dim)
        if not close(total, self.space.unit, tolerance_for(None, self.space)):
            raise InvalidInputError("effects do not sum to the unit")


@dataclass(frozen=True)
class LinearMapRep:
    """Matrix of a linear map between spaces (codomain dim x domain dim)."""
    domain: StateSpace
    codomain: StateSpace
    matrix: Mat

    def __post_init__(self):
        if len(self.matrix) != self.codomain.dim or any(
                len(row) != self.domain.dim for row in self.matrix):
            raise DimensionMismatchError("map matrix shape mismatch")
        object.__setattr__(self, "matrix", mat(self.matrix))


# -- cone-level operations ------------------------------------------------


def dual_cone(space: StateSpace) -> ConeRep:
    """The dual cone, canonicalized (both representation sides realized)."""
    d = space.cone.dual()
    if d.kind == POLYHEDRAL:
        d.generator_rows()
        d.facet_rows()
    return d


def is_effect(space: StateSpace, a, tol=None) -> bool:
    """0 <= a <= u in the dual order."""
    f = vec(a)
    eps = tolerance_for(tol, space)
    residual = tuple(u - x for u, x in zip(space.unit, f))
    return all(space.cone.dual().contains(x, eps) for x in (f, residual))


def base_norm(space: StateSpace, v) -> Fraction | float:
    """min u(p) + u(m) over decompositions v = p - m with p, m in the cone.

    Equals u(v) on the cone. Polyhedral spaces solve the generator LP
    exactly, on rows; lorentz spaces use the closed form max(|last|, |head|).
    """
    x = vec(v)
    if len(x) != space.dim:
        raise DimensionMismatchError("vector length differs from dim")
    if space.kind == LORENTZ:
        head2 = dot(x[:-1], x[:-1])
        last = x[-1]
        if last * last >= head2:
            return abs(last)
        return math.sqrt(float(head2))
    gens = [r for r, _ in space.cone.generator_rows()]
    cost = tuple(dot(space.unit, g) for g in gens) * 2
    columns = gens + [tuple(-c for c in g) for g in gens]
    result = solve_lp(cost, transpose(columns), x)
    if not result.ok or result.objective is None:
        raise DegenerateConeError("base-norm LP failed; cone not generating")
    value = result.objective
    return value if space.arithmetic == RATIONAL else float(value)


# -- map predicates ---------------------------------------------------------


def is_positive_map(T: LinearMapRep, tol=None) -> bool:
    eps = tolerance_for(tol, T.domain, T.codomain)
    return maps_into(T.matrix, T.domain.cone, T.codomain.cone, eps)


def is_norm_contractive(T: LinearMapRep, tol=None) -> bool:
    """u_cod . T <= u_dom on the domain cone (meaningful for positive T)."""
    eps = tolerance_for(tol, T.domain, T.codomain)
    pulled = matvec(transpose(T.matrix), T.codomain.unit)
    slack = tuple(u - p for u, p in zip(T.domain.unit, pulled))
    return T.domain.cone.dual().contains(slack, eps)


def order_isomorphic(matrix: Mat, dom: ConeRep, cod: ConeRep,
                     eps: Fraction) -> Mat | None:
    """The inverse of the square matrix when the matrix is invertible,
    maps dom into cod, and has an inverse mapping cod into dom; else
    None."""
    inv = inverse(matrix)
    if inv is not None and maps_into(matrix, dom, cod, eps) \
            and maps_into(inv, cod, dom, eps):
        return inv
    return None


def is_order_isomorphism(T: LinearMapRep, tol=None) -> LinearMapRep | None:
    """T's inverse map (codomain -> domain) if T is an order isomorphism."""
    if T.domain.dim != T.codomain.dim:
        return None
    eps = tolerance_for(tol, T.domain, T.codomain)
    inv = order_isomorphic(T.matrix, T.domain.cone, T.codomain.cone, eps)
    return None if inv is None else LinearMapRep(T.codomain, T.domain, inv)


def verify_self_duality_witness(space: StateSpace, T, tol=None) -> bool:
    """Whether T (space coords -> dual coords) is an order isomorphism
    from the cone onto its dual cone."""
    matrix = mat(T)
    eps = tolerance_for(tol, space)
    if len(matrix) != space.dim or any(len(r) != space.dim for r in matrix):
        raise DimensionMismatchError("witness matrix must be square of dim")
    return order_isomorphic(matrix, space.cone, space.cone.dual(),
                            eps) is not None


# -- distinguishability -----------------------------------------------------


def one_shot_distinguishing_observable(
        space: StateSpace, states, tol=None) -> Observable | None:
    """Effects a_i with a_i(w_j) = delta_ij summing to the unit, or None.

    Exact LP over the dual-generator parameterization (facet rows).
    Lorentz spaces are rejected (no finite dual generator list).
    """
    if space.kind == LORENTZ:
        raise UnsupportedConeError(
            "one-shot distinguishability needs a polyhedral space")
    omegas = tuple(vec(s) for s in states)
    eps = tolerance_for(tol, space)
    for w in omegas:
        if not space.is_state(w, eps):
            raise InvalidInputError("distinguishability inputs must be states")
    duals = [r for r, _ in space.cone.facet_rows()]  # dual cone generators
    k, r = len(omegas), len(duals)
    if k == 0:
        raise InvalidInputError("no states given")

    # column (i, t) is dual_t as a candidate summand of a_i: its values
    # on every state, placed in block i, then its unit-sum contribution
    columns = [tuple(dot(duals[t], w) if block == i else ZERO
                     for block in range(k) for w in omegas) + duals[t]
               for i in range(k) for t in range(r)]
    target = tuple(Fraction(1) if i == j else ZERO
                   for i in range(k) for j in range(k)) + space.unit
    theta, _ = feasible_point(columns, target, eps)
    if theta is None:
        return None
    return Observable(space, tuple(
        Effect(space, combination(theta[i * r:(i + 1) * r], duals))
        for i in range(k)))


# -- decomposition ----------------------------------------------------------


@dataclass(frozen=True)
class ConeDecomposition:
    """Extreme rays partitioned into irreducible direct summands."""
    space: StateSpace
    rays: tuple[Vec, ...]
    blocks: tuple[tuple[int, ...], ...]

    @property
    def summand_count(self) -> int:
        return len(self.blocks)


def decompose_cone(space: StateSpace) -> ConeDecomposition:
    """Unique partition of the extreme rays into irreducible summands."""
    if space.kind == LORENTZ:
        raise UnsupportedConeError("decomposition needs a polyhedral space")
    rays = space.cone.minimal_generators()
    blocks = partition_rays(rays)
    return ConeDecomposition(space, rays, blocks)
