"""Built-in model state spaces and their canonical structure.

classical:n   simplex over n outcomes (positive orthant, counting unit)
polygon:n     regular n-gon disc; n = 4 uses the exact rational square
              presentation with vertices (+-1, +-1, 1)
squit         alias for polygon:4
ball:d        d-dimensional euclidean ball (lorentz cone in d+1 coords)

Besides the spaces themselves this module carries the canonical
transitive symmetry group of each model and the coordinate matrix of
its standard maximally correlated bipartite state, both of which the
protocol layer consumes.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cones import POLYHEDRAL, ConeRep
from .errors import InvalidInputError, UnsupportedConeError
from .linalg import Mat, identity, matmul
from .scalars import FLOAT, RATIONAL, exactify, merge_arithmetic
from .spaces import StateSpace

ONE = Fraction(1)
ZERO = Fraction(0)


def make_classical(n: int) -> StateSpace:
    """Simplex of probability vectors over n outcomes."""
    if n < 1:
        raise InvalidInputError("classical model needs n >= 1")
    basis = identity(n)
    cone = ConeRep(n, POLYHEDRAL, RATIONAL, basis, basis)
    unit = tuple([ONE] * n)
    return StateSpace(cone, unit, name=f"classical:{n}")


def _square_space() -> StateSpace:
    # Exact presentation: vertices at the corners (+-1, +-1) in cyclic
    # order, so the facet normals come out as (+-1, 0, 1), (0, +-1, 1).
    gens = (
        (ONE, ONE, ONE),
        (-ONE, ONE, ONE),
        (-ONE, -ONE, ONE),
        (ONE, -ONE, ONE),
    )
    facets = (
        (-ONE, ZERO, ONE),
        (ZERO, -ONE, ONE),
        (ZERO, ONE, ONE),
        (ONE, ZERO, ONE),
    )
    cone = ConeRep(3, POLYHEDRAL, RATIONAL, gens, facets)
    return StateSpace(cone, (ZERO, ZERO, ONE), name="polygon:4")


def make_polygon(n: int) -> StateSpace:
    """Regular n-gon state space in R^3, unit functional (0, 0, 1)."""
    if n < 3:
        raise InvalidInputError("polygon model needs n >= 3")
    if n == 4:
        return _square_space()
    gens = []
    for k in range(n):
        phi = 2 * math.pi * k / n
        gens.append((exactify(math.cos(phi)), exactify(math.sin(phi)), ONE))
    # facets are left to double description on first access
    cone = ConeRep.from_generators(tuple(gens), FLOAT, 3)
    return StateSpace(cone, (ZERO, ZERO, ONE), name=f"polygon:{n}")


def make_squit() -> StateSpace:
    return make_polygon(4)


def make_ball(d: int) -> StateSpace:
    """Euclidean d-ball of states: lorentz cone in d + 1 coordinates."""
    if d < 1:
        raise InvalidInputError("ball model needs d >= 1")
    cone = ConeRep.lorentz(d + 1, RATIONAL)
    unit = tuple([ZERO] * d + [ONE])
    return StateSpace(cone, unit, name=f"ball:{d}")


def parse_model_name(text: str) -> StateSpace:
    """Grammar: classical:n | polygon:n | squit | ball:d."""
    token = text.strip().lower()
    if token == "squit":
        return make_squit()
    head, sep, tail = token.partition(":")
    if not sep:
        raise InvalidInputError(f"unknown model {text!r}")
    try:
        size = int(tail)
    except ValueError as exc:
        raise InvalidInputError(f"bad model size in {text!r}") from exc
    if head == "classical":
        return make_classical(size)
    if head == "polygon":
        return make_polygon(size)
    if head == "ball":
        return make_ball(size)
    raise InvalidInputError(f"unknown model {text!r}")


# -- direct sums -----------------------------------------------------------


def direct_sum(a: StateSpace, b: StateSpace) -> StateSpace:
    """Block sum: states are subnormalized pairs, unit adds up."""
    if a.kind != POLYHEDRAL or b.kind != POLYHEDRAL:
        raise UnsupportedConeError("direct sum needs polyhedral factors")
    da, db = a.dim, b.dim
    arith = merge_arithmetic(a.arithmetic, b.arithmetic)
    gens = tuple(g + (ZERO,) * db for g in a.cone.generators) \
        + tuple((ZERO,) * da + g for g in b.cone.generators)
    facets = None
    if a.cone.has_facets() and b.cone.has_facets():
        facets = tuple(f + (ZERO,) * db for f in a.cone.facets) \
            + tuple((ZERO,) * da + f for f in b.cone.facets)
    # a block sum of spanning sets spans: no rank check
    cone = ConeRep(da + db, POLYHEDRAL, arith, gens, facets)
    unit = a.unit + b.unit
    name = f"({a.name or 'A'})+({b.name or 'B'})"
    return StateSpace(cone, unit, name=name)


# -- canonical symmetry groups ----------------------------------------------


def _rot2(c, s) -> Mat:
    return ((c, -s, ZERO), (s, c, ZERO), (ZERO, ZERO, ONE))


def symmetry_group(space: StateSpace) -> tuple[Mat, ...]:
    """The canonical transitive cyclic group of the model, as matrices.

    classical:n gets the cyclic outcome shifts; polygon:n the n plane
    rotations (exact for n = 4). Identity first, then powers in order.
    """
    name = space.name or ""
    head, _, tail = name.partition(":")
    if head == "classical":
        n = int(tail)
        shift = tuple(tuple(ONE if i == (j + 1) % n else ZERO
                            for j in range(n)) for i in range(n))
        out = [identity(n)]
        for _ in range(n - 1):
            out.append(matmul(shift, out[-1]))
        return tuple(out)
    if head == "polygon":
        n = int(tail)
        if n == 4:
            step = _rot2(ZERO, ONE)
        else:
            step = _rot2(exactify(math.cos(2 * math.pi / n)),
                         exactify(math.sin(2 * math.pi / n)))
        out = [identity(3)]
        for _ in range(n - 1):
            out.append(matmul(step, out[-1]))
        return tuple(out)
    raise UnsupportedConeError(f"no canonical symmetry group for {name!r}")


def entangled_state_coords(space: StateSpace) -> Mat:
    """Coords matrix of the model's standard maximally correlated state.

    With coords W the bipartite state pairs functionals as (a, b) ->
    a^t W b. classical:n takes the uniform perfectly correlated state;
    polygon:n the isotropic state whose hat map is the scaled
    half-step rotation (exact for n = 4).
    """
    name = space.name or ""
    head, _, tail = name.partition(":")
    if head == "classical":
        n = int(tail)
        inv = Fraction(1, n)
        return tuple(tuple(inv if i == j else ZERO for j in range(n))
                     for i in range(n))
    if head == "polygon":
        n = int(tail)
        if n == 4:
            # hat map (+1 -1 0 / +1 +1 0 / 0 0 1); coords are its transpose
            omega_hat = ((ONE, -ONE, ZERO), (ONE, ONE, ZERO),
                         (ZERO, ZERO, ONE))
        else:
            scale = math.cos(math.pi / n)
            ang = -(n + 1) * math.pi / n
            omega_hat = _rot2(exactify(scale * math.cos(ang)),
                              exactify(scale * math.sin(ang)))
        return tuple(tuple(row) for row in zip(*omega_hat))
    raise UnsupportedConeError(f"no canonical entangled state for {name!r}")
