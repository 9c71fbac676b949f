"""Built-in models: their names, state spaces and canonical structure.

classical:n   simplex over n outcomes (positive orthant, counting unit)
polygon:n     regular n-gon disc; n = 4 uses the exact rational square
              presentation with vertices (+-1, +-1, 1); any other n
              embeds the floats cos 2pi k/n and sin 2pi k/n once, as
              vertex k and as rotation k of its symmetry group, and
              carries its edge facets, each proved on integer rows
squit         alias for polygon:4
ball:d        d-dimensional euclidean ball (lorentz cone in d+1 coords)

This module alone reads the name grammar: it builds each model, decides
whether a space is the model its name claims, and carries each model's
canonical transitive symmetry group and the coordinate matrix of its
standard maximally correlated bipartite state, which protocols consume.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from operator import mul

from .cones import POLYHEDRAL, ConeRep, Rows
from .errors import InvalidInputError, UnsupportedConeError
from .linalg import Mat, identity, integer_row, transpose
from .scalars import FLOAT, RATIONAL, exactify, merge_arithmetic
from .spaces import StateSpace

ONE = Fraction(1)
ZERO = Fraction(0)


def _rot2(c, s) -> Mat:
    return ((c, -s, ZERO), (s, c, ZERO), (ZERO, ZERO, ONE))


# The exact square: vertices (+-1, +-1, 1) in cyclic order, whose facet
# normals are (+-1, 0, 1) and (0, +-1, 1); and the hat map
# (+1 -1 0 / +1 +1 0 / 0 0 1) of its maximally correlated state.
_SQUARE = (
    RATIONAL,
    ((ONE, ONE, ONE), (-ONE, ONE, ONE), (-ONE, -ONE, ONE), (ONE, -ONE, ONE)),
    ((-ONE, ZERO, ONE), (ZERO, -ONE, ONE), (ZERO, ONE, ONE),
     (ONE, ZERO, ONE)),
    ((ONE, -ONE, ZERO), (ONE, ONE, ZERO), (ZERO, ZERO, ONE)),
)


def _point(angle: float, scale: float = 1) -> tuple:
    """(scale cos angle, scale sin angle), each embedded once from its
    float."""
    return (exactify(scale * math.cos(angle)),
            exactify(scale * math.sin(angle)))


def _edge_rows(gens: Rows) -> Rows | None:
    """The facets of the polygon whose vertices have the rows gens, in
    cyclic order, as double description gives them in float mode, or
    None where the proof below fails.

    Facet k is f_k = v_k x v_(k+1), made on the vertices' coprime
    integer rows and divided by its gcd. The proof runs on integers, in
    O(n): v[2] > 0 on every vertex (the unit (0, 0, 1) is positive on
    it); with c the sum of the rows, f_k(c) > 0 and f_k(v_(k+2)) > 0
    for every k; and the edges cross the ray from c in the +x direction
    upwards exactly once (Sunday's winding count). Then the vertices go
    round c once, in strictly increasing angle, so the polygon is
    simple, and every turn is strictly left, so it is strictly convex:
    each f_k is >= 0 on every vertex and 0 on exactly v_k and v_(k+1),
    every vertex is extreme, and these n edges are every facet. The
    rows are sorted as enumerate_rays sorts its rays, each with scale
    1 / (its largest entry magnitude), the float-mode rescale.
    """
    verts = [row for row, _ in gens]
    n = len(verts)
    if any(v[2] <= 0 for v in verts):
        return None
    c = [sum(column) for column in zip(*verts)]
    # above(v): the sign of y(v) - y(c), as both lie above the plane
    above = [v[1] * c[2] - c[1] * v[2] > 0 for v in verts]
    rows, crossings = [], 0
    for k, (a, b, e) in enumerate(zip(verts, verts[1:] + verts[:1],
                                      verts[2:] + verts[:2])):
        f = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
             a[0] * b[1] - a[1] * b[0])
        if sum(map(mul, f, c)) <= 0 or sum(map(mul, f, e)) <= 0:
            return None
        g = gcd(*f)
        rows.append(tuple(x // g for x in f))
        crossings += not above[k] and above[(k + 1) % n]
    if crossings != 1:
        return None
    return tuple((f, Fraction(1, max(map(abs, f)))) for f in sorted(rows))


def _polygon(n: int) -> tuple:
    """Arithmetic, vertices, facets, facet rows and vertex rows of the
    n-gon. The square is exact; any other n-gon embeds its floats
    exactly and holds its vertices' rows and its proved edge facets as
    rows (None leaves them to double description)."""
    if n == 4:
        return _SQUARE[:3] + (None, None)
    gens = tuple(_point(2 * math.pi * k / n) + (ONE,) for k in range(n))
    rows = tuple(map(integer_row, gens))
    return FLOAT, gens, None, _edge_rows(rows), rows


def _hat(n: int) -> Mat:
    """Hat map of the n-gon's maximally correlated state: the half-step
    rotation scaled by cos pi/n, exact for the square."""
    if n == 4:
        return _SQUARE[3]
    return _rot2(*_point(-(n + 1) * math.pi / n, math.cos(math.pi / n)))


# the least size each family's maker takes, and the size's letter
_LEAST = {"classical": (1, "n"), "polygon": (3, "n"), "ball": (1, "d")}


def _check_size(family: str, size: int) -> None:
    least, letter = _LEAST[family]
    if size < least:
        raise InvalidInputError(f"{family} model needs {letter} >= {least}")


def make_classical(n: int) -> StateSpace:
    """Simplex of probability vectors over n outcomes."""
    _check_size("classical", n)
    basis = identity(n)
    cone = ConeRep(n, POLYHEDRAL, RATIONAL, basis, basis)
    unit = tuple([ONE] * n)
    return StateSpace(cone, unit, name=f"classical:{n}")


def make_polygon(n: int) -> StateSpace:
    """Regular n-gon state space in R^3, unit functional (0, 0, 1)."""
    _check_size("polygon", n)
    arithmetic, gens, facets, facet_rows, generator_rows = _polygon(n)
    cone = ConeRep(3, POLYHEDRAL, arithmetic, gens, facets,
                   facet_rows=facet_rows, generator_rows=generator_rows)
    return StateSpace(cone, (ZERO, ZERO, ONE), name=f"polygon:{n}")


def make_squit() -> StateSpace:
    return make_polygon(4)


def make_ball(d: int) -> StateSpace:
    """Euclidean d-ball of states: lorentz cone in d + 1 coordinates."""
    _check_size("ball", d)
    cone = ConeRep.lorentz(d + 1, RATIONAL)
    unit = tuple([ZERO] * d + [ONE])
    return StateSpace(cone, unit, name=f"ball:{d}")


_MAKERS = {"classical": make_classical, "polygon": make_polygon,
           "ball": make_ball}


def _split(name: str) -> tuple[str, str]:
    """The family and size text a name claims, squit being polygon:4;
    the family is "" when the name claims none."""
    head, _, tail = ("polygon:4" if name == "squit" else name).partition(":")
    return (head if head in _MAKERS else ""), tail


def _parse(name: str) -> tuple[str, int]:
    """The family and size of a model name of the grammar."""
    family, tail = _split(name)
    if not family:
        raise InvalidInputError(f"unknown model {name!r}")
    try:
        return family, int(tail)
    except ValueError as exc:
        raise InvalidInputError(f"bad model size in {name!r}") from exc


def parse_model_name(text: str) -> StateSpace:
    """Grammar: classical:n | polygon:n | squit | ball:d."""
    family, size = _parse(text.strip().lower())
    return _MAKERS[family](size)


def _is_model_name(name: str | None) -> bool:
    """Whether the name claims a model of the grammar."""
    return bool(_split(name or "")[0])


def _same_space(x: StateSpace, y: StateSpace) -> bool:
    """Same kind, arithmetic, unit and (polyhedral) generator set."""
    if x is y:
        return True
    if (x.kind, x.arithmetic, x.unit) != (y.kind, y.arithmetic, y.unit):
        return False
    return x.kind != POLYHEDRAL or \
        set(x.cone.generators) == set(y.cone.generators)


def _is_named_model(space: StateSpace) -> bool:
    """Whether the space is the model its name parses to; the name's
    size must fit the space first, so no large model is built."""
    family, tail = _split(space.name or "")
    if not family:
        return False
    poly = space.kind == POLYHEDRAL
    size = {"classical": space.dim, "ball": space.dim - 1,
            "polygon": len(space.cone.generators) if poly else -1}[family]
    try:
        model = _MAKERS[family](size) if tail == str(size) else None
    except InvalidInputError:
        model = None
    return model is not None and _same_space(model, space)


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


def _canonical(space: StateSpace, what: str) -> tuple[str, int]:
    """Family and size of a classical or polygon model's name; a size
    the model's maker rejects names no model."""
    name = space.name or ""
    try:
        family, size = _parse(name)
        if family in ("classical", "polygon"):
            _check_size(family, size)
            return family, size
    except InvalidInputError:
        pass
    raise UnsupportedConeError(f"no canonical {what} for {name!r}")


def symmetry_group(space: StateSpace) -> tuple[Mat, ...]:
    """The canonical transitive cyclic group of the model, as matrices.

    classical:n gets the cyclic outcome shifts (shift k takes e_j to
    e_(j+k mod n)) and the square its quarter turns, each exact. Any
    other polygon:n gets its n plane rotations embedded from their
    angles, as its vertices are: rotation k is built from the floats
    cos 2pi k/n and sin 2pi k/n that give vertex k, so it takes vertex 0
    to vertex k exactly and its entries are exactly floats. Identity
    first, then the k-th step in place k.
    """
    family, n = _canonical(space, "symmetry group")
    if family == "classical":
        basis = identity(n)
        return tuple(basis[n - k:] + basis[:n - k] for k in range(n))
    if n == 4:
        return tuple(_rot2(c, s) for c, s in (
            (ONE, ZERO), (ZERO, ONE), (-ONE, ZERO), (ZERO, -ONE)))
    return tuple(_rot2(*_point(2 * math.pi * k / n)) for k in range(n))


def entangled_state_coords(space: StateSpace) -> Mat:
    """Coords matrix of the model's standard maximally correlated state.

    With coords W the bipartite state pairs functionals as (a, b) ->
    a^t W b. classical:n takes the uniform perfectly correlated state;
    polygon:n the isotropic state whose hat map is the scaled
    half-step rotation (exact for n = 4); the coords are its transpose.
    """
    family, n = _canonical(space, "entangled state")
    if family == "classical":
        return tuple(tuple(x / n for x in row) for row in identity(n))
    return transpose(_hat(n))
