"""Bipartite composites under the minimal and maximal tensor products.

Coordinates: the composite of A (dim m) and B (dim n) lives in R^(m*n)
with index (i, j) -> i*n + j, so a product x (x) y is the flattened
outer product. The minimal composite is generated by product states;
the maximal composite is cut out by product effects. Any admissible
composite sits between the two and shares the product unit.

Bipartite states are kept as m x n coordinate matrices W pairing
functionals as (a, b) -> a^t W b. Marginals, conditioning, and remote
evaluation are linear algebra on W; entanglement is non-membership in
the minimal cone, asked of the product generators it holds. Products
are made from the factors' rows (ConeRep.generator_rows, facet_rows and
facet_rays), and each tensor hands its cone its side as product rows,
both sides for a simplex factor within the cap: a side's Fractions are
made on each read, and membership in the maximal cone and positivity
from the minimal one clear none again. A tolerant test reads each facet
and generator row as a direction (cones._meets), so the scale a product
row is held at decides no verdict there. The composite checks read
rows too: is_composite and check_distributive_inclusion take each
candidate generator or min(a, b) facet as an integer matrix and hand
maps_into the row's scale, which does decide a tolerant verdict, and
the directions w = H f are made from bare rows.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

from .cones import (DIMENSION_CAP, POLYHEDRAL, ConeRep, Rows, _kron,
                    maps_into, ray_rows)
from .errors import (
    DegenerateConeError,
    DimensionMismatchError,
    InvalidInputError,
    UnitMismatchError,
    UnsupportedConeError,
)
from .linalg import (ONE, Mat, Vec, dot, integer_row, mat, matvec, transpose,
                     vec, zeros)
from .models import _is_model_name, _is_named_model, parse_model_name
from .scalars import close, emit, merge_arithmetic, tolerance_for
from .spaces import StateSpace


def product_vec(x: Vec, y: Vec) -> Vec:
    """Flattened outer product, row-major in the first factor."""
    return tuple(xi * yj for xi in x for yj in y)


def _products(xs: Rows, ys: Rows) -> Rows:
    """The row of product_vec(x, y) for each row of x in xs, then of y in
    ys: x = s r and y = t q give x (x) y = (s t) (r (x) q), and r (x) q
    is coprime as gcd(r_i q_j) = gcd(r) gcd(q)."""
    return tuple((tuple(a * b for a in r for b in q), s * t)
                 for r, s in xs for q, t in ys)


def _bare(sides: tuple[Rows, Rows]) -> tuple:
    """The two factor sides' coprime rows without their scales: the
    factors enumerate_rays reads the products' base from."""
    return tuple(tuple(r for r, _ in side) for side in sides)


def _simplex_side(a: ConeRep, b: ConeRep, arith: str) -> Rows | None:
    """A simplex factor's composite facets within the cap, the sorted ray
    products (Namioka & Phelps 1969); None else, or for a degenerate factor."""
    if a.dim * b.dim <= DIMENSION_CAP and any(
            len(c.generator_rows()) == c.dim for c in (a, b)):
        with suppress(DegenerateConeError):
            return ray_rows(sorted(_kron(a.facet_rays(), b.facet_rays())),
                            arith)
    return None


def _require_polyhedral(a: StateSpace, b: StateSpace) -> None:
    if a.kind != POLYHEDRAL or b.kind != POLYHEDRAL:
        raise UnsupportedConeError(
            "tensor composites need polyhedral factors")


class CompositeSpace(StateSpace):
    """A bipartite state space tagged with its factors and tensor rule.

    Valid by construction, so StateSpace's unit proof is not repeated:
    u_A (x) u_B is u_A(x) u_B(y) > 0 on each min generator x (x) y, and
    on the max cone it is a strictly positive combination of the
    product facets, which span.
    """

    __slots__ = ("factor_a", "factor_b", "tensor")

    def __init__(self, cone: ConeRep, unit: Vec, factor_a: StateSpace,
                 factor_b: StateSpace, tensor: str, name: str | None = None):
        self.cone, self.unit, self.name = cone, unit, name
        self._vertices = None
        self.factor_a = factor_a
        self.factor_b = factor_b
        self.tensor = tensor

    def split_dims(self) -> tuple[int, int]:
        return self.factor_a.dim, self.factor_b.dim


def min_tensor(a: StateSpace, b: StateSpace) -> CompositeSpace:
    """Separable composite: cone generated by product states.

    Generators are products of factor generators, held as integer rows
    and made as vectors only when read. Facets stay lazy, enumerated on
    demand within the dimension cap; there, a simplex factor (dim
    generator rows) makes them products of the factors' rays too.
    """
    _require_polyhedral(a, b)
    arith = merge_arithmetic(a.arithmetic, b.arithmetic)
    sides = a.cone.generator_rows(), b.cone.generator_rows()
    # rank(A (x) B) = rank A * rank B: the products span, no rank check
    cone = ConeRep(a.dim * b.dim, POLYHEDRAL, arith, _products(*sides),
                   _simplex_side(a.cone, b.cone, arith), _bare(sides))
    unit = product_vec(a.unit, b.unit)
    name = f"min({a.name or 'A'},{b.name or 'B'})"
    return CompositeSpace(cone, unit, a, b, "min", name)


def max_tensor(a: StateSpace, b: StateSpace) -> CompositeSpace:
    """Largest admissible composite: cut out by product effects.

    Facets are products of factor facets, held as integer rows and made
    as vectors only when read; generators are as min_tensor's facets.
    """
    _require_polyhedral(a, b)
    arith = merge_arithmetic(a.arithmetic, b.arithmetic)
    sides = a.cone.facet_rows(), b.cone.facet_rows()
    # rank(A (x) B) = rank A * rank B: the products span, no rank check
    cone = ConeRep(a.dim * b.dim, POLYHEDRAL, arith,
                   _simplex_side(a.cone.dual(), b.cone.dual(), arith),
                   _products(*sides), _bare(sides))
    unit = product_vec(a.unit, b.unit)
    name = f"max({a.name or 'A'},{b.name or 'B'})"
    return CompositeSpace(cone, unit, a, b, "max", name)


def is_composite(a: StateSpace, b: StateSpace, candidate: StateSpace,
                 tol=None) -> bool:
    """Whether candidate is an admissible composite of a and b.

    Requires the product unit (UnitMismatchError otherwise) and the
    sandwich min <= candidate <= max, checked without enumerating
    either bound: every min generator lies in the candidate cone, and
    each candidate generator, read as a dim A x dim B matrix G, maps the
    dual of a's cone into b's cone (G^t f for each facet f of a, as
    <G, f (x) g> = <G^t f, g>).
    """
    _require_polyhedral(a, b)
    if candidate.dim != a.dim * b.dim:
        raise DimensionMismatchError("candidate dim is not the product dim")
    unit = product_vec(a.unit, b.unit)
    if candidate.unit != unit:
        raise UnitMismatchError("candidate does not carry the product unit")
    eps = tolerance_for(tol, a, b, candidate)
    ys = b.cone.generators
    if not all(candidate.cone.contains(product_vec(x, y), eps)
               for x in a.cone.generators for y in ys):
        return False
    dual = a.cone.dual()
    return all(maps_into(transpose(_as_matrix(g, a.dim, b.dim)), dual,
                         b.cone, eps, s)
               for g, s in candidate.cone.generator_rows())


def _directions(vectors) -> Rows:
    """One coprime row per nonzero direction, at scale 1: a facet test
    reads a row's direction only, so parallel vectors are one facet."""
    rows = dict.fromkeys(integer_row(v)[0] for v in vectors)
    return tuple((row, ONE) for row in rows if any(row))


def _as_matrix(flat: Vec, m: int, n: int) -> Mat:
    return tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(m))


def _as_flat(coords: Mat) -> Vec:
    return tuple(x for row in coords for x in row)


@dataclass(frozen=True)
class BipartiteState:
    """Normalized state of a composite, held as its coordinate matrix."""
    composite: CompositeSpace
    coords: Mat

    def __post_init__(self):
        da, db = self.composite.split_dims()
        if len(self.coords) != da or any(len(r) != db for r in self.coords):
            raise DimensionMismatchError("coords shape differs from factors")
        object.__setattr__(self, "coords", mat(self.coords))

    @property
    def flat(self) -> Vec:
        return _as_flat(self.coords)

    def validate(self, tol=None) -> None:
        if not self.composite.is_state(self.flat, tol):
            raise InvalidInputError(
                "coords are not a normalized state of the composite")

    def to_json_dict(self) -> dict:
        return {
            "A": _space_ref(self.composite.factor_a),
            "B": _space_ref(self.composite.factor_b),
            "tensor": self.composite.tensor,
            "coords": emit(self.coords, self.composite.arithmetic),
        }

    @classmethod
    def from_json_dict(cls, body: dict) -> BipartiteState:
        try:
            fa = _space_from_ref(body["A"])
            fb = _space_from_ref(body["B"])
            tensor = body["tensor"]
            coords = mat(body["coords"])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad bipartite payload: {exc}") from exc
        if tensor == "min":
            composite = min_tensor(fa, fb)
        elif tensor == "max":
            composite = max_tensor(fa, fb)
        else:
            raise InvalidInputError(f"unknown tensor rule {tensor!r}")
        return cls(composite, coords)


def _space_ref(space: StateSpace):
    """Model name when the space is the model it is named, else the full
    dict."""
    return space.name if _is_named_model(space) else space.to_json_dict()


def _space_from_ref(ref) -> StateSpace:
    """A factor by model name or payload; a payload keeps a model name
    only when it is that model, so _space_ref can write it back."""
    if isinstance(ref, str):
        return parse_model_name(ref)
    if not isinstance(ref, dict):
        raise InvalidInputError("space reference must be a name or an object")
    space = StateSpace.from_json_dict(ref)
    if _is_model_name(space.name) and not _is_named_model(space):
        space.name = None
    return space


def omega_hat(state: BipartiteState) -> Mat:
    """The state's hat map A' -> B, a |-> W^t a."""
    return transpose(state.coords)


def f_hat(f_coords: Mat) -> Mat:
    """Hat map A -> A2' of a joint effect with matrix F: alpha |-> F^t alpha."""
    return transpose(mat(f_coords))


def marginal(state: BipartiteState, side: str = "a") -> Vec:
    """Reduced state on one factor (normalized if the input is)."""
    if side == "a":
        return matvec(state.coords, state.composite.factor_b.unit)
    if side == "b":
        return matvec(transpose(state.coords), state.composite.factor_a.unit)
    raise InvalidInputError("side must be 'a' or 'b'")


def conditional(state: BipartiteState, effect: Vec, side: str = "a",
                tol=None) -> Vec:
    """State of the other factor after seeing `effect` on `side`.

    Zero-probability outcomes condition to the zero vector rather than
    raising; callers treat that as 'outcome never happens'.
    """
    e = vec(effect)
    if side == "a":
        sub = matvec(transpose(state.coords), e)  # unnormalized B state
        unit = state.composite.factor_b.unit
    elif side == "b":
        sub = matvec(state.coords, e)
        unit = state.composite.factor_a.unit
    else:
        raise InvalidInputError("side must be 'a' or 'b'")
    p = dot(unit, sub)
    if close(p, 0, tolerance_for(tol, state.composite)):
        return zeros(len(sub))
    return tuple(x / p for x in sub)


def remote_evaluate(alpha: Vec, state: BipartiteState, f_coords: Mat) -> Vec:
    """Unnormalized conditional state of the far factor: w_hat(f_hat(alpha)).

    alpha is a state of an input system A; `state` spans B (near, the
    measured half) and C (far). The joint effect on A and B has matrix
    F (dim A x dim B). A zero outcome probability yields the zero
    vector, by convention.
    """
    a = vec(alpha)
    fh = f_hat(f_coords)
    if len(fh[0]) != len(a):
        raise DimensionMismatchError("effect rows differ from input dim")
    if len(fh) != state.composite.factor_a.dim:
        raise DimensionMismatchError("effect cols differ from the near half")
    return matvec(omega_hat(state), matvec(fh, a))


def is_entangled(state: BipartiteState, tol=None) -> bool:
    """Outside the separable (minimal) cone?  Asked of its products."""
    composite = state.composite
    eps = tolerance_for(tol, composite)
    cone = min_tensor(composite.factor_a, composite.factor_b).cone
    return cone.weights(state.flat, eps) is None


def _effect_and_residual(a: StateSpace, b: StateSpace,
                         f_coords: Mat) -> tuple[Mat, Mat]:
    """F and u (x) u - F, for an effect matrix of shape dim A x dim B."""
    F = mat(f_coords)
    if len(F) != a.dim or any(len(r) != b.dim for r in F):
        raise DimensionMismatchError("effect matrix must be dim A x dim B")
    residual = tuple(tuple(ua * ub - x for ub, x in zip(b.unit, row))
                     for ua, row in zip(a.unit, F))
    return F, residual


def effect_on_min(a: StateSpace, b: StateSpace, f_coords: Mat,
                  tol=None) -> bool:
    """Valid effect on the minimal composite: 0 <= F <= u on products.

    Both F and u (x) u - F, pulled back through each generator x of a
    (x -> F^t x), must land in the dual of b's cone: F^t is a positive
    map from a's cone into b's dual.
    """
    F, residual = _effect_and_residual(a, b, f_coords)
    eps = tolerance_for(tol, a, b)
    _require_polyhedral(a, b)
    return all(maps_into(transpose(G), a.cone, b.cone.dual(), eps)
               for G in (F, residual))


def effect_on_max(a: StateSpace, b: StateSpace, f_coords: Mat,
                  tol=None) -> bool:
    """Valid effect on the maximal composite.

    The dual of the maximal cone is the separable dual cone, so both F
    and u - F must be nonnegative sums of the max composite's product
    facets, the generators of its dual; each test is one feasibility LP.
    """
    F, residual = _effect_and_residual(a, b, f_coords)
    eps = tolerance_for(tol, a, b)
    dual = max_tensor(a, b).cone.dual()
    return all(dual.weights(_as_flat(G), eps) is not None
               for G in (F, residual))


def check_distributive_inclusion(a: StateSpace, b: StateSpace,
                                 c: StateSpace, tol=None) -> bool:
    """Cone inclusion  a min (b max c)  <=  (a min b) max c.

    Every generator x (x) H of the left composite must satisfy every
    facet F (x) f of the right one, and <x (x) H, F (x) f> =
    <F^t x, H f>, a pairing in b's space: w = H f for each generator H of
    max(b, c) and facet f of c, cut to one vector per direction
    (_directions) as the facets of a cone in b's space, which each F^t,
    F a facet of min(a, b), must map a's cone into. Only the two inner
    pair composites are enumerated (each within the dimension cap); no
    triple-space vector is built.
    """
    eps = tolerance_for(tol, a, b, c)
    left, right = max_tensor(b, c), min_tensor(a, b)
    facets = [f for f, _ in c.cone.facet_rows()]
    # a direction reads no scale, so w is made from the bare rows
    ws = [matvec(_as_matrix(h, b.dim, c.dim), f)
          for h, _ in left.cone.generator_rows() for f in facets]
    # facet rows, read by maps_into only: {y : <w, y> >= 0 for every w}
    cut = ConeRep(b.dim, POLYHEDRAL, b.arithmetic, facets=_directions(ws))
    return all(maps_into(transpose(_as_matrix(f, a.dim, b.dim)), a.cone,
                         cut, eps, s)
               for f, s in right.cone.facet_rows())
