"""Conclusive and deterministic teleportation, plus compression witnesses.

A pair (f, omega) with f a joint effect on AB and omega a shared state
of BA teleports A-states iff mu = omega_hat . f_hat is proportional to
an order isomorphism; the inverse of the normalized factor is the
correction map. For a model with a transitive finite symmetry group
and an equivariant self-duality isomorphism, one observable performs
deterministic teleportation with group-element corrections. Its
construction proves each group fact once, on integer matrices: every
element, the state map and its inverse are cleared once (integer_row),
one product table proves the group (scalars.first_close_row), the
equivariance products are compared by scalars.close_rows, and outcomes
after the first are derived from the group's identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from ..composites import (BipartiteState, effect_on_min, f_hat, max_tensor,
                          omega_hat, product_vec)
from ..cones import maps_into
from ..errors import (DimensionMismatchError, InvalidInputError,
                      UnsupportedConeError)
from ..linalg import (Mat, combination, dot, identity, integer_row, inverse,
                      mat, matmul, matvec, proportion, rank, transpose,
                      unit_vec)
from ..lp import feasible_point
from ..models import entangled_state_coords, symmetry_group
from ..scalars import close, close_rows, first_close_row, tolerance_for
from ..spaces import (LinearMapRep, StateSpace, is_norm_contractive,
                      is_order_isomorphism, is_positive_map,
                      order_isomorphic)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class TeleportationCertificate:
    """Outcome of checking one (effect, shared state) pair."""
    mu: LinearMapRep
    constant: Fraction
    correction: LinearMapRep | None
    verdict: bool
    duality_witness: Mat  # the effect's hat map, a candidate A -> A* iso


@dataclass(frozen=True)
class TeleportationScheme:
    """Deterministic protocol: the effects (one per group element) sum
    to u x u, and each outcome's certificate proves it correctable."""
    space: StateSpace
    group: tuple[Mat, ...]
    omega: BipartiteState
    effects: tuple[Mat, ...]
    certificates: tuple[TeleportationCertificate, ...]
    constant: Fraction


def _fail(a_space: StateSpace, mu: Mat, constant, witness: Mat
          ) -> TeleportationCertificate:
    return TeleportationCertificate(
        mu=LinearMapRep(a_space, a_space, mu), constant=constant,
        correction=None, verdict=False, duality_witness=witness)


def verify_teleportation(f_coords, omega: BipartiteState,
                         tol=None) -> TeleportationCertificate:
    """Decide whether measuring f on A+B collapses omega's far half to
    an invertible image of the input state.

    omega lives on the maximal composite of B and A, so its factors name
    both systems. The composite mu = omega_hat . f_hat must equal c.J
    with c > 0 and J an order isomorphism of A; the correction is J's
    inverse. The effect is validated against the minimal composite of
    (A, B), the shared state against the maximal composite.
    """
    F = mat(f_coords)
    b_space, a_space = omega.composite.factor_a, omega.composite.factor_b
    if not effect_on_min(a_space, b_space, F, tol):
        raise InvalidInputError("f is not an effect on the minimal composite")
    eps = tolerance_for(tol, a_space, b_space)
    if omega.composite.tensor != "max":
        raise InvalidInputError("shared state must live on the maximal "
                                "composite")
    omega.validate(tol)

    witness = f_hat(F)
    mu = matmul(omega_hat(omega), witness)

    u = a_space.unit
    pulled = matvec(transpose(mu), u)
    constant = proportion(pulled, u)
    if constant <= eps or \
            not close(pulled, tuple(constant * x for x in u), eps):
        return _fail(a_space, mu, constant, witness)

    J = tuple(tuple(x / constant for x in row) for row in mu)
    # J's inverse, positive: J is an order isomorphism
    correction = is_order_isomorphism(LinearMapRep(a_space, a_space, J), tol)
    if correction is None or not is_norm_contractive(correction, tol):
        return _fail(a_space, mu, constant, witness)
    return TeleportationCertificate(
        mu=LinearMapRep(a_space, a_space, mu), constant=constant,
        correction=correction, verdict=True, duality_witness=witness)


def verify_correction_free(f_coords, omega: BipartiteState,
                           tol=None) -> bool:
    """True iff the pair teleports with the identity correction."""
    cert = verify_teleportation(f_coords, omega, tol)
    if not cert.verdict:
        return False
    scaled = tuple(tuple(cert.constant * x for x in row)
                   for row in identity(cert.mu.domain.dim))
    return close(cert.mu.matrix, scaled, tolerance_for(tol, omega.composite))


def _flat(m: Mat) -> tuple[tuple[int, ...], Fraction]:
    """A square matrix cleared once, row-major: integers M and a positive
    scale s with m = s * M (linalg.integer_row)."""
    return integer_row(tuple(x for row in m for x in row))


def _times(rows, columns) -> tuple[int, ...]:
    """The integer matrix product, row-major: each row of the left
    factor against each column of the right."""
    return tuple(sum(map(mul, r, c)) for r in rows for c in columns)


def construct_deterministic_teleportation(
        space: StateSpace, group: tuple[Mat, ...] | None = None,
        omega_hat_matrix=None, tol=None) -> TeleportationScheme:
    """Deterministic protocol from a transitive symmetry group.

    The shared state is the normalized isomorphism state built from the
    A* -> A order isomorphism; outcome g gets the effect with hat map
    (1/|G|) . omega_hat^{-1} . g. The effects sum to u x u, and every
    outcome's correction is the inverse group element. Every hypothesis
    is checked and raises on failure, and each group fact is proved once.

    Each element, the state map and its inverse are cleared once to an
    integer matrix and a positive scale, so the group's products, the
    equivariance products and the effects are integer matrix products,
    compared by scalars.close_rows; each effect entry's Fraction is made
    once. One product table proves the group: entry (i, j) is the first
    element within eps of g_i . g_j (scalars.first_close_row, which
    tries an element only once its first entry matches). e's row differs
    from 0, 1, ..., |G|-1 exactly when an element repeats an earlier one,
    and a row without e means a singular g_i, since a finite closed set
    holding e holds every invertible element's inverse.

    The first outcome and any g with g^t u != u exactly go through
    verify_teleportation; the others are derived (_derived_outcome).
    """
    if group is None:
        group = symmetry_group(space)
    group = tuple(mat(g) for g in group)
    if not group:
        raise InvalidInputError("symmetry group is empty")
    oh = mat(omega_hat_matrix) if omega_hat_matrix is not None \
        else transpose(mat(entangled_state_coords(space)))

    eps = tolerance_for(tol, space)
    u = space.unit
    for g in group:
        if not close(matvec(transpose(g), u), u, eps):
            raise InvalidInputError("group element does not preserve the "
                                    "order unit")
        if not is_positive_map(LinearMapRep(space, space, g), tol):
            raise InvalidInputError("group element is not a positive map")

    # g = s * G for an integer matrix G, so the table's products G H and
    # their comparisons run on integers
    d = space.dim
    cleared = [_flat(g) for g in group]
    rows = [[G[i:i + d] for i in range(0, d * d, d)] for G, _ in cleared]
    columns = [[G[j::d] for j in range(d)] for G, _ in cleared]
    e = first_close_row(tuple(int(i == j) for i in range(d)
                              for j in range(d)), ONE, cleared, eps)
    if e is None:
        raise InvalidInputError("group lacks an identity element")
    table = [[first_close_row(_times(rs, cols), s * t, cleared, eps)
              for (_, t), cols in zip(cleared, columns)]
             for (_, s), rs in zip(cleared, rows)]
    if any(None in row for row in table):
        raise InvalidInputError("group is not closed under composition")
    if table[e] != list(range(len(group))):
        raise InvalidInputError("group has a repeated element")
    if any(e not in row for row in table):
        raise InvalidInputError("group element is singular")
    inverse_of = [row.index(e) for row in table]
    verts = space.vertices
    orbit = [matvec(g, verts[0]) for g in group]
    for v in verts:
        if not any(close(w, v, eps) for w in orbit):
            raise InvalidInputError("group does not act transitively on "
                                    "the pure states")

    # g . oh = oh . (g^-1)^t, on oh = w * OH cleared once
    if len(oh) != d or any(len(row) != d for row in oh):
        raise DimensionMismatchError("isomorphism state map must be "
                                     "dim x dim")
    OH, w = _flat(oh)
    oh_rows = [OH[i:i + d] for i in range(0, d * d, d)]
    oh_columns = [OH[j::d] for j in range(d)]
    for (_, s), rs, k in zip(cleared, rows, inverse_of):
        if not close_rows(_times(rs, oh_columns), s * w,
                          _times(oh_rows, rows[k]), w * cleared[k][1], eps):
            raise InvalidInputError("isomorphism state map is not "
                                    "group-equivariant")

    # normalize so the shared state has unit total probability
    total = dot(u, matvec(oh, u))
    if total <= eps:
        raise InvalidInputError("isomorphism state map has nonpositive "
                                "normalization")
    if total != 1:
        oh = tuple(tuple(x / total for x in row) for row in oh)
    oh_inv = order_isomorphic(oh, space.cone.dual(), space.cone, eps)
    if oh_inv is None:
        raise InvalidInputError("state map is not an order isomorphism "
                                "from the dual")

    # the outcome proofs below validate every effect on the minimal
    # composite, and the first (verify_teleportation) the shared state
    shared = BipartiteState(max_tensor(space, space), transpose(oh))

    # effect g is the transpose of (1/|G|) oh^-1 g = (v s / |G|) OHI G
    order = Fraction(1, len(group))
    OHI, v = _flat(oh_inv)
    ohi_rows = [OHI[i:i + d] for i in range(0, d * d, d)]
    effects = []
    for (_, s), cols in zip(cleared, columns):
        c = order * v * s
        n, m = c.numerator, c.denominator
        P = _times(ohi_rows, cols)
        effects.append(tuple(tuple(Fraction(n * x, m) for x in P[j::d])
                             for j in range(d)))

    total = combination((ONE,) * len(effects),
                        [tuple(x for row in F for x in row) for F in effects])
    if not close(total, product_vec(u, u), eps):
        raise InvalidInputError("effects do not sum to the unit")

    certificates = []
    for k, (g, i, F) in enumerate(zip(group, inverse_of, effects)):
        if k and order > eps and matvec(transpose(g), u) == u:
            cert = _derived_outcome(space, g, group[i], F, order, tol, eps)
        else:
            cert = verify_teleportation(F, shared, tol)
        if not cert.verdict:
            raise InvalidInputError("an outcome fails teleportation "
                                    "verification")
        if not close(cert.constant, order, eps):
            raise InvalidInputError("an outcome has the wrong "
                                    "proportionality constant")
        if not close(cert.correction.matrix, group[i], eps):
            raise InvalidInputError("an outcome's correction is not the "
                                    "inverse group element")
        certificates.append(cert)

    return TeleportationScheme(
        space=space, group=group, omega=shared, effects=tuple(effects),
        certificates=tuple(certificates), constant=order)


def _derived_outcome(space: StateSpace, g: Mat, g_inv: Mat, F: Mat, order,
                     tol, eps) -> TeleportationCertificate:
    """verify_teleportation's certificate for outcome g when g^t u = u
    exactly and 1/|G| > eps: oh . oh^-1 = I exactly, so mu = g/|G|, J = g
    (proved positive) and u - (g^-1)^t u = 0. At eps = 0 the correction
    is the table's g^-1, exact and proved positive; at eps > 0 g is
    inverted and the inverse tested. At eps = 0 the effect is proved
    too: g and oh^-1 are exactly positive, so each F_h^t = oh^-1 h / |G|
    maps the cone into its dual, and the effects sum exactly to u (x) u,
    so u (x) u - F = sum of the other F_h is as well. At eps > 0
    eps-positive maps need not compose to an eps-positive product, so
    the effect is checked as verify_teleportation checks it."""
    if eps and not effect_on_min(space, space, F, tol):
        raise InvalidInputError("f is not an effect on the minimal composite")
    mu = tuple(tuple(x * order for x in row) for row in g)
    inv = inverse(g) if eps else g_inv
    if inv is None or eps and not maps_into(inv, space.cone, space.cone, eps):
        return _fail(space, mu, order, f_hat(F))
    return TeleportationCertificate(
        mu=LinearMapRep(space, space, mu), constant=order,
        correction=LinearMapRep(space, space, inv), verdict=True,
        duality_witness=f_hat(F))


def verify_compression_witness(a1: StateSpace, a2: StateSpace, p_coords,
                               tol=None) -> bool:
    """Whether P: A2* -> A1 exhibits A1 as a compression's range.

    P must be positive from the dual cone of A2 onto all of A1 (full
    rank), and must admit a positive section i (cone A1 -> dual A2)
    with P . i = id; then i . P is a positive idempotent on A2* whose
    range order is A1's. The section is found by one feasibility LP.
    """
    P = mat(p_coords)
    if len(P) != a1.dim or any(len(r) != a2.dim for r in P):
        raise DimensionMismatchError("witness must map dual A2 coords to A1")
    if a1.kind != "polyhedral" or a2.kind != "polyhedral":
        raise UnsupportedConeError("compression witness needs polyhedral "
                                   "spaces")
    eps = tolerance_for(tol, a1, a2)
    if not maps_into(P, a2.cone.dual(), a1.cone, eps):
        return False
    if rank(P) != a1.dim:
        return False

    # Section entry S[k][m] is split into +/- columns: its part of
    # (P S)[:, m] = e_m, then its part of h(S g) for every positivity
    # pair (g, h); a -1 slack column per pair keeps each h(S g) >= 0.
    d1, d2 = a1.dim, a2.dim
    duals = a2.cone.generators
    pairs = [(g, h) for g in a1.cone.generators for h in duals]
    entries = [tuple(P[i][k] if j == m else ZERO
                     for i in range(d1) for j in range(d1))
               + tuple(h[k] * g[m] for g, h in pairs)
               for k in range(d2) for m in range(d1)]
    height = d1 * d1 + len(pairs)
    slacks = [unit_vec(height, d1 * d1 + s) for s in range(len(pairs))]
    columns = entries + [tuple(-x for x in c) for c in entries + slacks]
    target = tuple(ONE if i == j else ZERO
                   for i in range(d1) for j in range(d1)) \
        + (ZERO,) * len(pairs)
    x, _ = feasible_point(columns, target, eps)
    return x is not None
