"""Conclusive and deterministic teleportation, plus compression witnesses.

A pair (f, omega) with f a joint effect on AB and omega a shared state
of BA teleports A-states iff mu = omega_hat . f_hat is proportional to
an order isomorphism; the inverse of the normalized factor is the
correction map. For a model with a transitive finite symmetry group
and an equivariant self-duality isomorphism, one observable performs
deterministic teleportation with group-element corrections. Its group
is proved by one product table on integer matrices, each element cleared
once, matched to the elements by scalars.close_rows.
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
from ..linalg import (Mat, combination, dot, identity, integer_row, mat,
                      matmul, matvec, proportion, rank, transpose, unit_vec)
from ..lp import feasible_point
from ..models import entangled_state_coords, symmetry_group
from ..scalars import close, close_rows, tolerance_for
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
    return _prove_outcome(mat(f_coords), omega, tol, state_checked=False)


def _prove_outcome(F: Mat, omega: BipartiteState, tol,
                   state_checked: bool) -> TeleportationCertificate:
    """verify_teleportation on an exact effect matrix; a shared state
    already checked (state_checked) is not validated again."""
    b_space, a_space = omega.composite.factor_a, omega.composite.factor_b
    if not effect_on_min(a_space, b_space, F, tol):
        raise InvalidInputError("f is not an effect on the minimal composite")
    eps = tolerance_for(tol, a_space, b_space)
    if not state_checked:
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


def construct_deterministic_teleportation(
        space: StateSpace, group: tuple[Mat, ...] | None = None,
        omega_hat_matrix=None, tol=None) -> TeleportationScheme:
    """Deterministic protocol from a transitive symmetry group.

    The shared state is the normalized isomorphism state built from the
    A* -> A order isomorphism; outcome g gets the effect with hat map
    (1/|G|) . omega_hat^{-1} . g. The effects sum to u x u, and every
    outcome's correction is the inverse group element. Every hypothesis
    is checked and raises on failure. One product table proves the
    group: entry (i, j) is the first element within eps of g_i . g_j.
    e's row differs from 0, 1, ..., |G|-1 exactly when an element repeats
    an earlier one, and a row without e means a singular g_i, since a
    finite closed set holding e holds every invertible element's inverse.
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

    # each element cleared once, g = s * G for an integer matrix G, so
    # the table's products G H and their comparisons run on integers
    d = space.dim
    cleared = [integer_row(tuple(x for row in g for x in row)) for g in group]
    columns = [[G[j::d] for j in range(d)] for G, _ in cleared]

    def index(ints, scale):
        return next((k for k, (G, s) in enumerate(cleared)
                     if close_rows(ints, scale, G, s, eps)), None)
    e = index(tuple(int(i == j) for i in range(d) for j in range(d)), ONE)
    if e is None:
        raise InvalidInputError("group lacks an identity element")
    table = [[index(tuple(sum(map(mul, G[i:i + d], c))
                          for i in range(0, d * d, d) for c in cols), s * t)
              for (_, t), cols in zip(cleared, columns)] for G, s in cleared]
    if any(None in row for row in table):
        raise InvalidInputError("group is not closed under composition")
    if table[e] != list(range(len(group))):
        raise InvalidInputError("group has a repeated element")
    if any(e not in row for row in table):
        raise InvalidInputError("group element is singular")
    inverses = [group[row.index(e)] for row in table]
    verts = space.vertices
    orbit = [matvec(g, verts[0]) for g in group]
    for v in verts:
        if not any(close(w, v, eps) for w in orbit):
            raise InvalidInputError("group does not act transitively on "
                                    "the pure states")

    for g, gi in zip(group, inverses):
        if not close(matmul(g, oh), matmul(oh, transpose(gi)), eps):
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

    order = Fraction(1, len(group))
    effects = []
    for g in group:
        fg_hat = matmul(oh_inv, g)
        effects.append(transpose(tuple(tuple(order * x for x in row)
                                       for row in fg_hat)))

    total = combination((ONE,) * len(effects),
                        [tuple(x for row in F for x in row) for F in effects])
    if not close(total, product_vec(u, u), eps):
        raise InvalidInputError("effects do not sum to the unit")

    certificates = []
    for k, (gi, F) in enumerate(zip(inverses, effects)):
        cert = verify_teleportation(F, shared, tol) if k == 0 else \
            _prove_outcome(F, shared, tol, state_checked=True)
        if not cert.verdict:
            raise InvalidInputError("an outcome fails teleportation "
                                    "verification")
        if not close(cert.constant, order, eps):
            raise InvalidInputError("an outcome has the wrong "
                                    "proportionality constant")
        if not close(cert.correction.matrix, gi, eps):
            raise InvalidInputError("an outcome's correction is not the "
                                    "inverse group element")
        certificates.append(cert)

    return TeleportationScheme(
        space=space, group=group, omega=shared, effects=tuple(effects),
        certificates=tuple(certificates), constant=order)


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
    pairs = [(g, h) for g in a1.cone.generators for h in a2.cone.generators]
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
