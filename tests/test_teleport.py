from fractions import Fraction

import pytest

import gptkit.protocols.teleport
import gptkit.spaces

from gptkit.composites import (BipartiteState, max_tensor, min_tensor,
                               remote_evaluate)
from gptkit.errors import (DimensionMismatchError, InvalidInputError,
                           ToolkitError, UnsupportedConeError)
from gptkit.linalg import (dot, identity, inverse, mat, matmul, matvec,
                           transpose)
from gptkit.models import (entangled_state_coords, make_ball, make_classical,
                           make_polygon, make_squit, parse_model_name,
                           symmetry_group)
from gptkit.protocols import (construct_deterministic_teleportation,
                              verify_compression_witness,
                              verify_correction_free, verify_teleportation)
from gptkit.scalars import close, tolerance_for
from gptkit.spaces import (Effect, LinearMapRep, Observable, StateSpace,
                           is_positive_map, order_isomorphic,
                           verify_self_duality_witness)

F = Fraction


def classical_pair(n):
    cl = make_classical(n)
    q = F(1, n)
    eye = tuple(tuple(q if i == j else F(0) for j in range(n))
                for i in range(n))
    return cl, eye, BipartiteState(max_tensor(cl, cl), eye)


ROT90 = ((0, -1, 0), (1, 0, 0), (0, 0, 1))


@pytest.mark.parametrize("element, message", [
    (((0, 0, 0), (0, 0, 0), (0, 0, 1)), "group element is singular"),
    (((1, 0, 0), (0, 1, 0), (0, 0, 2)), "does not preserve the order unit"),
    (((2, 0, 0), (0, 1, 0), (0, 0, 1)), "group element is not a positive map"),
])
def test_construct_rejects_a_bad_group_element(element, message):
    with pytest.raises(InvalidInputError, match=message):
        construct_deterministic_teleportation(make_squit(),
                                              (identity(3), element))


def test_verify_inverts_j_once(monkeypatch):
    # The order-isomorphism test inverts J and hands the inverse back as
    # the correction; nothing inverts J a second time.
    sq = make_squit()
    scheme = construct_deterministic_teleportation(sq)
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return inverse(matrix)
    monkeypatch.setattr(gptkit.spaces, "inverse", counted)
    cert = verify_teleportation(sq, sq, scheme.effects[1], scheme.omega)
    assert cert.verdict and cert.correction.matrix == scheme.certificates[
        1].correction.matrix
    assert len(calls) == 1


def test_construct_rejects_a_group_that_is_not_transitive():
    # {I, a reflection} is a group, but it moves (1, 1, 1) only to (1, -1, 1)
    flip = ((1, 0, 0), (0, -1, 0), (0, 0, 1))
    with pytest.raises(InvalidInputError, match="does not act transitively"):
        construct_deterministic_teleportation(make_squit(),
                                              (identity(3), mat(flip)))


def test_construct_rejects_a_group_that_is_not_closed():
    with pytest.raises(InvalidInputError,
                       match="not closed under composition"):
        construct_deterministic_teleportation(make_squit(),
                                              (identity(3), mat(ROT90)))


def test_construct_rejects_a_group_without_identity():
    with pytest.raises(InvalidInputError, match="lacks an identity element"):
        construct_deterministic_teleportation(make_squit(), (ROT90,))


def test_construct_rejects_a_state_map_without_normalization():
    with pytest.raises(InvalidInputError, match="nonpositive normalization"):
        construct_deterministic_teleportation(
            make_squit(), omega_hat_matrix=((1, -1, 0), (1, 1, 0), (0, 0, 0)))


def test_construct_rescales_the_state_map():
    sq = make_squit()
    default = construct_deterministic_teleportation(sq)
    doubled = tuple(tuple(2 * x for x in row)
                    for row in mat(((1, -1, 0), (1, 1, 0), (0, 0, 1))))
    scheme = construct_deterministic_teleportation(
        sq, omega_hat_matrix=doubled)
    assert scheme.effects == default.effects
    assert scheme.omega.coords == default.omega.coords


def test_classical_equality_effect_teleports():
    cl, eff, omega = classical_pair(3)
    cert = verify_teleportation(cl, cl, eff, omega)
    assert cert.verdict
    assert cert.constant == F(1, 9)
    assert cert.mu.matrix == tuple(
        tuple(F(1, 9) if i == j else F(0) for j in range(3))
        for i in range(3))
    assert cert.correction.matrix == identity(3)
    assert verify_correction_free(cl, cl, eff, omega)


def test_correction_free_needs_a_teleporting_pair():
    # the product effect u (x) e_0 learns nothing of the input state,
    # so mu has rank one and the pair does not teleport at all
    cl, _, omega = classical_pair(2)
    eff = ((1, 0), (1, 0))
    assert not verify_teleportation(cl, cl, eff, omega).verdict
    assert not verify_correction_free(cl, cl, eff, omega)


def test_non_effect_is_an_error_not_a_verdict():
    cl, eff, omega = classical_pair(2)
    oversized = tuple(tuple(9 * x for x in row) for row in eff)
    with pytest.raises(InvalidInputError):
        verify_teleportation(cl, cl, oversized, omega)


def test_shared_state_must_sit_on_max_composite():
    cl, eff, _ = classical_pair(2)
    wrong = BipartiteState(min_tensor(cl, cl),
                           ((F(1, 2), F(0)), (F(0), F(1, 2))))
    with pytest.raises(InvalidInputError):
        verify_teleportation(cl, cl, eff, wrong)


def test_shared_state_must_be_normalized():
    cl, eff, _ = classical_pair(2)
    too_big = BipartiteState(max_tensor(cl, cl),
                             ((F(1), F(0)), (F(0), F(1))))
    with pytest.raises(InvalidInputError):
        verify_teleportation(cl, cl, eff, too_big)


def test_factor_shape_mismatch():
    cl, eff, omega = classical_pair(2)
    with pytest.raises(DimensionMismatchError):
        verify_teleportation(make_classical(3), cl, eff, omega)


def test_shared_state_factors_must_be_the_models():
    sq = make_squit()
    effect = construct_deterministic_teleportation(sq).effects[0]
    # same dims, but a correlated state of max(classical:3, classical:3),
    # which is not even normalized on max(squit, squit)
    _, _, other = classical_pair(3)
    with pytest.raises(InvalidInputError, match="factors"):
        verify_teleportation(sq, sq, effect, other)
    # separately built copies of the models are the same factors
    coords = entangled_state_coords(sq)
    omega = BipartiteState(max_tensor(make_squit(), make_squit()), coords)
    assert verify_teleportation(sq, sq, effect, omega).verdict


def test_unparsable_model_size_is_unsupported():
    sq = make_squit()
    # a size that is no integer, or one the model's maker refuses
    for name in ("polygon:x", "polygon:0", "polygon:2", "classical:0"):
        named = StateSpace(sq.cone, sq.unit, name=name)
        for call in (symmetry_group, entangled_state_coords,
                     construct_deterministic_teleportation):
            with pytest.raises(UnsupportedConeError):
                call(named)


def test_product_effect_gives_singular_mu():
    sq = make_squit()
    scheme = construct_deterministic_teleportation(sq)
    u = sq.unit
    prod = tuple(tuple(F(1, 4) * ua * ub for ub in u) for ua in u)
    cert = verify_teleportation(sq, sq, prod, scheme.omega)
    assert not cert.verdict
    assert cert.correction is None
    assert inverse(cert.mu.matrix) is None


def test_squit_scheme_frozen():
    sq = make_squit()
    scheme = construct_deterministic_teleportation(sq)
    assert len(scheme.effects) == 4
    assert scheme.constant == F(1, 4)
    E = F(1, 8)
    assert scheme.effects[0] == ((E, -E, 0), (E, E, 0), (0, 0, 2 * E))
    total = tuple(
        tuple(sum(eff[i][j] for eff in scheme.effects) for j in range(3))
        for i in range(3))
    assert total == ((0, 0, 0), (0, 0, 0), (0, 0, 1))  # u x u exactly
    group = symmetry_group(sq)
    for cert, g in zip(scheme.certificates, group):
        assert cert.verdict
        assert cert.constant == F(1, 4)
        assert cert.correction.matrix == inverse(g)
    assert verify_correction_free(sq, sq, scheme.effects[0], scheme.omega)
    assert not verify_correction_free(sq, sq, scheme.effects[1], scheme.omega)


def test_scheme_observable_and_state_are_valid():
    sq = make_squit()
    scheme = construct_deterministic_teleportation(sq)
    scheme.omega.validate()
    assert len(scheme.observable.effects) == 4
    assert scheme.observable.space.tensor == "min"


def test_polygon_schemes_within_tolerance():
    for n in (3, 6):
        pn = make_polygon(n)
        scheme = construct_deterministic_teleportation(pn)
        assert len(scheme.certificates) == n
        assert all(c.verdict for c in scheme.certificates)


def test_classical_scheme_recovers_cyclic_protocol():
    cl = make_classical(3)
    scheme = construct_deterministic_teleportation(cl)
    assert scheme.constant == F(1, 3)
    assert all(c.verdict for c in scheme.certificates)
    # identity outcome carries the bare equality effect, sum_i e_i x e_i
    assert scheme.effects[0] == identity(3)
    assert scheme.certificates[0].mu.matrix == tuple(
        tuple(F(1, 3) if i == j else F(0) for j in range(3))
        for i in range(3))


def test_self_duality_witnesses_from_same_system_runs():
    sq = make_squit()
    scheme = construct_deterministic_teleportation(sq)
    for cert in scheme.certificates:
        assert verify_self_duality_witness(sq, cert.duality_witness)
    cl, eff, omega = classical_pair(3)
    cert = verify_teleportation(cl, cl, eff, omega)
    assert verify_self_duality_witness(cl, cert.duality_witness)


def test_snake_consistency():
    # correction-free implies the far half reproduces the input state
    sq = make_squit()
    scheme = construct_deterministic_teleportation(sq)
    for alpha in sq.vertices:
        out = remote_evaluate(alpha, scheme.omega, scheme.effects[0])
        assert out == tuple(F(1, 4) * x for x in alpha)


def test_bad_group_inputs():
    sq = make_squit()
    rot = mat(((0, -1, 0), (1, 0, 0), (0, 0, 1)))
    with pytest.raises(InvalidInputError):
        construct_deterministic_teleportation(sq, group=(identity(3), rot))
    with pytest.raises(InvalidInputError):
        construct_deterministic_teleportation(sq, group=(identity(3),))
    with pytest.raises(InvalidInputError):
        construct_deterministic_teleportation(sq, group=())


def test_non_equivariant_state_map_rejected():
    sq = make_squit()
    skew = mat(((1, -1, 0), (2, 2, 0), (0, 0, 1)))
    with pytest.raises(InvalidInputError):
        construct_deterministic_teleportation(sq, omega_hat_matrix=skew)


def test_singular_state_map_rejected():
    # equivariant under the square's group and normalized, but singular
    flat = mat(((0, 0, 0), (0, 0, 0), (0, 0, 1)))
    with pytest.raises(InvalidInputError):
        construct_deterministic_teleportation(make_squit(),
                                              omega_hat_matrix=flat)


def test_compression_witness_squit():
    sq = make_squit()
    iso = mat(((1, -1, 0), (1, 1, 0), (0, 0, 1)))  # dual gens onto vertices
    assert verify_compression_witness(sq, sq, iso)
    zero = tuple(tuple(F(0) for _ in range(3)) for _ in range(3))
    assert not verify_compression_witness(sq, sq, zero)
    rank_one = tuple(tuple(F(1) if i == 2 and j == 2 else F(0)
                           for j in range(3)) for i in range(3))
    assert not verify_compression_witness(sq, sq, rank_one)


def test_compression_witness_must_be_positive():
    # -I has full rank; only positivity refuses it
    sq = make_squit()
    minus = tuple(tuple(-x for x in row) for row in identity(3))
    assert not verify_compression_witness(sq, sq, minus)


def test_compression_witness_shape_and_kind_errors():
    sq = make_squit()
    with pytest.raises(DimensionMismatchError):
        verify_compression_witness(sq, make_classical(2), identity(3))
    with pytest.raises(UnsupportedConeError):
        verify_compression_witness(make_ball(2), make_ball(2), identity(3))


# Reference construction: the group proved in three passes, each element
# inverted on its own, then the identity scan and the |G|^2 closure scan.
# The construction under test reads all of this off one product table.
def reference_construct(space, group=None):
    if group is None:
        group = symmetry_group(space)
    group = tuple(mat(g) for g in group)
    if not group:
        raise InvalidInputError("symmetry group is empty")
    oh = transpose(mat(entangled_state_coords(space)))
    eps = tolerance_for(None, space)
    u = space.unit
    ident = identity(space.dim)
    inverses = []
    for g in group:
        gi = inverse(g)
        if gi is None:
            raise InvalidInputError("group element is singular")
        if not close(matvec(transpose(g), u), u, eps):
            raise InvalidInputError("group element does not preserve the "
                                    "order unit")
        if not is_positive_map(LinearMapRep(space, space, g)):
            raise InvalidInputError("group element is not a positive map")
        inverses.append(gi)
    if not any(close(g, ident, eps) for g in group):
        raise InvalidInputError("group lacks an identity element")
    for g in group:
        for h in group:
            gh = matmul(g, h)
            if not any(close(gh, k, eps) for k in group):
                raise InvalidInputError("group is not closed under "
                                        "composition")
    orbit = [matvec(g, space.vertices[0]) for g in group]
    for v in space.vertices:
        if not any(close(w, v, eps) for w in orbit):
            raise InvalidInputError("group does not act transitively on "
                                    "the pure states")
    for g, gi in zip(group, inverses):
        if not close(matmul(g, oh), matmul(oh, transpose(gi)), eps):
            raise InvalidInputError("isomorphism state map is not "
                                    "group-equivariant")
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
    shared = BipartiteState(max_tensor(space, space), transpose(oh))
    order = F(1, len(group))
    effects = tuple(transpose(tuple(tuple(order * x for x in row)
                                    for row in matmul(oh_inv, g)))
                    for g in group)
    min_space = min_tensor(space, space)
    Observable(min_space, tuple(
        Effect(min_space, tuple(x for row in E for x in row))
        for E in effects))
    certificates = []
    for gi, E in zip(inverses, effects):
        cert = verify_teleportation(space, space, E, shared)
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
    return group, shared.coords, effects, tuple(certificates)


def outcome(construct, space, group=None):
    """What a construction gives: (group, omega coords, effects,
    certificates), or the type and message of the error it raises."""
    try:
        result = construct(space, group)
    except ToolkitError as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return result
    return (result.group, result.omega.coords, result.effects,
            result.certificates)


# The models `teleport construct` runs on in the cli-protocols benchmark.
POOL_MODELS = ("squit", "classical:2", "classical:3", "classical:5",
               "polygon:3", "polygon:5", "polygon:6", "polygon:8",
               "polygon:10", "polygon:12", "polygon:14")


@pytest.mark.parametrize("model", POOL_MODELS)
def test_construct_matches_the_reference_on_pool_models(model):
    space = parse_model_name(model)
    new = outcome(construct_deterministic_teleportation, space)
    assert new == outcome(reference_construct, space)
    assert len(new) == 4  # a scheme, not an error


SINGULAR = ((0, 0, 0), (0, 0, 0), (0, 0, 1))  # idempotent, unit-preserving
FLIP = ((1, 0, 0), (0, -1, 0), (0, 0, 1))
SQUIT_GROUP = symmetry_group(make_squit())
PENTAGON_GROUP = symmetry_group(make_polygon(5))  # g^5 = I only within eps
REPEATED = "group has a repeated element"


def nudged(group):
    """Every element but the identity moved by 1e-12 in one entry, so
    products, inverses and positivity hold only within eps."""
    return group[:1] + tuple(((g[0][0] + F(1, 10 ** 12),) + g[0][1:],)
                             + g[1:] for g in group[1:])


@pytest.mark.parametrize("model, group, message", [
    ("squit", (ROT90,), "group lacks an identity element"),
    ("squit", SQUIT_GROUP[1:], "group lacks an identity element"),
    ("squit", (identity(3), ROT90), "group is not closed under composition"),
    ("squit", (identity(3), SINGULAR), "group element is singular"),
    ("squit", (identity(3), FLIP),
     "group does not act transitively on the pure states"),
    ("squit", SQUIT_GROUP + SQUIT_GROUP[:1], REPEATED),
    ("squit", SQUIT_GROUP[:1] + SQUIT_GROUP, REPEATED),
    ("squit", SQUIT_GROUP + SQUIT_GROUP[1:2], REPEATED),
    ("polygon:5", PENTAGON_GROUP, None),
    ("polygon:5", nudged(PENTAGON_GROUP), None),
], ids=["no-identity", "no-identity-rotations", "not-closed", "singular",
        "not-transitive", "duplicate-identity-last",
        "duplicate-identity-first", "duplicate-rotation", "float-group",
        "closed-within-eps"])
def test_construct_matches_the_reference_on_broken_groups(monkeypatch, model,
                                                          group, message):
    space = parse_model_name(model)
    if message == REPEATED:
        # the reference only fails once the effects are summed; the
        # product table refuses before either tensor is built
        assert outcome(reference_construct, space, group) == (
            InvalidInputError, "effects do not sum to the unit")

        def unbuilt(*args):
            raise AssertionError("a tensor was built")
        for name in ("max_tensor", "min_tensor"):
            monkeypatch.setattr(gptkit.protocols.teleport, name, unbuilt)
    new = outcome(construct_deterministic_teleportation, space, group)
    if message != REPEATED:
        assert new == outcome(reference_construct, space, group)
    if message is None:
        assert len(new) == 4  # a scheme, not an error
    else:
        assert new == (InvalidInputError, message)


@pytest.mark.parametrize("group, old, new", [
    ((SINGULAR,), "group element is singular", "lacks an identity element"),
    ((identity(3), ((0,) * 3,) * 3), "group element is singular",
     "does not preserve the order unit"),
], ids=["singular-without-identity", "zero-map"])
def test_multi_fault_groups_report_another_first_fault(group, old, new):
    # a singular element is now named only after the unit, positivity,
    # identity and closure checks pass
    sq = make_squit()
    assert outcome(reference_construct, sq, group)[1] == old
    assert new in outcome(construct_deterministic_teleportation, sq, group)[1]


@pytest.mark.parametrize("model, count", [("squit", 5), ("polygon:14", 15)])
def test_construct_inverts_each_element_once(monkeypatch, model, count):
    # one inverse per outcome inside verify_teleportation, plus the state
    # map's; group inverses come from the product table
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return inverse(matrix)
    for module in (gptkit.spaces, gptkit.protocols.teleport):
        if hasattr(module, "inverse"):
            monkeypatch.setattr(module, "inverse", counted)
    construct_deterministic_teleportation(parse_model_name(model))
    assert len(calls) == count
