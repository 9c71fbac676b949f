import json
import math
import sys
from fractions import Fraction

import pytest

import gptkit.cli
import gptkit.cones
import gptkit.linalg
import gptkit.protocols.teleport
import gptkit.scalars
import gptkit.spaces

from gptkit.composites import (BipartiteState, CompositeSpace, max_tensor,
                               min_tensor, remote_evaluate)
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
from gptkit.scalars import FLOAT, close, exactify, tolerance_for
from gptkit.spaces import (Effect, LinearMapRep, Observable, StateSpace,
                           is_positive_map, order_isomorphic,
                           verify_self_duality_witness)
from test_cones import held_as_rows
from test_scalars import reference_emits_exactly

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
    cert = verify_teleportation(scheme.effects[1], scheme.omega)
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


@pytest.mark.parametrize("name", ["squit", "polygon:5"])
def test_shared_state_leaves_its_sides_unmade(name, monkeypatch):
    # the shared state is tested on the max tensor's facet rows: they stay
    # rows, and no double description makes its generators
    monkeypatch.setattr(gptkit.cones, "enumerate_rays", None)
    scheme = construct_deterministic_teleportation(parse_model_name(name))
    cone = scheme.omega.composite.cone
    assert cone.has_facets() and not cone.has_generators()
    assert held_as_rows(cone)


def test_classical_equality_effect_teleports():
    cl, eff, omega = classical_pair(3)
    cert = verify_teleportation(eff, omega)
    assert cert.verdict
    assert cert.constant == F(1, 9)
    assert cert.mu.matrix == tuple(
        tuple(F(1, 9) if i == j else F(0) for j in range(3))
        for i in range(3))
    assert cert.correction.matrix == identity(3)
    assert verify_correction_free(eff, omega)


def test_correction_free_needs_a_teleporting_pair():
    # the product effect u (x) e_0 learns nothing of the input state,
    # so mu has rank one and the pair does not teleport at all
    cl, _, omega = classical_pair(2)
    eff = ((1, 0), (1, 0))
    assert not verify_teleportation(eff, omega).verdict
    assert not verify_correction_free(eff, omega)


def test_non_effect_is_an_error_not_a_verdict():
    cl, eff, omega = classical_pair(2)
    oversized = tuple(tuple(9 * x for x in row) for row in eff)
    with pytest.raises(InvalidInputError):
        verify_teleportation(oversized, omega)


def test_shared_state_must_sit_on_max_composite():
    cl, eff, _ = classical_pair(2)
    wrong = BipartiteState(min_tensor(cl, cl),
                           ((F(1, 2), F(0)), (F(0), F(1, 2))))
    with pytest.raises(InvalidInputError):
        verify_teleportation(eff, wrong)


def test_shared_state_must_be_normalized():
    cl, eff, _ = classical_pair(2)
    too_big = BipartiteState(max_tensor(cl, cl),
                             ((F(1), F(0)), (F(0), F(1))))
    with pytest.raises(InvalidInputError):
        verify_teleportation(eff, too_big)


def test_separately_built_models_are_the_same_factors():
    sq = make_squit()
    effect = construct_deterministic_teleportation(sq).effects[0]
    coords = entangled_state_coords(sq)
    omega = BipartiteState(max_tensor(make_squit(), make_squit()), coords)
    assert verify_teleportation(effect, omega).verdict


def test_the_shared_state_names_both_systems():
    # omega on max(classical:2, squit) names B = classical:2 and A = squit,
    # so an effect is a 3 x 2 matrix and mu acts on squit
    sq, cl = make_squit(), make_classical(2)
    omega = BipartiteState(max_tensor(cl, sq), tuple(
        tuple(x / 2 for x in v) for v in sq.vertices[:2]))
    half_unit = ((0, 0), (0, 0), (F(1, 2), F(1, 2)))  # (u_A x u_B) / 2
    cert = verify_teleportation(half_unit, omega)
    assert cert.mu.domain is sq and not cert.verdict
    with pytest.raises(DimensionMismatchError):
        verify_teleportation(identity(3), omega)


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
    cert = verify_teleportation(prod, scheme.omega)
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
    assert verify_correction_free(scheme.effects[0], scheme.omega)
    assert not verify_correction_free(scheme.effects[1], scheme.omega)


def test_scheme_observable_and_state_are_valid():
    sq = make_squit()
    scheme = construct_deterministic_teleportation(sq)
    scheme.omega.validate()
    min_space = min_tensor(sq, sq)
    observable = Observable(min_space, tuple(
        Effect(min_space, tuple(x for row in E for x in row))
        for E in scheme.effects))
    assert len(observable.effects) == 4


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
    cert = verify_teleportation(eff, omega)
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
        cert = verify_teleportation(E, shared)
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
    # the effects sum to u x u
    effects, d = new[2], space.dim
    total = tuple(tuple(sum(E[i][j] for E in effects) for j in range(d))
                  for i in range(d))
    unit = tuple(tuple(a * b for b in space.unit) for a in space.unit)
    if space.arithmetic == FLOAT:
        assert close(total, unit, tolerance_for(None, space))
    else:
        assert total == unit


@pytest.mark.parametrize("model", ("squit", "polygon:5"))
def test_construction_builds_no_min_tensor(monkeypatch, model):
    # the effects' sum is checked on their coordinates, and the shared
    # state lives on the max tensor: no separable composite is needed
    space = parse_model_name(model)
    rules = []
    init = CompositeSpace.__init__

    def recording(self, cone, unit, a, b, tensor, name=None):
        rules.append(tensor)
        init(self, cone, unit, a, b, tensor, name)
    monkeypatch.setattr(CompositeSpace, "__init__", recording)
    construct_deterministic_teleportation(space)
    assert set(rules) == {"max"}


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
        # product table refuses before the shared state's tensor is built
        assert outcome(reference_construct, space, group) == (
            InvalidInputError, "effects do not sum to the unit")

        def unbuilt(*args):
            raise AssertionError("a tensor was built")
        monkeypatch.setattr(gptkit.protocols.teleport, "max_tensor", unbuilt)
    new = outcome(construct_deterministic_teleportation, space, group)
    if message != REPEATED:
        assert new == outcome(reference_construct, space, group)
    if message is None:
        assert len(new) == 4  # a scheme, not an error
    else:
        assert new == (InvalidInputError, message)


def shrunk(group, k, delta):
    """Element k with its rotation rows scaled by 1 - delta: each entry
    moves by at most delta, and the pentagon maps into itself."""
    g = group[k]
    moved = tuple(tuple(x * (1 - delta) for x in row) for row in g[:2])
    return group[:k] + (moved + g[2:],) + group[k + 1:]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("times, message", [
    (F(1, 2), None), (F(3), "group is not closed under composition")])
def test_float_group_element_near_miss(k, times, message):
    # the product table compares within eps on integer rows: an element
    # moved by eps/2 still matches, one moved by 3 eps leaves a product
    # of it with no element within eps
    space = make_polygon(5)
    eps = tolerance_for(None, space)
    group = shrunk(PENTAGON_GROUP, k, times * eps)
    new = outcome(construct_deterministic_teleportation, space, group)
    assert new == outcome(reference_construct, space, group)
    if message is None:
        assert len(new) == 4 and new[0] == group
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


@pytest.mark.parametrize("model, count", [("squit", 2), ("polygon:14", 15)])
def test_construct_inverts_each_element_once(monkeypatch, model, count):
    # the state map's inverse and the first outcome's J^-1; at eps > 0
    # each later outcome inverts its element too (polygon:14), at eps = 0
    # its correction is the product table's inverse element (squit)
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return inverse(matrix)
    for module in (gptkit.spaces, gptkit.protocols.teleport):
        if hasattr(module, "inverse"):
            monkeypatch.setattr(module, "inverse", counted)
    construct_deterministic_teleportation(parse_model_name(model))
    assert len(calls) == count


def count_calls(monkeypatch, functions):
    """Count the calls of each function named in functions (a module ->
    names map), wrapped in every gptkit module that binds it."""
    counts = {}
    for module, names in functions.items():
        for name in names:
            original = getattr(module, name)
            counts[name] = 0

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.startswith("gptkit") and \
                        vars(loaded).get(name) is original:
                    monkeypatch.setattr(loaded, name, counted)
    return counts


@pytest.mark.parametrize("model, maps_into, close_rows", [
    ("squit", 16, 25), ("polygon:14", 59, 300)])
def test_construct_proves_each_group_fact_once(monkeypatch, model,
                                               maps_into, close_rows):
    # maps_into: |G| group elements, the state map and its inverse, two
    # effect halves per outcome, J and J^-1 for the first outcome, and
    # for each later one (whose J is exactly its group element, proved
    # already) its inverse only at eps > 0: at eps = 0 (squit) that is
    # the product table's inverse element, proved already too;
    # matmul: the first outcome's mu, the later ones' being exactly
    # g/|G|; the product table tries close_rows only on a matching first
    # entry
    counts = count_calls(monkeypatch, {
        gptkit.cones: ["maps_into"], gptkit.linalg: ["matmul", "inverse"],
        gptkit.scalars: ["close_rows"]})
    space = parse_model_name(model)
    order = len(construct_deterministic_teleportation(space).group)
    exact = not tolerance_for(None, space)
    assert counts["maps_into"] == maps_into == \
        (3 * order + 4 if exact else 4 * order + 3)
    assert counts["matmul"] == 1
    assert counts["inverse"] == (2 if exact else order + 1)
    assert counts["close_rows"] <= close_rows


def power_group(n):
    """A float n-gon's rotations as exact powers of its float step, the
    reference the angle-built group replaces."""
    c, s = (exactify(f(2 * math.pi / n)) for f in (math.cos, math.sin))
    step = mat(((c, -s, 0), (s, c, 0), (0, 0, 1)))
    out = [identity(3)]
    for _ in range(n - 1):
        out.append(matmul(step, out[-1]))
    return tuple(out)


def denominator_bits(group):
    return max(x.denominator.bit_length() for g in group for row in g
               for x in row)


@pytest.mark.parametrize("n", [n for n in range(3, 31) if n != 4])
def test_float_polygon_rotations_are_built_from_their_angles(n):
    space = make_polygon(n)
    group = symmetry_group(space)
    assert len(group) == n and group[0] == identity(3)
    # rotation k takes vertex 0 to vertex k exactly, and the report's
    # floats read back as the very matrices that were checked
    assert [matvec(g, space.vertices[0]) for g in group] == list(
        space.vertices)
    assert reference_emits_exactly(group, FLOAT)
    assert denominator_bits(group) <= 107
    scheme = construct_deterministic_teleportation(space)
    assert scheme.constant == F(1, n)
    assert all(c.verdict and c.constant == F(1, n)
               for c in scheme.certificates)


def report_floats_apart(new, old):
    """The largest gap between two reports' floats; every other value
    (verdicts included) and the shapes must be equal."""
    if isinstance(new, dict):
        assert new.keys() == old.keys()
        return max(report_floats_apart(new[k], old[k]) for k in new)
    if isinstance(new, list):
        assert len(new) == len(old)
        return max((report_floats_apart(x, y) for x, y in zip(new, old)),
                   default=0)
    if isinstance(new, float):
        return abs(new - old)
    assert new == old
    return 0


@pytest.mark.parametrize("n", [3, 5, 6, 8, 10, 12, 14])
def test_angle_built_group_moves_reports_by_float_rounding(monkeypatch,
                                                           tmp_path, n):
    # the pool's float n-gons: against the power-of-step group, every
    # verdict and constant of `teleport construct` stays and every other
    # entry moves by float rounding only
    def report():
        out = tmp_path / "report.json"
        argv = ["teleport", "construct", "--model", f"polygon:{n}"]
        assert gptkit.cli.main(argv + ["--out", str(out)]) == 0
        return json.loads(out.read_text())
    new = report()
    monkeypatch.setattr(gptkit.cli, "symmetry_group",
                        lambda space: power_group(n))
    old = report()
    assert report_floats_apart(new, old) <= 1e-12
    assert denominator_bits(power_group(n)) > 107 or n == 3


# -- outcomes after the first, derived from the group's identities ------------


TELEPORT_MODELS = (["squit"] + [f"classical:{n}" for n in range(2, 7)]
                   + [f"polygon:{n}" for n in range(3, 17)])


def derived_outcomes(monkeypatch, space, group=None, tol=None):
    """The scheme, and the group elements whose outcome was derived."""
    derived = []
    inner = gptkit.protocols.teleport._derived_outcome

    def counted(space, g, *args):
        derived.append(g)
        return inner(space, g, *args)
    with monkeypatch.context() as patch:
        patch.setattr(gptkit.protocols.teleport, "_derived_outcome", counted)
        scheme = construct_deterministic_teleportation(space, group, tol=tol)
    return scheme, derived


@pytest.mark.parametrize("tol", [None, 1e-6], ids=["default", "1e-6"])
@pytest.mark.parametrize("model", TELEPORT_MODELS)
def test_derived_outcomes_are_verify_teleportations(monkeypatch, model, tol):
    # every element fixes u exactly, so each outcome after the first is
    # derived, and its certificate is verify_teleportation's field by
    # field (the spaces are the very objects verify reads off omega)
    scheme, derived = derived_outcomes(monkeypatch, parse_model_name(model),
                                       tol=tol)
    assert derived == list(scheme.group[1:])
    for effect, cert in zip(scheme.effects, scheme.certificates):
        want = verify_teleportation(effect, scheme.omega, tol)
        assert cert.verdict and want.verdict
        for got, exact in ((cert.mu, want.mu),
                           (cert.correction, want.correction)):
            assert got.domain is exact.domain
            assert got.codomain is exact.codomain
            assert got.matrix == exact.matrix
        assert cert.constant == want.constant
        assert cert.duality_witness == want.duality_witness
        assert cert == want


def test_an_element_fixing_u_within_eps_only_is_verified(monkeypatch):
    # pentagon rotation 2 with its last row moved by eps/4: g^t u != u,
    # so its outcome goes through verify_teleportation
    space = make_polygon(5)
    eps = tolerance_for(None, space)
    g = PENTAGON_GROUP[2]
    lifted = g[:2] + ((eps / 4,) + g[2][1:],)
    group = PENTAGON_GROUP[:2] + (lifted,) + PENTAGON_GROUP[3:]
    scheme, derived = derived_outcomes(monkeypatch, space, group)
    assert derived == [group[k] for k in (1, 3, 4)]
    assert scheme.certificates[2] == \
        verify_teleportation(scheme.effects[2], scheme.omega)


def test_derived_outcome_tests_the_inverse_at_a_positive_eps(monkeypatch):
    # at eps > 0 each derived outcome inverts its element and tests the
    # inverse's positivity, and a failed test fails the outcome as verify
    # does; at eps = 0 the table's inverse element needs no test
    monkeypatch.setattr(gptkit.protocols.teleport, "maps_into",
                        lambda *args: False)
    with pytest.raises(InvalidInputError, match="an outcome fails "
                       "teleportation verification"):
        construct_deterministic_teleportation(make_polygon(5))
    assert construct_deterministic_teleportation(make_squit()).certificates
