from fractions import Fraction

import pytest

import gptkit.spaces

from gptkit.composites import (BipartiteState, max_tensor, min_tensor,
                               remote_evaluate)
from gptkit.errors import (DimensionMismatchError, InvalidInputError,
                           UnsupportedConeError)
from gptkit.linalg import identity, inverse, mat, matvec
from gptkit.models import (entangled_state_coords, make_ball, make_classical,
                           make_polygon, make_squit, symmetry_group)
from gptkit.protocols import (construct_deterministic_teleportation,
                              verify_compression_witness,
                              verify_correction_free, verify_teleportation)
from gptkit.spaces import StateSpace, verify_self_duality_witness

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


def test_compression_witness_shape_and_kind_errors():
    sq = make_squit()
    with pytest.raises(DimensionMismatchError):
        verify_compression_witness(sq, make_classical(2), identity(3))
    with pytest.raises(UnsupportedConeError):
        verify_compression_witness(make_ball(2), make_ball(2), identity(3))
