"""Release gate: eleven end-to-end checks, one verdict line each.

Run with plain pytest; the verdict lines bypass capture so they show
up in -v output too. Every check asserts, so a FAIL line comes with a
normal pytest failure attached.
"""
import random
from hashlib import sha256
from contextlib import contextmanager
from fractions import Fraction
from math import sqrt

from gptkit.cli import main
from gptkit.composites import (
    BipartiteState, check_distributive_inclusion, marginal, max_tensor,
    min_tensor, product_vec, remote_evaluate,
)
from gptkit.linalg import canonical_ray, dot, inverse, matvec, rank
from gptkit.models import direct_sum, make_classical, make_polygon, make_squit
from gptkit.protocols.bitcommit import (
    bc_cheat_bound, bc_cheat_curve, bc_run, find_double_decomposition,
)
from gptkit.protocols.cloning import build_cloner, is_broadcastable, is_clonable
from gptkit.protocols.disturbance import is_nondisturbing, nondisturbing_basis
from gptkit.protocols.teleport import (
    construct_deterministic_teleportation, verify_teleportation,
)
from gptkit.scalars import RATIONAL
from gptkit.spaces import one_shot_distinguishing_observable, verify_self_duality_witness

EPS = Fraction(1, 10 ** 9)
HALF = Fraction(1, 2)


@contextmanager
def _gate(capsys, n):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}")


def _rayset(gens):
    return {canonical_ray(g) for g in gens}


def test_criterion_01_classical_collapse(capsys):
    with _gate(capsys, 1):
        for m in (2, 3):
            for n in (2, 3):
                a, b = make_classical(m), make_classical(n)
                mn = min_tensor(a, b)
                mx = max_tensor(a, b)
                assert mn.arithmetic == RATIONAL
                assert _rayset(mn.cone.generators) == _rayset(mx.cone.generators)
                assert _rayset(mn.cone.facets) == _rayset(mx.cone.facets)


def test_criterion_02_sandwich_inclusions(capsys):
    with _gate(capsys, 2):
        pool = (make_squit(), make_polygon(3), make_polygon(5),
                make_polygon(6), make_classical(2), make_classical(3))
        rng = random.Random(20260819)
        for _ in range(20):
            a = rng.choice(pool)
            b = rng.choice(pool)
            mn = min_tensor(a, b)
            mx = max_tensor(a, b)
            eps = Fraction(0) if mn.arithmetic == RATIONAL else EPS
            assert all(dot(g, f) >= -eps
                       for g in mn.cone.generators for f in mx.cone.facets)


def _rand_cone_member(space, rng):
    gens = space.cone.generators
    out = [Fraction(0)] * space.dim
    for g in gens:
        c = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        out = [o + c * x for o, x in zip(out, g)]
    return tuple(out)


def test_criterion_03_remote_evaluation(capsys):
    with _gate(capsys, 3):
        pool = (make_squit(), make_classical(2), make_classical(3))
        rng = random.Random(314159)
        for _ in range(100):
            a = rng.choice(pool)
            b = rng.choice(pool)
            c = rng.choice(pool)
            alpha = _rand_cone_member(a, rng)
            state = BipartiteState(
                min_tensor(b, c),
                tuple(_rand_cone_member(c, rng) for _ in range(b.dim)))
            F = tuple(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in range(b.dim)) for _ in range(a.dim))
            # independent path: contract the raw triple tensor
            flat = product_vec(alpha, state.flat)
            db, dc = b.dim, c.dim
            direct = tuple(
                sum((F[i][j] * flat[i * db * dc + j * dc + k]
                     for i in range(a.dim) for j in range(db)),
                    Fraction(0))
                for k in range(dc))
            assert remote_evaluate(alpha, state, F) == direct


def _outer(u, v):
    return tuple(tuple(x * y for y in v) for x in u)


def _scheme_checks(space, exact):
    scheme = construct_deterministic_teleportation(space)
    order = len(scheme.group)
    total = [[Fraction(0)] * space.dim for _ in range(space.dim)]
    for F in scheme.effects:
        for i in range(space.dim):
            for j in range(space.dim):
                total[i][j] += F[i][j]
    want = _outer(space.unit, space.unit)
    eps = Fraction(0) if exact else EPS
    assert all(abs(total[i][j] - want[i][j]) <= eps
               for i in range(space.dim) for j in range(space.dim))
    assert len(scheme.certificates) == order
    for g, cert in zip(scheme.group, scheme.certificates):
        assert cert.verdict is True
        assert cert.constant == Fraction(1, order)
        ginv = inverse(g)
        assert all(abs(cert.correction.matrix[i][j] - ginv[i][j]) <= eps
                   for i in range(space.dim) for j in range(space.dim))
    return scheme


def test_criterion_04_teleportation_pipeline(capsys):
    with _gate(capsys, 4):
        _scheme_checks(make_squit(), exact=True)
        for n in (3, 5, 6, 8):
            _scheme_checks(make_polygon(n), exact=False)


def test_criterion_05_product_effect_negative_control(capsys):
    with _gate(capsys, 5):
        sq = make_squit()
        scheme = construct_deterministic_teleportation(sq)
        for facet in sq.cone.facets:
            ea = tuple(x / 2 for x in facet)  # facets peak at 2 on states
            F = _outer(ea, ea)
            cert = verify_teleportation(F, scheme.omega)
            assert cert.verdict is False
            assert rank(cert.mu.matrix) < sq.dim


def test_criterion_06_nondisturbing_span(capsys):
    with _gate(capsys, 6):
        cases = ((make_classical(3), 3),
                 (direct_sum(make_squit(), make_classical(1)), 2),
                 (make_polygon(5), 1))
        rng = random.Random(271828)
        for space, count in cases:
            basis = nondisturbing_basis(space)
            assert len(basis) == count
            gens = space.cone.generators
            facets = space.cone.facets
            samples = [p.matrix for p in basis]
            while len(samples) < 200:
                if rng.random() < HALF:
                    m = [[Fraction(0)] * space.dim for _ in range(space.dim)]
                    for p in basis:
                        c = Fraction(rng.randint(0, 6))
                        for i in range(space.dim):
                            for j in range(space.dim):
                                m[i][j] += c * p.matrix[i][j]
                else:
                    m = [[Fraction(0)] * space.dim for _ in range(space.dim)]
                    for _ in range(2):
                        w = _rand_cone_member(space, rng)
                        coeffs = [Fraction(rng.randint(0, 5)) for _ in facets]
                        f = tuple(
                            sum((c * row[i] for c, row in zip(coeffs, facets)),
                                Fraction(0))
                            for i in range(space.dim))
                        for i in range(space.dim):
                            for j in range(space.dim):
                                m[i][j] += w[i] * f[j]
                samples.append(tuple(tuple(r) for r in m))
            kept = [m for m in samples if is_nondisturbing(space, m)]
            rows = tuple(tuple(x for row in m for x in row) for m in kept)
            assert rank(rows) == count


def test_criterion_07_cloning_and_broadcasting(capsys):
    with _gate(capsys, 7):
        sq = make_squit()
        v = sq.vertices
        assert is_clonable(sq, (v[0], v[2]))
        report = is_broadcastable(sq, (v[0], v[2]))
        assert report.status == "broadcastable"
        assert report.witness == (v[0], v[2])
        assert not is_clonable(sq, (v[0], v[1], v[2]))
        cl3 = make_classical(3)
        assert is_clonable(cl3, cl3.vertices)
        obs = one_shot_distinguishing_observable(sq, (v[0], v[2]))
        cloner = build_cloner((v[0], v[2]), obs)
        mid = tuple(HALF * (a + b) for a, b in zip(v[0], v[2]))
        image = matvec(cloner.matrix, mid)
        state = BipartiteState(
            min_tensor(sq, sq),
            tuple(image[i * 3:(i + 1) * 3] for i in range(3)))
        assert marginal(state, "a") == mid
        assert marginal(state, "b") == mid


def test_criterion_08_bit_commitment(capsys):
    with _gate(capsys, 8):
        sq = make_squit()
        dd = find_double_decomposition(sq)
        for branch in dd.branches:
            mix = [Fraction(0)] * sq.dim
            for s, p in branch:
                mix = [m + p * x for m, x in zip(mix, s)]
            assert tuple(mix) == dd.omega  # hiding, zero tolerance
        accepted = 0
        for seed in range(5000):
            for bit in (0, 1):
                t = bc_run(dd, bit, 1, seed)
                accepted += t.verdict == "accept"
        assert accepted == 10000
        bound = bc_cheat_bound(dd)
        assert bound.per_round == Fraction(3, 4)
        trials = 20000
        for n, analytic, emp, _ in bc_cheat_curve(bound, 12, trials, 99):
            p = float(analytic)
            se = sqrt(p * (1 - p) / trials)
            assert abs(emp - p) <= 3 * se, (n, emp, p)


def test_criterion_09_distributivity(capsys):
    with _gate(capsys, 9):
        sq = make_squit()
        assert check_distributive_inclusion(sq, make_classical(2), sq)
        for dims in ((2, 2, 2), (3, 2, 2), (2, 3, 3)):
            spaces = [make_classical(d) for d in dims]
            assert check_distributive_inclusion(*spaces)


def test_criterion_10_self_duality_witnesses(capsys):
    with _gate(capsys, 10):
        models = (make_squit(), make_polygon(3), make_polygon(5),
                  make_polygon(6), make_polygon(8), make_classical(2),
                  make_classical(3))
        for space in models:
            scheme = construct_deterministic_teleportation(space)
            passing = 0
            for cert in scheme.certificates:
                if cert.verdict:
                    assert verify_self_duality_witness(
                        space, cert.duality_witness)
                    passing += 1
            assert passing == len(scheme.group)


def test_criterion_11_cli_determinism(capsys, tmp_path):
    # Each pipeline's report sha256 is pinned, so the bytes must also stay
    # the same across changes to the code; these pipelines are rational
    # only, so the digests do not depend on the platform.
    with _gate(capsys, 11):
        pipelines = (
            (("tensor", "--max", "classical:2", "classical:2",
              "--check-equals-min"),
             "c5b89ee7a2bc3e45bea9c2986d6a0d56b1e7455b35e6161e83bed0684ca9424d"),
            (("teleport", "construct", "--model", "squit", "--group", "z4"),
             "1bd5586bf7e26d6224adb4fd4f9cc99d54ec1068b56e5856e7b1f492e67bfe54"),
            (("clone", "check", "--model", "squit", "--states", "0,2"),
             "d932f93adf9f2bb27776eeccd32369d1fb1a7297395262275b075ace591d6579"),
            (("broadcast", "check", "--model", "squit", "--states", "0,2"),
             "1999669ee5407522a7c2b69ca1723e368cbb39c46c63135d5b786be3d49f2995"),
            (("disturb", "basis", "--model", "classical:3"),
             "57671ee0614f26c79eef94426a79903d0258c7effceff4b3aee80f287e4b41dd"),
            (("bitcommit", "decompose", "--model", "squit"),
             "f3472c22c3f0dc20bfde157c742363b9eb628c88b515798c5b5628c324d1d549"),
            (("bitcommit", "run", "--model", "squit", "--bit", "1",
              "--n", "8", "--seed", "77"),
             "412fcd6227c23ae899b8f2c6e0e85bdea0ed5939e514bf4620f41bc1af17b68a"),
            (("bitcommit", "bound", "--model", "squit", "--n", "5",
              "--format", "csv", "--trials", "500", "--seed", "77"),
             "599bdb20263cdcdd6e130ba3ed6d0b9aa717808c306f9b38003d4cd703125771"),
            (("teleport", "construct", "--model", "classical:3"),
             "af5aa11f32cb05143c32eca048e20f4f283f278b447d49dd094e6db0502e4f13"),
            (("disturb", "basis", "--model", "squit"),
             "b64462a45a6310c4d3c7b2b90687a78db9f9a310cfe4d312b0ddc9f5b4ea8d7b"),
            (("bitcommit", "bound", "--model", "squit", "--n", "5"),
             "171b3182f99ad37d0eb0ef717c8730317de1ff024ef6313c072891b94d451300"),
        )
        for k, (argv, digest) in enumerate(pipelines):
            out_a = tmp_path / f"a{k}"
            out_b = tmp_path / f"b{k}"
            code_a = main(list(argv) + ["--out", str(out_a)])
            code_b = main(list(argv) + ["--out", str(out_b)])
            assert code_a == code_b
            first = out_a.read_bytes()
            assert first == out_b.read_bytes()
            assert first, argv
            assert sha256(first).hexdigest() == digest, argv
