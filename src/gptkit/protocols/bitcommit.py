"""Bit commitment from a doubly decomposable state.

A non-simplicial state set admits a state with two mixture
decompositions over disjoint exposed pure sets. Committing to bit b
means sampling n pure states from branch b; the reveal hands over the
sample string, and the verifier fires each state's exposing effect.
The two branches mix to the same state, so the commitment is perfectly
hiding; the exposing effects make honest reveals accept surely, and
the optimal product-strategy cheat decays exponentially in n.

The search for the two branches reads which facets vanish on which
vertex as int dots of the cone's facet rows with its generator rows
(ConeRep.facet_rows and generator_rows; vertex j is generator j's row
r over u(r)), which exposing_effect reads too, and tries only branch
pairs of exposable points that lie on the same face: a mixture with all
weights positive is zero on exactly the facets that vanish on all of its
vertices, so two such mixtures can be equal only when those facet sets
are equal. A pair's weights come from one elimination, a cheat value
from a finite candidate set, and an exposing effect from one basis
proved optimal or else from one LP.

All randomness comes from a counter-based generator seeded explicitly;
the seed is recorded in every transcript.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, reduce
from itertools import combinations
from operator import and_, mul

import numpy as np

from ..errors import InvalidInputError, SearchCapError, UnsupportedConeError
from ..linalg import (Vec, _eliminate, combination, dot, integer_row,
                      transpose, unit_vec)
from ..lp import solve_lp
from ..scalars import close, tolerance_for
from ..spaces import StateSpace

ZERO = Fraction(0)
ONE = Fraction(1)

_VERTEX_CAP = 14  # subset search above this many extreme points is refused


def exposing_effect(space: StateSpace, index: int,
                    tol=None) -> tuple[Vec, Fraction] | None:
    """Best-margin effect taking value 1 on vertex `index` alone.

    Maximizes m subject to a(v_t) = 1 (t = index), a(v_j) >= 0 and
    a(v_j) + m <= 1 on every other vertex, m >= 0. Returns (effect,
    margin), or None when the vertex is not exposed (margin <= eps), at
    once when another listed point has phi = 0, find_double_decomposition's
    exposable rule: it lies on every facet through v_t, so the margin is 0.
    Otherwise _basis_optimum tries to prove one basis the unique optimum;
    where none proves itself, the vertex-row LP answers, so every effect
    is the one that LP picks.
    """
    if not 0 <= index < len(space.vertices):
        raise InvalidInputError(f"vertex index {index} out of range")
    eps = tolerance_for(tol, space)
    cleared, h = _phi(space, index)
    if any(not x for j, x in enumerate(h) if j != index):
        return None
    return (_basis_optimum(space, index, eps, cleared, h)
            or _vertex_row_effect(space, index, eps))


def _phi(space: StateSpace, index: int):
    """Each vertex cleared, v_j = s_j r_j for generator j's row r_j, and
    h_j = phi(v_j) / c, phi = c p the sum of the facets through v_t."""
    q, w = integer_row(space.unit)  # u = w q, and v_j = r_j / u(r_j)
    cleared = [(r, Fraction(w.denominator, w.numerator * sum(map(mul, q, r))))
               for r, _ in space.cone.generator_rows()]
    through = [(f, c) for f, c in space.cone.facet_rows()
               if sum(map(mul, f, cleared[index][0])) == 0]
    p = integer_row(combination([c for _, c in through],
                                [f for f, _ in through]))[0]
    return cleared, [s * sum(map(mul, p, row)) for row, s in cleared]


def _basis_optimum(space: StateSpace, index: int, eps, cleared,
                   h) -> tuple[Vec, Fraction] | None:
    """exposing_effect's answer read off one basis of its dual, or None.

    The dual has one row per coordinate: minimize sum w_j subject to
    sum_{j != t} (z_j - w_j) delta_j = 0 and sum z_j - s = 1, z, w, s >= 0,
    delta_j being v_j - v_t without a coordinate i with u_i != 0 (u = 1
    on every vertex fixes it). Its row multipliers are y and m, with
    a = y + c u, y_i = 0 and c from a(v_t) = 1. The basis: z on the d - 1
    vertices nearest to v_t and w on one of the d - 1 farthest, farthest
    first, by h (_phi). With B those columns, x_B is the last column of
    B^-1 and y its last row. A basis with x_B > 0 and no misfit is primal
    and dual feasible and non-degenerate, so y is the LP's unique optimum.
    """
    verts, unit, d = space.vertices, space.unit, space.dim
    target = verts[index]
    i = next(k for k, x in enumerate(unit) if x)
    by_h = sorted((j for j in range(len(verts)) if j != index),
                  key=h.__getitem__)

    def delta(j):
        return tuple(x - t for k, (x, t) in enumerate(zip(verts[j], target))
                     if k != i)
    near = [delta(j) + (ONE,) for j in by_h[:d - 1]]
    for far in by_h[::-1][:d - 1]:
        w_far = tuple(-x for x in delta(far)) + (ZERO,)
        # Gauss-Jordan on [B | I]: row k over row[k] is row k of B^-1, and
        # a singular B leaves some row[k] = 0
        rows, _ = _eliminate([row + unit_vec(d, k) for k, row
                              in enumerate(transpose(near + [w_far]))])
        if any(row[-1] * row[k] <= 0 for k, row in enumerate(rows)):
            continue
        *y, margin = (Fraction(x, rows[-1][d - 1]) for x in rows[-1][d:])
        if margin <= eps:
            continue
        y.insert(i, ZERO)
        c = 1 - dot(y, target)
        effect = tuple(y_k + c * u_k for y_k, u_k in zip(y, unit))
        if not _misfits(effect, margin, cleared, index):
            return effect, margin
    return None


def _misfits(effect: Vec, margin: Fraction, cleared, index: int) -> list[int]:
    """The j != index with effect(v_j) < 0 or > 1 - margin, and index
    unless effect(v_index) = 1. With v_j = s_j r_j cleared and effect =
    c e, effect(v_j) = c s_j (e . r_j), compared on integers."""
    ints, c = integer_row(effect)
    top = (1 - margin) / c
    out = []
    for j, (row, s) in enumerate(cleared):
        p = sum(map(mul, ints, row))
        if j == index:
            bad = p * s.numerator != s.denominator / c
        else:
            bad = p < 0 or (p * s.numerator * top.denominator
                            > top.numerator * s.denominator)
        if bad:
            out.append(j)
    return out


def _vertex_row_effect(space: StateSpace, index: int,
                       eps) -> tuple[Vec, Fraction] | None:
    """exposing_effect's problem stated with one row per vertex, a a
    nonnegative combination of the dual cone's generators (facet rows),
    solved by the LP; None when no other vertex bounds the margin or it
    is at most eps."""
    verts = space.vertices
    duals = [r for r, _ in space.cone.facet_rows()]
    # columns: theta per dual generator, m, one slack per non-target row;
    # rows: a(target) = 1, then a(v) + m + slack = 1 per other vertex
    k = len(verts)
    ordered = verts[index:index + 1] + verts[:index] + verts[index + 1:]
    columns = [tuple(dot(f, v) for v in ordered) for f in duals]
    columns.append((ZERO,) + (ONE,) * (k - 1))
    columns += [unit_vec(k, i) for i in range(1, k)]
    cost = unit_vec(len(columns), len(duals))
    result = solve_lp(cost, transpose(columns), (ONE,) * k, maximize=True)
    if not result.ok or result.objective <= eps:
        return None
    return combination(result.x[:len(duals)], duals), result.objective


@dataclass(frozen=True)
class DoubleDecomposition:
    """One state, two disjoint exposed-state mixtures.

    Entry b of `branches` (the (state, weight) mixture) and of
    `distinguishers` (one exposing effect per state) belongs to bit b.
    """
    space: StateSpace
    omega: Vec
    branches: tuple[tuple[tuple[Vec, Fraction], ...], ...]
    distinguishers: tuple[tuple[Vec, ...], ...]

    def verify(self, tol=None) -> bool:
        """The branches share no state and each mixes to omega with
        nonnegative weights; each distinguisher is an effect (nonnegative
        on every vertex) that is 1 on its state and below 1 elsewhere."""
        eps = tolerance_for(tol, self.space)
        states0, states1 = ({tuple(s) for s, _ in branch}
                            for branch in self.branches)
        if states0 & states1:
            return False
        for branch, effects in zip(self.branches, self.distinguishers):
            if not branch or any(p < -eps for _, p in branch):
                return False
            mix = combination([p for _, p in branch], [s for s, _ in branch])
            if not close(mix, self.omega, eps):
                return False
            for (state, _), a in zip(branch, effects):
                if not close(dot(a, state), 1, eps):
                    return False
                for v in self.space.vertices:
                    value = dot(a, v)
                    if value < -eps or (v != state and value >= 1 - eps):
                        return False
        return True


def find_double_decomposition(space: StateSpace,
                              tol=None) -> DoubleDecomposition:
    """Smallest pair of disjoint exposed vertex sets mixing to one state.

    Scans disjoint subset pairs by ascending total size, at most dim + 1
    points (_try_pair takes independent columns only, in dim + 2 rows of
    which u(v) = 1 makes one redundant), and returns the first whose
    convex hulls intersect, with weights from _try_pair.
    Simplicial spaces, those with dim facets, are refused (mixtures over
    disjoint sets are never equal there), whatever redundant generators
    they list. A point is left out of the scan when another listed point
    is zero on every facet that is zero on it: no effect exposes it, so
    no pair with it passes.

    A pair is only accepted with every weight positive, and such a
    mixture lies in the relative interior of the face cut out by the
    facets that vanish on all of its vertices (its facet values are
    positive sums of theirs). Distinct faces have disjoint relative
    interiors, so a pair whose two vertex sets have different zero-facet
    sets never passes: it has no solution with every weight positive.
    Such pairs are skipped unsolved, by exact bitmask tests that read no
    tolerance, so what is found and returned is that of the plain scan,
    at any tol and in either arithmetic.
    """
    if space.kind != "polyhedral":
        raise UnsupportedConeError("decomposition needs a polyhedral space")
    verts = space.vertices
    m = len(verts)
    eps = tolerance_for(tol, space)
    if len(space.cone.facet_rows()) == space.dim:
        raise InvalidInputError(
            "state set is a simplex; no double decomposition exists")
    if m > _VERTEX_CAP:
        raise SearchCapError(f"subset search over {m} vertices exceeds cap")
    masks = space.cone.zero_sets()
    # a point k zero on every facet that is zero on point j lies on j's
    # minimal face: j is not extreme or is listed twice, so not exposed
    # (exposing_effect refuses j the same way: phi(v_k) = 0 for such k)
    exposable = [j for j in range(m) if not any(
        k != j and masks[k] & masks[j] == masks[j] for k in range(m))]

    for total in range(4, min(len(exposable), space.dim + 1) + 1):
        for k0 in range(2, total - 1):
            k1 = total - k0
            if k1 < k0:
                break
            for idx0 in combinations(exposable, k0):
                face = _meet(masks, idx0)
                # branch 1's vertices must all lie on branch 0's face
                rest = [i for i in exposable
                        if i not in idx0 and masks[i] & face == face]
                for idx1 in combinations(rest, k1):
                    if k0 == k1 and idx1[0] < idx0[0]:
                        continue  # unordered pair, count once
                    if _meet(masks, idx1) != face:
                        continue  # different faces: no positive mix meets
                    found = _try_pair(space, verts, idx0, idx1, eps, tol)
                    if found is not None:
                        return found
    raise SearchCapError("no double decomposition among the extreme points")


def _meet(masks, idx):
    """The facets that vanish on every vertex in idx, as a bitmask."""
    return reduce(and_, (masks[j] for j in idx))


def _try_pair(space, verts, idx0, idx1, eps, tol):
    """The decomposition over the vertex sets idx0 and idx1, or None."""
    d = space.dim
    k0 = len(idx0)
    # branch-0 weights mix to omega, branch-1 weights to the same omega,
    # and each branch sums to one
    columns = [verts[j] + (ONE, ZERO) for j in idx0] + \
        [tuple(-x for x in verts[j]) + (ZERO, ONE) for j in idx1]
    target = (ZERO,) * d + (ONE, ONE)
    weights = _unique_weights(columns, target)
    if weights is None or any(w <= eps for w in weights):
        return None  # smaller pair would do; covered at a lower total
    effects = {}
    for j in set(idx0) | set(idx1):
        hit = exposing_effect(space, j, tol)
        if hit is None:
            return None
        effects[j] = hit[0]
    pairs = ((idx0, weights[:k0]), (idx1, weights[k0:]))
    return DoubleDecomposition(
        space, combination(weights[:k0], [verts[j] for j in idx0]),
        tuple(tuple(zip((verts[j] for j in idx), ws)) for idx, ws in pairs),
        tuple(tuple(effects[j] for j in idx) for idx, _ in pairs))


def _unique_weights(columns, target) -> Vec | None:
    """The x with sum_j x_j columns[j] = target, by one elimination of
    [columns | target] on integer rows; None when the columns are
    dependent or there is no solution. A basic solution weights
    independent columns only, so with dependent ones some weight is 0."""
    k = len(columns)
    rows, pivots = _eliminate(transpose(columns + [target]))
    if pivots != tuple(range(k)):
        return None
    return tuple(Fraction(row[-1], row[r]) for r, row in enumerate(rows[:k]))


@dataclass(frozen=True)
class CommitmentTranscript:
    """Full record of one commit/reveal round trip."""
    bit: int
    n: int
    seed: int
    samples: str
    committed: tuple[Vec, ...]
    reveal: tuple[int, str]
    verdict: str  # accept | reject


def bc_run(dd: DoubleDecomposition, bit: int, n: int, seed: int,
           tamper: tuple[int, int] | None = None) -> CommitmentTranscript:
    """Simulate one honest (or reveal-tampered) commitment round trip.

    Honest runs always accept: each committed state's exposing effect
    fires with probability exactly 1. A tampered reveal claims a wrong
    sample at one position and is caught with its exposure margin.
    """
    if bit not in (0, 1):
        raise InvalidInputError("bit must be 0 or 1")
    if n < 1:
        raise InvalidInputError("need at least one round")
    branch = dd.branches[bit]
    if len(branch) > 10:
        raise InvalidInputError("branch too large for digit sample encoding")
    rng = np.random.Generator(np.random.Philox(seed))
    probs = np.array([float(p) for _, p in branch])
    probs = probs / probs.sum()
    drawn = [int(i) for i in rng.choice(len(branch), size=n, p=probs)]
    committed = tuple(branch[i][0] for i in drawn)
    claimed = list(drawn)
    if tamper is not None:
        pos, value = tamper
        if not (0 <= pos < n) or not (0 <= value < len(branch)):
            raise InvalidInputError("tamper position or value out of range")
        claimed[pos] = value
    distinguishers = dd.distinguishers[bit]
    accept = True
    for k in range(n):
        fire_p = float(dot(distinguishers[claimed[k]], committed[k]))
        if not rng.random() < fire_p:
            accept = False
    return CommitmentTranscript(
        bit=bit, n=n, seed=seed,
        samples="".join(str(i) for i in drawn),
        committed=committed,
        reveal=(bit, "".join(str(i) for i in claimed)),
        verdict="accept" if accept else "reject")


@dataclass(frozen=True)
class CheatBound:
    """Optimal product-strategy cheat value of one round, with the
    decomposition it bounds; n rounds compound to per_round**n."""
    decomposition: DoubleDecomposition
    per_round: Fraction
    optimizer: Vec
    pair: tuple[int, int]


def bc_cheat_bound(dd: DoubleDecomposition) -> CheatBound:
    """max over states of min(best branch-0 effect, best branch-1 effect).

    For each pair of exposing effects, _cheat_optimum maximizes their
    common value t over the state polytope; the first best pair realizes
    the piecewise-linear objective exactly. Cheating is limited to
    product strategies, so the value bounds one round.
    """
    verts = dd.space.vertices
    # each effect's values on the vertices, made once
    values0, values1 = ([[dot(a, v) for v in verts] for a in effects]
                        for effects in dd.distinguishers)
    best = None
    for i0, a0 in enumerate(values0):
        for i1, a1 in enumerate(values1):
            found = _cheat_optimum(a0, a1)
            if found is not None and (best is None or found[0] > best[0]):
                best = (*found, (i0, i1))
    if best is None:
        raise InvalidInputError(
            "no distinguisher pair has a nonnegative common value")
    c, weights, pair = best
    return CheatBound(decomposition=dd, per_round=c,
                      optimizer=combination(weights, verts), pair=pair)


def _cheat_optimum(a0, a1) -> tuple[Fraction, Vec] | None:
    """max of t = min(a0 . lambda, a1 . lambda) over vertex weights lambda
    (effect values a0, a1 on the vertices), as (t, lambda), or None when
    t < 0. The min is concave, so the max is at a vertex k or at the
    crossing of an edge (k, l) where a0 - a1 changes sign: the first best
    of these, vertices then crossings, compared on integers. At a vertex
    y = 1 when a0 is the smaller value, else 0; at a crossing y weighs a0
    and 1 - y a1 so that both agree on k and l."""
    m = len(a0)
    ints, scale = integer_row(tuple(a0) + tuple(a1))
    a0, a1 = ints[:m], ints[m:]
    # (candidate, y = p / q): t = (p a0_k + (q - p) a1_k) / q at its first k
    candidates = [((k,), int(a0[k] <= a1[k]), 1) for k in range(m)]
    candidates += [((k, l), a1[l] - a1[k], a0[k] - a1[k] - a0[l] + a1[l])
                   for k in range(m) if a0[k] > a1[k]
                   for l in range(m) if a0[l] < a1[l]]

    def mixed(j, p, q):
        return p * a0[j] + (q - p) * a1[j]

    def higher(b, c):  # the sign of t_b - t_c, on integers
        return mixed(b[0][0], *b[1:]) * c[2] - mixed(c[0][0], *c[1:]) * b[2]
    support, p, q = max(candidates, key=cmp_to_key(higher))
    top = mixed(support[0], p, q)
    if top < 0:
        return None
    if len(support) == 1:
        share = {support[0]: ONE}
    else:
        k, l = support
        share = {k: Fraction(a1[l] - a0[l], q), l: Fraction(a0[k] - a1[k], q)}
    return scale * Fraction(top, q), tuple(share.get(j, ZERO)
                                           for j in range(m))


def bc_cheat_curve(bound: CheatBound, n_max: int, trials: int, seed: int):
    """Analytic c**n against simulated product-cheat success, n = 1..n_max.

    Returns an iterator over rows (n, analytic, empirical, stderr), each
    made as it is read, so no earlier row's exact power is kept. The
    simulated Alice commits the bound's optimal product state and reveals
    her weaker bit; rounds fire independently, so trials are vectorized.
    """
    if n_max < 1 or trials < 1:
        raise InvalidInputError("n_max and trials must be positive")
    q = min(max(float(dot(a, bound.optimizer)) for a in effects)
            for effects in bound.decomposition.distinguishers)
    rng = np.random.Generator(np.random.Philox(seed))

    def rows():
        power = ONE
        for n in range(1, n_max + 1):
            fired = rng.random((trials, n)) < q
            emp = float(fired.all(axis=1).mean())
            power *= bound.per_round
            yield n, power, emp, float(np.sqrt(emp * (1.0 - emp) / trials))
    return rows()
