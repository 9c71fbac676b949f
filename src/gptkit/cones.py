"""Cone representations and the double-description enumeration core.

Polyhedral cones carry extreme-ray generators and/or facet inequalities
<f, x> >= 0; whichever side is missing is computed on demand by the
Motzkin double-description method and kept as integer rows. A side may
also be handed over as integer rows (a float polygon's vertices and
edge facets, a tensor product's side); a side held as rows makes its
Fractions only when it is read.
Lorentz (second-order) cones carry no lists; membership there compares
squares, so no square roots enter and rational inputs stay exact. `contains` is the membership
test, of a cone and, as `dual().contains`, of its dual. It reads facets;
`weights` asks the generators a cone holds (one phase-1 LP), which
`contains` falls back on only where the facets are missing and the
dimension cap refuses to enumerate them.

All arithmetic is exact, including for float-mode spaces (their data is
embedded losslessly); see scalars module notes. A cone's vectors in and
out are Fraction tuples. Double description takes any rational normals
(a cone passes its known side's integer rows) and returns coprime
integer rays, which the cone keeps as the enumerated side's rows, so
no side is cleared back from Fractions. Inside it, normals and rays are
coprime integer tuples in fixed slots, and each normal's zero set is a
bitset over the slots kept across steps. A ray about to be cut off that
lies on exactly dim - 1 normals finds its new neighbours along its edges
by ANDs of those bitsets; any other one is paired with every ray kept,
through a popcount prefilter and the same bitsets. A polyhedral side is
read as rows (coprime integers times a positive scale, one per vector)
through `facet_rows()` and its twin `generator_rows()`, the dual view's
facet rows: handed over, enumerated, or cleared once from given
vectors, and shared by both views, so no caller clears a side again.
Membership tests a vector, cleared over one denominator, by an int dot
and a sign per facet row; so does `maps_into`, the one positivity test
of a map between cones, on each generator row's image under the
matrix, cleared once per call.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from operator import mul

import numpy as np

from .errors import (
    DegenerateConeError,
    DimensionCapError,
    DimensionMismatchError,
    UnsupportedConeError,
)
from .linalg import (
    Mat,
    ONE,
    Vec,
    ZERO,
    _eliminate,
    canonical_ray,
    dot,
    integer_row,
    inverse,
    lex_key,
    matvec,
    nullspace,
    rank,
    transpose,
    vec,
)
from .lp import feasible_point
from .scalars import FLOAT, RATIONAL

POLYHEDRAL = "polyhedral"
LORENTZ = "lorentz"

DIMENSION_CAP = 16

# a side's vectors as (coprime integer row, positive scale) pairs
Rows = tuple[tuple[tuple[int, ...], Fraction], ...]


def independent_subset(vectors: tuple[Vec, ...]) -> tuple[Vec, ...]:
    """Greedy maximal linearly independent subset, input order.

    Vector j is kept exactly when it leaves the span of the ones before
    it, i.e. when column j is a pivot of the stacked columns' rref.
    """
    return tuple(vectors[j] for j in _eliminate(tuple(zip(*vectors)))[1])


def enumerate_rays(halfspaces: tuple[Vec, ...],
                   dim: int) -> tuple[tuple[int, ...], ...]:
    """Extreme rays of {x : <h, x> >= 0 for all h}, as sorted coprime
    integer tuples.

    Requires the normals to span (the target cone is then pointed).
    Returns () for the trivial cone. Incremental double description with
    the combinatorial adjacency test; exact integer arithmetic inside.

    Zero sets (bit k: the ray is zero on normal k) are carried, never
    recomputed: base ray j is zero on every base normal but the j-th,
    and a ray made from rays p and m by a positive combination is zero
    exactly where both are, plus on the new normal. Rays sit in fixed
    slots, and the zero sets are also kept transposed, one bitset over
    the slots per normal: a zero ray gains the new normal's bit, a new
    ray sets its bits once, and a removed ray only leaves the live slots,
    where every AND starts. A plus ray p and a minus ray m are adjacent
    exactly when no other ray is zero on all of their shared normals
    (Fukuda & Prodon, "Double description method revisited", 1996).

    A simple minus ray m, zero on exactly dim - 1 normals, walks its
    edges: those normals are independent, so the dim - 2 left when normal
    k is dropped cut out a face of dimension at most 2, which holds m and
    at most one other ray. The AND of their bitsets (prefix and suffix
    ANDs over m's zero set) with the plus rays is therefore m's plus
    neighbour across k, or nothing. Every other minus ray is
    tried against each plus ray: adjacency needs at least dim - 2 shared
    normals, so pairs with fewer are skipped unread, and for the rest
    the AND of the shared normals' bitsets must hold just p and m.

    The normals may be any rational vectors; canonical_ray scales them
    to coprime integers. Rays are coprime integer tuples throughout:
    each new ray is divided by the gcd of its entries, canonical_ray's
    scale, and the rays are returned so, with no Fraction made (ConeRep
    holds them as a side's rows). Distinct 2-faces meet a hyperplane in
    distinct rays, so no ray is made twice.
    """
    if dim > DIMENSION_CAP:
        raise DimensionCapError(
            f"ray enumeration in dimension {dim} exceeds cap {DIMENSION_CAP}")
    if any(len(h) != dim for h in halfspaces):
        raise DimensionMismatchError("halfspace length differs from dim")

    position: dict[tuple, int] = {}  # lex_key of a kept normal -> index
    normals: list[Vec] = []
    for h in halfspaces:
        c = canonical_ray(h)
        key = lex_key(c)
        if not any(x != 0 for x in c) or key in position:
            continue
        position[key] = len(normals)
        normals.append(c)

    base = independent_subset(tuple(normals))
    if len(base) < dim:
        raise DegenerateConeError(
            "halfspace normals do not span; the cone contains a line")
    base_idx = [position[lex_key(b)] for b in base]
    rest_idx = [i for i in range(len(normals)) if i not in base_idx]

    inv = inverse(base)
    assert inv is not None
    # base ray j sits in slot j, each new ray in the next unused one; slots
    # lists the live slots, and live holds them as bits
    rays: list[tuple[int, ...]] = [integer_row(col)[0] for col in zip(*inv)]
    all_base = sum(1 << k for k in base_idx)
    masks: list[int] = [all_base & ~(1 << k) for k in base_idx]
    slots = list(range(dim))
    live = (1 << dim) - 1
    zero_on = [0] * len(normals)  # bit s: the ray in slot s is zero on it
    for j, k in enumerate(base_idx):
        zero_on[k] = live ^ 1 << j

    for hi in rest_idx:
        h = tuple(x.numerator for x in normals[hi])
        evals = {s: sum(map(mul, h, rays[s])) for s in slots}
        plus = [s for s, e in evals.items() if e > 0]
        zero = [s for s, e in evals.items() if e == 0]
        minus = [s for s, e in evals.items() if e < 0]
        bit = 1 << hi
        for s in zero:
            masks[s] |= bit
        zero_on[hi] = sum(1 << s for s in zero)
        if not minus:
            continue
        plus_on = sum(1 << s for s in plus)
        pairs = []  # (plus slot, minus slot, shared zero set)
        scan = []
        for m in minus:
            mask_m = masks[m]
            if mask_m.bit_count() != dim - 1:
                scan.append(m)
                continue
            # m is simple: its plus neighbour across normal k is the plus
            # ray on every other normal of m, if there is one
            lows, sets, rest = [], [], mask_m
            while rest:
                low = rest & -rest
                lows.append(low)
                sets.append(zero_on[low.bit_length() - 1])
                rest ^= low
            after = [-1]  # after[j]: the AND of the last j sets
            for z in reversed(sets[1:]):
                after.append(after[-1] & z)
            before = plus_on  # the plus rays zero on every normal before
            for low, z, tail in zip(lows, sets, reversed(after)):
                face = before & tail
                if face:
                    pairs.append((face.bit_length() - 1, m, mask_m ^ low))
                before &= z
        for p in plus:
            mask_p = masks[p]
            for m in scan:
                shared = mask_p & masks[m]
                if shared.bit_count() < dim - 2:
                    continue
                common, rest = live, shared
                while rest:
                    low = rest & -rest
                    common &= zero_on[low.bit_length() - 1]
                    rest ^= low
                if common == 1 << p | 1 << m:
                    pairs.append((p, m, shared))
        slots = plus + zero
        for p, m, shared in pairs:
            ep, em = evals[p], evals[m]
            ray = [ep * b - em * a for a, b in zip(rays[p], rays[m])]
            g = gcd(*ray)
            s = len(rays)
            rays.append(tuple(x // g for x in ray))
            slots.append(s)
            mask = shared | bit
            masks.append(mask)
            while mask:
                low = mask & -mask
                zero_on[low.bit_length() - 1] |= 1 << s
                mask ^= low
        live = plus_on | zero_on[hi]

    return tuple(sorted(rays[s] for s in slots))


def _vectors(rows: Rows) -> tuple[Vec, ...]:
    """The vector scale * row of each row: one Fraction per entry, and
    one per distinct integer across the rows of scale 1."""
    made = {x: Fraction(x) for x in
            set(chain.from_iterable(r for r, s in rows if s == 1))}
    out = []
    for row, scale in rows:
        if scale == 1:
            out.append(tuple(map(made.__getitem__, row)))
            continue
        n, d = scale.numerator, scale.denominator
        out.append(tuple(Fraction(x * n, d) for x in row))
    return tuple(out)


def _meets(rows: Rows, xs: tuple[int, ...], xscale: Fraction,
           tol: Fraction) -> bool:
    """Whether <f, x> >= -tol on every facet f = scale * row, for the
    vector x = xscale * xs given by integers xs and a positive scale."""
    free = tol >= 0  # then s >= 0 passes without its scale
    for row, scale in rows:
        # <f, x> = scale * xscale * s, and both scales are positive
        s = sum(map(mul, row, xs))
        if s >= 0 and free:
            continue
        if not (tol and scale * xscale * s >= -tol):
            return False
    return True


class ConeRep:
    """A pointed, generating cone in R^dim.

    kind "polyhedral": generators and facets, either lazily completed.
    kind "lorentz": x[-1] >= euclidean norm of x[:-1]; no finite lists.
    """

    __slots__ = ("dim", "kind", "arithmetic", "_generators", "_facets",
                 "_facet_rows", "_generator_rows", "_dual")

    def __init__(self, dim: int, kind: str, arithmetic: str,
                 generators: tuple[Vec, ...] | None,
                 facets: tuple[Vec, ...] | None, *,
                 facet_rows: Rows | None = None,
                 generator_rows: Rows | None = None):
        if kind not in (POLYHEDRAL, LORENTZ):
            raise UnsupportedConeError(f"unknown cone kind {kind!r}")
        if arithmetic not in (RATIONAL, FLOAT):
            raise UnsupportedConeError(f"unknown arithmetic {arithmetic!r}")
        self.dim = dim
        self.kind = kind
        self.arithmetic = arithmetic
        self._generators = generators
        self._facets = facets
        # a side's rows, if the caller has them; a side held only as rows
        # makes its Fractions when first read
        self._facet_rows = facet_rows
        self._generator_rows = generator_rows
        self._dual: ConeRep | None = self if kind == LORENTZ else None

    # -- constructors --------------------------------------------------

    @classmethod
    def from_generators(cls, generators,
                        arithmetic: str = RATIONAL) -> ConeRep:
        gens = tuple(vec(g) for g in generators)
        if not gens:
            raise DegenerateConeError("no generators given")
        d = len(gens[0])
        if any(len(g) != d for g in gens):
            raise DimensionMismatchError("generator length differs from dim")
        cone = cls(d, POLYHEDRAL, arithmetic, gens, None)
        if rank(gens) != d:
            raise DegenerateConeError("generators do not span (not generating)")
        return cone

    @classmethod
    def from_facets(cls, facets, arithmetic: str = RATIONAL) -> ConeRep:
        fcts = tuple(vec(f) for f in facets)
        if not fcts:
            raise DegenerateConeError("no facets given")
        d = len(fcts[0])
        if any(len(f) != d for f in fcts):
            raise DimensionMismatchError("facet length differs from dim")
        if rank(fcts) != d:
            raise DegenerateConeError("facet normals do not span (not pointed)")
        return cls(d, POLYHEDRAL, arithmetic, None, fcts)

    @classmethod
    def from_both(cls, generators, facets,
                  arithmetic: str = RATIONAL) -> ConeRep:
        gens = tuple(vec(g) for g in generators)
        fcts = tuple(vec(f) for f in facets)
        recomputed = cls.from_generators(gens, arithmetic)
        cone = cls(len(gens[0]), POLYHEDRAL, arithmetic, gens, fcts)
        if {r for r, _ in recomputed.facet_rows()} != \
                {r for r, _ in cone.facet_rows()}:
            raise DegenerateConeError(
                "facet list disagrees with the generator list")
        return cone

    @classmethod
    def lorentz(cls, dim: int, arithmetic: str = FLOAT) -> ConeRep:
        if dim < 1:
            raise DegenerateConeError("lorentz cone needs dim >= 1")
        return cls(dim, LORENTZ, arithmetic, None, None)

    # -- representation access -----------------------------------------

    @property
    def generators(self) -> tuple[Vec, ...]:
        if self._generators is None:
            self._generators = _vectors(self.generator_rows())
            self._dual._facets = self._generators
        return self._generators

    @property
    def facets(self) -> tuple[Vec, ...]:
        if self._facets is None:
            self._facets = _vectors(self.facet_rows())
            if self._dual is not None:
                self._dual._generators = self._facets
        return self._facets

    def has_generators(self) -> bool:
        return self._generators is not None or \
            self._generator_rows is not None

    def has_facets(self) -> bool:
        return self._facets is not None or self._facet_rows is not None

    def facet_rows(self) -> Rows:
        """Each facet as a coprime integer row and a positive scale whose
        product is the facet (linalg.integer_row): handed over, cleared
        once from the facets, or enumerated. Raises as `facets` does."""
        return self._rows("facet", "generators", "pointed")

    def generator_rows(self) -> Rows:
        """Each generator as a row and a scale: the dual view's facet
        rows, so both views read one tuple, filled at most once."""
        return self.dual()._rows("generator", "facets", "generating")

    def _rows(self, side: str, known_name: str, quality: str) -> Rows:
        """This view's facet rows, filled once and shared with the dual
        view. The names are the asking view's (generator_rows asks the
        dual view), so an error names the sides as that view does."""
        if self._facet_rows is None:
            if self._facets is not None:
                rows = tuple(map(integer_row, self._facets))
            else:
                rows = self._enumerate_missing(side, known_name, quality)
            self._facet_rows = rows
            if self._dual is not None:
                self._dual._generator_rows = rows
        return self._facet_rows

    def _enumerate_missing(self, side: str, known_name: str,
                           quality: str) -> Rows:
        """This view's facet rows: the extreme rays of the dual of its
        generators, enumerated from the generator rows' integers.

        Each ray is kept as enumerate_rays gives it, a coprime integer
        row: of scale 1 in rational mode, and in float mode of scale
        1 / (its largest entry magnitude), which keeps emitted
        coordinates readable after float conversion.
        """
        if self.kind == LORENTZ:
            raise UnsupportedConeError(
                f"lorentz cones have no finite {side} list")
        known = tuple(row for row, _ in self.generator_rows())
        rays = enumerate_rays(known, self.dim)
        # The known rows span, so the rays generate a pointed cone. It is
        # full-dimensional exactly when each nonzero known row is
        # positive on some ray: the rays' sum is then an interior point.
        total = [sum(c) for c in zip(*rays)]
        if not rays or any(any(k) and sum(map(mul, k, total)) == 0
                           for k in known):
            raise DegenerateConeError(
                f"{known_name} describe a cone that is not {quality}")
        if self.arithmetic == RATIONAL:
            return tuple((r, ONE) for r in rays)
        return tuple((r, Fraction(1, max(map(abs, r)))) for r in rays)

    def _facets_in_reach(self) -> bool:
        """Whether the cone holds finite facets or may enumerate them:
        not above the dimension cap, where membership asks `weights`."""
        return self.kind == POLYHEDRAL and (
            self.has_facets() or self.dim <= DIMENSION_CAP)

    # -- predicates ------------------------------------------------------

    def contains(self, x: Vec, tol: Fraction = ZERO) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatchError("vector length differs from cone dim")
        if not all(hasattr(v, "denominator") for v in x):
            x = vec(x)
        if self.kind == LORENTZ:
            head, last = x[:-1], x[-1]
            if last + tol < 0:
                return False
            return (last + tol) ** 2 >= dot(head, head)
        if not self._facets_in_reach():
            return self.weights(x, tol) is not None
        xs, xscale = integer_row(x)
        return _meets(self.facet_rows(), xs, xscale, tol)

    def weights(self, x: Vec, tol: Fraction = ZERO) -> Vec | None:
        """Weights w >= 0 on the generators that sum to x within tol (in
        L1, by lp.feasible_point), or None: membership from generators."""
        return feasible_point(self.generators, x, tol)[0]

    def strictly_positive(self, functional: Vec) -> bool:
        """Whether <functional, g> > 0 on every nonzero cone element."""
        if self.kind == LORENTZ:
            # Strictly positive iff interior to the (self-dual) cone.
            head, last = functional[:-1], functional[-1]
            return last > 0 and last ** 2 > dot(head, head)
        return all(dot(functional, g) > 0 for g in self.generators)

    def dual(self) -> ConeRep:
        """The dual cone: one cached view with the two sides swapped, and
        a side enumerated through either view is stored in both. Lorentz
        cones are self-dual."""
        if self._dual is None:
            self._dual = ConeRep(self.dim, POLYHEDRAL, self.arithmetic,
                                 self._facets, self._generators,
                                 facet_rows=self._generator_rows,
                                 generator_rows=self._facet_rows)
            self._dual._dual = self
        return self._dual

    def minimal_generators(self) -> tuple[Vec, ...]:
        """Extreme rays only: generators whose zero facets (an int dot
        of the rows) have rank dim - 1."""
        facets = [f for f, _ in self.facet_rows()]
        keep = []
        for g, (row, _) in zip(self.generators, self.generator_rows()):
            active = [f for f in facets if sum(map(mul, f, row)) == 0]
            if (rank(active) if active else 0) >= self.dim - 1:
                keep.append(g)
        return tuple(keep)


def maps_into(matrix: Mat, dom: ConeRep, cod: ConeRep,
              tol: Fraction) -> bool:
    """Whether matrix (cod.dim x dom.dim) maps dom into cod within tol,
    for all four pairings of kinds. From a polyhedral cone, the matrix
    is cleared once to integers times a positive scale, and each
    generator comes so from dom's generator rows: the image is an
    integer vector times the product of the scales."""
    if dom.kind == LORENTZ:
        if cod.kind == POLYHEDRAL:
            # T maps dom into cod iff T^t maps each generator h of cod's
            # dual (a facet of cod) into dom's dual.
            return maps_into(transpose(matrix), cod.dual(), dom.dual(), tol)
        return _lorentz_to_lorentz_positive(matrix, cod, tol)
    if not cod._facets_in_reach():
        return all(cod.contains(matvec(matrix, g), tol)
                   for g in dom.generators)
    rows, gens = cod.facet_rows(), dom.generator_rows()
    if len(matrix) != cod.dim or any(len(r) != dom.dim for r in matrix):
        raise DimensionMismatchError("map matrix shape mismatch")
    flat, scale = integer_row(tuple(x for row in matrix for x in row))
    ints = [flat[i:i + dom.dim] for i in range(0, len(flat), dom.dim)]
    for gs, gscale in gens:
        image = [sum(map(mul, row, gs)) for row in ints]
        if not _meets(rows, image, scale * gscale, tol):
            return False
    return True


def _lorentz_to_lorentz_positive(matrix: Mat, cod: ConeRep,
                                 tol: Fraction) -> bool:
    """Homogeneous S-lemma: T(L) in L iff T e_last in L and
    T^t J T - mu J is PSD for some mu >= 0 (J = diag(-1,..,-1,1))."""
    n = len(matrix)
    axis = matvec(matrix, tuple([ZERO] * (len(matrix[0]) - 1) + [Fraction(1)]))
    if not cod.contains(axis, tol):
        return False
    T = np.array([[float(x) for x in row] for row in matrix])
    J = np.diag([-1.0] * (T.shape[1] - 1) + [1.0])
    Jc = np.diag([-1.0] * (n - 1) + [1.0])
    M = T.T @ Jc @ T

    def least_eig(mu: float) -> float:
        return float(np.linalg.eigvalsh(M - mu * J)[0])

    # least_eig is concave in mu; fixed ternary search is deterministic.
    lo, hi = 0.0, float(np.abs(M).sum()) + 1.0
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if least_eig(m1) < least_eig(m2):
            lo = m1
        else:
            hi = m2
    best = max(least_eig(lo), least_eig((lo + hi) / 2), least_eig(hi),
               least_eig(0.0))
    return best >= -max(float(tol), 1e-12)


def partition_rays(rays: tuple[Vec, ...]) -> tuple[tuple[int, ...], ...]:
    """Partition extreme rays into irreducible direct summands.

    The summands are the connected components of the rays' linear
    matroid. Each nullspace basis vector of the stacked rays is the
    fundamental circuit of one non-pivot ray over the pivot rays, and
    the fundamental circuits of one basis connect exactly the rays of a
    component, so the union of their supports is the unique finest
    partition. Blocks are sorted, and ordered by their least index.
    """
    parent = list(range(len(rays)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for circuit in nullspace(tuple(zip(*rays))):
        first, *rest = (j for j, x in enumerate(circuit) if x != 0)
        for j in rest:
            parent[find(j)] = find(first)
    blocks: dict[int, list[int]] = {}
    for i in range(len(rays)):
        blocks.setdefault(find(i), []).append(i)
    return tuple(tuple(block) for block in blocks.values())
