"""Cone representations and the double-description enumeration core.

Polyhedral cones carry extreme-ray generators and/or facet inequalities
<f, x> >= 0; whichever side is missing is computed on demand by the
Motzkin double-description method and cached. Lorentz (second-order)
cones carry no lists; membership there compares squares, so no square
roots enter and rational inputs stay exact. `contains` is the membership
test, of a cone and, as `dual().contains`, of its dual. It reads facets;
`weights` asks the generators a cone holds (one phase-1 LP), which
`contains` falls back on only where the facets are missing and the
dimension cap refuses to enumerate them.

All arithmetic is exact, including for float-mode spaces (their data is
embedded losslessly); see scalars module notes. Vectors in and out are
Fraction tuples. Inside double description, normals and rays are
coprime integer tuples, and pairs of rays are tested for adjacency by a
popcount prefilter and by zero sets transposed into bitsets. Polyhedral
membership runs on integers too: each facet is kept once as a coprime
integer row times a positive scale, and a vector is cleared to integers
over one denominator, so a facet test is an int dot and a sign. That
test also serves `maps_into`, the one positivity test of a linear map
between cones: each generator's image is made on integers, from the
matrix cleared once per call and the generator once per cone.
"""

from __future__ import annotations

from fractions import Fraction
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

# facets as (coprime integer row, positive scale) pairs
Rows = tuple[tuple[tuple[int, ...], Fraction], ...]


def independent_subset(vectors: tuple[Vec, ...]) -> tuple[Vec, ...]:
    """Greedy maximal linearly independent subset, input order.

    Vector j is kept exactly when it leaves the span of the ones before
    it, i.e. when column j is a pivot of the stacked columns' rref.
    """
    return tuple(vectors[j] for j in _eliminate(tuple(zip(*vectors)))[1])


def enumerate_rays(halfspaces: tuple[Vec, ...], dim: int) -> tuple[Vec, ...]:
    """Extreme rays of {x : <h, x> >= 0 for all h}, sorted canonically.

    Requires the normals to span (the target cone is then pointed).
    Returns () for the trivial cone. Incremental double description with
    the combinatorial adjacency test; exact integer arithmetic inside.

    Zero sets (bit k: the ray is zero on normal k) are carried, never
    recomputed: base ray j is zero on every base normal but the j-th,
    and a ray made from rays p and m by a positive combination is zero
    exactly where both are, plus on the new normal. Rays p and m are
    adjacent exactly when no other ray is zero on all of their shared
    normals. That needs at least dim - 2 shared normals (Fukuda & Prodon,
    "Double description method revisited", 1996), so pairs with fewer
    are skipped unread. The rest are tested on the zero sets transposed
    once per step, one bitset over the ray indices per normal: the AND
    of the shared normals' bitsets holds just p and m.

    Normals and rays are coprime integer tuples in the loop (normals as
    canonical_ray scales them), and each new ray is divided by the gcd of
    its entries, which is canonical_ray's scale; Fractions are made only
    for the result. Distinct 2-faces meet a hyperplane in distinct rays,
    so no ray is made twice.
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
    rays: list[tuple[int, ...]] = [integer_row(col)[0] for col in zip(*inv)]
    all_base = sum(1 << k for k in base_idx)
    masks: list[int] = [all_base & ~(1 << k) for k in base_idx]

    for hi in rest_idx:
        h = tuple(x.numerator for x in normals[hi])
        evals = [sum(map(mul, h, r)) for r in rays]
        plus = [i for i, e in enumerate(evals) if e > 0]
        zero = [i for i, e in enumerate(evals) if e == 0]
        minus = [i for i, e in enumerate(evals) if e < 0]
        if not minus:
            for i in zero:
                masks[i] |= 1 << hi
            continue
        zero_on = [0] * len(normals)  # bit i: ray i is zero on the normal
        for i, mask in enumerate(masks):
            while mask:
                low = mask & -mask
                zero_on[low.bit_length() - 1] |= 1 << i
                mask ^= low
        everyone = (1 << len(rays)) - 1
        new_rays = [rays[i] for i in plus + zero]
        new_masks = [masks[i] for i in plus] + [
            masks[i] | (1 << hi) for i in zero]
        for p in plus:
            mask_p = masks[p]
            for m in minus:
                shared = mask_p & masks[m]
                if shared.bit_count() < dim - 2:
                    continue
                common, rest = everyone, shared
                while rest:
                    low = rest & -rest
                    common &= zero_on[low.bit_length() - 1]
                    rest ^= low
                if common != 1 << p | 1 << m:
                    continue
                ep, em = evals[p], evals[m]
                ray = [ep * b - em * a for a, b in zip(rays[p], rays[m])]
                g = gcd(*ray)
                new_rays.append(tuple(x // g for x in ray))
                new_masks.append(shared | 1 << hi)
        rays = new_rays
        masks = new_masks

    return tuple(tuple(map(Fraction, r)) for r in sorted(rays))


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
                 "_rows", "_dual")

    def __init__(self, dim: int, kind: str, arithmetic: str,
                 generators: tuple[Vec, ...] | None,
                 facets: tuple[Vec, ...] | None):
        if kind not in (POLYHEDRAL, LORENTZ):
            raise UnsupportedConeError(f"unknown cone kind {kind!r}")
        if arithmetic not in (RATIONAL, FLOAT):
            raise UnsupportedConeError(f"unknown arithmetic {arithmetic!r}")
        self.dim = dim
        self.kind = kind
        self.arithmetic = arithmetic
        self._generators = generators
        self._facets = facets
        self._rows: Rows | None = None
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
        want = {lex_key(canonical_ray(f)) for f in recomputed.facets}
        got = {lex_key(canonical_ray(f)) for f in fcts}
        if want != got:
            raise DegenerateConeError(
                "facet list disagrees with the generator list")
        return cls(len(gens[0]), POLYHEDRAL, arithmetic, gens, fcts)

    @classmethod
    def lorentz(cls, dim: int, arithmetic: str = FLOAT) -> ConeRep:
        if dim < 1:
            raise DegenerateConeError("lorentz cone needs dim >= 1")
        return cls(dim, LORENTZ, arithmetic, None, None)

    # -- representation access -----------------------------------------

    @property
    def generators(self) -> tuple[Vec, ...]:
        if self._generators is None:
            self._generators = self._enumerate_missing(
                self._facets, "generator", "facets", "generating")
            if self._dual is not None:
                self._dual._facets = self._generators
        return self._generators

    @property
    def facets(self) -> tuple[Vec, ...]:
        if self._facets is None:
            self._facets = self._enumerate_missing(
                self._generators, "facet", "generators", "pointed")
            if self._dual is not None:
                self._dual._generators = self._facets
        return self._facets

    def _enumerate_missing(self, known: tuple[Vec, ...], side: str,
                           known_name: str, quality: str) -> tuple[Vec, ...]:
        """The pending side: the extreme rays of the known side's dual.

        Rational mode keeps enumerate_rays' coprime integers; float mode
        scales each ray to largest entry magnitude 1, which keeps emitted
        coordinates readable after float conversion.
        """
        if self.kind == LORENTZ:
            raise UnsupportedConeError(
                f"lorentz cones have no finite {side} list")
        rays = enumerate_rays(known, self.dim)
        # The known vectors span, so the rays generate a pointed cone. It is
        # full-dimensional exactly when each nonzero known vector is
        # positive on some ray: the rays' sum is then an interior point.
        # The rays are integers (coprime, denominator 1), so their sum is
        # the sum of their numerators, made without a Fraction.
        total = [sum(x.numerator for x in c) for c in zip(*rays)]
        if not rays or any(any(k) and dot(k, total) == 0 for k in known):
            raise DegenerateConeError(
                f"{known_name} describe a cone that is not {quality}")
        if self.arithmetic == RATIONAL:
            return rays
        tops = [max(map(abs, r)) for r in rays]
        return tuple(tuple(x / top for x in r) for r, top in zip(rays, tops))

    def has_generators(self) -> bool:
        return self._generators is not None

    def has_facets(self) -> bool:
        return self._facets is not None

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
        rows = self._facet_rows()
        if rows is None:
            return self.weights(x, tol) is not None
        xs, xscale = integer_row(x)
        return _meets(rows, xs, xscale, tol)

    def _facet_rows(self) -> Rows | None:
        """Each facet once as coprime integer row and positive scale, or
        None for a Lorentz cone and where the facets are missing above
        the dimension cap (there membership asks `weights`)."""
        if self._rows is None:
            if self.kind == LORENTZ or \
                    self._facets is None and self.dim > DIMENSION_CAP:
                return None
            self._rows = tuple(map(integer_row, self.facets))
        return self._rows

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
                                 self._facets, self._generators)
            self._dual._dual = self
        return self._dual

    def minimal_generators(self) -> tuple[Vec, ...]:
        """Extreme rays only, dropping any redundant input generators."""
        fcts = self.facets
        keep = []
        for g in self.generators:
            active = tuple(f for f in fcts if dot(f, g) == 0)
            if (rank(active) if active else 0) >= self.dim - 1:
                keep.append(g)
        return tuple(keep)


def maps_into(matrix: Mat, dom: ConeRep, cod: ConeRep,
              tol: Fraction) -> bool:
    """Whether matrix (cod.dim x dom.dim) maps dom into cod within tol,
    for all four pairings of kinds. From a polyhedral cone, the matrix
    is cleared once to integers times a positive scale, and each
    generator comes so from the dual view's cached facet rows: the
    image is an integer vector times the product of the scales."""
    if dom.kind == LORENTZ:
        if cod.kind == POLYHEDRAL:
            # T maps dom into cod iff T^t maps each generator h of cod's
            # dual (a facet of cod) into dom's dual.
            return maps_into(transpose(matrix), cod.dual(), dom.dual(), tol)
        return _lorentz_to_lorentz_positive(matrix, cod, tol)
    rows = cod._facet_rows()
    gens = None if rows is None else dom.dual()._facet_rows()
    if gens is None:
        return all(cod.contains(matvec(matrix, g), tol)
                   for g in dom.generators)
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
