"""Cone representations and the double-description enumeration core.

Polyhedral cones carry extreme-ray generators and/or facet inequalities
<f, x> >= 0; whichever side is missing is computed on demand by the
Motzkin double-description method. Lorentz (second-order) cones carry
no lists; membership there compares squares, so no square roots enter
and rational inputs stay exact. `contains` is the membership test, of a
cone and, as `dual().contains`, of its dual. It reads facets; `weights`
asks the generators (one phase-1 LP), which `contains` falls back on
only where the facets are missing and the dimension cap refuses to
enumerate them.

All arithmetic is exact, including for float-mode spaces (their data is
embedded losslessly); see scalars module notes. A polyhedral side is
held once, as rows: each vector a coprime integer row times a positive
scale (linalg.integer_row), cleared from given vectors by the
constructors, handed to `ConeRep` as rows, or enumerated, and shared by
a cone and its dual view (`facet_rows()`, and `generator_rows()`, the
dual view's facet rows). `generators` and `facets` make its Fraction
vectors on every read, so a caller reads them once.
Double description takes a cone's rows as normals and returns coprime
integer rays, its base rays too coming from an integer elimination
(linalg.inverse_rays), so it makes no Fraction; inside it, each
normal's zero set is a bitset over fixed ray slots kept across steps.
A ray about to be cut off that lies on exactly dim - 1 normals finds
its new neighbours along its edges by ANDs of those bitsets; any other
one is paired with every ray kept, through a popcount prefilter and the
same bitsets.

A side is a set of directions, so no verdict reads a row's scale:
facet row r passes x at tol when <r, x> >= -tol * |r|, |r| the row's
largest entry magnitude, decided on ints (_meets), and `maps_into`, the
one positivity test of a map between cones, takes each domain
generator row g as g / |g|. The map's own scale does count: a caller
that hands it an integer row as the matrix hands the row's scale too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import isfinite
from operator import mul

import numpy as np

from .errors import (
    DegenerateConeError,
    DimensionCapError,
    DimensionMismatchError,
    InvalidInputError,
    UnsupportedConeError,
)
from .linalg import (
    Mat,
    ONE,
    Vec,
    ZERO,
    _combine,
    _eliminate,
    canonical_ray,
    dot,
    integer_row,
    inverse,
    inverse_rays,
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

    The normals enter as rows (a cone's side; canonical_ray, the one
    normalisation, clears any rational vector). The base rays, the
    columns of the base's inverse, come as coprime rows from one
    fraction-free elimination of the base beside an identity block
    (linalg.inverse_rays). So a step is int sums, products and signs:
    each new ray is divided by the gcd of its entries, and the rays are
    returned so, with no Fraction made from the normals on (ConeRep
    holds them as a side's rows). Distinct 2-faces meet a hyperplane in
    distinct rays, so no ray is made twice.
    """
    if dim > DIMENSION_CAP:
        raise DimensionCapError(
            f"ray enumeration in dimension {dim} exceeds cap {DIMENSION_CAP}")
    if any(len(h) != dim for h in halfspaces):
        raise DimensionMismatchError("halfspace length differs from dim")

    position: dict[tuple[int, ...], int] = {}  # a kept normal -> index
    normals: list[tuple[int, ...]] = []
    for h in halfspaces:
        c = canonical_ray(h)
        if not any(c) or c in position:
            continue
        position[c] = len(normals)
        normals.append(c)

    base = independent_subset(tuple(normals))
    if len(base) < dim:
        raise DegenerateConeError(
            "halfspace normals do not span; the cone contains a line")
    base_idx = [position[b] for b in base]
    rest_idx = [i for i in range(len(normals)) if i not in base_idx]

    # base ray j sits in slot j, each new ray in the next unused one; slots
    # lists the live slots, and live holds them as bits
    rays: list[tuple[int, ...]] = list(inverse_rays(base))
    all_base = sum(1 << k for k in base_idx)
    masks: list[int] = [all_base & ~(1 << k) for k in base_idx]
    slots = list(range(dim))
    live = (1 << dim) - 1
    zero_on = [0] * len(normals)  # bit s: the ray in slot s is zero on it
    for j, k in enumerate(base_idx):
        zero_on[k] = live ^ 1 << j

    for hi in rest_idx:
        h = normals[hi]
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
            s = len(rays)
            rays.append(tuple(_combine(evals[p], rays[m], evals[m], rays[p])))
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


def ray_rows(rays, arithmetic: str) -> Rows:
    """Double description's rays as rows: of scale 1 in rational mode, and
    1 / |r| in float mode, which keeps emitted floats readable."""
    return tuple((r, ONE if arithmetic == RATIONAL else Fraction(1, _top(r)))
                 for r in rays)


def _tolerance_ratio(tol) -> tuple[int, int]:
    """tol (an int, float or Fraction) as integers (e, f) with f >= 0:
    e / f for a finite tol, (1, 0) for +inf, and (-1, 0) for -inf and
    NaN, so that the test a * f >= -e * b of a >= -tol (b > 0) passes
    everything at +inf and nothing at -inf or NaN, as comparing a
    Fraction with those floats does."""
    if isinstance(tol, float) and not isfinite(tol):
        return (1, 0) if tol > 0 else (-1, 0)
    return tol.as_integer_ratio()


def _top(row: tuple[int, ...]) -> int:
    """The largest entry magnitude of an integer row, 1 for a zero row."""
    return max(map(abs, row)) or 1


def _meets(rows: Rows, xs: tuple[int, ...], xscale: tuple[int, int],
           tol) -> bool:
    """Whether <r, x> >= -tol * |r| on every facet row r, |r| its largest
    entry magnitude (1 for a zero row), for x = (c / d) * xs given by
    integers xs and xscale = (c, d), c, d > 0 (not always coprime).

    On integers, for any tol an int, float or Fraction: with tol = e/f
    the test is c f s >= -e d |r| for the row sum s, so a row with
    s >= 0 passes unread when tol >= 0."""
    e, f = _tolerance_ratio(tol)
    c, d = xscale
    cf, ed = c * f, -e * d
    for row, _ in rows:
        s = sum(map(mul, row, xs))
        if s >= 0 and e >= 0:
            continue
        if cf * s < ed * _top(row):
            return False
    return True


def _given(vectors, noun: str) -> Rows:
    """The rows of a side given as vectors: a nonempty sequence of number
    sequences of one length."""
    try:
        items = iter(vectors)
    except TypeError:
        raise InvalidInputError(
            f"expected a sequence of {noun}s, got {vectors!r}") from None
    side = tuple(vec(v) for v in items)
    if not side:
        raise DegenerateConeError(f"no {noun}s given")
    if any(len(v) != len(side[0]) for v in side):
        raise DimensionMismatchError(f"{noun} length differs from dim")
    return tuple(map(integer_row, side))


class ConeRep:
    """A pointed, generating cone in R^dim.

    kind "polyhedral": generators and facets, either lazily completed,
    given and held as `Rows`; `generators`/`facets` make vectors per read.
    kind "lorentz": x[-1] >= euclidean norm of x[:-1]; no finite lists.
    """

    __slots__ = ("dim", "kind", "arithmetic", "_generators", "_facets",
                 "_dual")

    def __init__(self, dim: int, kind: str, arithmetic: str,
                 generators: Rows | None = None, facets: Rows | None = None):
        if kind not in (POLYHEDRAL, LORENTZ):
            raise UnsupportedConeError(f"unknown cone kind {kind!r}")
        if arithmetic not in (RATIONAL, FLOAT):
            raise UnsupportedConeError(f"unknown arithmetic {arithmetic!r}")
        self.dim = dim
        self.kind = kind
        self.arithmetic = arithmetic
        self._generators = generators
        self._facets = facets
        self._dual: ConeRep | None = self if kind == LORENTZ else None

    # -- constructors --------------------------------------------------

    @classmethod
    def from_generators(cls, generators,
                        arithmetic: str = RATIONAL) -> ConeRep:
        gens = _given(generators, "generator")
        cone = cls(len(gens[0][0]), POLYHEDRAL, arithmetic, gens)
        if rank([r for r, _ in gens]) != cone.dim:
            raise DegenerateConeError("generators do not span (not generating)")
        return cone

    @classmethod
    def from_facets(cls, facets, arithmetic: str = RATIONAL) -> ConeRep:
        fcts = _given(facets, "facet")
        dim = len(fcts[0][0])
        if rank([r for r, _ in fcts]) != dim:
            raise DegenerateConeError("facet normals do not span (not pointed)")
        return cls(dim, POLYHEDRAL, arithmetic, facets=fcts)

    @classmethod
    def from_both(cls, generators, facets,
                  arithmetic: str = RATIONAL) -> ConeRep:
        recomputed = cls.from_generators(generators, arithmetic)
        cone = cls(recomputed.dim, POLYHEDRAL, arithmetic,
                   recomputed.generator_rows(), _given(facets, "facet"))
        if {r for r, _ in recomputed.facet_rows()} != \
                {r for r, _ in cone.facet_rows()}:
            raise DegenerateConeError(
                "facet list disagrees with the generator list")
        return cone

    @classmethod
    def lorentz(cls, dim: int, arithmetic: str = FLOAT) -> ConeRep:
        if dim < 1:
            raise DegenerateConeError("lorentz cone needs dim >= 1")
        return cls(dim, LORENTZ, arithmetic)

    # -- representation access -----------------------------------------

    @property
    def generators(self) -> tuple[Vec, ...]:
        return _vectors(self.generator_rows())

    @property
    def facets(self) -> tuple[Vec, ...]:
        return _vectors(self.facet_rows())

    def has_generators(self) -> bool:
        return self._generators is not None

    def has_facets(self) -> bool:
        return self._facets is not None

    def facet_rows(self) -> Rows:
        """Each facet as a coprime integer row and a positive scale whose
        product is the facet (linalg.integer_row): handed over, cleared
        from the given facets, or enumerated. Raises as `facets` does."""
        return self._rows("facet", "generators", "pointed")

    def generator_rows(self) -> Rows:
        """Each generator as a row and a scale: the dual view's facet
        rows, so both views read one tuple, filled at most once."""
        return self.dual()._rows("generator", "facets", "generating")

    def _rows(self, side: str, known_name: str, quality: str) -> Rows:
        """This view's facet rows, enumerated once if missing and shared
        with the dual view. The names are the asking view's
        (generator_rows asks the dual view), so an error names the sides
        as that view does."""
        if self._facets is None:
            self._facets = self._enumerate_missing(side, known_name, quality)
            # enumeration read the generator rows, so the dual view exists
            self._dual._generators = self._facets
        return self._facets

    def _enumerate_missing(self, side: str, known_name: str,
                           quality: str) -> Rows:
        """This view's facet rows: the extreme rays of the dual of its
        generator rows' integers, held at ray_rows' scale."""
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
        return ray_rows(rays, self.arithmetic)

    def facet_rays(self) -> tuple[tuple[int, ...], ...]:
        """Double description's rays of the generator rows: the facet rows'
        where missing (then kept), else, as held facets need not be those
        rays, a simplex's inverse columns or the rays enumerated anew."""
        known = [r for r, _ in self.generator_rows()]
        inv = self.has_facets() and len(known) == self.dim and inverse(known)
        if inv:
            return tuple(sorted(map(canonical_ray, zip(*inv))))
        rows = (self._enumerate_missing("facet", "generators", "pointed")
                if self.has_facets() else self.facet_rows())
        return tuple(r for r, _ in rows)

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
        return _meets(self.facet_rows(), xs, xscale.as_integer_ratio(), tol)

    def weights(self, x: Vec, tol: Fraction = ZERO) -> Vec | None:
        """Weights w >= 0 on the generators that sum to x within tol (in
        L1, by lp.feasible_point), or None: membership from generators.
        The LP's columns are the generator rows (its residual does not
        depend on their scales); row r's weight over r's scale is its
        generator's."""
        rows = self.generator_rows()
        w = feasible_point([r for r, _ in rows], vec(x), tol)[0]
        return None if w is None else tuple(
            y / s if y and s != 1 else y for y, (_, s) in zip(w, rows))

    def strictly_positive(self, functional: Vec) -> bool:
        """Whether <functional, g> > 0 on every nonzero cone element."""
        functional = vec(functional)
        if self.kind == LORENTZ:
            # Strictly positive iff interior to the (self-dual) cone.
            head, last = functional[:-1], functional[-1]
            return last > 0 and last ** 2 > dot(head, head)
        # a row has the sign of its generator, as its scale is positive
        return all(dot(functional, g) > 0 for g, _ in self.generator_rows())

    def dual(self) -> ConeRep:
        """The dual cone: one cached view with the two sides swapped, and
        a side enumerated through either view is stored in both. Lorentz
        cones are self-dual."""
        if self._dual is None:
            self._dual = ConeRep(self.dim, POLYHEDRAL, self.arithmetic,
                                 self._facets, self._generators)
            self._dual._dual = self
        return self._dual

    def zero_sets(self) -> tuple[int, ...]:
        """Per generator row, the bitmask of the facet rows that vanish on
        it (bit k for facet row k), by int dots of the two sides' rows."""
        facets = [f for f, _ in self.facet_rows()]
        return tuple(sum(1 << k for k, f in enumerate(facets)
                         if sum(map(mul, f, g)) == 0)
                     for g, _ in self.generator_rows())

    def minimal_generators(self) -> tuple[Vec, ...]:
        """Extreme rays only: a generator is dropped when another nonzero
        generator's zero set strictly contains its own."""
        masks = self.zero_sets()
        nonzero = [z for z, (g, _) in zip(masks, self.generator_rows())
                   if any(g)]
        return tuple(g for g, z in zip(self.generators, masks) if not any(
            o != z and o & z == z for o in nonzero))


def maps_into(matrix: Mat, dom: ConeRep, cod: ConeRep, tol: Fraction,
              scale: Fraction = ONE) -> bool:
    """Whether scale * matrix (cod.dim x dom.dim) maps dom into cod
    within tol, for all four pairings of kinds: each generator row g of a
    polyhedral dom, taken as g / |g|, maps to an image that cod contains.
    Into polyhedral facets the matrix is cleared once to integers times a
    positive scale, so the image is an integer vector times a numerator
    and denominator pair, and _meets tests it on ints at any tol; an
    integer matrix, such as a side's row, comes with its row's scale."""
    if scale != 1 and (dom.kind == LORENTZ or not cod._facets_in_reach()):
        # tested on vectors, not on ints: the scale goes into the matrix
        matrix = tuple(tuple(x * scale for x in row) for row in matrix)
        scale = ONE
    if dom.kind == LORENTZ:
        if cod.kind == POLYHEDRAL:
            # T maps dom into cod iff T^t maps each generator h of cod's
            # dual (a facet of cod) into dom's dual.
            return maps_into(transpose(matrix), cod.dual(), dom.dual(), tol)
        return _lorentz_to_lorentz_positive(matrix, cod, tol)
    if not cod._facets_in_reach():
        units = _vectors(tuple((g, Fraction(1, _top(g)))
                               for g, _ in dom.generator_rows()))
        return all(cod.contains(matvec(matrix, g), tol) for g in units)
    rows, gens = cod.facet_rows(), dom.generator_rows()
    if len(matrix) != cod.dim or any(len(r) != dom.dim for r in matrix):
        raise DimensionMismatchError("map matrix shape mismatch")
    flat, own = integer_row(tuple(x for row in matrix for x in row))
    ints = [flat[i:i + dom.dim] for i in range(0, len(flat), dom.dim)]
    n, m = (own * scale).as_integer_ratio()
    for gs, _ in gens:
        image = [sum(map(mul, row, gs)) for row in ints]
        if not _meets(rows, image, (n, m * _top(gs)), tol):
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
