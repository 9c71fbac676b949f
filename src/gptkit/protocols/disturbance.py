"""Nondisturbing measurements and the direct-sum structure behind them.

A positive map is nondisturbing when it fixes every pure state up to a
scalar. These are exactly the nonnegative combinations of the summand
identity maps id_i, one per irreducible direct summand of the cone, so
the decision problem reduces to the cone decomposition.
"""

from __future__ import annotations

from ..cones import independent_subset
from ..errors import DegenerateConeError
from ..linalg import (Mat, combination, inverse, mat, matvec, proportion,
                      transpose)
from ..scalars import close, tolerance_for
from ..spaces import LinearMapRep, StateSpace, decompose_cone


def nondisturbing_basis(space: StateSpace) -> tuple[LinearMapRep, ...]:
    """One idempotent per irreducible summand: identity on the summand's
    span, zero on the others. Their nonnegative span is exactly the set
    of nondisturbing maps."""
    dec = decompose_cone(space)
    bases = [independent_subset(tuple(dec.rays[i] for i in block))
             for block in dec.blocks]
    columns = [v for basis in bases for v in basis]
    if len(columns) != space.dim:
        raise DegenerateConeError("summand spans do not fill the space")
    Uinv = inverse(transpose(tuple(columns)))  # basis vectors as columns
    if Uinv is None:
        raise DegenerateConeError("summand spans are not independent")
    # Idempotent of a block: row i weighs the block's rows of U^-1 by
    # the i-th entries of the block's basis vectors (row i of U there).
    maps = []
    start = 0
    for basis in bases:
        rows = Uinv[start:start + len(basis)]
        start += len(basis)
        P = tuple(combination(tuple(v[i] for v in basis), rows)
                  for i in range(space.dim))
        maps.append(LinearMapRep(space, space, P))
    return tuple(maps)


def is_nondisturbing(space: StateSpace, T: LinearMapRep | Mat,
                     tol=None) -> bool:
    """Whether T fixes every extreme ray up to a nonnegative scalar."""
    matrix = T.matrix if isinstance(T, LinearMapRep) else mat(T)
    eps = tolerance_for(tol, space)
    for g in space.cone.minimal_generators():
        image = matvec(matrix, g)
        c = proportion(image, g)
        if c < -eps or not close(image, tuple(c * y for y in g), eps):
            return False
    return True
