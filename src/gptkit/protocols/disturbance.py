"""Nondisturbing measurements and the direct-sum structure behind them.

A positive map is nondisturbing when it fixes every pure state up to a
scalar. These are exactly the nonnegative combinations of the summand
identity maps id_i, one per irreducible direct summand of the cone, so
the decision problem reduces to the cone decomposition.
"""

from __future__ import annotations

from fractions import Fraction

from ..cones import independent_subset
from ..errors import DegenerateConeError
from ..linalg import (Mat, Vec, inverse, mat, matmul, matvec, proportion,
                      transpose)
from ..scalars import close, tolerance_for
from ..spaces import LinearMapRep, StateSpace, decompose_cone

ZERO = Fraction(0)


def nondisturbing_basis(space: StateSpace) -> tuple[LinearMapRep, ...]:
    """One idempotent per irreducible summand: identity on the summand's
    span, zero on the others. Their nonnegative span is exactly the set
    of nondisturbing maps."""
    dec = decompose_cone(space)
    columns: list[Vec] = []
    owners: list[int] = []
    for bi, block in enumerate(dec.blocks):
        basis = independent_subset(tuple(dec.rays[i] for i in block))
        columns.extend(basis)
        owners.extend([bi] * len(basis))
    if len(columns) != space.dim:
        raise DegenerateConeError("summand spans do not fill the space")
    U = transpose(tuple(columns))  # basis vectors as matrix columns
    Uinv = inverse(U)
    if Uinv is None:
        raise DegenerateConeError("summand spans are not independent")
    maps = []
    for bi in range(len(dec.blocks)):
        D = tuple(tuple((Fraction(1) if (i == j and owners[i] == bi) else ZERO)
                        for j in range(space.dim))
                  for i in range(space.dim))
        P = matmul(matmul(U, D), Uinv)
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
