from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gptkit.errors import InvalidInputError
from gptkit.scalars import FLOAT, RATIONAL, emit, exactify, tolerance_for


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"),
                                   "inf", "nan", "1/0", "x"], ids=repr)
def test_exactify_rejects_non_finite(value):
    with pytest.raises(InvalidInputError):
        exactify(value)


def test_tolerance_for_rejects_negative():
    with pytest.raises(InvalidInputError):
        tolerance_for(-1)
    with pytest.raises(InvalidInputError):
        tolerance_for("-1/10")
    assert tolerance_for("1e-6") == Fraction(1, 10 ** 6)
    assert tolerance_for(0) == 0


scalars = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                    st.fractions(max_denominator=10 ** 6))
nested = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple)),
    max_leaves=20)


def _elementwise(value, mode):
    if isinstance(value, (tuple, list)):
        return [_elementwise(x, mode) for x in value]
    return emit(value, mode)


def _leaves(value):
    if isinstance(value, (tuple, list)):
        for x in value:
            yield from _leaves(x)
    else:
        yield value


@given(nested)
def test_emit_is_elementwise(value):
    for mode in (RATIONAL, FLOAT):
        assert emit(value, mode) == _elementwise(value, mode)
    leaves = list(_leaves(value))
    assert list(_leaves(emit(value, FLOAT))) == [float(x) for x in leaves]
    assert list(_leaves(emit(value, RATIONAL))) == [
        int(x) if Fraction(x).denominator == 1
        else f"{x.numerator}/{x.denominator}" for x in leaves]
    assert all(type(y) is int for x, y in
               zip(leaves, _leaves(emit(value, RATIONAL)))
               if isinstance(x, int))
