"""The canonical row form of the periodic sequences.

Every sequence is stored as Gaussian-integer rows over one denominator,
(den, re, im, corr), with the minimal period, den > 0, den coprime to the
numerators taken together and no zero correction.  Whatever builds a
sequence (the checked constructor, the ep_* operations, the product
kernel, the JSON reader) must leave that form, so that two constructions
of one value compare equal, hash alike and write the same JSON.  The
scalars carry different denominators in their real and imaginary parts.
"""

from fractions import Fraction
from itertools import chain
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from bdshift.algebra import (
    BilateralElement,
    UnilateralElement,
    multiply,
    scale,
)
from bdshift.profinite import LocallyConstantFunction, SupernaturalNumber
from bdshift.scalars import Scalar
from bdshift.sequences import (
    EPSequence,
    ep_add,
    ep_conjugate,
    ep_scale,
    ep_shift,
)

N = SupernaturalNumber.from_int(12)

ROWS = settings(
    max_examples=100, deadline=None, database=None, derandomize=True
)

denominators = st.sampled_from([1, 2, 3, 4, 6])
scalars = st.builds(
    lambda a, b, d, e: Scalar(Fraction(a, d), Fraction(b, e)),
    st.integers(-3, 3), st.integers(-2, 2), denominators, denominators,
)
nonzero = scalars.filter(bool)
periods = st.sampled_from([1, 2, 3, 4, 6, 12])
CLASSES = (EPSequence, LocallyConstantFunction)


@st.composite
def sequences(draw, cls):
    period = draw(periods)
    table = draw(st.lists(scalars, min_size=period, max_size=period))
    if cls is LocallyConstantFunction:
        return cls(table, N)
    corr = draw(st.dictionaries(st.integers(0, 6), scalars, max_size=3))
    return cls(corr, table, N)


def assert_canonical(s):
    """The invariant of the row form, checked on the integers."""
    assert s.den > 0 and type(s.re) is tuple and type(s.im) is tuple
    assert len(s.re) == len(s.im) == s.period
    assert gcd(s.den, *s.re, *s.im, *chain(*s.corr.values())) == 1
    assert all(a or b for a, b in s.corr.values())
    j = s.period
    for d in range(1, j):
        if j % d == 0:
            assert any(s.re[r] != s.re[r % d] or s.im[r] != s.im[r % d]
                       for r in range(j)), (d, s)


def assert_same(a, b):
    assert a == b and hash(a) == hash(b) and a.to_json() == b.to_json()


@st.composite
def derived(draw, cls):
    """A sequence of class cls through a few ep_* operations."""
    a = draw(sequences(cls))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("add", "axpy", "scale", "shift",
                                   "conj")))
        if op == "add":
            a = ep_add(a, draw(sequences(cls)))
        elif op == "axpy":
            a = ep_add(a, ep_scale(draw(sequences(cls)), draw(scalars)))
        elif op == "scale":
            a = ep_scale(a, draw(scalars))
        elif op == "shift":
            a = ep_shift(a, draw(st.integers(-5, 5)))
        else:
            a = ep_conjugate(a)
    return a


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@ROWS
@given(data=st.data())
def test_operations_leave_the_row_form(cls, data):
    a = data.draw(derived(cls))
    assert type(a) is cls
    assert_canonical(a)
    round_trip = cls.from_json(a.to_json(), N)
    assert_canonical(round_trip)
    assert_same(round_trip, a)
    # through Scalars and the checked constructor
    if cls is LocallyConstantFunction:
        rebuilt = cls(list(a.table), N)
    else:
        rebuilt = cls(a.correction, list(a.table), N)
    assert_same(rebuilt, a)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@ROWS
@given(data=st.data())
def test_two_constructions_of_one_value_agree(cls, data):
    a = data.draw(sequences(cls))
    b = data.draw(sequences(cls))
    c = data.draw(nonzero)
    n = data.draw(st.integers(-5, 5))
    third = Scalar(Fraction(1, 3))
    for other in (ep_scale(ep_scale(a, third), 3),
                  ep_scale(ep_scale(a, c), 1 / c),
                  ep_add(ep_add(a, b), ep_scale(b, -1)),
                  ep_conjugate(ep_conjugate(a)),
                  ep_add(ep_scale(a, 2), ep_scale(a, -1))):
        assert_canonical(other)
        assert_same(other, a)
    if cls is not EPSequence:
        assert_same(ep_shift(ep_shift(a, n), -n), a)
    # on k >= 0 a shift drops the corrections below n, and with them
    # perhaps the only numerators that were coprime to den
    assert_canonical(ep_shift(a, abs(n)))
    # a value whose denominators cancel comes back over 1
    whole = ep_scale(ep_add(a, ep_scale(a, -1)), c)
    assert whole.den == 1 and whole.is_zero()


@pytest.mark.parametrize("element", (UnilateralElement, BilateralElement),
                         ids=lambda c: c.__name__)
@ROWS
@given(data=st.data())
def test_products_leave_the_row_form(element, data):
    cls = element._coeff

    def draw_element():
        degrees = data.draw(st.lists(st.integers(-3, 3), min_size=1,
                                     max_size=3, unique=True))
        return element({n: data.draw(sequences(cls)) for n in degrees}, N)

    x, y = draw_element(), draw_element()
    c = data.draw(nonzero)
    product = multiply(x, y)
    for coeff in product.terms.values():
        assert_canonical(coeff)
    other = multiply(scale(x, c), scale(y, 1 / c))
    assert other == product and hash(other) == hash(product)
    assert other.to_json() == product.to_json()
