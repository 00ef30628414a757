"""Laws of the integer-triple Scalar against a reference model.

The reference for a Gaussian rational is the pair (re, im) of Fractions.
Every operation must agree with the model, and every result must be in
canonical form: (a + b*i)/d with d > 0 and gcd(a, b, d) == 1.
"""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from bdshift.scalars import Scalar, ZERO

LAWS = settings(
    max_examples=200, deadline=None, database=None, derandomize=True
)

fractions = st.one_of(
    st.integers(-30, 30).map(Fraction),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**20)),
)
pairs = st.tuples(fractions, fractions)
ints = st.integers(-10**6, 10**6)


def S(pair):
    return Scalar(*pair)


def assert_canonical(s):
    a, b, d = s._t
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and gcd(a, b, d) == 1


def assert_model(s, pair):
    assert_canonical(s)
    assert (s.re, s.im) == pair
    assert type(s.re) is Fraction and type(s.im) is Fraction


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    m = y[0] * y[0] + y[1] * y[1]
    num = ref_mul(x, (y[0], -y[1]))
    return (num[0] / m, num[1] / m)


def ref_str(x):
    re, im = x
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


@LAWS
@given(pairs)
def test_construction_is_canonical(x):
    assert_model(S(x), x)


@LAWS
@given(pairs, pairs)
def test_ring_operations_match_model(x, y):
    a, b = S(x), S(y)
    assert_model(a + b, (x[0] + y[0], x[1] + y[1]))
    assert_model(a - b, (x[0] - y[0], x[1] - y[1]))
    assert_model(a * b, ref_mul(x, y))
    assert_model(-a, (-x[0], -x[1]))
    if y != (0, 0):
        assert_model(a / b, ref_div(x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            a / b


@LAWS
@given(pairs)
def test_unary_and_conversions_match_model(x):
    a = S(x)
    assert_model(a.conjugate(), (x[0], -x[1]))
    assert a.abs_sq() == x[0] * x[0] + x[1] * x[1]
    assert type(a.abs_sq()) is Fraction
    assert a.is_real() == (x[1] == 0)
    assert bool(a) == (x != (0, 0))
    assert complex(a) == complex(float(x[0]), float(x[1]))
    assert str(a) == ref_str(x)
    assert repr(a) == f"Scalar({x[0]!r}, {x[1]!r})"
    assert a.to_json() == [
        x[0].numerator, x[0].denominator, x[1].numerator, x[1].denominator
    ]


@LAWS
@given(pairs, pairs)
def test_equal_values_hash_equal(x, y):
    a = S(x)
    built = [
        Scalar.from_json(a.to_json()),
        (a + S(y)) - S(y),
        a * Scalar(1) + ZERO,
        Scalar(str(x[0]), str(x[1])),
    ]
    for b in built:
        assert_canonical(b)
        assert b == a and hash(b) == hash(a) and b._t == a._t
    assert (a == S(y)) == (x == y)


@LAWS
@given(pairs)
def test_json_round_trip(x):
    a = S(x)
    b = Scalar.from_json(a.to_json())
    assert b == a and b.to_json() == a.to_json()
    assert Scalar.from_json(tuple(a.to_json())) == a


@LAWS
@given(pairs, st.one_of(ints, fractions))
def test_mixing_with_int_and_fraction(x, c):
    a = S(x)
    cc = (Fraction(c), Fraction(0))
    for got, want in [
        (a + c, (x[0] + c, x[1])),
        (c + a, (x[0] + c, x[1])),
        (a - c, (x[0] - c, x[1])),
        (c - a, (c - x[0], -x[1])),
        (a * c, ref_mul(x, cc)),
        (c * a, ref_mul(cc, x)),
    ]:
        assert_model(got, want)
    if c != 0:
        assert_model(a / c, ref_div(x, cc))
    else:
        with pytest.raises(ZeroDivisionError):
            a / c
    if x != (0, 0):
        assert_model(c / a, ref_div(cc, x))
    else:
        with pytest.raises(ZeroDivisionError):
            c / a
    assert (a == c) == (x == cc) and (c == a) == (x == cc)


def test_rejects_other_types_and_stays_immutable():
    with pytest.raises(TypeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        Scalar(1, 2j)
    with pytest.raises(TypeError):
        Scalar(1) + 0.5
    with pytest.raises(TypeError):
        0.5 * Scalar(1)
    assert Scalar(1) != "1" and Scalar(1) != 1.0 + 0j
    with pytest.raises(ValueError):
        Scalar.from_json([1, 2, 3])
    with pytest.raises(ZeroDivisionError):
        Scalar.from_json([1, 0, 0, 1])
    a = Scalar(Fraction(1, 2), 3)
    for name in ("re", "im", "_t", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
    assert a == Scalar(Fraction(1, 2), 3)
