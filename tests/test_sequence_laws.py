"""Algebraic laws of the periodic sequence core, on both domains.

A unilateral sequence lives on k >= 0 and shifts with zero fill; a
bilateral one lives on Z and shifts by translation.  Every operation must
agree pointwise with value_at on a window of each domain.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from bdshift.algebra import UnilateralElement
from bdshift.profinite import SupernaturalNumber
from bdshift.scalars import Scalar, ZERO
from bdshift.sequences import (
    BilateralEPSequence,
    EPSequence,
    QuasiAffine,
    ep_add,
    ep_conjugate,
    ep_mul,
    ep_scale,
    ep_shift,
    increment,
    partial_sums,
)

N = SupernaturalNumber.from_int(12)

# class, lowest correction key drawn, window of positions checked
DOMAINS = {
    "unilateral": (EPSequence, 0, range(0, 30)),
    "bilateral": (BilateralEPSequence, -8, range(-20, 21)),
}

LAWS = settings(
    max_examples=100, deadline=None, database=None, derandomize=True
)

scalars = st.builds(Scalar, st.integers(-4, 4), st.integers(-3, 3))
shifts = st.integers(-6, 6)


@st.composite
def sequences(draw, domain, zero_table=False):
    cls, lo, _ = DOMAINS[domain]
    period = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    table = [ZERO] * period if zero_table else draw(
        st.lists(scalars, min_size=period, max_size=period))
    corr = draw(st.dictionaries(st.integers(lo, 8), scalars, max_size=4))
    return cls(corr, table, N)


def _value(a, k):
    """a(k), with a(k) = 0 off the unilateral domain."""
    if isinstance(a, EPSequence) and k < 0:
        return ZERO
    return a.value_at(k)


def _weight(domain, k):
    """The affine weight: k+1 on k >= 0, l on Z."""
    return Scalar(k + 1 if domain == "unilateral" else k)


@pytest.mark.parametrize("domain", DOMAINS)
@LAWS
@given(data=st.data())
def test_ops_agree_with_values(domain, data):
    a = data.draw(sequences(domain))
    b = data.draw(sequences(domain))
    c = data.draw(scalars)
    t = data.draw(shifts)
    s, p, d = ep_add(a, b), ep_mul(a, b), a - b
    sc, cj, sh = ep_scale(a, c), ep_conjugate(a), ep_shift(a, t)
    for k in DOMAINS[domain][2]:
        x, y = a.value_at(k), b.value_at(k)
        assert s.value_at(k) == x + y == (a + b).value_at(k)
        assert p.value_at(k) == x * y == (a * b).value_at(k)
        assert d.value_at(k) == x - y
        assert sc.value_at(k) == c * x
        assert cj.value_at(k) == x.conjugate()
        assert sh.value_at(k) == _value(a, k + t)


@LAWS
@given(data=st.data())
def test_increment_inverts_partial_sums(data):
    a = data.draw(sequences("unilateral"))
    sums = partial_sums(a)
    assert sums.value_at(0) == a.value_at(0)
    assert increment(sums) == a
    window = DOMAINS["unilateral"][2]
    for k in window:
        if k - 1 in window:
            assert sums.value_at(k) - sums.value_at(k - 1) == a.value_at(k)


@pytest.mark.parametrize("domain", DOMAINS)
@LAWS
@given(data=st.data())
def test_quasi_affine_weight(domain, data):
    u, v, b = (data.draw(sequences(domain)) for _ in range(3))
    t = data.draw(shifts)
    q = QuasiAffine(u, v)

    def expected(k):
        if domain == "unilateral" and k < 0:
            return ZERO
        return _weight(domain, k) * u.value_at(k) + v.value_at(k)

    shifted, product = q.shift(t), q.mul_ep(b)
    for k in DOMAINS[domain][2]:
        assert q.value_at(k) == expected(k)
        assert shifted.value_at(k) == expected(k + t)
        assert product.value_at(k) == expected(k) * b.value_at(k)

    finite = QuasiAffine(data.draw(sequences(domain, zero_table=True)), v)
    collapsed = finite.collapse()
    for k in DOMAINS[domain][2]:
        assert collapsed.value_at(k) == finite.value_at(k)


@LAWS
@given(data=st.data())
def test_domains_never_mix(data):
    a = data.draw(sequences("unilateral"))
    b = BilateralEPSequence(a.correction, a.table, N)
    assert a != b and b != a
    with pytest.raises(TypeError):
        UnilateralElement({0: b}, N)
