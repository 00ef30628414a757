"""Algebraic laws of the periodic sequence core, on both domains.

A unilateral sequence lives on k >= 0 and shifts with zero fill; a
bilateral one lives on Z and shifts by translation.  Every operation must
agree pointwise with value_at on a window of each domain.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from bdshift.algebra import UnilateralElement, _terms_mul
from bdshift.profinite import SupernaturalNumber
from bdshift.scalars import Scalar, ZERO
from bdshift.sequences import (
    BilateralEPSequence,
    EPSequence,
    ep_add,
    ep_conjugate,
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
def sequences(draw, domain):
    cls, lo, _ = DOMAINS[domain]
    period = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    table = draw(st.lists(scalars, min_size=period, max_size=period))
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
    s, d = ep_add(a, b), a - b
    sc, cj, sh = ep_scale(a, c), ep_conjugate(a), ep_shift(a, t)
    for k in DOMAINS[domain][2]:
        x, y = a.value_at(k), b.value_at(k)
        assert s.value_at(k) == x + y == (a + b).value_at(k)
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


def _entry(domain, deg, f, i, j):
    """Entry (i, j) of the monomial of degree deg whose coefficient has
    the values f; on k >= 0 a negative degree keeps its coefficient left
    of (U*)^p."""
    if i - j != deg:
        return ZERO
    if domain == "bilateral":
        return f(j)
    if min(i, j) < 0:
        return ZERO
    return f(j if deg >= 0 else i)


@pytest.mark.parametrize("domain", DOMAINS)
@LAWS
@given(data=st.data())
def test_quasi_affine_weight(domain, data):
    """In a commutator, the product kernel takes a pair (C, v), standing
    for C*W + v with a constant linear part C, at a degree m with J | m:
    the weight-1 products cancel between the passes but for their
    corrections and cutoffs, and the bracket is the entry-wise one.  At
    a degree m with J not dividing m the pair is refused."""
    v, b = (data.draw(sequences(domain)) for _ in range(2))
    C = data.draw(scalars)
    m, n = data.draw(st.sampled_from([0, 12, -12])), data.draw(shifts)
    window = DOMAINS[domain][2]
    unilateral = domain == "unilateral"

    def values(k):
        return _weight(domain, k) * C + v.value_at(k)

    bracket = _terms_mul({m: (C, v)}, {n: b}, unilateral, commute=True)
    for j in window:
        i = j + m + n
        want = _entry(domain, m, values, i, i - m) \
            * _entry(domain, n, b.value_at, i - m, j) \
            - _entry(domain, n, b.value_at, i, i - n) \
            * _entry(domain, m, values, i - n, j)
        assert _entry(domain, m + n, bracket[m + n].value_at, i, j) == want

    # [C*W, V^n b] at an odd m with b of period 2: the weight-1 products
    # C(b(k+m) - b(k)) keep a periodic part
    odd = data.draw(st.sampled_from([-5, -3, -1, 1, 3, 5]))
    with pytest.raises(AssertionError, match="affine weight failed"):
        _terms_mul({odd: (C or Scalar(1), v)}, {n: type(v)({}, [1, 0], N)},
                   unilateral, commute=True)


@LAWS
@given(data=st.data())
def test_domains_never_mix(data):
    a = data.draw(sequences("unilateral"))
    b = BilateralEPSequence(a.correction, a.table, N)
    assert a != b and b != a
    with pytest.raises(TypeError):
        UnilateralElement({0: b}, N)
