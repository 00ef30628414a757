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
    """The product kernel moves the weight of a pair (u, v), standing for
    W*u + v, on either side of a product as the entry-wise product does;
    in a commutator a finitely supported weight-1 row folds into the
    values as (k + offset)*c, and a periodic leftover is refused."""
    u, v, b = (data.draw(sequences(domain)) for _ in range(3))
    m, n = data.draw(shifts), data.draw(shifts)
    window = DOMAINS[domain][2]

    def values(c):
        if isinstance(c, tuple):
            return lambda k: _weight(domain, k) * c[0].value_at(k) \
                + c[1].value_at(k)
        return c.value_at

    for x, y in (((u, v), b), (b, (u, v))):
        product = _terms_mul({m: x}, {n: y}, domain == "unilateral")[m + n]
        assert isinstance(product, tuple)
        for j in window:
            i = j + m + n
            want = _entry(domain, m, values(x), i, i - m) \
                * _entry(domain, n, values(y), i - m, j)
            assert _entry(domain, m + n, values(product), i, j) == want

    finite = (data.draw(sequences(domain, zero_table=True)), v)
    unilateral = domain == "unilateral"
    bracket = _terms_mul({m: finite}, {n: b}, unilateral, commute=True)
    assert not isinstance(bracket[m + n], tuple)
    for j in window:
        i = j + m + n
        want = _entry(domain, m, values(finite), i, i - m) \
            * _entry(domain, n, values(b), i - m, j) \
            - _entry(domain, n, values(b), i, i - n) \
            * _entry(domain, m, values(finite), i - n, j)
        assert _entry(domain, m + n, bracket[m + n].value_at, i, j) == want

    # [W*u, V]: the weight-1 row u(k+1) - u(k) keeps a periodic part
    periodic = (type(v)({}, [1, 0], N), v)
    one = type(v)({}, [1], N)
    with pytest.raises(AssertionError):
        _terms_mul({0: periodic}, {1: one}, unilateral, commute=True)


@LAWS
@given(data=st.data())
def test_domains_never_mix(data):
    a = data.draw(sequences("unilateral"))
    b = BilateralEPSequence(a.correction, a.table, N)
    assert a != b and b != a
    with pytest.raises(TypeError):
        UnilateralElement({0: b}, N)
