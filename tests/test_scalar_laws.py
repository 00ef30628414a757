"""Laws of the integer-triple Scalar against a reference model.

The reference for a Gaussian rational is the pair (re, im) of Fractions.
Every operation must agree with the model, and every result must be in
canonical form: (a + b*i)/d with d > 0 and gcd(a, b, d) == 1.
"""

from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from bdshift.algebra import LaurentFunction
from bdshift.derivations import DerivationSum, covariant
from bdshift.profinite import LocallyConstantFunction, SupernaturalNumber
from bdshift.scalars import Scalar, ZERO
from bdshift.sequences import AffineSequence, EPSequence
from bdshift.serialize import load_workspace

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
        Scalar(Fraction(str(x[0])), Fraction(str(x[1]))),
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
        Scalar("1/2")
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


# ---------------------------------------------------------------------------
# the wire decoder: [rn, rd, in, id] straight to the canonical triple

wide = st.one_of(st.integers(-30, 30), st.integers(-(2**300), 2**300))


@st.composite
def wire_parts(draw):
    """A numerator and a nonzero denominator of either sign, often with a
    common factor, the denominator sometimes 300 bits wide."""
    den = draw(st.one_of(st.integers(1, 12), st.integers(2**299, 2**300)))
    k = draw(st.one_of(st.just(1), st.integers(2, 36),
                       st.integers(2**64, 2**65)))
    sign = draw(st.sampled_from([1, -1]))
    return draw(wide) * k * sign, den * k * sign


@LAWS
@given(wire_parts(), wire_parts())
def test_wire_decoder_matches_fractions(x, y):
    want = Scalar(Fraction(*x), Fraction(*y))
    for data in ([*x, *y], (*x, *y)):
        got = Scalar.from_json(data)
        assert_canonical(got)
        assert got == want and got._t == want._t


def test_wire_decoder_refuses_with_the_fraction_reader_classes():
    # each fault alone, at each position.  The reader built on
    # Fraction(rn, rd) raised these classes, except that it took a null
    # denominator for 1: a null is refused at every position now
    for bad in (1.5, 2.0, float("nan"), "1", "1/2", True, False, None):
        for position in range(4):
            data = [3, 4, -5, 6]
            data[position] = bad
            with pytest.raises(TypeError):
                Scalar.from_json(data)
    for data in ([1, 2, 3], [1, 2, 3, 4, 5], [], "abcd", {"a": 1}, 7, None):
        with pytest.raises(ValueError):
            Scalar.from_json(data)
    for data in ([1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0],
                 [2**300, 0, 1, -1], (1, 1, 1, 0)):
        with pytest.raises(ZeroDivisionError):
            Scalar.from_json(data)


N12 = SupernaturalNumber.from_int(12)
DIVISORS = (1, 2, 3, 4, 6, 12)
small = st.one_of(st.just(ZERO), st.builds(
    lambda a, b, d, e: Scalar(Fraction(a, d), Fraction(b, e)),
    st.integers(-3, 3), st.integers(-2, 2), st.sampled_from(DIVISORS),
    st.sampled_from(DIVISORS)))


def _wire(value, k):
    """value as a wire 4-tuple over k times its denominators, k < 0 for
    negative denominators."""
    re, im = value.re, value.im
    return [re.numerator * k, re.denominator * k,
            im.numerator * k, im.denominator * k]


@st.composite
def tables(draw):
    """A table given above its minimal period: a base repeated to a
    length that divides 12."""
    length = draw(st.sampled_from(DIVISORS))
    period = draw(st.sampled_from([p for p in DIVISORS if length % p == 0]))
    base = draw(st.lists(small, min_size=period, max_size=period))
    return base * (length // period)


factors = st.sampled_from([1, -1, 3, -6, 2**70])


@pytest.mark.parametrize("cls", (EPSequence, LocallyConstantFunction),
                         ids=lambda c: c.__name__)
@LAWS
@given(data=st.data())
def test_sequences_read_their_wire_form(cls, data):
    table, k = data.draw(tables()), data.draw(factors)
    raw = [_wire(v, k) for v in table]
    if cls is LocallyConstantFunction:
        a, raw = cls(table, N12), {"values": raw}
    else:
        # zero corrections are written and dropped on reading
        corr = data.draw(st.dictionaries(st.integers(0, 5), small,
                                         max_size=3))
        a = cls(corr, table, N12)
        raw = {"table": raw,
               "correction": {str(j): _wire(v, k) for j, v in corr.items()}}
    assert cls.from_json(a.to_json(), N12) == a
    b = cls.from_json(raw, N12)
    assert b == a and b.to_json() == a.to_json()


@LAWS
@given(st.dictionaries(st.integers(-4, 4), small, max_size=4), factors)
def test_laurent_functions_read_their_wire_form(coeffs, k):
    f = LaurentFunction(coeffs)
    assert LaurentFunction.from_json(f.to_json()) == f
    raw = {"coeffs": {str(j): _wire(c, k) for j, c in coeffs.items()}}
    assert LaurentFunction.from_json(raw) == f


@LAWS
@given(data=st.data())
def test_derivation_sums_read_their_wire_form(data):
    comps = {}
    for n in data.draw(st.sets(st.integers(-13, 13), max_size=3)):
        # a linear part only where covariance allows one
        linear = data.draw(small) if n % 12 == 0 else ZERO
        ep = EPSequence(data.draw(st.dictionaries(
            st.integers(0, 5), small, max_size=2)), data.draw(tables()), N12)
        comps[n] = covariant(n, AffineSequence(linear, ep), N12)
    d = DerivationSum(comps, N12)
    assert DerivationSum.from_json(d.to_json(), N12) == d
    for comp in d.components.values():
        assert AffineSequence.from_json(comp.beta.to_json(), N12) == comp.beta


def test_loading_the_bench_workspaces_builds_no_fraction(monkeypatch):
    # the wire decoder reads 4-tuples straight onto integer rows; the
    # Fraction-based reader built 164 Fractions for these four files
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    paths = sorted((Path(__file__).resolve().parents[1] / "bench"
                    / "workspaces").glob("*.json"))
    assert len(paths) == 4
    for path in paths:
        load_workspace(path)
    assert not built, len(built)
