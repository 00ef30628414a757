"""Algebraic laws of the elements of both algebras.

A(N) holds UnilateralElements with EPSequence coefficients, the quotient
B(N) holds BilateralElements with locally constant coefficients; both
share one container class and one product and commutator kernel, so
every law runs on both domains.  The quotient map and the multiplicative
defect connect the two.  naive_product_entry is the entry-wise reference
for the product kernel and, with a derivation's Generator as one factor,
for the commutator kernel.  Scalars are Gaussian rationals whose real and
imaginary parts carry different denominators, so the kernel's shared
denominator of a product is rarely 1.
"""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from bdshift.algebra import (
    KRONECKER_PAIRS,
    BilateralElement,
    UnilateralElement,
    _factors,
    _kronecker_rows,
    _kronecker_slots,
    _pair_rows,
    _slot_bytes,
    _unilateral_rows,
    adjoint,
    commutator,
    is_compact,
    mult_defect,
    multiply,
    quotient,
    toeplitz,
)
from bdshift.derivations import (
    DerivationSum,
    apply,
    bilateral_apply,
    bilateral_covariant,
    bounded_regime,
    classify,
    covariant,
    reassemble,
)
from bdshift.errors import RegimeMismatch
from bdshift.profinite import LocallyConstantFunction, SupernaturalNumber
from bdshift.scalars import Scalar, ZERO
from bdshift.sequences import (
    AffineSequence,
    BilateralAffineSequence,
    BilateralEPSequence,
    EPSequence,
)

N = SupernaturalNumber.from_int(12)
N_INF = SupernaturalNumber({2: "inf"})

# element class, the matrix indices of a window
DOMAINS = {
    "unilateral": (UnilateralElement, range(0, 16)),
    "bilateral": (BilateralElement, range(-8, 8)),
}

LAWS = settings(
    max_examples=60, deadline=None, database=None, derandomize=True
)

denominators = st.sampled_from([1, 2, 3, 4, 6])
scalars = st.builds(
    lambda a, b, d, e: Scalar(Fraction(a, d), Fraction(b, e)),
    st.integers(-3, 3), st.integers(-2, 2), denominators, denominators,
)
periods = st.sampled_from([1, 2, 3, 4, 6, 12])


@st.composite
def tables(draw, periods=periods):
    period = draw(periods)
    return draw(st.lists(scalars, min_size=period, max_size=period))


@st.composite
def coefficients(draw, domain, compact=False):
    if domain == "bilateral":
        return LocallyConstantFunction(draw(tables()), N)
    table = [ZERO] if compact else draw(tables())
    corr = draw(st.dictionaries(st.integers(0, 6), scalars, max_size=3))
    return EPSequence(corr, table, N)


@st.composite
def elements(draw, domain, compact=False):
    degrees = draw(st.lists(st.integers(-3, 3), max_size=3, unique=True))
    cls = DOMAINS[domain][0]
    return cls({n: draw(coefficients(domain, compact)) for n in degrees}, N)


@st.composite
def components(draw, domain, far=False):
    """{n: covariant component} at degrees -3..3, with far also at +-N and
    +-2N; covariance allows a linear part only at n = 0 and at those."""
    comps = {}
    pool = st.integers(-3, 3)
    if far:
        pool = pool | st.sampled_from([-24, -12, 12, 24])
    for n in draw(st.lists(pool, max_size=3, unique=True)):
        linear = ZERO if bounded_regime(n, N) else draw(scalars)
        if domain == "unilateral":
            beta = AffineSequence(linear, draw(coefficients(domain)))
            comps[n] = covariant(n, beta, N)
        else:
            ep = BilateralEPSequence({}, draw(tables()), N)
            eta = BilateralAffineSequence(linear, ep)
            comps[n] = bilateral_covariant(n, eta, N)
    return comps


@st.composite
def derivations(draw, domain):
    """a |-> d(a) for the components drawn by components(domain)."""
    comps = draw(components(domain))
    if domain == "unilateral":
        d = DerivationSum(comps, N)
        return lambda a: apply(d, a)
    return lambda b: bilateral_apply(comps, b)


class Generator:
    """The generator g = sum_n V^n beta_n(W) of a derivation, entry by
    entry: g(i, k) is the affine coefficient of degree i - k at the index
    p where an element of the domain reads its coefficient, with the
    weight W(p) = p + 1 on A(N) and W(p) = p on B(N)."""

    def __init__(self, comps, domain):
        self.unilateral = domain == "unilateral"
        self.coefs = {n: c.beta if self.unilateral else c.eta
                      for n, c in comps.items()}

    def max_abs_degree(self):
        return max((abs(n) for n in self.coefs), default=0)

    def entry(self, i, k):
        coef = self.coefs.get(i - k)
        if coef is None:
            return ZERO
        p = i if self.unilateral and i < k else k
        weight = p + 1 if self.unilateral else p
        return coef.linear * Scalar(weight) + coef.ep.value_at(p)


def naive_product_entry(x, y, i, j):
    """sum_k x(i, k) y(k, j) over the band |i - k| <= s of x, with k >= 0
    on A(N); one factor may be a Generator."""
    s = x.max_abs_degree()
    unilateral = UnilateralElement in (type(x), type(y))
    lo = max(i - s, 0) if unilateral else i - s
    total = ZERO
    for k in range(lo, i + s + 1):
        total = total + x.entry(i, k) * y.entry(k, j)
    return total


@pytest.mark.parametrize("domain", DOMAINS)
@LAWS
@given(data=st.data())
def test_multiply_matches_the_entrywise_product(domain, data):
    x, y = (data.draw(elements(domain)) for _ in range(2))
    window = DOMAINS[domain][1]
    xy = multiply(x, y)
    for i in window:
        for j in window:
            assert xy.entry(i, j) == naive_product_entry(x, y, i, j)


@pytest.mark.parametrize("domain", DOMAINS)
@LAWS
@given(data=st.data())
def test_derivations_obey_leibniz(domain, data):
    d = data.draw(derivations(domain))
    x, y = (data.draw(elements(domain)) for _ in range(2))
    assert d(x * y) == d(x) * y + x * d(y)


@pytest.mark.parametrize("domain", DOMAINS)
@LAWS
@given(data=st.data())
def test_derivations_are_commutators_with_the_affine_generator(domain, data):
    """[g, a] entry by entry on the window and, for a generator with a
    linear part at +-N or +-2N, on the first keys of every degree m + n:
    there the weight-1 products meet the cutoffs k < min(m, -n) and the
    moved correction keys of a, which the kernel forms alone."""
    comps = data.draw(components(domain, far=True))
    a = data.draw(elements(domain))
    if domain == "unilateral":
        image = apply(DerivationSum(comps, N), a)
    else:
        image = bilateral_apply(comps, a)
    g = Generator(comps, domain)
    window = DOMAINS[domain][1]
    degrees = {m + n for m in comps for n in a.terms}
    assert set(image.terms) <= degrees
    cells = {(i, j) for i in window for j in window} | {
        (k + max(d, 0), k - min(d, 0)) for d in degrees for k in window}
    for i, j in cells:
        assert image.entry(i, j) == (naive_product_entry(g, a, i, j)
                                     - naive_product_entry(a, g, i, j))


def _rebuilt(c):
    """c through the checked constructor, which searches the minimal
    period and drops zero corrections."""
    if isinstance(c, LocallyConstantFunction):
        assert not c.correction
        return LocallyConstantFunction(list(c.table), c.N)
    return type(c)(c.correction, list(c.table), c.N)


@st.composite
def collapsing(draw, domain):
    """a and b of period 4 with a*b constant: the product row over J = 4
    collapses to period 1."""
    table = draw(st.lists(scalars.filter(bool), min_size=4, max_size=4))
    c = draw(scalars.filter(bool))
    inverse = [c / v for v in table]
    if domain == "bilateral":
        return (LocallyConstantFunction(table, N),
                LocallyConstantFunction(inverse, N))
    corr = draw(st.dictionaries(st.integers(0, 6), scalars, max_size=2))
    return EPSequence(corr, table, N), EPSequence({}, inverse, N)


@pytest.mark.parametrize("domain", DOMAINS)
@LAWS
@given(data=st.data())
def test_kernel_outputs_are_canonical(domain, data):
    """Every coefficient of a product or a derivation's image is already
    in the form the checked constructor gives: minimal period, a tuple
    table, no zero corrections."""
    cls = DOMAINS[domain][0]
    d = data.draw(derivations(domain))
    x, y = (data.draw(elements(domain)) for _ in range(2))
    a, b = data.draw(collapsing(domain))
    m = data.draw(st.integers(0, 3))
    flat = multiply(cls({m: a}, N), cls({0: b}, N))
    assert flat.terms[m].period == 1
    # on A(N), U^m a(K) b(K) (U*)^m carries the cutoff chi_{>=m}
    cut = multiply(cls({m: a}, N), cls({-m: b}, N))
    for out in (multiply(x, y), flat, cut, d(x), d(cls({m: a}, N))):
        for c in out.terms.values():
            rebuilt = _rebuilt(c)
            assert type(c.table) is tuple
            assert c.period == len(c.table) == rebuilt.period
            assert c.table == rebuilt.table
            assert c.correction == rebuilt.correction
            assert all(c.correction.values())


@pytest.mark.parametrize("domain", DOMAINS)
@LAWS
@given(data=st.data())
def test_products_associate_and_distribute(domain, data):
    x, y, z = (data.draw(elements(domain)) for _ in range(3))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@pytest.mark.parametrize("domain", DOMAINS)
@LAWS
@given(data=st.data())
def test_adjoint_is_an_involution_reversing_products(domain, data):
    x, y = (data.draw(elements(domain)) for _ in range(2))
    assert adjoint(adjoint(x)) == x
    assert adjoint(x * y) == adjoint(y) * adjoint(x)
    assert adjoint(x + y) == adjoint(x) + adjoint(y)


@LAWS
@given(data=st.data())
def test_quotient_is_a_star_homomorphism_killing_compacts(data):
    x, y = (data.draw(elements("unilateral")) for _ in range(2))
    assert quotient(x * y) == quotient(x) * quotient(y)
    assert quotient(x + y) == quotient(x) + quotient(y)
    assert quotient(adjoint(x)) == adjoint(quotient(x))
    k = data.draw(elements("unilateral", compact=True))
    assert is_compact(k)
    assert quotient(k).is_zero()
    assert quotient(x + k) == quotient(x)


@LAWS
@given(data=st.data())
def test_mult_defect_is_compact(data):
    b1, b2 = (data.draw(elements("bilateral")) for _ in range(2))
    defect = mult_defect(b1, b2)
    assert is_compact(defect)
    assert quotient(defect).is_zero()


@LAWS
@given(data=st.data())
def test_mult_defect_is_the_toeplitz_difference(data):
    """mult_defect forms only the pairs that meet below 0; it equals
    T(b1 b2) - T(b1)T(b2) formed in full, for degrees of both signs, N
    finite and 2^inf, and numerators past 2^64.  (A wrong closed form
    made only of corrections would still be compact.)"""
    n_, periods_ = data.draw(st.sampled_from(
        [(N, [1, 2, 3, 4, 6, 12]), (N_INF, [1, 2, 4, 8])]))
    bound = data.draw(st.sampled_from([3, 2**70]))
    wide = st.builds(
        lambda a, b, d, e: Scalar(Fraction(a, d), Fraction(b, e)),
        st.integers(-bound, bound), st.integers(-bound, bound),
        denominators, st.sampled_from([1, 5, 3**40]))

    def element():
        degrees = data.draw(st.lists(st.integers(-9, 9), min_size=1,
                                     max_size=5, unique=True))
        return BilateralElement({n: LocallyConstantFunction(data.draw(
            st.lists(wide, min_size=p, max_size=p)), n_) for n in degrees
            for p in [data.draw(st.sampled_from(periods_))]}, n_)
    b1, b2 = element(), element()
    assert mult_defect(b1, b2) == toeplitz(multiply(b1, b2)) - multiply(
        toeplitz(b1), toeplitz(b2))


@pytest.mark.parametrize("domain", DOMAINS)
@LAWS
@given(data=st.data())
def test_equal_covariant_data_hash_equal(domain, data):
    n = data.draw(st.integers(-3, 3))
    # covariance allows a linear part only in the increment regime n = 0
    linear = data.draw(scalars) if n == 0 else ZERO
    table = data.draw(tables())
    if domain == "unilateral":
        make = lambda: covariant(
            n, AffineSequence(linear, EPSequence({}, table, N)), N)
    else:
        make = lambda: bilateral_covariant(
            n, BilateralAffineSequence(
                linear, BilateralEPSequence({}, table, N)), N)
    a, b = make(), make()
    assert a is not b and a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


# N, the degrees drawn (bounded regime and increment regime n in NZ),
# the table periods
REGIMES = {
    "finite": (N, [-12, -5, -1, 0, 1, 7, 12], periods),
    "infinite": (N_INF, [-3, -1, 0, 1, 2], st.sampled_from([1, 2, 4, 8])),
}


@pytest.mark.parametrize("regime", REGIMES)
@LAWS
@given(data=st.data())
def test_reassemble_inverts_classify(regime, data):
    NN, degrees, pers = REGIMES[regime]
    n = data.draw(st.sampled_from(degrees))
    bounded = bounded_regime(n, NN)
    linear = ZERO if bounded else data.draw(scalars)
    corr = data.draw(st.dictionaries(st.integers(0, 6), scalars, max_size=3))
    ep = EPSequence(corr, data.draw(tables(pers)), NN)
    comp = covariant(n, AffineSequence(linear, ep), NN)
    if bounded:
        with pytest.raises(RegimeMismatch):
            classify(comp)
    else:
        assert reassemble(classify(comp), n, NN) == \
            DerivationSum({n: comp}, NN)


# Refinement: A(N) lies in A(N') when N divides N', and every operation
# commutes with that inclusion.  An element over N is re-read over
# N' = N*p or over the supernatural 2^inf 3^inf, through its wire form.
REFINEMENTS = ["N*p", "supernatural"]


@st.composite
def sequences_over(draw, NN, base):
    """An EPSequence over NN whose period divides base."""
    pers = st.sampled_from([d for d in (1, 2, 3, 4, 6, 12) if base % d == 0])
    corr = draw(st.dictionaries(st.integers(0, 6), scalars, max_size=2))
    return EPSequence(corr, draw(tables(pers)), NN)


@st.composite
def refinable(draw, NN, base, large):
    """A unilateral element over NN with periods dividing base; large
    draws 13 or 14 dense terms, above the size rule of _terms_mul."""
    if large:
        start, count = draw(st.integers(-7, 0)), draw(st.integers(13, 14))
        degrees = range(start, start + count)
    else:
        degrees = draw(st.lists(st.integers(-3, 3), max_size=3, unique=True))
    return UnilateralElement({n: draw(sequences_over(NN, base))
                              for n in degrees}, NN)


@pytest.mark.parametrize("refinement", REFINEMENTS)
@LAWS
@given(data=st.data())
def test_operations_commute_with_refining_N(refinement, data):
    """multiply, adjoint, quotient, toeplitz, commutator and apply give
    the same wire form over N and over a multiple N' of N, and carry N'."""
    # two primes in N, so that periods 2 and 3 meet
    base = data.draw(st.sampled_from([12, 6]))
    NN = SupernaturalNumber.from_int(base)
    N2 = SupernaturalNumber.from_int(
        base * data.draw(st.sampled_from([2, 3, 5]))) \
        if refinement == "N*p" else SupernaturalNumber({2: "inf", 3: "inf"})
    large = data.draw(st.booleans())
    x, y = (data.draw(refinable(NN, base, large)) for _ in range(2))
    comps = {}
    for n in data.draw(st.lists(st.integers(-3, 3), max_size=3, unique=True)):
        beta = AffineSequence(data.draw(scalars) if n == 0 else ZERO,
                              data.draw(sequences_over(NN, base)))
        comps[n] = covariant(n, beta, NN)
    d = DerivationSum(comps, NN)

    def reread(a):
        return type(a)({n: type(c).from_json(c.to_json(), N2)
                        for n, c in a.terms.items()}, N2)
    X, Y, D2 = reread(x), reread(y), DerivationSum.from_json(d.to_json(), N2)
    for op in (multiply, commutator):
        assert reread(op(x, y)) == op(X, Y)
    qx, qy = quotient(x), quotient(y)
    for got, want in ((adjoint(X), adjoint(x)), (quotient(X), qx),
                      (toeplitz(quotient(X)), toeplitz(qx)),
                      (multiply(quotient(X), quotient(Y)), multiply(qx, qy)),
                      (apply(D2, X), apply(d, x))):
        assert got.N == N2 and got == reread(want)


# The kernels of each domain, called directly on the same lifted factors:
# periods J dividing 24, numerators up to 3, 2^20 or 2^200 over mixed
# denominators up to 2^61 - 1, 12 on A(N) (slots of 1, 2, 4 and 8 bytes
# and wider ones, which the rule refuses, all occur), dense and sparse
# degree sets.  On B(N), in a commutator, x may hold pairs (C, v) as a
# derivation's generator does: a constant linear part C, a Scalar, at
# degrees in J*Z.  On A(N), corrections at keys 0..12, and in some draws
# one at key 10^4, a corner column or row of its own.
N24 = SupernaturalNumber.from_int(24)
SPARSE = [-24, -12, -7, -1, 0, 1, 5, 12, 17, 24]
FAR_KEY = 10**4


@st.composite
def kronecker_terms(draw, J, count, bound, unilateral=False):
    """count terms of period dividing J, dense or sparse: from SPARSE on
    B(N), from -24..24 on A(N), where they carry corrections.  On B(N)
    the denominator 2^61 - 1 comes only with a bound above 2^20."""
    if draw(st.booleans()):
        start = draw(st.integers(-6, 6))
        degrees = range(start, start + count)
    else:
        pool = st.integers(-24, 24) if unilateral else st.sampled_from(SPARSE)
        degrees = draw(st.lists(pool, min_size=count, max_size=count,
                                unique=True))
    wide = st.builds(
        lambda a, b, d, e: Scalar(Fraction(a, d), Fraction(b, e)),
        st.integers(-bound, bound), st.integers(-bound, bound),
        st.sampled_from([1, 2, 3, 5, 12,
                         *[2**61 - 1] * (bound > 2**20 and not unilateral)]),
        st.sampled_from([1, 4]))

    def coefficient(p):
        table = draw(st.lists(wide, min_size=p, max_size=p))
        if not unilateral:
            return LocallyConstantFunction(table, N24)
        corr = draw(st.dictionaries(st.integers(0, 12), wide, max_size=2))
        return EPSequence(corr, table, N24)
    return {n: coefficient(p)
            for n in degrees
            for p in [draw(st.sampled_from([d for d in (1, 2, 3, 4, 6, 8)
                                            if J % d == 0]))]}


def _terms(factors, raw):
    """The terms of raw rows over D^2, as _terms_mul makes them."""
    cls, N, D = factors[:3]
    return {d: cls._make(D * D, *row, N) for d, row in raw.items()}


# the fewest comparisons each side of the size rule makes on each path,
# domain and kind of product: the derandomized draws change with any edit
# of the test's body, so a path that an edit stops reaching fails here
KRONECKER_FLOORS = {
    "below": {("pair", "A(N)", "product"): 20,
              ("pair", "B(N)", "product"): 10,
              ("pair", "B(N)", "commutator"): 10},
    "above": {("packed", "A(N)", "product"): 20,
              ("packed", "B(N)", "product"): 8,
              ("packed", "B(N)", "commutator"): 8},
}


@pytest.mark.parametrize("side", ["below", "above"])
def test_kronecker_rows_match_the_pair_loop(side):
    """On either domain, the pair loop and the Kronecker kernel give the
    same terms, the same raw rows over D^2 and the same degree keys in
    the same order, below and above the size rule's count of term pairs,
    a commutator whose x holds linear parts included, wherever the slots
    fit 8 bytes; the rule (_kronecker_slots) refuses wider ones.  On
    A(N) it admits every dense product above its count whose slots fit,
    one with a correction at key 10^4 included; the corner is drawn from
    both factors' corrections, from x's alone, from y's alone, or with
    a y of negative degrees only, the longest zero fill.  The compared
    draws are counted by the path the rule takes, the domain and the
    kind of product, against KRONECKER_FLOORS."""
    seen = Counter()

    @settings(LAWS, max_examples=120)  # 60 a domain
    @given(data=st.data())
    def check(data):
        unilateral = data.draw(st.booleans())
        J = data.draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
        sizes = st.integers(1, 3) if side == "below" \
            else st.integers(13, 14) if unilateral else st.integers(9, 10)
        # the widest bound, whose slots seldom fit 8 bytes and then only
        # reach the rule's refusal, is drawn once in four on A(N) and once
        # in five on B(N), so that most draws compare the kernels
        bound = data.draw(st.sampled_from([3, 2**20, 2**200, 3] if unilateral
                                          else [2**20, 2**200, 3, 2**20, 3]))
        xt, yt = (data.draw(kronecker_terms(J, data.draw(sizes), bound,
                                            unilateral)) for _ in range(2))
        assert (len(xt) * len(yt) >= KRONECKER_PAIRS * (
            len(xt) + len(yt) + J)) == (side == "above")
        commute = False
        if unilateral:
            corner = data.draw(st.sampled_from(
                ["both", "x", "y", "negative y"]))
            if corner == "negative y":
                yt = {n - max(yt) - 1: c for n, c in yt.items()}
            elif corner != "both":
                plain = yt if corner == "x" else xt
                for n, c in plain.items():
                    plain[n] = EPSequence({}, c.table, N24)
            far = data.draw(st.booleans()) and data.draw(st.booleans())
            if far:
                t = data.draw(st.sampled_from([xt, yt]))
                n = data.draw(st.sampled_from(sorted(t)))
                t[n] = t[n] + EPSequence({FAR_KEY: 1}, [0], N24)
            factors = _factors(xt, yt)
            nb, rule = _slot_bytes(factors, False), \
                _kronecker_slots(factors, True, False)
            # a dense product above the count is admitted unless its slots are
            # wide; a sparse one may also fail on its spread
            dense = all(max(t) - min(t) == len(t) - 1 for t in (xt, yt))
            admitted = side == "above" and nb <= 8
            assert rule == (nb if admitted else 0) or not dense and not rule
            kernels = (lambda: _pair_rows(factors, True, False),
                       lambda: _unilateral_rows(factors, nb))
        else:
            commute = data.draw(st.sampled_from([False, True, True]))
            if commute and data.draw(st.booleans()):
                pool = sorted({0, *(n for n in xt if n % J == 0)})
                for n in data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                            max_size=3, unique=True)):
                    v = next(iter(data.draw(kronecker_terms(J, 1, bound))
                                  .values()))
                    xt[n] = (v.value_at(1), xt.get(n, v))
            factors = _factors(xt, yt)
            nb = _slot_bytes(factors, commute)
            kernels = (lambda: _pair_rows(factors, False, commute),
                       lambda: _kronecker_rows(factors, commute, nb))
        if nb > 8:
            # the pair loop's alone: no reader takes a slot this wide
            assert not _kronecker_slots(factors, unilateral, commute)
            return
        results = []
        for kernel in kernels:
            raw = kernel()
            # the raw rows are read twice, for the terms and on their own
            results.append((_terms(factors, raw), list(raw),
                            {d: tuple(map(list, row[:2]))
                             for d, row in raw.items()}))
        assert results[1] == results[0]
        path = "packed" if _kronecker_slots(factors, unilateral, commute) \
            else "pair"
        seen[path, "A(N)" if unilateral else "B(N)",
             "commutator" if commute else "product"] += 1

    check()
    assert all(seen[cell] >= floor
               for cell, floor in KRONECKER_FLOORS[side].items()), seen


def test_bench_dense_product_takes_the_kronecker_path():
    """The benchmark's densest A(N) product, 33 x 33 terms at degrees
    -16..16 over N = 4, period-4 tables and two corrections at keys 0..5
    in each coefficient, takes the Kronecker path and gives the pair
    loop's terms.  So does the same product with a correction at key
    10^4 on either side, a corner row or column of its own: the kernel's
    peak memory stays below twice the plain product's, where a dense
    corner of 10^4 columns would take some hundred times more."""
    rng, N4 = random.Random(7), SupernaturalNumber.from_int(4)

    def scalar():
        return Scalar(rng.randint(-3, 3), rng.randint(-2, 2))
    xt, yt = ({n: EPSequence({rng.randint(0, 5): scalar() for _ in "ab"},
                             [scalar() for _ in range(4)], N4)
               for n in range(-16, 17)} for _ in "xy")
    peaks = []
    for far in (None, xt, yt):
        x, y = dict(xt), dict(yt)
        if far is not None:
            t = x if far is xt else y
            t[0] = t[0] + EPSequence({FAR_KEY: Scalar(1, 1)}, [0], N4)
        factors = _factors(x, y)
        nb = _kronecker_slots(factors, True, False)
        assert nb
        tracemalloc.start()
        raw = _unilateral_rows(factors, nb)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert _terms(factors, raw) \
            == _terms(factors, _pair_rows(factors, True, False))
    assert max(peaks[1:]) < 2 * peaks[0]


def test_size_rule_refuses_a_deep_zero_fill():
    # 10 x 10 terms, J = 1, y at degrees -40..-31: the zero fill's 355
    # products pass KRONECKER_CORNER * #x * #y = 200, so the pair loop
    # takes the product; at -10..-1 (55 products) the corner is admitted;
    # both kernels agree either way
    def element(degrees):
        return {n: EPSequence({0: Scalar(n)}, [Scalar(1, n % 3)], N24)
                for n in degrees}
    for low, admitted in ((-40, False), (-10, True)):
        factors = _factors(element(range(10)), element(range(low, low + 10)))
        nb = _slot_bytes(factors, False)
        assert bool(_kronecker_slots(factors, True, False)) is admitted
        assert _terms(factors, _unilateral_rows(factors, nb)) \
            == _terms(factors, _pair_rows(factors, True, False))


def test_size_rule_takes_a_weight_pair_only_past_the_guard():
    # 10 x 10 dense terms with two-byte slots, a linear part at degree 0:
    # the Kronecker path, which forms no weight-1 product, takes the
    # commutator and gives the pair loop's terms; a linear part at a
    # degree outside J*Z is refused before any product
    def lcf(*table):
        return LocallyConstantFunction([Scalar(a) for a in table], N24)
    xt = {n: lcf(1, -1) for n in range(-5, 5)}
    yt = {n: lcf(2, 1) for n in range(-4, 6)}
    xt[0] = (Scalar(1), lcf(1, 2))
    factors = _factors(xt, yt)
    nb = _kronecker_slots(factors, False, True)
    assert nb == 2
    assert _terms(factors, _kronecker_rows(factors, True, nb)) \
        == _terms(factors, _pair_rows(factors, False, True))
    xt[1] = (Scalar(1), lcf(1, 2))
    with pytest.raises(AssertionError, match="affine weight failed"):
        _factors(xt, yt)
