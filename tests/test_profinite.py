import random
import time
from fractions import Fraction

import pytest

from bdshift.scalars import Scalar
from bdshift.errors import NotFinite, PeriodNotDivisor
from bdshift.profinite import (
    LocallyConstantFunction,
    _divides,
    _factorize,
    _is_prime,
    _minimal_period,
    SupernaturalNumber,
    divides,
    finite_divisors,
    ep_add,
    ep_scale,
    ep_shift,
    haar_integral,
)
from bdshift.sequences import BilateralEPSequence

N12 = SupernaturalNumber.from_int(12)
N2INF = SupernaturalNumber({2: "inf"})


def test_supernatural_basics():
    assert N12.factors == {2: 2, 3: 1}
    assert N12.is_finite() and N12.as_int() == 12
    assert not N2INF.is_finite()
    with pytest.raises(NotFinite):
        N2INF.as_int()
    assert SupernaturalNumber.from_int(1).factors == {}
    assert SupernaturalNumber({2: "inf"}).factors[2] > 100


def test_supernatural_rejects_bad_input():
    with pytest.raises(ValueError):
        SupernaturalNumber({4: 1})
    with pytest.raises(ValueError):
        SupernaturalNumber({2: 0})


def test_divides():
    assert divides(6, N12) and divides(12, N12)
    assert not divides(8, N12) and not divides(5, N12)
    assert divides(16, N2INF) and not divides(3, N2INF)
    assert finite_divisors(N12, 12) == [1, 2, 3, 4, 6, 12]
    assert finite_divisors(N2INF, 10) == [1, 2, 4, 8]


def test_primality_is_miller_rabin_fast():
    sieve = [True] * 3000
    sieve[0] = sieve[1] = False
    for p in range(2, 3000):
        if sieve[p]:
            for q in range(p * p, 3000, p):
                sieve[q] = False
    assert [n for n in range(3000) if _is_prime(n)] == [
        n for n in range(3000) if sieve[n]
    ]
    # strong pseudoprimes to the first few bases, and a 19-digit semiprime
    for n in (3215031751, 3825123056546413051, 1000000007 * 998244353,
              1000000000000000005):
        assert not _is_prime(n)
        with pytest.raises(ValueError):
            SupernaturalNumber({n: 1})
    big = 1000000000000000003
    start = time.perf_counter()
    N = SupernaturalNumber({big: 2, 2: "inf"})
    assert N.factors[big] == 2
    assert divides(big * 8, N) and not divides(big ** 3, N)
    assert time.perf_counter() - start < 2.0
    with pytest.raises(ValueError):
        SupernaturalNumber({2 ** 89 - 1: 1})  # prime beyond the exact bound


def _divides_by_factoring(j, N):
    return all(e <= N.factors.get(p, 0) for p, e in _factorize(j).items())


def test_divides_memo_agrees_with_factoring():
    Ns = [N12, N2INF, SupernaturalNumber({}), SupernaturalNumber({3: 2, 5: "inf"})]
    _divides.cache_clear()
    for _ in range(2):  # the second pass is answered from the memo
        for N in Ns:
            for j in range(1, 400):
                assert divides(j, N) == _divides_by_factoring(j, N)
        assert divides(12, SupernaturalNumber.from_int(12))
    assert _divides.cache_info().hits > 0
    for j in (0, -3):
        for _ in range(2):
            with pytest.raises(ValueError, match="positive integer"):
                divides(j, N12)


def _minimal_period_by_divisors(*rows):
    j = len(rows[0])
    return next(d for d in range(1, j + 1) if j % d == 0 and all(
        row[r] == row[r % d] for row in rows for r in range(j)))


def test_minimal_period_agrees_with_divisor_scan():
    # one row, and the common period of two rows planted apart
    rng = random.Random(20241018)
    lengths = [1, 2, 3, 5, 7, 11, 13, 12, 24, 48, 96, 6, 36]
    for length in lengths:
        divisors = [d for d in range(1, length + 1) if length % d == 0]
        for _ in range(30):
            rows = []
            for _ in range(2):
                planted = rng.choice(divisors)
                base = [rng.randint(-1, 1) for _ in range(planted)]
                row = [base[r % planted] for r in range(length)]
                if rng.random() < 0.3:  # break the planted period once
                    row[rng.randrange(length)] = 7
                rows.append(row)
            for got in ((rows[0], rows[0]), rows):
                assert _minimal_period(*got) == \
                    _minimal_period_by_divisors(*got)


def test_supernatural_json():
    for N in (N12, N2INF, SupernaturalNumber({})):
        assert SupernaturalNumber.from_json(N.to_json()) == N


def test_lcf_minimal_period():
    f = LocallyConstantFunction([Scalar(1), Scalar(1)], N12)
    assert f.period == 1
    g = LocallyConstantFunction(
        [Scalar(1), Scalar(2), Scalar(1), Scalar(2)], N12
    )
    assert g.period == 2
    with pytest.raises(PeriodNotDivisor):
        LocallyConstantFunction([Scalar(k) for k in range(5)], N12)


def test_lcf_values_and_shift():
    g = LocallyConstantFunction([Scalar(3), Scalar(-1)], N12)
    assert g.value_at(0) == Scalar(3)
    assert g.value_at(7) == Scalar(-1)
    assert g.value_at(-1) == Scalar(-1)
    assert ep_shift(g, 1).value_at(0) == g.value_at(1)
    assert list(g.values) == [Scalar(3), Scalar(-1)]


def test_lcf_pointwise_ops():
    f = LocallyConstantFunction([Scalar(1), Scalar(2)], N12)
    g = LocallyConstantFunction([Scalar(1), Scalar(0), Scalar(2)], N12)
    s = ep_add(f, g)
    assert s.period == 6
    for k in range(12):
        assert s.value_at(k) == f.value_at(k) + g.value_at(k)
    assert ep_scale(f, Scalar(2)).value_at(1) == Scalar(4)


def test_lcf_is_the_correction_free_core_member():
    f = LocallyConstantFunction([Scalar(1), Scalar(2)], N12)
    for g in (ep_add(f, f), ep_scale(f, Scalar(3)),
              ep_shift(f, 1), -f, f - f):
        assert type(g) is LocallyConstantFunction
    b = BilateralEPSequence({}, [Scalar(1), Scalar(2)], N12)
    assert f.table == b.table and f != b
    assert f.to_json() == {"period": 2, "values": [[1, 1, 0, 1], [2, 1, 0, 1]]}
    with pytest.raises(ValueError):
        ep_add(f, BilateralEPSequence({0: Scalar(1)}, [Scalar(0)], N12))


def test_haar_integral():
    f = LocallyConstantFunction(
        [Scalar(1), Scalar(0), Scalar(0), Scalar(0)], N12
    )
    assert haar_integral(f) == Scalar(Fraction(1, 4))
    assert haar_integral(LocallyConstantFunction([Scalar(7)], N12)) == Scalar(7)


def test_haar_shift_invariance():
    rng = random.Random(20240103)
    for _ in range(50):
        vals = [Scalar(rng.randint(-5, 5)) for _ in range(6)]
        f = LocallyConstantFunction(vals, N12)
        t = rng.randint(-10, 10)
        assert haar_integral(ep_shift(f, t)) == haar_integral(f)


def test_lcf_json_round_trip():
    f = LocallyConstantFunction([Scalar(1, 2), Scalar(0)], N12)
    assert LocallyConstantFunction.from_json(f.to_json(), N12) == f
