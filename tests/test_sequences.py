import random
from fractions import Fraction

import pytest

from bdshift.scalars import Scalar, ZERO, ONE
from bdshift.errors import PeriodNotDivisor
from bdshift.profinite import SupernaturalNumber, LocallyConstantFunction
from bdshift.sequences import (
    AffineSequence,
    BilateralAffineSequence,
    BilateralEPSequence,
    EPSequence,
    ep_add,
    ep_constant,
    ep_from_lcf,
    ep_scale,
    ep_shift,
    ep_supnorm_sq,
    ep_zero,
    increment,
    partial_sums,
)

N4 = SupernaturalNumber.from_int(4)
N6 = SupernaturalNumber.from_int(6)
NINF = SupernaturalNumber({2: "inf", 3: "inf"})


def rand_ep(rng, N, per, support=3):
    corr = {
        rng.randint(0, 9): Scalar(rng.randint(-4, 4), rng.randint(-2, 2))
        for _ in range(rng.randint(0, support))
    }
    table = [
        Scalar(rng.randint(-4, 4), rng.randint(-2, 2)) for _ in range(per)
    ]
    return EPSequence(corr, table, N)


def test_canonical_form():
    a = EPSequence({0: Scalar(0), 3: Scalar(2)}, [Scalar(1)] * 4, N4)
    assert a.period == 1
    assert a.correction == {3: Scalar(2)}
    assert a.support_bound() == 4
    with pytest.raises(PeriodNotDivisor):
        EPSequence({}, [Scalar(k) for k in range(3)], N4)
    with pytest.raises(ValueError):
        EPSequence({-1: Scalar(1)}, [Scalar(0)], N4)


def test_value_at():
    a = EPSequence({2: Scalar(5)}, [Scalar(1), Scalar(-1)], N4)
    assert a.value_at(0) == Scalar(1)
    assert a.value_at(2) == Scalar(6)
    assert a.value_at(4) == Scalar(1)
    with pytest.raises(ValueError):
        a.value_at(-1)


def test_pointwise_ops_match_values():
    rng = random.Random(20240104)
    for _ in range(60):
        a = rand_ep(rng, N4, rng.choice([1, 2, 4]))
        b = rand_ep(rng, N4, rng.choice([1, 2, 4]))
        s = ep_add(a, b)
        for k in range(14):
            assert s.value_at(k) == a.value_at(k) + b.value_at(k)
        d = ep_scale(a, Scalar(0, 1))
        assert d.value_at(3) == a.value_at(3) * Scalar(0, 1)


def test_shift_zero_fill():
    a = EPSequence({1: Scalar(7)}, [Scalar(2), Scalar(3)], N4)
    up = ep_shift(a, 2)
    for k in range(10):
        assert up.value_at(k) == a.value_at(k + 2)
    down = ep_shift(a, -2)
    assert down.value_at(0) == ZERO and down.value_at(1) == ZERO
    for k in range(2, 12):
        assert down.value_at(k) == a.value_at(k - 2)


def test_supnorm_sq():
    a = EPSequence({4: Scalar(9)}, [Scalar(1), Scalar(-2)], N4)
    assert ep_supnorm_sq(a) == Fraction(100)  # 9 + table value 1 at k=4
    assert ep_supnorm_sq(ep_zero(N4)) == Fraction(0)


def test_affine_value():
    beta = AffineSequence(Scalar(2), ep_constant(Scalar(1), N4))
    assert beta.value_at(0) == Scalar(3)
    assert beta.value_at(4) == Scalar(11)
    assert beta.linear


def test_increment_partial_sums_inverse():
    rng = random.Random(20240105)
    for _ in range(60):
        alpha = rand_ep(rng, N6, rng.choice([1, 2, 3, 6]))
        beta = partial_sums(alpha)
        back = increment(beta)
        for k in range(16):
            assert back.value_at(k) == alpha.value_at(k)
        total = ZERO
        for k in range(9):
            total = total + alpha.value_at(k)
            assert beta.value_at(k) == total


def test_ep_json_round_trip():
    a = EPSequence({2: Scalar(1, 1)}, [Scalar(Fraction(1, 3))], N4)
    assert EPSequence.from_json(a.to_json(), N4) == a
    beta = AffineSequence(Scalar(5), a)
    assert AffineSequence.from_json(beta.to_json(), N4) == beta


# ---------------------------------------------------------------------------
# bilateral


def rand_bep(rng, N, per):
    corr = {
        rng.randint(-6, 6): Scalar(rng.randint(-4, 4))
        for _ in range(rng.randint(0, 3))
    }
    table = [Scalar(rng.randint(-4, 4)) for _ in range(per)]
    return BilateralEPSequence(corr, table, N)


def test_bilateral_values_and_ops():
    rng = random.Random(20240106)
    for _ in range(60):
        a = rand_bep(rng, N6, rng.choice([1, 2, 3]))
        b = rand_bep(rng, N6, rng.choice([1, 2, 3]))
        s = ep_add(a, b)
        t = rng.randint(-5, 5)
        sh = ep_shift(a, t)
        for l in range(-9, 10):
            assert s.value_at(l) == a.value_at(l) + b.value_at(l)
            assert sh.value_at(l) == a.value_at(l + t)


def test_bilateral_increment_sums_inverse():
    rng = random.Random(20240107)
    for _ in range(40):
        table = [Scalar(rng.randint(-3, 3)) for _ in range(3)]
        eta = BilateralAffineSequence(
            Scalar(rng.randint(-2, 2)), BilateralEPSequence({}, table, N6)
        )
        gamma = increment(eta)
        for l in range(-6, 7):
            assert gamma.value_at(l) == eta.value_at(l) - eta.value_at(l - 1)


def test_minimal_period_bilateral():
    b = BilateralEPSequence({}, [Scalar(2)] * 6, N6)
    assert b.period == 1
    assert BilateralEPSequence({}, [Scalar(2)], N6) == b
