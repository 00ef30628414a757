import random
from fractions import Fraction

from bdshift.scalars import Scalar, as_scalar, ZERO, ONE

I = Scalar(0, 1)


def rand_scalar(rng):
    return Scalar(
        Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
        Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
    )


def test_construction_and_equality():
    assert Scalar(3) == Scalar(Fraction(3), Fraction(0))
    assert Scalar(1, 2) != Scalar(1)
    assert not Scalar(0)
    assert Scalar(0, 1)


def test_field_operations():
    a = Scalar(Fraction(1, 2), Fraction(3, 4))
    b = Scalar(2, -1)
    assert a + b == Scalar(Fraction(5, 2), Fraction(-1, 4))
    assert a - b == Scalar(Fraction(-3, 2), Fraction(7, 4))
    assert a * b == Scalar(Fraction(7, 4), 1)
    assert I * I == Scalar(-1)
    assert (a / b) * b == a
    assert 1 / I == -I


def test_conjugate_and_abs_sq():
    a = Scalar(3, -4)
    assert a.conjugate() == Scalar(3, 4)
    assert a.abs_sq() == Fraction(25)
    assert (a * a.conjugate()) == Scalar(25)


def test_json_round_trip():
    a = Scalar(Fraction(-7, 3), Fraction(5, 11))
    assert a.to_json() == [-7, 3, 5, 11]
    assert Scalar.from_json(a.to_json()) == a


def test_as_scalar_coercions():
    assert as_scalar(5) == Scalar(5)
    assert as_scalar(Fraction(2, 3)) == Scalar(Fraction(2, 3))
    assert as_scalar("x") is NotImplemented


def test_random_field_axioms():
    rng = random.Random(20240101)
    for _ in range(200):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.abs_sq() == (a * a.conjugate()).re
        if b:
            assert (a / b) * b == a
