"""Exact Gaussian-rational scalars.

A scalar is an ordered pair of rationals (real, imaginary) with exact
arithmetic.  Magnitude comparisons go through the exact squared modulus,
never through floating-point square roots.
"""

from fractions import Fraction


def _to_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


class Scalar:
    """A Gaussian rational re + im*i with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _to_fraction(re))
        object.__setattr__(self, "im", _to_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # ------------------------------------------------------------------
    # ring structure

    def __add__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __sub__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.abs_sq()
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        num = self * other.conjugate()
        return Scalar(num.re / d, num.im / d)

    def __rtruediv__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def conjugate(self):
        return Scalar(self.re, -self.im)

    def abs_sq(self):
        """Exact |z|^2 as a Fraction."""
        return self.re * self.re + self.im * self.im

    # ------------------------------------------------------------------
    # comparisons and hashing

    def __eq__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    # ------------------------------------------------------------------
    # conversions

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def is_real(self):
        return self.im == 0

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    # ------------------------------------------------------------------
    # JSON wire format: [re_num, re_den, im_num, im_den]

    def to_json(self):
        return [
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        ]

    @classmethod
    def from_json(cls, data):
        if not (isinstance(data, (list, tuple)) and len(data) == 4):
            raise ValueError(f"scalar JSON must be a 4-tuple, got {data!r}")
        return cls(Fraction(data[0], data[1]), Fraction(data[2], data[3]))


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def as_scalar(x):
    """Coerce ints, Fractions and Scalars to Scalar; NotImplemented otherwise."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    return NotImplemented


def coerce_scalar(x):
    """as_scalar for values that must be scalars: TypeError otherwise."""
    s = as_scalar(x)
    if s is NotImplemented:
        raise TypeError(f"cannot use {type(x).__name__} as a scalar value")
    return s


def scalar(re=0, im=0):
    return Scalar(re, im)
