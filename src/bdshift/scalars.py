"""Exact Gaussian-rational scalars.

A scalar (a + b*i)/d is held as one canonical integer triple (a, b, d)
with d > 0 and gcd(a, b, d) == 1, so equal values have equal triples.
Sums and products work on the integers and reduce by one gcd, which is
skipped when the denominator is 1.  Magnitude comparisons go through the
exact squared modulus, never through floating-point square roots.
Periodic sequences are held as integer rows over one denominator
(profinite); they build Scalars only at the edges (_canonical), and
write and read the wire form of their rows directly (_wire, _triple).
"""

from fractions import Fraction
from math import gcd


def _to_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


def _fraction_str(n, d):
    """str(Fraction(n, d)) for d > 0."""
    g = gcd(n, d)
    if g == d:
        return str(n // d)
    return f"{n // g}/{d // g}"


class Scalar:
    """A Gaussian rational (a + b*i)/d held as a canonical integer triple."""

    __slots__ = ("_t",)

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            _set(self, (re, im, 1))
            return
        re, im = _to_fraction(re), _to_fraction(im)
        rd, id_ = re.denominator, im.denominator
        # over the lcm of two reduced denominators the triple is canonical
        d = rd // gcd(rd, id_) * id_
        _set(self, (re.numerator * (d // rd), im.numerator * (d // id_), d))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def re(self):
        a, _, d = self._t
        return Fraction(a, d)

    @property
    def im(self):
        _, b, d = self._t
        return Fraction(b, d)

    # ------------------------------------------------------------------
    # ring structure

    def __add__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, d = self._t
        c, e, f = other._t
        if d == f:
            return _canonical(a + c, b + e, d)
        return _canonical(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        a, b, d = self._t
        return _canonical(-a, -b, d)

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, d = self._t
        c, e, f = other._t
        if d == f:
            return _canonical(a - c, b - e, d)
        return _canonical(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, d = self._t
        c, e, f = other._t
        return _canonical(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, d = self._t
        c, e, f = other._t
        m = c * c + e * e
        if m == 0:
            raise ZeroDivisionError("division by zero scalar")
        # (a + bi)/d * f(c - ei)/(c^2 + e^2)
        return _canonical(f * (a * c + b * e), f * (b * c - a * e), d * m)

    def __rtruediv__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def conjugate(self):
        a, b, d = self._t
        return _canonical(a, -b, d)

    def abs_sq(self):
        """Exact |z|^2 as a Fraction."""
        a, b, d = self._t
        return Fraction(a * a + b * b, d * d)

    # ------------------------------------------------------------------
    # comparisons and hashing

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
            if other is NotImplemented:
                return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(self._t)

    def __bool__(self):
        a, b, _ = self._t
        return a != 0 or b != 0

    # ------------------------------------------------------------------
    # conversions

    def __complex__(self):
        # int / int is correctly rounded, as float(Fraction) is
        a, b, d = self._t
        return complex(a / d, b / d)

    def is_real(self):
        return self._t[1] == 0

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        a, b, d = self._t
        if b == 0:
            return _fraction_str(a, d)
        if a == 0:
            return f"{_fraction_str(b, d)}i"
        sign = "+" if b > 0 else "-"
        return f"{_fraction_str(a, d)}{sign}{_fraction_str(abs(b), d)}i"

    # ------------------------------------------------------------------
    # JSON wire format: [re_num, re_den, im_num, im_den]

    def to_json(self):
        return _wire(*self._t)

    @classmethod
    def from_json(cls, data):
        return _canonical(*_triple(data))


_new = object.__new__
_set = Scalar._t.__set__


def _canonical(a, b, d):
    """The Scalar (a + b*i)/d for d > 0, reduced to its canonical triple."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    s = _new(Scalar)
    _set(s, (a, b, d))
    return s


def _triple(data):
    """The canonical triple (a, b, d) of a wire 4-tuple [rn, rd, in, id],
    by one gcd (none when both denominators are 1), which also moves a
    negative denominator's sign onto the numerators.  ValueError for a
    wrong shape, TypeError for a part that is not an int (a float, string,
    boolean or null), ZeroDivisionError for a zero denominator."""
    if not (isinstance(data, (list, tuple)) and len(data) == 4):
        raise ValueError(f"scalar JSON must be a 4-tuple, got {data!r}")
    rn, rd, in_, id_ = data
    if not type(rn) is type(rd) is type(in_) is type(id_) is int:
        raise TypeError(f"scalar JSON parts must be integers: {data!r}")
    if rd == id_ == 1:
        return rn, in_, 1
    if not (rd and id_):
        raise ZeroDivisionError(f"zero denominator in scalar JSON {data}")
    a, b, d = (rn, in_, rd) if rd == id_ else (rn * id_, in_ * rd, rd * id_)
    g = gcd(a, b, d) if d > 0 else -gcd(a, b, d)
    return a // g, b // g, d // g


def _wire(a, b, d):
    """The JSON wire form of (a + b*i)/d for d > 0, reduced or not."""
    g, h = gcd(a, d), gcd(b, d)
    return [a // g, d // g, b // h, d // h]


ZERO = Scalar(0)
ONE = Scalar(1)


def as_scalar(x):
    """Coerce ints, Fractions and Scalars to Scalar; NotImplemented otherwise."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    return NotImplemented


def coerce_scalar(x):
    """as_scalar for values that must be scalars: TypeError otherwise."""
    if type(x) is Scalar:
        return x
    s = as_scalar(x)
    if s is NotImplemented:
        raise TypeError(f"cannot use {type(x).__name__} as a scalar value")
    return s
