"""Supernatural numbers and the periodic core: eventually periodic tables
whose period divides N, with locally constant functions on Z/NZ as the
correction-free member.  A sequence is stored as Gaussian-integer rows
over one denominator in one canonical form: the minimal period, den > 0
coprime to the numerators taken together, no zero correction.  The ep_*
operations work on the rows; Scalars appear only at the edges (the
constructor, table, correction, value_at).  The JSON is written from the
rows and read onto them (scalars._wire and _triple), the readers through
the row-building code of the constructor.

A supernatural number is a formal product of primes with exponents in
{1, 2, ..., infinity}; only finitely many primes carry a nonzero exponent
here.  A level j of N is a positive integer dividing it (divides,
finite_divisors); every table period is such a level.
"""

import functools
import math
from itertools import chain, repeat
from math import gcd
from operator import add, mul

from .errors import PeriodNotDivisor, NotFinite
from .scalars import Scalar, _canonical, _triple, _wire, coerce_scalar

INF = math.inf

# caps on workspace input: a correction key (see from_json) and the bit
# length sum(e * log2 p) of N's finite part, which as_int() forms
MAX_CORRECTION_KEY = 1 << 16
MAX_N_BITS = 4096


def _int_key(key):
    """The integer a JSON object key spells, in its one spelling
    str(int(key)): "01", "+1", " 1" or "1_0" would let two keys of one
    object name the same integer, and the last would win."""
    n = int(key)
    if str(n) != key:
        raise ValueError(f"key {key!r} is not an integer in canonical form")
    return n


def _factorize(n):
    """Prime factorization of a positive integer by trial division."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


# Miller-Rabin with the first 13 prime bases is exact below this bound
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin primality test; ValueError from
    _MR_LIMIT on, where the bases no longer certify a prime."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large to certify as prime")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class SupernaturalNumber:
    """Formal product of primes with exponents in {1, 2, ...} or infinity."""

    __slots__ = ("factors", "_hash")

    def __init__(self, factors=None):
        clean = {}
        bits = 0.0
        for p, e in (factors or {}).items():
            p = int(p)
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
            if e == INF or e == "inf":
                clean[p] = INF
            else:
                # a bool, a float or a numeric string is no exponent
                if type(e) is not int or e < 1:
                    raise ValueError(f"the exponent of {p} must be a "
                                     "positive integer or 'inf'")
                # min keeps a huge exponent from overflowing the float
                bits += min(e, MAX_N_BITS + 1) * math.log2(p)
                if bits > MAX_N_BITS:
                    raise ValueError(f"N exceeds {MAX_N_BITS} bits")
                clean[p] = e
        factors = dict(sorted(clean.items()))
        object.__setattr__(self, "factors", factors)
        # divides() memoises on N, so the hash is taken once
        object.__setattr__(self, "_hash", hash(tuple(factors.items())))

    def __setattr__(self, name, value):
        raise AttributeError("SupernaturalNumber is immutable")

    @classmethod
    def from_int(cls, n):
        return cls(_factorize(n)) if n > 1 else cls({})

    def is_finite(self):
        return all(e != INF for e in self.factors.values())

    def as_int(self):
        if not self.is_finite():
            raise NotFinite("infinite supernatural number has no integer value")
        n = 1
        for p, e in self.factors.items():
            n *= p ** e
        return n

    def __eq__(self, other):
        if not isinstance(other, SupernaturalNumber):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.factors:
            return "SupernaturalNumber(1)"
        parts = [
            f"{p}^{'inf' if e == INF else e}" for p, e in self.factors.items()
        ]
        return "SupernaturalNumber(" + "*".join(parts) + ")"

    def to_json(self):
        return {
            "factors": {
                str(p): ("inf" if e == INF else e)
                for p, e in self.factors.items()
            }
        }

    @classmethod
    def from_json(cls, data):
        factors = data.get("factors", {})
        if not isinstance(factors, dict):
            raise ValueError("'factors' must be a JSON object")
        return cls({_int_key(p): e for p, e in factors.items()})


def divides(j, N):
    """True iff every prime power in j is bounded by N's exponent."""
    if j < 1:
        raise ValueError(f"expected a positive integer, got {j}")
    return _divides(j, N)


@functools.lru_cache(maxsize=4096)
def _divides(j, N):
    # strip each prime of N from j as often as N allows; j divides N iff
    # nothing is left, so j is never factorized
    for p, e in N.factors.items():
        k = 0
        while k < e and j % p == 0:
            j //= p
            k += 1
    return j == 1


def finite_divisors(N, bound):
    """All positive integers j <= bound dividing N, ascending."""
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    return [j for j in range(1, bound + 1) if divides(j, N)]


@functools.lru_cache(maxsize=256)
def _primes(n):
    """The primes of n; table lengths divide N, so few distinct n occur."""
    return tuple(_factorize(n))


def _minimal_period(re, im):
    """Shortest common cyclic period of two rows (lists or tuples) of one
    length.

    The common periods of cyclic rows are closed under gcd, so the
    minimal one is reached by dividing the length by its primes for as
    long as both rows stay invariant under the shorter shift."""
    j = period = len(re)
    for p in _primes(j):
        while period % p == 0:
            e = period // p
            if re[e:] != re[:j - e] or im[e:] != im[:j - e]:
                break
            period = e
    return period


class _PeriodicSequence:
    """Correction plus periodic table: a(k) = correction.get(k, 0) +
    table[k mod j], with j dividing N.

    Stored as rows over one denominator: table[r] = (re[r] + i im[r])/den
    and correction[k] = (a + i b)/den for corr[k] = (a, b), in canonical
    form (see the module docstring), so == and hash compare integers.

    Subclasses fix the domain with two class attributes: `unilateral`
    (k >= 0 with zero-fill shifts, else all of Z) and `offset` (the affine
    weight is k + offset).  Operations build their result through the
    classmethods _make and _from_canonical, so they return the class of
    their first argument.
    """

    __slots__ = ("den", "re", "im", "corr", "period", "N")

    def __new__(cls, correction, table, N):
        return cls._init({int(k): coerce_scalar(v)._t
                          for k, v in (correction or {}).items()},
                         [coerce_scalar(v)._t for v in table], N)

    @classmethod
    def _init(cls, corr, table, N):
        """The sequence of canonical triples, corr keyed by int: the
        constructor's of its values, from_json's of the wire, rescaled
        over the lcm of their denominators for _make."""
        if not table:
            raise ValueError("table must be nonempty")
        if not divides(len(table), N):
            raise PeriodNotDivisor(f"period {len(table)} does not divide N")
        if cls.unilateral and corr and min(corr) < 0:
            raise ValueError(f"correction key must be >= 0, got {min(corr)}")
        re, im, ds = zip(*table)
        den = math.lcm(*ds, *(d for _, _, d in corr.values()))
        if den != 1:
            ds = [den // d for d in ds]
            re, im = tuple(map(mul, re, ds)), tuple(map(mul, im, ds))
        return cls._make(den, re, im, {k: (a * (den // d), b * (den // d))
                                       for k, (a, b, d) in corr.items()}, N)

    @classmethod
    def _make(cls, den, re, im, corr, N):
        """Raw rows over den, of a length dividing N, in canonical form: a
        period search, zero corrections dropped, one gcd (none at den 1).
        Every sequence is built here or by _from_canonical."""
        if len(re) > 1:
            j = _minimal_period(re, im)
            re, im = re[:j], im[:j]
        corr = {k: v for k, v in corr.items() if v[0] or v[1]}
        if den != 1:
            g = gcd(den, *re, *im, *chain.from_iterable(corr.values()))
            if g != 1:
                re, im = [a // g for a in re], [b // g for b in im]
                den, corr = den // g, {k: (a // g, b // g)
                                       for k, (a, b) in corr.items()}
        return cls._from_canonical(den, tuple(re), tuple(im), corr, N)

    @classmethod
    def _from_canonical(cls, den, re, im, corr, N):
        """The constructor without checks, for canonical rows."""
        seq = object.__new__(cls)
        _set_den(seq, den)
        _set_re(seq, re)
        _set_im(seq, im)
        _set_corr(seq, corr)
        _set_period(seq, len(re))
        _set_N(seq, N)
        return seq

    @classmethod
    def _cast(cls, a):
        """a with its rows unchanged, as a member of cls."""
        return cls._from_canonical(a.den, a.re, a.im, a.corr, a.N)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def table(self):
        return tuple(map(_canonical, self.re, self.im, repeat(self.den)))

    @property
    def correction(self):
        d = self.den
        return {k: _canonical(a, b, d) for k, (a, b) in self.corr.items()}

    def _rows(self, den, j):
        """(re, im, corr) over den, a multiple of self.den, with the table
        repeated to length j, a multiple of the period."""
        f, t = den // self.den, j // self.period
        if f == 1:
            return self.re * t, self.im * t, self.corr
        return ([f * a for a in self.re] * t, [f * b for b in self.im] * t,
                {k: (f * a, f * b) for k, (a, b) in self.corr.items()})

    def _at(self, k):
        """The numerators (re, im) of a(k) over den."""
        r, c = k % self.period, self.corr.get(k, (0, 0))
        return self.re[r] + c[0], self.im[r] + c[1]

    def value_at(self, k):
        if k < 0 and self.unilateral:
            raise ValueError("unilateral sequences are defined for k >= 0")
        return _canonical(*self._at(k), self.den)

    def support_bound(self):
        """Smallest k0 with a(k) = table[k mod j] for all k >= k0."""
        return max(self.corr, default=-1) + 1

    def is_zero(self):
        # the zero table has period 1
        return not (self.corr or self.re[0] or self.im[0] or self.period > 1)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return ((self.N is other.N or self.N == other.N)
                and self.den == other.den and self.re == other.re
                and self.im == other.im and self.corr == other.corr)

    def __hash__(self):
        return hash((self.den, self.re, self.im,
                     frozenset(self.corr.items())))

    def __add__(self, other):
        return ep_add(self, other)

    def __neg__(self):
        return ep_scale(self, Scalar(-1))

    def __sub__(self, other):
        return ep_add(self, ep_scale(other, Scalar(-1)))

    def __repr__(self):
        corr = {k: str(v) for k, v in sorted(self.correction.items())}
        return (
            f"{type(self).__name__}({corr}, {[str(v) for v in self.table]})"
        )

    def to_json(self):
        d = self.den
        return {
            "correction": {str(k): _wire(a, b, d)
                           for k, (a, b) in sorted(self.corr.items())},
            "period": self.period,
            "table": list(map(_wire, self.re, self.im, repeat(d))),
        }

    @classmethod
    def from_json(cls, data, N):
        corr = {}
        for k, v in data.get("correction", {}).items():
            k = _int_key(k)
            # partial sums walk every position below the largest key
            if abs(k) > MAX_CORRECTION_KEY:
                raise ValueError(
                    f"correction key {k} exceeds {MAX_CORRECTION_KEY}"
                )
            corr[k] = _triple(v)
        table = [_triple(v) for v in data["table"]]
        return cls._init(corr, table, N)


_set_den, _set_re, _set_im, _set_corr, _set_period, _set_N = (
    getattr(_PeriodicSequence, name).__set__
    for name in _PeriodicSequence.__slots__)


class LocallyConstantFunction(_PeriodicSequence):
    """Function on Z/NZ factoring through Z/jZ for a finite divisor j of N:
    the correction-free member of the periodic core on Z.  Value at the
    residue class of k is values[k mod j].
    """

    __slots__ = ()
    unilateral = False
    offset = 0

    def __new__(cls, values, N):
        return super().__new__(cls, {}, values, N)

    @classmethod
    def _from_canonical(cls, den, re, im, corr, N):
        if corr:
            raise ValueError("a locally constant function has no corrections")
        return super()._from_canonical(den, re, im, corr, N)

    values = _PeriodicSequence.table

    def to_json(self):
        return {"period": self.period, "values": super().to_json()["table"]}

    @classmethod
    def from_json(cls, data, N):
        return super().from_json({"table": data["values"]}, N)


def haar_integral(f):
    """Average of the value table over one period."""
    return _canonical(sum(f.re), sum(f.im), f.den * f.period)


def _one_N(x, y, verb):
    """Refuse operands over two N (sequences, elements, or a derivation's
    component and an element) with a ValueError that names both."""
    if x.N is not y.N and x.N != y.N:
        raise ValueError(f"cannot {verb} over N = {x.N} and {y.N}")


def ep_add(a, b):
    _one_N(a, b, "add")
    j = math.lcm(a.period, b.period)
    den = math.lcm(a.den, b.den)
    (ar, ai, corr), (br, bi, bc) = a._rows(den, j), b._rows(den, j)
    corr = dict(corr)
    for k, (x, y) in bc.items():
        c = corr.get(k, (0, 0))
        corr[k] = (c[0] + x, c[1] + y)
    return type(a)._make(den, list(map(add, ar, br)), list(map(add, ai, bi)),
                         corr, a.N)


def ep_scale(a, c):
    p, q, d = coerce_scalar(c)._t
    return type(a)._make(
        a.den * d,
        [p * x - q * y for x, y in zip(a.re, a.im)],
        [p * y + q * x for x, y in zip(a.re, a.im)],
        {k: (p * x - q * y, p * y + q * x) for k, (x, y) in a.corr.items()},
        a.N)


def ep_conjugate(a):
    return type(a)._from_canonical(
        a.den, a.re, tuple(-b for b in a.im),
        {k: (x, -y) for k, (x, y) in a.corr.items()}, a.N)


def ep_shift(a, n):
    """k |-> a(k+n).

    On Z this is a pure translation.  On k >= 0 the convention a(m) = 0
    for m < 0 holds: for n >= 0 the table rotates and correction keys move
    down (dropped below zero); for n < 0 keys move up and compensating
    entries at k = 0..(-n-1) force the value 0 there.
    """
    r, j = n % a.period, a.period
    re, im = a.re[r:] + a.re[:r], a.im[r:] + a.im[:r]
    corr = {k - n: v for k, v in a.corr.items()
            if k >= n or not a.unilateral}
    for k in range(-n if a.unilateral else 0):
        if re[k % j] or im[k % j]:
            corr[k] = (-re[k % j], -im[k % j])
    # a rotation keeps the canonical form, and moved keys and pads are
    # nonzero; dropped corrections may leave a common factor with den
    make = a._make if len(corr) < len(a.corr) else a._from_canonical
    return make(a.den, re, im, corr, a.N)
