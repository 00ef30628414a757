"""Supernatural numbers and the periodic core: eventually periodic tables
whose period divides N, with locally constant functions on Z/NZ as the
correction-free member.

A supernatural number is a formal product of primes with exponents in
{1, 2, ..., infinity}; only finitely many primes carry a nonzero exponent
here.  A level j of N is a positive integer dividing it (divides,
finite_divisors); every table period is such a level.
"""

import functools
import math

from .errors import PeriodNotDivisor, NotFinite
from .scalars import Scalar, coerce_scalar

INF = math.inf
_ZERO = Scalar(0)

# caps on workspace input: a correction key (see from_json) and the bit
# length sum(e * log2 p) of N's finite part, which as_int() forms
MAX_CORRECTION_KEY = 1 << 16
MAX_N_BITS = 4096


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

    def exponent(self, p):
        return self.factors.get(p, 0)

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
        return cls(factors)


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


def _minimal_period(values):
    """Shortest cyclic period of a value table (a list).

    The periods of a cyclic table are closed under gcd, so the minimal one
    is reached by dividing the length by its primes for as long as the
    table stays invariant under the shorter shift."""
    j = period = len(values)
    for p in _factorize(j):
        while period % p == 0:
            e = period // p
            if values[e:] != values[:j - e]:
                break
            period = e
    return values[:period]


def _fill(seq, correction, table, N):
    object.__setattr__(seq, "correction", correction)
    object.__setattr__(seq, "period", len(table))
    object.__setattr__(seq, "table", tuple(table))
    object.__setattr__(seq, "N", N)
    return seq


class _PeriodicSequence:
    """Correction plus periodic table: a(k) = correction.get(k, 0) +
    table[k mod j], with j dividing N.  The canonical form has the minimal
    period and no zero correction entries.

    Subclasses fix the domain with two class attributes: `unilateral`
    (k >= 0 with zero-fill shifts, else all of Z) and `offset` (the affine
    weight is k + offset).  Operations build their result through the
    classmethod _make, so they return the class of their first argument.
    """

    __slots__ = ("correction", "period", "table", "N")

    def __init__(self, correction, table, N):
        table = [coerce_scalar(v) for v in table]
        if not table:
            raise ValueError("table must be nonempty")
        if not divides(len(table), N):
            raise PeriodNotDivisor(f"period {len(table)} does not divide N")
        table = _minimal_period(table)
        clean = {}
        for k, v in (correction or {}).items():
            k = int(k)
            if k < 0 and self.unilateral:
                raise ValueError(f"correction key must be >= 0, got {k}")
            v = coerce_scalar(v)
            if v:
                clean[k] = v
        _fill(self, clean, table, N)

    @classmethod
    def _make(cls, correction, table, N):
        return cls(correction, table, N)

    @classmethod
    def _from_canonical(cls, correction, table, N):
        """The constructor without checks or period search, for parts as
        canonical as rotations, nonzero scalings and conjugates keep."""
        return _fill(object.__new__(cls), correction, table, N)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def value_at(self, k):
        if k < 0 and self.unilateral:
            raise ValueError("unilateral sequences are defined for k >= 0")
        v = self.table[k % self.period]
        c = self.correction.get(k)
        return v if c is None else c + v

    def support_bound(self):
        """Smallest k0 with a(k) = table[k mod j] for all k >= k0."""
        return max(self.correction.keys(), default=-1) + 1

    def is_zero(self):
        return not self.correction and all(not v for v in self.table)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.correction == other.correction
            and self.table == other.table
        )

    def __hash__(self):
        return hash((frozenset(self.correction.items()), self.table))

    def __add__(self, other):
        return ep_add(self, other)

    def __mul__(self, other):
        if not isinstance(other, _PeriodicSequence):
            return NotImplemented
        return ep_mul(self, other)

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
        return {
            "correction": {
                str(k): v.to_json() for k, v in sorted(self.correction.items())
            },
            "period": self.period,
            "table": [v.to_json() for v in self.table],
        }

    @classmethod
    def from_json(cls, data, N):
        corr = {}
        for k, v in data.get("correction", {}).items():
            k = int(k)
            # partial sums walk every position below the largest key
            if abs(k) > MAX_CORRECTION_KEY:
                raise ValueError(
                    f"correction key {k} exceeds {MAX_CORRECTION_KEY}"
                )
            corr[k] = Scalar.from_json(v)
        return cls(corr, [Scalar.from_json(v) for v in data["table"]], N)


class LocallyConstantFunction(_PeriodicSequence):
    """Function on Z/NZ factoring through Z/jZ for a finite divisor j of N:
    the correction-free member of the periodic core on Z.  Value at the
    residue class of k is values[k mod j].
    """

    __slots__ = ()
    unilateral = False
    offset = 0

    def __init__(self, values, N):
        super().__init__({}, values, N)

    @classmethod
    def _make(cls, correction, table, N):
        if correction:
            raise ValueError("a locally constant function has no corrections")
        return cls(table, N)

    @classmethod
    def _from_canonical(cls, correction, table, N):
        if correction:
            raise ValueError("a locally constant function has no corrections")
        return super()._from_canonical(correction, table, N)

    @property
    def values(self):
        return self.table

    def to_json(self):
        return {
            "period": self.period,
            "values": [v.to_json() for v in self.table],
        }

    @classmethod
    def from_json(cls, data, N):
        return cls([Scalar.from_json(v) for v in data["values"]], N)


def haar_integral(f):
    """Average of the value table over one period."""
    total = Scalar(0)
    for v in f.table:
        total = total + v
    return total / Scalar(f.period)


def _common_period(N, *periods):
    """lcm of the periods, checked to divide N."""
    j = math.lcm(*periods)
    if not divides(j, N):
        raise PeriodNotDivisor(f"lcm period {j} does not divide N")
    return j


def ep_add(a, b):
    j = _common_period(a.N, a.period, b.period)
    table = [
        a.table[r % a.period] + b.table[r % b.period] for r in range(j)
    ]
    corr = dict(a.correction)
    for k, v in b.correction.items():
        corr[k] = corr.get(k, _ZERO) + v
    return type(a)._make(corr, table, a.N)


def ep_mul(a, b):
    j = _common_period(a.N, a.period, b.period)
    table = [
        a.table[r % a.period] * b.table[r % b.period] for r in range(j)
    ]
    corr = {}
    for k in set(a.correction) | set(b.correction):
        corr[k] = a.value_at(k) * b.value_at(k) - table[k % j]
    return type(a)._make(corr, table, a.N)


def ep_scale(a, c):
    c = coerce_scalar(c)
    # a nonzero factor keeps the parts canonical
    make = type(a)._from_canonical if c else type(a)._make
    return make(
        {k: c * v for k, v in a.correction.items()},
        [c * v for v in a.table],
        a.N,
    )


def ep_conjugate(a):
    return type(a)._from_canonical(
        {k: v.conjugate() for k, v in a.correction.items()},
        [v.conjugate() for v in a.table],
        a.N,
    )


def ep_shift(a, n):
    """k |-> a(k+n).

    On Z this is a pure translation.  On k >= 0 the convention a(m) = 0
    for m < 0 holds: for n >= 0 the table rotates and correction keys move
    down (dropped below zero); for n < 0 keys move up and compensating
    entries at k = 0..(-n-1) force the value 0 there.
    """
    j = a.period
    table = [a.table[(r + n) % j] for r in range(j)]
    if not a.unilateral:
        corr = {k - n: v for k, v in a.correction.items()}
    else:
        corr = {k - n: v for k, v in a.correction.items() if k >= n}
        for k in range(-n):
            pad = -table[k % j]
            if pad:
                corr[k] = pad
    # a rotation keeps the minimal period; moved keys and pads are nonzero
    return type(a)._from_canonical(corr, table, a.N)
