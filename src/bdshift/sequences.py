"""Eventually periodic sequences on two domains, and their affine extensions.

One periodic core serves the coefficients of both algebras.  A sequence is
    a(k) = correction.get(k, 0) + table[k mod j],
a finitely supported correction plus a table whose period j divides N;
the canonical form has the minimal period and no zero correction entries.
The two public classes differ only in their domain:

    EPSequence            k >= 0   shifts fill with zeros   weight k+1
    BilateralEPSequence   all of Z shifts translate         weight l

Coefficients of A(N) are EPSequences; those of the quotient B(N) are
BilateralEPSequences, which carry no correction there.  The ep_*
operations serve both domains and return the class of their first
argument.  An affine sequence adds a linear coefficient times the weight:
beta(k) = C*(k+1) + ep(k) on k >= 0, eta(l) = C*l + ep(l) on Z.

QuasiAffine at the bottom is internal plumbing for commutator arithmetic:
it tracks the affine weight of a coefficient through shifts and diagonal
products so that cancellation can be verified exactly.
"""

from fractions import Fraction

from .errors import PeriodNotDivisor, NotFinite
from .profinite import (
    LocallyConstantFunction,
    _common_period,
    _minimal_period,
    divides,
)
from .scalars import Scalar, coerce_scalar

_ZERO = Scalar(0)


# ---------------------------------------------------------------------------
# the periodic core


class _PeriodicSequence:
    """Correction plus periodic table.  Subclasses fix the domain with two
    class attributes: `unilateral` (k >= 0 with zero-fill shifts, else all
    of Z) and `offset` (the affine weight is k + offset)."""

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
        object.__setattr__(self, "correction", clean)
        object.__setattr__(self, "period", len(table))
        object.__setattr__(self, "table", tuple(table))
        object.__setattr__(self, "N", N)

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
        corr = {
            int(k): Scalar.from_json(v)
            for k, v in data.get("correction", {}).items()
        }
        return cls(corr, [Scalar.from_json(v) for v in data["table"]], N)


class EPSequence(_PeriodicSequence):
    """Eventually periodic sequence on k >= 0: c00 correction plus a
    periodic table whose period divides N."""

    __slots__ = ()
    unilateral = True
    offset = 1


class BilateralEPSequence(_PeriodicSequence):
    """Eventually periodic sequence on all of Z; correction keys may be
    negative.  Diagonal coefficients of the quotient algebra are
    correction-free."""

    __slots__ = ()
    unilateral = False
    offset = 0


def ep_constant(c, N):
    return EPSequence({}, [c], N)


def ep_zero(N):
    return EPSequence({}, [0], N)


def ep_spike(k, v, N):
    """Pure c00 spike of value v at position k."""
    return EPSequence({k: v}, [0], N)


def ep_from_lcf(f):
    """Restriction of a locally constant function to k >= 0."""
    return EPSequence({}, list(f.values), f.N)


def bep_from_lcf(f):
    """Periodic bilateral extension of a locally constant function."""
    return BilateralEPSequence({}, list(f.values), f.N)


def bep_to_lcf(b):
    if b.correction:
        raise ValueError("bilateral sequence with corrections is not periodic")
    return LocallyConstantFunction(list(b.table), b.N)


def ep_add(a, b):
    j = _common_period(a.period, b.period, a.N)
    table = [
        a.table[r % a.period] + b.table[r % b.period] for r in range(j)
    ]
    corr = dict(a.correction)
    for k, v in b.correction.items():
        corr[k] = corr.get(k, _ZERO) + v
    return type(a)(corr, table, a.N)


def ep_mul(a, b):
    j = _common_period(a.period, b.period, a.N)
    table = [
        a.table[r % a.period] * b.table[r % b.period] for r in range(j)
    ]
    corr = {}
    for k in set(a.correction) | set(b.correction):
        corr[k] = a.value_at(k) * b.value_at(k) - table[k % j]
    return type(a)(corr, table, a.N)


def ep_scale(a, c):
    c = coerce_scalar(c)
    return type(a)(
        {k: c * v for k, v in a.correction.items()},
        [c * v for v in a.table],
        a.N,
    )


def ep_conjugate(a):
    return type(a)(
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
    return type(a)(corr, table, a.N)


def ep_supnorm_sq(a):
    """Exact sup over k of |a(k)|^2, as a Fraction."""
    best = Fraction(0)
    for v in a.table:
        best = max(best, v.abs_sq())
    for k in a.correction:
        best = max(best, a.value_at(k).abs_sq())
    return best


# ---------------------------------------------------------------------------
# affine sequences


class _AffineSequence:
    """linear*(k + offset) + ep(k), the offset of the domain class _seq."""

    __slots__ = ("linear", "ep")

    def __init__(self, linear, ep):
        object.__setattr__(self, "linear", coerce_scalar(linear))
        object.__setattr__(self, "ep", ep)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def value_at(self, k):
        return (
            self.linear * Scalar(k + self._seq.offset) + self.ep.value_at(k)
        )

    def is_bounded(self):
        return not self.linear

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.linear == other.linear and self.ep == other.ep

    def __hash__(self):
        return hash((self.linear, self.ep))

    def __repr__(self):
        return (
            f"{type(self).__name__}(linear={self.linear}, ep={self.ep!r})"
        )

    def to_json(self):
        out = self.ep.to_json()
        out["linear"] = self.linear.to_json()
        return out

    @classmethod
    def from_json(cls, data, N):
        linear = Scalar.from_json(data.get("linear", [0, 1, 0, 1]))
        return cls(linear, cls._seq.from_json(data, N))


class AffineSequence(_AffineSequence):
    """beta(k) = linear*(k+1) + ep(k) on k >= 0."""

    __slots__ = ()
    _seq = EPSequence


class BilateralAffineSequence(_AffineSequence):
    """eta(l) = linear*l + ep(l) on all of Z."""

    __slots__ = ()
    _seq = BilateralEPSequence


def _mean_and_sums(a):
    """Mean of a's table and the running sums of its mean-zero part, which
    are j-periodic because the mean is removed."""
    mean = _ZERO
    for v in a.table:
        mean = mean + v
    mean = mean / Scalar(a.period)
    run = _ZERO
    sums = []
    for v in a.table:
        run = run + v - mean
        sums.append(run)
    return mean, sums


def partial_sums(alpha):
    """beta(k) = sum_{i=0}^{k} alpha(i) as an AffineSequence.

    The period mean becomes the linear coefficient; the mean-zero part
    sums to a periodic table; c00 corrections sum to an eventually
    constant staircase folded into the correction and the table offset.
    """
    mean, periodic_sums = _mean_and_sums(alpha)
    total = _ZERO
    for v in alpha.correction.values():
        total = total + v

    table = [s + total for s in periodic_sums]
    corr = {}
    run = _ZERO
    for k in range(alpha.support_bound()):
        run = run + alpha.correction.get(k, _ZERO)
        dev = run - total
        if dev:
            corr[k] = dev
    return AffineSequence(mean, EPSequence(corr, table, alpha.N))


def bep_partial_sums(gamma):
    """eta with eta(l) - eta(l-1) = gamma(l), anchored at eta(0) = gamma(0).

    Representable as linear + eventually periodic only when the c00 part
    of gamma sums to zero over Z; otherwise the two tails of the staircase
    disagree and the input is rejected.
    """
    mean, periodic_sums = _mean_and_sums(gamma)
    total = _ZERO
    for v in gamma.correction.values():
        total = total + v
    if total:
        raise ValueError(
            "bilateral partial sums need a zero-sum c00 part; "
            f"got total {total}"
        )

    # staircase of the c00 part: F(l) = sum of corrections at 0 < i <= l
    # for l >= 0 and -(sum at l < i <= 0) for l < 0; with zero total both
    # tails equal T = sum over positive keys, absorbed into the table
    def staircase(l):
        F = Scalar(0)
        if l >= 0:
            for i, v in gamma.correction.items():
                if 0 < i <= l:
                    F = F + v
        else:
            for i, v in gamma.correction.items():
                if l < i <= 0:
                    F = F - v
        return F

    tail = Scalar(0)
    for i, v in gamma.correction.items():
        if i > 0:
            tail = tail + v

    corr = {}
    if gamma.correction:
        keys = gamma.correction.keys()
        lo = min(min(keys), 0) - 1
        hi = max(max(keys), 0)
        for l in range(lo, hi + 1):
            dev = staircase(l) - tail
            if dev:
                corr[l] = dev

    anchor = gamma.value_at(0) - periodic_sums[0]
    table = [s + anchor + tail for s in periodic_sums]
    return BilateralAffineSequence(
        mean, BilateralEPSequence(corr, table, gamma.N)
    )


def increment(beta):
    """alpha(k) = beta(k) - beta(k-1), with beta(-1) = 0 on k >= 0."""
    ep = beta.ep
    diff = ep - ep_shift(ep, -1)
    return ep_add(type(ep)({}, [beta.linear], ep.N), diff)


def mean_decompose(alpha, N):
    """Split alpha = c00 + C + (mean-zero part of period N.as_int()).

    Returns (correction dict, C, table list of length N).  For infinite N
    use mean_decompose_mod with an explicit modulus (needed only at n=0,
    where the modulus is the period of alpha's periodic part).
    """
    if not N.is_finite():
        raise NotFinite("mean decomposition needs a finite N")
    return mean_decompose_mod(alpha, N.as_int())


def mean_decompose_mod(alpha, modulus):
    if modulus < 1 or modulus % alpha.period != 0:
        raise PeriodNotDivisor(
            f"period {alpha.period} does not divide modulus {modulus}"
        )
    mean, _ = _mean_and_sums(alpha)
    per = [alpha.table[r % alpha.period] - mean for r in range(modulus)]
    return dict(alpha.correction), mean, per


# ---------------------------------------------------------------------------
# quasi-affine pairs (internal commutator plumbing)


class QuasiAffine:
    """Pair (u, v) denoting k |-> (k+o)*u(k) + v(k), o the weight offset
    of the domain of u: (k+1)*u(k) + v(k) on k >= 0, l*u(l) + v(l) on Z.

    Closed under the same shift and diagonal-product rules as the
    sequences; collapses to a plain sequence exactly when u = 0."""

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def __setattr__(self, name, value):
        raise AttributeError("QuasiAffine is immutable")

    @classmethod
    def from_ep(cls, a):
        return cls(type(a)({}, [_ZERO], a.N), a)

    @classmethod
    def from_affine(cls, beta):
        ep = beta.ep
        return cls(type(ep)({}, [beta.linear], ep.N), ep)

    def value_at(self, k):
        return (
            Scalar(k + self.u.offset) * self.u.value_at(k)
            + self.v.value_at(k)
        )

    def shift(self, t):
        # q(k+t) = (k+o)*u(k+t) + t*u(k+t) + v(k+t)
        su = ep_shift(self.u, t)
        sv = ep_add(ep_scale(su, Scalar(t)), ep_shift(self.v, t))
        return QuasiAffine(su, sv)

    def mul_ep(self, b):
        return QuasiAffine(ep_mul(self.u, b), ep_mul(self.v, b))

    def __add__(self, other):
        return QuasiAffine(
            ep_add(self.u, other.u), ep_add(self.v, other.v)
        )

    def __sub__(self, other):
        return QuasiAffine(self.u - other.u, self.v - other.v)

    def __neg__(self):
        return QuasiAffine(-self.u, -self.v)

    def is_zero(self):
        return self.u.is_zero() and self.v.is_zero()

    def collapse(self):
        """The underlying sequence.

        The periodic part of the weight must have cancelled (anything
        else signals a validity bug upstream); a finitely supported
        residue is bounded and folds into the corrections."""
        u = self.u
        if any(v for v in u.table):
            raise AssertionError(
                "affine weight failed to cancel in a commutator"
            )
        if not u.correction:
            return self.v
        fold = {k: Scalar(k + u.offset) * c for k, c in u.correction.items()}
        return ep_add(self.v, type(u)(fold, [_ZERO], u.N))
