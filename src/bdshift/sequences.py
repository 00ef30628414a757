"""Eventually periodic sequences on two domains, and their affine extensions.

One periodic core, profinite._PeriodicSequence with the ep_* operations
(re-exported here), serves the coefficients of both algebras.  A
sequence is
    a(k) = correction.get(k, 0) + table[k mod j],
a finitely supported correction plus a table whose period j divides N;
the canonical form has the minimal period and no zero correction entries.
The classes differ only in their domain:

    EPSequence               k >= 0   shifts fill with zeros   weight k+1
    BilateralEPSequence      all of Z shifts translate         weight l
    LocallyConstantFunction  all of Z, no correction (profinite)

Coefficients of A(N) are EPSequences; those of the quotient B(N) are
LocallyConstantFunctions.  The ep_* operations serve every domain and
return the class of their first argument.  An affine sequence adds a
linear coefficient times the weight: beta(k) = C*(k+1) + ep(k) on k >= 0,
eta(l) = C*l + ep(l) on Z.
"""

from fractions import Fraction

from .errors import PeriodNotDivisor
from .profinite import (
    _PeriodicSequence,
    ep_add,
    ep_conjugate,
    ep_mul,
    ep_scale,
    ep_shift,
)
from .scalars import Scalar, coerce_scalar

_ZERO = Scalar(0)


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


def ep_from_lcf(f):
    """Restriction of a locally constant function to k >= 0."""
    return EPSequence({}, f.table, f.N)


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
        v = self.ep.value_at(k)
        if not self.linear:
            return v
        return self.linear * Scalar(k + self._seq.offset) + v

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


def increment(beta):
    """alpha(k) = beta(k) - beta(k-1), with beta(-1) = 0 on k >= 0."""
    ep = beta.ep
    diff = ep - ep_shift(ep, -1)
    return ep_add(type(ep)({}, [beta.linear], ep.N), diff)


def mean_decompose_mod(alpha, modulus):
    """Split alpha = c00 + C + (mean-zero periodic part), the periodic
    part listed over one modulus, a multiple of alpha's period.

    Returns (correction dict, C, table list of length modulus)."""
    if modulus < 1 or modulus % alpha.period != 0:
        raise PeriodNotDivisor(
            f"period {alpha.period} does not divide modulus {modulus}"
        )
    mean, _ = _mean_and_sums(alpha)
    per = [alpha.table[r % alpha.period] - mean for r in range(modulus)]
    return dict(alpha.correction), mean, per
