"""Eventually periodic sequences on two domains, and their affine extensions.

One periodic core, profinite._PeriodicSequence with the ep_* operations
(re-exported here), serves the coefficients of both algebras.  A
sequence is
    a(k) = correction.get(k, 0) + table[k mod j],
a finitely supported correction plus a table whose period j divides N,
held as integer rows over one denominator in the canonical form of
profinite; partial sums and sup norms run on the rows.
The two classes differ only in their domain:

    EPSequence               k >= 0   shifts fill with zeros   weight k+1
    LocallyConstantFunction  all of Z shifts translate         weight l

Coefficients of A(N) are EPSequences; those of the quotient B(N) are
LocallyConstantFunctions, which carry no correction: the quotient by the
compacts removes every c00 part.  The ep_* operations serve both domains
and return the class of their first argument.  An affine sequence adds a
linear coefficient times the weight of its sequence's domain:
beta(k) = C*(k+1) + ep(k) on k >= 0, eta(l) = C*l + ep(l) on Z.
"""

from fractions import Fraction
from itertools import accumulate, chain

from .profinite import (
    LocallyConstantFunction,
    _PeriodicSequence,
    ep_add,
    ep_conjugate,
    ep_scale,
    ep_shift,
)
from .scalars import Scalar, _canonical, coerce_scalar


class EPSequence(_PeriodicSequence):
    """Eventually periodic sequence on k >= 0: c00 correction plus a
    periodic table whose period divides N."""

    __slots__ = ()
    unilateral = True
    offset = 1


def BilateralEPSequence(correction, table, N):
    """The sequence on Z with the call of EPSequence: a locally constant
    function, so the correction must be empty."""
    if correction:
        raise ValueError("a sequence on Z has no corrections")
    return LocallyConstantFunction(table, N)


def ep_constant(c, N):
    return EPSequence({}, [c], N)


def ep_zero(N):
    return EPSequence({}, [0], N)


def ep_from_lcf(f):
    """Restriction of a locally constant function to k >= 0."""
    return EPSequence._cast(f)


def ep_supnorm_sq(a):
    """Exact sup over k of |a(k)|^2, as a Fraction."""
    values = chain(zip(a.re, a.im), map(a._at, a.corr))
    return Fraction(max(x * x + y * y for x, y in values), a.den * a.den)


# ---------------------------------------------------------------------------
# affine sequences


class AffineSequence:
    """linear*(k + offset) + ep(k), offset that of ep's domain: beta(k) =
    linear*(k+1) + ep(k) on k >= 0, eta(l) = linear*l + ep(l) on Z."""

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
        return self.linear * Scalar(k + self.ep.offset) + v

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.linear == other.linear and self.ep == other.ep

    def __hash__(self):
        return hash((self.linear, self.ep))

    def __repr__(self):
        return f"{type(self).__name__}(linear={self.linear}, ep={self.ep!r})"

    def to_json(self):
        return {"linear": self.linear.to_json(), "ep": self.ep.to_json()}

    @classmethod
    def from_json(cls, data, N):
        """The coefficient of a workspace derivation, on k >= 0."""
        linear = Scalar.from_json(data.get("linear", [0, 1, 0, 1]))
        return cls(linear, EPSequence.from_json(data["ep"], N))


BilateralAffineSequence = AffineSequence


def _mean_and_sums(a):
    """The numerators (re, im) of the mean of a's table and the rows of
    the running sums of its mean-zero part, all over den * period; the
    sums are periodic because the mean is removed."""
    p = a.period
    sr, si = sum(a.re), sum(a.im)
    return ((sr, si), list(accumulate(p * x - sr for x in a.re)),
            list(accumulate(p * y - si for y in a.im)))


def partial_sums(alpha):
    """beta(k) = sum_{i=0}^{k} alpha(i) as an AffineSequence.

    The period mean becomes the linear coefficient; the mean-zero part
    sums to a periodic table; c00 corrections sum to an eventually
    constant staircase folded into the correction and the table offset.
    """
    p, den = alpha.period, alpha.den
    mean, sums_re, sums_im = _mean_and_sums(alpha)
    # the staircase of the corrections over den, lifted to den * p
    runs = list(accumulate(
        (alpha.corr.get(k, (0, 0)) for k in range(alpha.support_bound())),
        lambda s, c: (s[0] + c[0], s[1] + c[1])))
    tr, ti = runs[-1] if runs else (0, 0)
    corr = {k: (p * (a - tr), p * (b - ti)) for k, (a, b) in enumerate(runs)}
    ep = EPSequence._make(den * p, [s + p * tr for s in sums_re],
                          [s + p * ti for s in sums_im], corr, alpha.N)
    return AffineSequence(_canonical(*mean, den * p), ep)


def increment(beta):
    """alpha(k) = beta(k) - beta(k-1), with beta(-1) = 0 on k >= 0."""
    ep = beta.ep
    diff = ep - ep_shift(ep, -1)
    a, b, d = beta.linear._t
    return ep_add(type(ep)._make(d, [a], [b], {}, ep.N), diff)
