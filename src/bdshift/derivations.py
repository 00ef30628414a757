"""Covariant derivations and their classification.

A derivation with finitely many Fourier components is a sum of covariant
pieces d_n(a) = [g_n, a], where the generator g_n carries an affine
coefficient beta_n: g_n = U^n beta_n(K) for n >= 0 and
g_n = beta_n(K) (U*)^{-n} for n < 0.  The affine part never lies in the
algebra itself, so a generator enters the product kernel as a pair
(C, v), C the Scalar linear part, standing for C*W + v, W the affine
weight.  Each commutator [g, x] is one signed kernel pass g*x + x*(-g)
on integer rows, in which the weight-1 products cancel and are not formed.
"""

from fractions import Fraction
from operator import attrgetter

from .scalars import Scalar, ZERO, ONE, _canonical, coerce_scalar
from .errors import (
    NotDerivation,
    NotFinite,
    RegimeMismatch,
    UnboundedCoefficient,
)
from .profinite import LocallyConstantFunction, _int_key, _one_N
from .sequences import (
    AffineSequence,
    EPSequence,
    _mean_and_sums,
    ep_constant,
    ep_scale,
    ep_shift,
    ep_supnorm_sq,
    ep_zero,
    increment,
    partial_sums,
)
from .algebra import LaurentFunction, MatrixTrigPoly, _terms_mul


def bounded_regime(n, N):
    """True when covariance forces the coefficient to stay bounded."""
    if N.is_finite():
        return n % N.as_int() != 0
    return n != 0


class _CovariantData:
    """A single covariant component: degree n and an affine coefficient,
    which each subclass exposes under its own name _field."""

    __slots__ = ("n", "_coef", "N")

    def __init__(self, n, coef, N):
        if bounded_regime(n, N) and coef.linear:
            raise UnboundedCoefficient(
                f"degree {n} admits only bounded coefficients here"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_coef", coef)
        object.__setattr__(self, "N", N)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self):
        return not self._coef.linear and self._coef.ep.is_zero()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.n == other.n
            and self._coef == other._coef
            and self.N == other.N
        )

    def __hash__(self):
        return hash((self.n, self._coef, self.N))

    def __repr__(self):
        return (
            f"{type(self).__name__}(n={self.n}, {self._field}={self._coef!r})"
        )


class CovariantDerivationData(_CovariantData):
    """A single covariant component: degree n, coefficient beta."""

    __slots__ = ()
    _field = "beta"
    beta = property(attrgetter("_coef"))


def covariant(n, beta, N):
    """Validated covariant component datum."""
    return CovariantDerivationData(n, beta, N)


def d_nk(n, N):
    """The distinguished component with beta(k) = k + 1."""
    return covariant(n, AffineSequence(ONE, ep_zero(N)), N)


class DerivationSum:
    """A derivation with finite Fourier support."""

    __slots__ = ("components", "N")

    def __init__(self, components, N):
        kept = {}
        for n, comp in components.items():
            if comp.n != n:
                raise ValueError("component keyed by the wrong degree")
            if not comp.is_zero():
                kept[n] = comp
        object.__setattr__(self, "components", kept)
        object.__setattr__(self, "N", N)

    def __setattr__(self, name, value):
        raise AttributeError("DerivationSum is immutable")

    def component(self, n):
        comp = self.components.get(n)
        if comp is None:
            return covariant(n, AffineSequence(ZERO, ep_zero(self.N)), self.N)
        return comp

    def degrees(self):
        return sorted(self.components)

    def __eq__(self, other):
        if not isinstance(other, DerivationSum):
            return NotImplemented
        return self.components == other.components and self.N == other.N

    def __add__(self, other):
        if not isinstance(other, DerivationSum):
            return NotImplemented
        out = {}
        for n in set(self.components) | set(other.components):
            a = self.component(n).beta
            b = other.component(n).beta
            beta = AffineSequence(a.linear + b.linear, a.ep + b.ep)
            out[n] = covariant(n, beta, self.N)
        return DerivationSum(out, self.N)

    def __sub__(self, other):
        if not isinstance(other, DerivationSum):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return derivation_scale(self, -1)

    def __repr__(self):
        return f"DerivationSum(degrees={self.degrees()})"

    def to_json(self):
        return {
            "components": {str(n): c.beta.to_json()
                           for n, c in sorted(self.components.items())},
            "N": self.N.to_json(),
        }

    @classmethod
    def from_json(cls, data, N):
        comps = {}
        for key, body in data["components"].items():
            n = _int_key(key)
            comps[n] = covariant(n, AffineSequence.from_json(body, N), N)
        return cls(comps, N)


def _reweighted(d, weights):
    """The components n of d in weights, each scaled by weights[n]."""
    return DerivationSum({n: covariant(n, AffineSequence(
        comp.beta.linear * weights[n], ep_scale(comp.beta.ep, weights[n])),
        d.N) for n, comp in d.components.items() if n in weights}, d.N)


def derivation_scale(d, c):
    return _reweighted(d, dict.fromkeys(d.components, coerce_scalar(c)))


def _commutator(components, x):
    """[g, x] on either algebra, g the sum of the components' generators,
    in one signed kernel pass.  An affine coefficient linear*W + ep enters
    as the pair (linear, ep), ep in the coefficient class of x, a bounded
    one as ep alone; the validity conditions put a linear part only at a
    degree m with J | m, so its products cancel between the two passes
    but for the corrections and cutoffs, the only ones formed
    (algebra._pair_rows)."""
    seq, gen = x._coeff, {}
    for n, comp in components.items():
        _one_N(comp, x, "apply a derivation to an element")
        linear, ep = comp._coef.linear, seq._cast(comp._coef.ep)
        gen[n] = (linear, ep) if linear else ep
    return type(x)._trusted(
        _terms_mul(gen, x.terms, seq.unilateral, commute=True), x.N)


def apply(d, a):
    """d(a) on A(N), computed exactly."""
    return _commutator(d.components, a)


def fourier_component(d, n):
    """The n-th component (exact: components are the Fourier data)."""
    return d.component(n)


def fejer_mean(d, M):
    """Components reweighted by the Fejér coefficients 1 - |n|/(M+1)."""
    if M < 0:
        raise ValueError("Fejér order must be nonnegative")
    return _reweighted(d, {n: Scalar(Fraction(M + 1 - abs(n), M + 1))
                           for n in d.components if abs(n) <= M})


def classify(comp):
    """Split a component in the increment regime into
    C_n . d_{n,K} + inner (periodic) + approximately inner (c00).

    The increment of beta is mean-decomposed; partial sums of the three
    pieces give back beta exactly.
    """
    n, beta, N = comp.n, comp.beta, comp.N
    if bounded_regime(n, N):
        raise RegimeMismatch(
            f"degree {n} is inner outright; nothing to classify"
        )
    alpha = increment(beta)
    # the mean-zero running sums repeat with alpha's own period, so one
    # period suffices whatever N is
    mean, sums_re, sums_im = _mean_and_sums(alpha)
    den = alpha.den * alpha.period
    inner = EPSequence._make(den, sums_re, sums_im, {}, N)
    c00_beta = partial_sums(EPSequence(alpha.correction, [ZERO], N))
    return {
        "C_n": _canonical(*mean, den),
        "inner_per": covariant(n, AffineSequence(ZERO, inner), N),
        "approx_c00": covariant(n, c00_beta, N),
    }


def reassemble(parts, n, N):
    """C_n . d_{n,K} + inner_per + approx_c00 as a DerivationSum."""
    base = derivation_scale(DerivationSum({n: d_nk(n, N)}, N), parts["C_n"])
    rest = DerivationSum({n: parts["inner_per"]}, N) + DerivationSum(
        {n: parts["approx_c00"]}, N
    )
    return base + rest


def obstruction_gap(n, N, beta_bounded):
    """sup_k |1 - (beta(k+1) - beta(k))|^2 for a bounded candidate.

    Always >= 1: increments of a bounded eventually-periodic sequence
    average to zero over a period, so some increment has real part <= 0.
    """
    diff = ep_shift(beta_bounded, 1) - beta_bounded
    g = ep_constant(ONE, beta_bounded.N) - diff
    return ep_supnorm_sq(g)


def d_f_build(f, N):
    """The distinguished derivation d_f for finite N: one component at
    each n = jN with beta = (f_j / N)(k + 1)."""
    if not N.is_finite():
        raise NotFinite("d_f needs a finite N")
    N_int = N.as_int()
    inv = Scalar(Fraction(1, N_int))
    comps = {}
    for j, c in f.coeffs.items():
        n = j * N_int
        comps[n] = covariant(
            n, AffineSequence(c * inv, ep_zero(N)), N
        )
    return DerivationSum(comps, N)


def extract_f(d, N):
    """Recover f from the classification constants: f_j = N C_{jN}."""
    if not N.is_finite():
        raise NotFinite("extraction needs a finite N")
    N_int = N.as_int()
    coeffs = {}
    for n in d.degrees():
        if n % N_int != 0:
            continue
        parts = classify(d.component(n))
        c = parts["C_n"] * Scalar(N_int)
        if c:
            coeffs[n // N_int] = c
    return LaurentFunction(coeffs)


def delta_f_apply(f, F):
    """delta_f(F) = f . (1/i) dF/dt, entry by entry."""
    return F.entrywise(lambda p: p.derivative() * f)


def _unit_poly(size, r, s):
    return MatrixTrigPoly(size, [[{0: ONE} if (i, j) == (r, s) else {}
                                  for j in range(size)] for i in range(size)])


def inner_part_H(images, N_int):
    """H = (1/N) sum_{r,s} delta(P_rs) P_sr, verified to implement the
    given action on every matrix unit."""
    H = MatrixTrigPoly.zero(N_int)
    for r in range(N_int):
        for s in range(N_int):
            H = H + images[(r, s)] * _unit_poly(N_int, s, r)
    H = H.scale(Scalar(Fraction(1, N_int)))
    for r in range(N_int):
        for s in range(N_int):
            unit = _unit_poly(N_int, r, s)
            if H * unit - unit * H != images[(r, s)]:
                raise NotDerivation(
                    "images are not consistent with the unit relations"
                )
    return H


class BilateralCovariantData(_CovariantData):
    """A covariant component on the quotient: degree n, coefficient eta
    with eta(l) = C l + periodic, on Z: never over an EPSequence."""

    __slots__ = ()
    _field = "eta"
    eta = property(attrgetter("_coef"))

    def __init__(self, n, eta, N):
        if eta.ep.unilateral:
            raise ValueError("eta lives on Z and has no corrections")
        super().__init__(n, eta, N)


def bilateral_covariant(n, eta, N):
    return BilateralCovariantData(n, eta, N)


def bilateral_zero_component(n, N):
    eta = AffineSequence(ZERO, LocallyConstantFunction([ZERO], N))
    return BilateralCovariantData(n, eta, N)


def quotient_derivation(d):
    """Push a derivation to the quotient: corrections die, the periodic
    table extends over Z, the linear coefficient survives.

    Negative degrees store their coefficient to the left of the shift,
    while V^n eta(L) places it on the right; the table rotates by -n to
    compensate.  Additive constants act trivially and are dropped.
    """
    out = {}
    for n, comp in d.components.items():
        ep = comp.beta.ep
        ep = LocallyConstantFunction._make(ep.den, ep.re, ep.im, {}, d.N)
        eta = AffineSequence(
            comp.beta.linear, ep_shift(ep, n) if n < 0 else ep
        )
        data = bilateral_covariant(n, eta, d.N)
        if not data.is_zero():
            out[n] = data
    return out


def bilateral_apply(components, b):
    """Apply quotient components {n: BilateralCovariantData} to an element
    of B(N): [V^n eta(L), V^m g(L)] = V^{n+m} ((S_m eta) g - (S_n g) eta)."""
    return _commutator(components, b)

