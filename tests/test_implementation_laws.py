"""check_implementation against the full-window oracle.

check_implementation forms a band of [D, pi(b)] - pi(delta(b)) only at
the ends of each residue class mod P when every row of D that it reads is
affine on the classes, and on the whole interior otherwise.  Each case
here is compared exactly with reference_implementation_deviation, which
multiplies the dense exact matrices over the whole window: a D from the
window build with one entry moved near either end of the interior, in its
middle or where a band reads it only at j + s; a D with one residue class
shifted by a constant or by a ramp; a D whose deviation grows along the
classes; a D built over an eta whose period P leaves out; and components
that D does not implement.  A deterministic sweep puts the only peak of
the deviation at each class end in turn.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from bdshift import gns
from bdshift.algebra import BilateralElement
from bdshift.derivations import (
    bilateral_apply,
    bilateral_covariant,
    bounded_regime,
)
from bdshift.profinite import LocallyConstantFunction, SupernaturalNumber
from bdshift.scalars import Scalar, ZERO
from bdshift.sequences import BilateralAffineSequence, BilateralEPSequence

from test_gns import band_entries, reference_implementation_deviation

ORACLE = settings(
    max_examples=150, deadline=None, database=None, derandomize=True
)

N4 = SupernaturalNumber.from_int(4)
NINF = SupernaturalNumber({2: "inf"})

scalars = st.builds(
    lambda a, b, d, e: Scalar(Fraction(a, d), Fraction(b, e)),
    st.integers(-3, 3), st.integers(-3, 3),
    st.integers(1, 3), st.integers(1, 3))
gaussian = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)


def lcf(draw, N, per, values=scalars):
    return LocallyConstantFunction(
        draw(st.lists(values, min_size=per, max_size=per)), N)


def eta(draw, N, per, linear):
    table = draw(st.lists(scalars, min_size=per, max_size=per))
    return BilateralAffineSequence(
        draw(scalars) if linear else ZERO,
        BilateralEPSequence({}, table, N))


def moved(re, im, j, pair):
    re[j] += pair[0]
    im[j] += pair[1]


@st.composite
def cases(draw):
    """(bands, components, b, M, space, level, kind).  The Haar level is
    4, so every period here divides it; tau_0 is the level-1 fiber.
    Periods of 1 come up often, so that P is often as small as level and
    the class ends are a small share of the interior."""
    N = draw(st.sampled_from([N4, NINF]))
    n = draw(st.integers(-2, 2))
    linear = not bounded_regime(n, N)
    space = draw(st.sampled_from(["tau0", "haar"]))
    kind = draw(st.sampled_from(["first", "last", "middle", "edge", "class",
                                 "slope", "wide_eta", "other"]))
    periods = st.sampled_from([1, 1, 2, 4])
    # one period of 1 everywhere for an edge entry: P = level
    per = 1 if kind in ("wide_eta", "edge") else draw(periods)
    comp = bilateral_covariant(n, eta(draw, N, per, linear), N)
    kw = {"psi": lcf(draw, N, draw(periods)), "level": 4} \
        if space == "haar" else {}
    built = comp
    if kind == "wide_eta":
        # D of an eta of period 2 or 4 while eta and b have period 1: its
        # rows are affine only on the classes of a multiple of P
        built = bilateral_covariant(
            n, eta(draw, N, draw(st.sampled_from([2, 4])), linear), N)
    elif kind == "slope":
        # the rows of a linear eta at degree 0, laid on the band of degree
        # t = +-1 below; g of period 2 or 4 then makes [D, pi(b)] grow
        # along the classes
        built = bilateral_covariant(0, eta(draw, N, per, True), N)
    data = gns.implementation_from_bilateral(built, **kw)
    level = data.level if space == "haar" else 1
    M = draw(st.integers(abs(n) + 3, 12 if space == "tau0" else 10))
    den, bands = gns._window_bands(data, space, M)
    size = (2 * M + 1) * level
    if kind == "slope":
        t = draw(st.sampled_from([-1, 1]))
        bands = {e + t * level: [[v if 0 <= j + e + t * level < size else 0
                                  for j, v in enumerate(row)] for row in pair]
                 for e, pair in bands.items()}
    bands = {e: (list(re), list(im)) for e, (re, im) in bands.items()}
    degrees = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3,
                            unique=True))
    # g of period 2 or 4 on a slope or a shifted class: classes of
    # different |g| make one class end the only peak
    bper = draw(st.sampled_from([2, 4])) if kind in ("slope", "class") \
        else 1 if kind in ("wide_eta", "edge") else draw(periods)
    if kind == "edge":
        degrees = [draw(st.sampled_from([-2, 2])), *degrees[1:]]
        degrees = list(dict.fromkeys(degrees))
    # g vanishes on some classes half the time, so a class's deviation
    # may stand alone
    values = draw(st.sampled_from([scalars, st.one_of(st.just(ZERO),
                                                      scalars)]))
    b = BilateralElement({k: lcf(draw, N, bper, values) for k in degrees}, N)
    e0 = n * level
    re, im = bands.get(e0, next(iter(bands.values())))
    lo = (abs(n) + max(map(abs, degrees))) * level
    hi = size - lo
    r = draw(st.integers(0, 8 * level - 1))
    if kind in ("first", "last", "middle"):
        # the first or last two classes mod P, P <= 4 level, or the middle
        j = {"first": lo + r, "last": hi - 1 - r,
             "middle": size // 2 + r}[kind]
    elif kind == "edge":
        # a column that the band o = e0 + s, s = +-2 level, reads only as
        # j + s, whose image j lies off the class ends [j0, j0 + level)
        # and [j1 - level, j1)
        s = degrees[0] * level
        o = e0 + s
        j0, j1 = max(lo, lo - o), min(hi, hi - o)
        j = j1 + r % level if s > 0 else j0 - 1 - r % level
    if kind in ("first", "last", "middle", "edge"):
        assume(0 <= j < size and 0 <= j + e0 < size)
        moved(re, im, j, draw(gaussian))
    elif kind == "class":
        # one class mod Q shifted on the columns whose row is in the
        # window, by a constant or by a ramp along the class: still affine
        # on the classes mod P when Q divides P, and the ramp's deviation
        # peaks at one end of the class
        db = bilateral_apply({n: comp}, b)
        P = level * math.lcm(per, bper, *(g.period
                                          for g in db.terms.values()))
        Q = draw(st.sampled_from([P, P, 2 * P, 3]))
        (a, c), ramp = draw(gaussian), draw(st.sampled_from([0, 1, -1]))
        for j in range(r % Q, size, Q):
            if 0 <= j + e0 < size:
                moved(re, im, j, (a * (1 + ramp * j), c * (1 + ramp * j)))
    comps = {n: comp}
    if kind == "other":
        m = draw(st.sampled_from([n, n + 1, n - 1]))
        comps = {m: bilateral_covariant(
            m, eta(draw, N, per, not bounded_regime(m, N)), N)}
    return (den, bands), comps, b, M, space, level, kind


@ORACLE
@given(case=cases())
def test_check_implementation_is_the_full_window_oracle(case):
    D, comps, b, M, space, level, kind = case
    entries = band_entries(D)
    assume(entries)
    got = gns.check_implementation(D, comps, b, M, space=space, level=level)
    want = reference_implementation_deviation(entries, comps, b, M, level)
    assert got == want, kind


def test_ramped_class_peaks_at_its_end():
    # one class mod P of an implementing D ramped along the class, with g
    # vanishing on other classes: the deviation grows on that class alone
    # and peaks at its last interior column (ramp 1) or its first (ramp
    # -1), at every class and degree
    M, i = 8, Scalar(0, 1)
    for n, linear in ((0, Scalar(1)), (1, ZERO)):
        comp = bilateral_covariant(n, BilateralAffineSequence(
            linear, BilateralEPSequence({}, [Scalar(2), i], N4)), N4)
        data = gns.implementation_from_bilateral(comp)
        for table in ([Scalar(1), ZERO], [ZERO, Scalar(3), ZERO, i]):
            P = len(table)
            for k in (-2, -1, 1, 2):
                b = BilateralElement({k: LocallyConstantFunction(table, N4)},
                                     N4)
                for r in range(P):
                    for ramp in (1, -1):
                        den, bands = gns._window_bands(data, "tau0", M)
                        re, im = (list(row) for row in bands[n])
                        for j in range(r, 2 * M + 1 - max(n, 0), P):
                            re[j] += den * (1 + ramp * (j - M))
                        D = (den, {n: (re, im)})
                        got = gns.check_implementation(D, {n: comp}, b, M)
                        assert got == reference_implementation_deviation(
                            band_entries(D), {n: comp}, b, M, 1)
