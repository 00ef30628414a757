"""Normal-form arithmetic for the shift algebras.

A unilateral element is a finite sum of monomials: degree n >= 0 means
U^n a(K), degree n = -p < 0 means a(K)(U*)^p, with the coefficient kept
LEFT of (U*)^p.  Matrix semantics on the basis {E_k, k >= 0}:

    degree n >= 0:  entry (k+n, k) = a(k)
    degree -p < 0:  entry (i, i+p) = a(i)

A bilateral element is a finite sum V^n b_n(L) with locally constant
coefficients; entries (l+n, l) = b(l) over l in Z.  The products follow
the commutation rule a(K)U = U a(K+I) and its bilateral twin; on the
unilateral side the collapse (U*)U = I is exact while U^p c(K)(U*)^p
produces the chi_{>=p} cutoff.

One kernel, _terms_mul, multiplies on both algebras.  The terms of
degrees m and n give degree m+n and c(k) = [k >= z] a(k+sa) b(k+sb), the
rule (sa, sb, z) is (n, 0, 0) on Z, _rule on A(N).  The coefficients'
integer rows are rescaled to one shared denominator and repeated to the
lcm J of all periods, one row per degree; each pair adds its periodic
row and its corrections (exact minus periodic value) to one raw row per
output degree.  A commutator, [x, y] or a derivation's [g, x], visits
each pair once for both signed products, one product where covariance
makes a rotation trivial; g's linear part rides beside its row, and its
weight-1 products, which cancel, form only their corrections.  The
defect T(b1 b2) - T(b1)T(b2) reads only the pairs that meet below 0.
On Z each position is a convolution in the degree, which a large
bilateral product does as a few big-integer products instead (Kronecker
substitution, same raw rows).  A large product in A(N), indexed by
column with zeros below 0, is the product of its quotients q(x)q(y)
plus a corner that only the corrections and y's zero fill make, packed
too.  Each output row finds its minimal period on the integers and is
reduced by one gcd; no Scalar is formed.  Its terms, and those of +,
scale, adjoint, quotient, toeplitz and matrix_units, which _make or
_from_canonical built over the element's N, skip the constructor's
checks (_Element._trusted).  The order of the degrees in a term dict
carries no meaning: the JSON lists them ascending.
"""

import math
import struct
from bisect import bisect_left
from itertools import chain, product, repeat
from operator import add, lshift, mul, sub

from .errors import NotFinite
from .profinite import LocallyConstantFunction, _int_key, _one_N
from .scalars import Scalar, as_scalar, coerce_scalar
from .sequences import (
    EPSequence,
    ep_conjugate,
    ep_constant,
    ep_from_lcf,
    ep_scale,
    ep_shift,
)

_ZERO = Scalar(0)


# ---------------------------------------------------------------------------
# the product kernel of both algebras


def _rule(m, n):
    """(sa, sb, z) with V^m a . V^n b = V^{m+n} c and c(k) = [k >= z]
    a(k+sa) b(k+sb) on A(N), both arguments >= 0 on k >= 0."""
    if m >= 0 and n >= 0:
        return n, 0, 0
    if m >= 0:
        # U^m (ab)(K) (U*)^-n keeps U^s (ab)(K) (U*)^s, s = min(m, -n),
        # which is (ab)(K - s) cut off below s
        s = min(m, -n)
        return -s, -s, s
    d = m + max(n, 0)
    return (d, 0, 0) if d >= 0 else (0, -d, 0)


def _at_shift(row, s):
    """The row of q(. + s) before rotation: W(k+s) = W(k) + s gains s*u."""
    re, im, corr, u = row
    return [s * u[0] + a for a in re], [s * u[1] + b for b in im], corr, u


def _terms_mul(xt, yt, unilateral, commute=False):
    """Product of two term dicts (degree -> coefficient), accumulated by
    degree; unilateral selects the domain k >= 0 of A(N) over Z; commute
    gives [x, y] = x*y - y*x, both signed products of a term pair at once.
    A coefficient is a sequence or, in a commutator's x, a pair (C, v)
    of a Scalar and a sequence standing for C*W + v, W the affine weight
    (k+1 on k >= 0, l on Z), at a degree in J*Z (_factors); its weight-1
    products cancel but for their corrections (_pair_rows).

    Each path gives _make one raw row (re, im, corr) per output degree
    over D^2: _pair_rows below the size rule (_kronecker_slots), a
    Kronecker path above it, _kronecker_rows on Z and _unilateral_rows
    on A(N).  The latter indexes each coefficient by column: x~_m(t) =
    a_m(t + min(m, 0)) is the entry (t + m, t), zero where the key is
    negative, and (xy)~_d(c) = sum_n x~_{d-n}(c+n) y~_n(c) on every
    column c >= 0, the zero fill doing each cutoff of _rule.  Its
    periodic part, the tail, is q(x)q(y) from _kronecker_rows; the
    corrections come from the factors' corrections and y's zero fill
    alone, packed by y's columns and x's rows.  The rule weighs the term
    pairs, the degree span, J, the slot bytes with the corrections
    counted, and the products of that corner.
    """
    if not xt or not yt:
        return {}
    factors = _factors(xt, yt)
    nb = _kronecker_slots(factors, unilateral, commute)
    if not nb:
        raw = _pair_rows(factors, unilateral, commute)
    elif unilateral:
        raw = _unilateral_rows(factors, nb)
    else:
        raw = _kronecker_rows(factors, commute, nb)
    cls, N, D = factors[:3]
    return {deg: cls._make(D * D, *row, N) for deg, row in raw.items()}


def _factors(xt, yt):
    """(cls, N, D, J, xrows, yrows): by degree, each factor's row
    (re, im, correction, u) over the shared denominator D, repeated to
    the common period J; a correction value is (re, im), u the linear
    part (a, b) of a pair in xt or ().  It cancels in a commutator only
    at a degree m with J | m, as covariance gives a derivation's."""
    lin = {n: c[0]._t for n, c in xt.items() if type(c) is tuple}
    xs = {n: c[1] if n in lin else c for n, c in xt.items()} if lin else xt
    J = D = 1
    for s in chain(xs.values(), yt.values()):
        J, D = math.lcm(J, s.period), math.lcm(D, s.den)
    if lin:
        D = math.lcm(D, *(d for _, _, d in lin.values()))
        lin = {n: (a * (D // d), b * (D // d)) for n, (a, b, d) in lin.items()}
    if any(n % J for n in lin):
        raise AssertionError("affine weight failed to cancel in a commutator")
    return (type(s), s.N, D, J,
            {n: (*s._rows(D, J), lin.get(n, ())) for n, s in xs.items()},
            {n: (*s._rows(D, J), ()) for n, s in yt.items()})


def _turn(q, r):
    """The (re, im) of the row of q rotated by r = s % J: q(k + s) at k."""
    return (q[0][r:] + q[0][:r], q[1][r:] + q[1][:r]) if r else q[:2]


def _pair_rows(factors, unilateral, commute):
    """One raw row {degree: (re, im, corrections)} per output degree, one
    visit per term pair: V^m a . V^n b adds a(r+sa) b(r+sb), and in a
    commutator -(V^n b . V^m a) of rule (tb, ta, tz) too, in one product
    where a factor's rotations agree: (a(.+sa) - a(.+ta) + (sa - ta)u) b
    at J | m, u a's linear part, a (b(.+sb) - b(.+tb)) at J | n.  Each
    product adds, signed, its periodic row negated at its cutoffs k < z
    (sa = sb = -z moves all keys past them) and its corrections: ca b at
    a's moved keys, b exact, a_per cb at b's; weight-1 products only as
    (k + offset)*c at both.  Each m + n is a key, in the pairs' order."""
    cls, J, xrows, yrows = factors[0], *factors[3:]
    acc = {}
    for (m, arow), (n, brow) in product(xrows.items(), yrows.items()):
        sa, sb, z = _rule(m, n) if unilateral else (n, 0, 0)
        (are, aim, ac, u), (bre, bim, bc, _) = arow, brow
        ra, rb = sa % J, sb % J
        ar, ai = (are[ra:] + are[:ra], aim[ra:] + aim[:ra]) if ra \
            else (are, aim)
        br, bi = (bre[rb:] + bre[:rb], bim[rb:] + bim[:rb]) if rb \
            else (bre, bim)
        if commute:
            tb, ta, tz = _rule(n, m) if unilateral else (m, 0, 0)
            if m % J == 0:
                (cr, ci), (g, h) = _turn(arow, ta % J), u or (0, 0)
                ar = [x - y + (sa - ta) * g for x, y in zip(ar, cr)]
                ai = [x - y + (sa - ta) * h for x, y in zip(ai, ci)]
            elif n % J == 0:
                cr, ci = _turn(brow, tb % J)
                br, bi = [*map(sub, br, cr)], [*map(sub, bi, ci)]
        pr = [x * y - u * v for x, u, y, v in zip(ar, ai, br, bi)]
        pi = [x * v + u * y for x, u, y, v in zip(ar, ai, br, bi)]
        if commute and m % J and n % J:  # neither: both products
            c, d = _turn(brow, tb % J), _turn(arow, ta % J)
            pr = [t - x * y + u * v for t, x, u, y, v in zip(pr, *c, *d)]
            pi = [t - x * v - u * y for t, x, u, y, v in zip(pi, *c, *d)]
        re, im, corr = acc.setdefault(m + n, (pr, pi, {}))
        if re is not pr:
            re[:], im[:] = map(add, re, pr), map(add, im, pi)
        if not (z or ac or bc or commute and tz):  # as on B(N)
            continue
        for sign, sa, sb, z, arow, brow in [(1, sa, sb, z, arow, brow)] + (
                [(-1, tb, ta, tz, brow, arow)] if commute else []):
            are, aim, ac, au = _at_shift(arow, sa) if sa and arow[3] else arow
            bre, bim, bc, bu = _at_shift(brow, sb) if sb and brow[3] else brow
            for k in range(z):
                i, c = (k + sa) % J, corr.get(k, (0, 0))
                corr[k] = (c[0] - sign * (are[i] * bre[i] - aim[i] * bim[i]),
                           c[1] - sign * (are[i] * bim[i] + aim[i] * bre[i]))
            if au or bu:
                # the constant u meets the row o at the moved keys of o's
                # corrections, and as -u o_per below z
                (cr, ci), (ore, oim, oc, s) = (au, (bre, bim, bc, sb)) if au \
                    else (bu, (are, aim, ac, sa))
                for k in {i - s for i in oc}.union(range(z)):
                    if k >= 0:
                        x, y = (-ore[(k + s) % J], -oim[(k + s) % J]) \
                            if k < z else oc[k + s]
                        w, c = sign * (k + cls.offset), corr.get(k, (0, 0))
                        corr[k] = (c[0] + w * (cr * x - ci * y),
                                   c[1] + w * (cr * y + ci * x))
            for i, (p, q) in ac.items():
                k, j = i - sa, i - sa + sb
                if k >= 0:
                    (e, f), c = bc.get(j, (0, 0)), corr.get(k, (0, 0))
                    y, v = bre[j % J] + e, bim[j % J] + f
                    corr[k] = (c[0] + sign * (p * y - q * v),
                               c[1] + sign * (p * v + q * y))
            for j, (e, f) in bc.items():
                k, i = j - sb, (j - sb + sa) % J
                if k >= 0:
                    x, u, c = are[i], aim[i], corr.get(k, (0, 0))
                    corr[k] = (c[0] + sign * (x * e - u * f),
                               c[1] + sign * (x * f + u * e))
    return acc


# the size rule of _terms_mul, calibrated by sweeps (CHANGES.md)
KRONECKER_PAIRS = 2
KRONECKER_SPREAD = 4
KRONECKER_CORNER = 2


def _kronecker_slots(factors, unilateral, commute):
    """The size rule: the slot bytes of a product's Kronecker path, or 0
    for the pair loop.  Its #x*#y term pairs reach KRONECKER_PAIRS*(#x +
    #y + J); its degree span (the output's slots) is at most
    KRONECKER_SPREAD*(#x + #y); its slots fit a 64-bit word.  On A(N)
    (rows on Z have no corrections), no commutator, and at most
    KRONECKER_CORNER*#x*#y products for the corner (_unilateral_rows):
    y's zero fill sum(-n, n < 0) and the corrections of both factors.
    Below, packing costs more than the pairs; sparse degrees pack mostly
    empty slots, wider slots half empty operands, and a deep zero fill
    more than the pairs it saves."""
    J, xrows, yrows = factors[3:]
    nx, ny = len(xrows), len(yrows)
    if nx * ny < KRONECKER_PAIRS * (nx + ny + J) or unilateral and commute:
        return 0
    span = max(xrows) + max(yrows) - min(xrows) - min(yrows) + 1
    if span > KRONECKER_SPREAD * (nx + ny) or unilateral and (
            sum(len(r[2]) for t in (xrows, yrows) for r in t.values())
            - sum(n for n in yrows if n < 0) > KRONECKER_CORNER * nx * ny):
        return 0
    nb = _slot_bytes(factors, commute)
    return nb if nb <= 8 else 0


def _slot_bytes(factors, commute):
    """Bytes of a signed slot that holds any coefficient: a pair adds at
    most 2|a||b|(1 + |n|) (n*u the weight gain), |a| and |b| bounding the
    table, linear and correction values, and at most min(#x, #y) pairs of
    a pass meet in one.  A power of two; _kronecker_slots takes up to 8,
    the widths struct reads."""
    xrows, yrows = factors[4:]
    big = [max(1, *(max(map(abs, (*re, *im, *u)))
                    for re, im, _, u in t.values()))
           + max(map(abs, chain.from_iterable(chain.from_iterable(
               r[2].values() for r in t.values()))), default=0)
           for t in (xrows, yrows)]
    bound = (2 + 2 * commute) * big[0] * big[1] * min(
        len(xrows), len(yrows)) * (1 + max(map(abs, (*xrows, *yrows))))
    nb = bound.bit_length() // 8 + 1
    return 1 << (nb - 1).bit_length()


def _packs(t, base, nb, gain=False):
    """Per position, the re and im rows of the term rows t packed at
    X = 2^(8*nb), degree n in slot n - base; a gain multiplies degree n
    by n, so degree 0 drops out.  [] if no row is packed."""
    cols = [(n, 8 * nb * (n - base), rows) for n, rows in t.items()
            if n or not gain]
    return cols and [[*map(sum, zip(*(map(
        lshift, map(n.__mul__, rows[p]) if gain else rows[p],
        repeat(sh)) for n, sh, rows in cols)))] for p in (0, 1)]


def _slot_reader(nb, size):
    """The reader of the size signed slots of a packed sum: the bias
    2^(8*nb - 1) added to each slot and flipped off again in its top bit
    leaves the slot's two's complement; nb is 1, 2, 4 or 8."""
    half = 1 << (8 * nb - 1)
    bias = int.from_bytes(half.to_bytes(nb, "little") * size, "little")
    fmt = f"<{size}" + {1: "b", 2: "h", 4: "i", 8: "q"}[nb]
    return lambda v: struct.unpack(fmt, ((v + bias) ^ bias).to_bytes(
        nb * size, "little"))


def _kronecker_rows(factors, commute, nb):
    """One raw row (re, im, {}) per degree of a bilateral product.  Degree
    m+n at position k sums a_m[(k+n) % J] b_n[k]; at X = 2^(8*nb), with
    A[s] = sum_m a_m[s] X^m and B_r[k] = sum_n b_n[k] X^n over a class r
    of n mod J, sum_r A[(k+r) % J] B_r[k] holds each degree in its slot,
    read back on the sumset.  A commutator subtracts its second pass,
    where the weight-1 products of x's linear parts cancel and are not
    formed; a left linear part u, packed as a constant row, gains n*u at
    shift n (_at_shift) from the right rows packed again as n*b_n.  nb is
    _slot_bytes(factors, commute)."""
    J, xrows, yrows = factors[3:]
    lo = min(xrows) + min(yrows)
    size = max(xrows) + max(yrows) - lo + 1
    sums = [[0] * J, [0] * J]  # re, im
    for left, right, op in [(xrows, yrows, add)] + [
            (yrows, xrows, sub)] * commute:
        # the rows, then the linear parts: ar, ai and ar + ai, doubled so
        # a rotation is a slice
        lin = {n: ([r[3][0]] * J, [r[3][1]] * J)
               for n, r in left.items() if r[3]}
        lpk = [a and [row * 2 for row in (*a, [*map(add, *a)])]
               for a in (_packs(t, min(left), nb) for t in (left, lin))]
        classes = {}
        for n, rows in right.items():
            classes.setdefault(n % J, {})[n] = rows
        for r, t in classes.items():
            b = _packs(t, min(right), nb)
            gain = lpk[1] and _packs(t, min(right), nb, True)
            # left pack, right pack: v*b and u*n*b
            for a, bb in ((lpk[0], b), (lpk[1], gain)):
                if not (a and bb):
                    continue
                # Gauss: (ar + i ai)(br + i bi) by three products
                (ar, ai, ars), (br, bi) = (row[r:r + J] for row in a), bb
                k1 = [*map(mul, br, ars)]
                sums[0] = [*map(op, sums[0], map(
                    sub, k1, map(mul, ai, map(add, br, bi))))]
                sums[1] = [*map(op, sums[1], map(
                    add, k1, map(mul, ar, map(sub, bi, br))))]
    slots = _slot_reader(nb, size)
    cols = [[*map(slots, vs)] for vs in zip(*sums)]
    # the degrees in the order in which the pair loop meets them
    return {d: ([re[d - lo] for re, _ in cols],
                [im[d - lo] for _, im in cols], {})
            for d in dict.fromkeys(chain.from_iterable(
                map(m.__add__, yrows) for m in xrows))}


def _unilateral_rows(factors, nb):
    """One raw row per degree of a unilateral product of plain sequences,
    by column (see _terms_mul).  The tail is _kronecker_rows of the rows
    rotated by min(n, 0), as quotient() does, from P(t) = sum_m q_m(t)
    X^m and q_n(c), the quotients' values.  With y~ = q + dy, dy_n the
    zero fill -q_n(c) on c < -n and y's corrections, and X~ = P + E,
    E(t) x's corrections packed by degree at column t = key - min(m, 0),
    the corrections are
        D(c) = sum_n [X~(c+n) dy_n(c) + E(c+n) q_n(c)] X^n:
    x~'s zero fill, left out of X~, meets only rows c + d < 0, outside
    the product, so D is head minus tail on every row read.  The first
    sum is packed by the columns of dy.  The second is one product per
    correction of x, with q's row t packed over n, summed by the row
    t + m it lands on, whose slot d is column t + m - d.  A slot sums at
    most min(#x, #y) products of two values that _slot_bytes bounds, as
    a full product's does.  Degree d at column c >= max(-d, 0) is key
    c + min(d, 0) of its row-left coefficient: its (re, im) is the tail
    rotated, its corr both sums read there, in the pair loop's order of
    degrees.  nb is _slot_bytes(factors, False)."""
    J, xrows, yrows = factors[3:]
    qx, qy = ({n: (re[s:] + re[:s], im[s:] + im[:s], {}, ())
               for n, (re, im, _, _) in t.items() for s in [min(n, 0) % J]}
              for t in (xrows, yrows))
    tail = _kronecker_rows((*factors[:3], J, qx, qy), False, nb)
    mx, my, ys = min(xrows), min(yrows), sorted(yrows)
    size, (pr, pi) = max(xrows) + max(yrows) - mx - my + 1, _packs(qx, mx, nb)
    # q's row t packed over n, by t mod J (slot n holds q_n(t - n)); x's
    # corrections give E by column t and E q by row t + m
    qr, qi = _packs({n: (re[-n % J:] + re[:-n % J], im[-n % J:] + im[:-n % J])
                     for n, (re, im, _, _) in qy.items()}, my, nb)
    er, ei, gr, gi = {}, {}, {}, {}
    for m, (_, _, corr, _) in xrows.items():
        sh = 8 * nb * (m - mx)
        for k, (a, b) in corr.items():
            t, r = k - min(m, 0), k + max(m, 0)
            er[t], ei[t] = er.get(t, 0) + (a << sh), ei.get(t, 0) + (b << sh)
            u, v = qr[t % J], qi[t % J]
            gr[r] = gr.get(r, 0) + ((a * u - b * v) << sh)
            gi[r] = gi.get(r, 0) + ((a * v + b * u) << sh)
    # y's zero fill, on the columns c < -n, meets X~(c+n) = P(c+n)
    S, shifts = max(-my, 0), [8 * nb * (n - my) for n in ys]
    dr, di, ur, ui = [0] * S, [0] * S, *(
        [p[t % J] for t in range(my, 0)] for p in (pr, pi))
    for n, sh in zip(ys[:bisect_left(ys, 0)], shifts):
        a, b, (vr, vi) = ur[n - my:], ui[n - my:], (
            (q * (-n // J + 1))[:-n] for q in qy[n][:2])
        dr[:-n] = map(sub, dr[:-n], map(lshift, map(
            sub, map(mul, a, vr), map(mul, b, vi)), repeat(sh)))
        di[:-n] = map(sub, di[:-n], map(lshift, map(
            add, map(mul, a, vi), map(mul, b, vr)), repeat(sh)))
    dr, di = dict(enumerate(dr)), dict(enumerate(di))
    # y's corrections, at column c = key - min(n, 0), meet X~(c+n)
    for n, sh in zip(ys, shifts):
        for k, (a, b) in yrows[n][2].items():
            t = k + max(n, 0)
            u, v = pr[t % J] + er.get(t, 0), pi[t % J] + ei.get(t, 0)
            dr[t - n] = dr.get(t - n, 0) + ((u * a - v * b) << sh)
            di[t - n] = di.get(t - n, 0) + ((u * b + v * a) << sh)
    slots, cols, rows = _slot_reader(nb, size), sorted(dr), sorted(gr)
    # by slot (degree), a tuple over the columns, or over the rows
    hre, him, gre, gim = [
        [*zip(*map(slots, map(h.__getitem__, keys)))] or [()] * size
        for h, keys in ((dr, cols), (di, cols), (gr, rows), (gi, rows))]
    raw = {}
    for d, (tr, ti, _) in tail.items():
        s, i = max(-d, 0), d - mx - my
        j, r, o = bisect_left(cols, s), s % J, max(d, 0)
        corr = dict(zip(map(sub, cols[j:], repeat(s)),
                        zip(hre[i][j:], him[i][j:])))
        j = bisect_left(rows, d)
        for k, u, v in zip(map(sub, rows[j:], repeat(o)), gre[i][j:],
                           gim[i][j:]):
            if u or v:
                c = corr.get(k, (0, 0))
                corr[k] = (c[0] + u, c[1] + v)
        raw[d] = (tr[r:] + tr[:r], ti[r:] + ti[:r], corr)
    return raw


# ---------------------------------------------------------------------------
# elements of both algebras


class _Element:
    """Finite normal form: degree -> nonzero coefficient, each over the
    element's N.  Subclasses set the coefficient class _coeff.  _trusted
    skips the constructor's class and N checks (module docstring)."""

    __slots__ = ("terms", "N")

    def __init__(self, terms, N):
        clean = {}
        for n, a in terms.items():
            if not isinstance(a, self._coeff):
                raise TypeError(f"coefficients must be {self._coeff.__name__}")
            if a.N is not N and a.N != N:
                raise ValueError(f"coefficient over {a.N}, element over {N}")
            if not a.is_zero():
                clean[int(n)] = a
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "N", N)

    @classmethod
    def _trusted(cls, terms, N):
        """The element of terms, zero coefficients dropped, unchecked."""
        x = object.__new__(cls)
        object.__setattr__(x, "terms",
                           {n: a for n, a in terms.items() if not a.is_zero()})
        object.__setattr__(x, "N", N)
        return x

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def coefficient(self, n):
        return self.terms.get(n)

    def entry(self, i, j):
        """Exact matrix entry (i, j): the coefficient of degree i - j at
        j, or at i for a negative degree on A(N) (coefficient left)."""
        a = self.terms.get(i - j)
        if a is None:
            return _ZERO
        return a.value_at(i if i < j and self._coeff.unilateral else j)

    def degrees(self):
        return sorted(self.terms.keys())

    def max_abs_degree(self):
        return max((abs(n) for n in self.terms), default=0)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.N is other.N or self.N == other.N) \
            and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, _Element):
            return NotImplemented
        _one_algebra(self, other, "add")
        terms = dict(self.terms)
        for n, b in other.terms.items():
            terms[n] = terms[n] + b if n in terms else b
        return type(self)._trusted(terms, self.N)

    def __sub__(self, other):
        if not isinstance(other, _Element):
            return NotImplemented
        return self + scale(other, Scalar(-1))

    def __neg__(self):
        return scale(self, Scalar(-1))

    def __mul__(self, other):
        if type(other) is type(self):
            return multiply(self, other)
        return self.__rmul__(other)

    def __rmul__(self, other):
        c = as_scalar(other)
        if c is NotImplemented:
            return NotImplemented
        return scale(self, c)

    def __repr__(self):
        name = type(self).__name__
        if not self.terms:
            return f"{name}(0)"
        parts = [f"{n}: {self.terms[n]!r}" for n in self.degrees()]
        return name + "({" + ", ".join(parts) + "})"

    def to_json(self):
        return {"terms": {str(n): a.to_json()
                          for n, a in sorted(self.terms.items())}}


def _one_algebra(x, y, verb):
    """Refuse two operands unless they are elements of one algebra over
    one N: TypeError for two classes, ValueError for two N."""
    if type(x) is not type(y):
        raise TypeError(f"cannot {verb} {type(x).__name__} "
                        f"with {type(y).__name__}")
    _one_N(x, y, verb)


def scale(x, c):
    c = coerce_scalar(c)
    return type(x)._trusted(
        {n: ep_scale(a, c) for n, a in x.terms.items()} if c else {}, x.N)


bilateral_scale = scale


def commutator(x, y):
    """[x, y] = x*y - y*x on either algebra, in one signed kernel pass."""
    _one_algebra(x, y, "commute")
    return type(x)._trusted(_terms_mul(x.terms, y.terms, x._coeff.unilateral,
                                       commute=True), x.N)


# ---------------------------------------------------------------------------
# unilateral elements


class UnilateralElement(_Element):
    """Finite normal form over the unilateral shift algebra."""

    __slots__ = ()
    _coeff = EPSequence


def zero_element(N):
    return UnilateralElement({}, N)


def identity_element(N):
    return u_element(N, 0)


def u_element(N, power=1):
    """U^power for power >= 1, (U*)^(-power) for power <= -1."""
    return UnilateralElement({power: ep_constant(1, N)}, N)


def diag_element(a):
    """a(K) for an EPSequence a."""
    return UnilateralElement({0: a}, a.N)


def p0_element(N):
    """The rank-one projection onto E_0."""
    return UnilateralElement({0: EPSequence({0: 1}, [0], N)}, N)


def matrix_unit_compact(r, s, N):
    """U^r P_0 (U*)^s: the rank-one matrix unit E_rs, built directly."""
    return UnilateralElement(
        {r - s: EPSequence({min(r, s): 1}, [0], N)}, N
    )


def multiply(x, y):
    """Normal form of the operator product, on either algebra."""
    _one_algebra(x, y, "multiply")
    return type(x)._trusted(_terms_mul(x.terms, y.terms, x._coeff.unilateral),
                            x.N)


bilateral_multiply = multiply


def adjoint(x):
    """The *-operation on either algebra.  Coefficients conjugate with no
    index shift under the coefficient-left convention of negative
    unilateral degrees."""
    terms = {-n: ep_conjugate(a) for n, a in x.terms.items()}
    if not x._coeff.unilateral:
        # (V^n f)* = f* V^{-n} = V^{-n} f*(. - n)
        terms = {m: ep_shift(a, m) for m, a in terms.items()}
    return type(x)._trusted(terms, x.N)


bilateral_adjoint = adjoint


def is_compact(x):
    """True iff every coefficient is purely c00 (zero periodic part)."""
    return all(not (any(a.re) or any(a.im)) for a in x.terms.values())


def quotient(x):
    """Image in the quotient by the compacts, in the bilateral picture.

    Corrections die; a negative-degree coefficient is repositioned from
    the coefficient-left form a(K)(U*)^p to V^{-p} b(L) via a cyclic
    shift of its periodic table.
    """
    terms = {}
    for n, a in x.terms.items():
        f = LocallyConstantFunction._make(a.den, a.re, a.im, {}, x.N)
        terms[n] = ep_shift(f, n) if n < 0 else f
    return BilateralElement._trusted(terms, x.N)


# ---------------------------------------------------------------------------
# bilateral elements


class BilateralElement(_Element):
    """Finite normal form sum V^n b_n(L) with locally constant b_n."""

    __slots__ = ()
    _coeff = LocallyConstantFunction


def bilateral_zero(N):
    return BilateralElement({}, N)


def bilateral_identity(N):
    return v_element(N, 0)


def v_element(N, power=1):
    return BilateralElement(
        {power: LocallyConstantFunction([Scalar(1)], N)}, N
    )


def bilateral_diag(f):
    return BilateralElement({0: f}, f.N)


def expectation(b):
    """The degree-0 coefficient, as a locally constant function."""
    f = b.terms.get(0)
    if f is None:
        return LocallyConstantFunction([Scalar(0)], b.N)
    return f


def toeplitz(b):
    """Compression T(b) = P b P to the nonnegative coordinates.

    T(V^n c(L)) = U^n (c restricted) for n >= 0; for n = -p < 0 the
    degree -p coefficient is k |-> c(k+p).
    """
    terms = {}
    for n, f in b.terms.items():
        terms[n] = ep_from_lcf(f if n >= 0 else ep_shift(f, -n))
    return UnilateralElement._trusted(terms, b.N)


def mult_defect(b1, b2):
    """T(b1 b2) - T(b1)T(b2), always compact: b1 b2 summed over l < 0,
    where V^m f and V^n g with m >= 0 > n add f(k - s) g(k - s - n) at
    k < s = min(m, -n) to degree m + n, on integer rows over one D."""
    if not type(b1) is type(b2) is BilateralElement:
        raise TypeError("the defect takes two elements of B(N)")
    _one_algebra(b1, b2, "take the defect of")
    seqs = [f for b in (b1, b2) for f in b.terms.values()]
    D, out = math.lcm(*(f.den for f in seqs)), {}
    for (m, f), (n, g) in product(b1.terms.items(), b2.terms.items()):
        s, h = min(m, -n), D // f.den * (D // g.den)
        corr = s > 0 and out.setdefault(m + n, {})
        for k in range(s):
            (x, u), (y, v) = f._at(k - s), g._at(k - s - n)
            c = corr.get(k, (0, 0))
            corr[k] = (c[0] + h * (x * y - u * v), c[1] + h * (x * v + u * y))
    return UnilateralElement({d: EPSequence._make(D * D, [0], [0], c, b1.N)
                              for d, c in out.items()}, b1.N)


def residue_indicator(r, N_int, N):
    """The locally constant indicator of the class l = r mod N_int, N_int
    a level of N: its row over den 1 is canonical, of period N_int."""
    row = tuple(int(k == r % N_int) for k in range(N_int))
    return LocallyConstantFunction._from_canonical(1, row, (0,) * N_int, {}, N)


def matrix_units(N):
    """All P_sr = V^s e_N(L) V^{-r} for finite N, keyed by (s, r)."""
    if not N.is_finite():
        raise NotFinite("matrix units need a finite N")
    N_int = N.as_int()
    e = [residue_indicator(r, N_int, N) for r in range(N_int)]
    return {(s, r): BilateralElement._trusted({s - r: e[r]}, N)
            for s in range(N_int) for r in range(N_int)}


# ---------------------------------------------------------------------------
# the finite-N matrix picture: N x N matrices over Laurent polynomials


class LaurentFunction:
    """Finite Fourier support on the circle: f(t) = sum f_j e^{ijt}, a
    Laurent polynomial in z = e^{it}; the JSON lists the powers
    ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        kept = {}
        for j, c in coeffs.items():
            c = coerce_scalar(c)
            if c:
                kept[int(j)] = c
        object.__setattr__(self, "coeffs", kept)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentFunction is immutable")

    def coefficient(self, j):
        return self.coeffs.get(j, _ZERO)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, LaurentFunction):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for j, c in other.coeffs.items():
            out[j] = out.get(j, _ZERO) + c
        return LaurentFunction(out)

    def __mul__(self, other):
        out = {}
        for j, c in self.coeffs.items():
            for k, e in other.coeffs.items():
                key = j + k
                out[key] = out.get(key, _ZERO) + c * e
        return LaurentFunction(out)

    def __neg__(self):
        return self.scale(Scalar(-1))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = coerce_scalar(c)
        return LaurentFunction({j: c * v for j, v in self.coeffs.items()})

    def conjugate(self):
        """The pointwise conjugate on the circle: z^j goes to z^-j."""
        return LaurentFunction(
            {-j: c.conjugate() for j, c in self.coeffs.items()})

    def derivative(self):
        """(1/i) d/dt: z^j goes to j z^j."""
        return LaurentFunction({j: j * c for j, c in self.coeffs.items()})

    def __repr__(self):
        return f"LaurentFunction({self.coeffs!r})"

    def to_json(self):
        return {"coeffs": {str(j): c.to_json()
                           for j, c in sorted(self.coeffs.items())}}

    @classmethod
    def from_json(cls, data):
        return cls(
            {_int_key(j): Scalar.from_json(c)
             for j, c in data["coeffs"].items()}
        )


_ZERO_POLY = LaurentFunction({})


class MatrixTrigPoly:
    """N x N matrix of Laurent polynomials in one unimodular variable z,
    with z standing for V^N.  Every entry is a LaurentFunction; a dict of
    power -> scalar is accepted in its place."""

    __slots__ = ("size", "entries")

    def __init__(self, size, entries):
        if len(entries) != size or any(len(row) != size for row in entries):
            raise ValueError(f"entries must form a {size}x{size} array")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "entries", tuple(
            tuple(p if isinstance(p, LaurentFunction) else LaurentFunction(p)
                  for p in row)
            for row in entries
        ))

    def __setattr__(self, name, value):
        raise AttributeError("MatrixTrigPoly is immutable")

    @classmethod
    def zero(cls, size):
        return cls(size, [[_ZERO_POLY] * size for _ in range(size)])

    def entrywise(self, op):
        """The matrix of op(entry), entry by entry."""
        return MatrixTrigPoly(
            self.size, [[op(p) for p in row] for row in self.entries])

    def _zip(self, other, op):
        if self.size != other.size:
            raise ValueError("size mismatch")
        return MatrixTrigPoly(self.size, [
            [op(p, q) for p, q in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ])

    def is_zero(self):
        return all(p.is_zero() for row in self.entries for p in row)

    def __eq__(self, other):
        if not isinstance(other, MatrixTrigPoly):
            return NotImplemented
        return self.size == other.size and self.entries == other.entries

    def __add__(self, other):
        return self._zip(other, LaurentFunction.__add__)

    def __sub__(self, other):
        return self._zip(other, LaurentFunction.__sub__)

    def scale(self, c):
        return self.entrywise(lambda p: p.scale(c))

    def __mul__(self, other):
        if not isinstance(other, MatrixTrigPoly):
            return NotImplemented
        if self.size != other.size:
            raise ValueError("size mismatch")
        cols = list(zip(*other.entries))
        return MatrixTrigPoly(self.size, [
            [sum(map(LaurentFunction.__mul__, row, col), _ZERO_POLY)
             for col in cols]
            for row in self.entries
        ])

    def conjugate_transpose(self):
        return MatrixTrigPoly(self.size, [
            [p.conjugate() for p in col] for col in zip(*self.entries)])

    def __repr__(self):
        return f"MatrixTrigPoly(size={self.size})"

    def to_json(self):
        return {
            "size": self.size,
            "entries": [[p.to_json()["coeffs"] for p in row]
                        for row in self.entries],
        }


def to_matrix_form(b, N):
    """Relabel E_{kN+j} as (z^k, basis j): the monomial V^n c(L) puts
    c(j) z^w at entry (j', j), with j + n = wN + j'.  Each (n, j) reaches
    its own slot, so nothing is summed."""
    if not N.is_finite():
        raise NotFinite("matrix form needs a finite N")
    N_int = N.as_int()
    out = [[{} for _ in range(N_int)] for _ in range(N_int)]
    for n, f in b.terms.items():
        for j in range(N_int):
            val = f.value_at(j)
            if val:
                w, jp = divmod(j + n, N_int)
                out[jp][j][w] = val
    return MatrixTrigPoly(N_int, out)


def from_matrix_form(F, N):
    """Inverse of to_matrix_form: the power w of entry (j', j) is slot j
    of the table of V^(j' - j + wN)."""
    if not N.is_finite():
        raise NotFinite("matrix form needs a finite N")
    N_int = N.as_int()
    if F.size != N_int:
        raise ValueError(f"matrix size {F.size} does not match N = {N_int}")
    tables = {}
    for jp, row in enumerate(F.entries):
        for j, p in enumerate(row):
            for w, val in p.coeffs.items():
                n = jp - j + w * N_int
                if n not in tables:
                    tables[n] = [_ZERO] * N_int
                tables[n][j] = val
    return BilateralElement(
        {n: LocallyConstantFunction(t, N) for n, t in tables.items()}, N)
