"""GNS simulators for the two invariant states.

tau_0 reads the expectation at 0 and lives on l^2(Z); tau_Haar averages
it and lives on L^2(Z x Z/NZ).  Both spaces hold one vector type, keyed
by (m, x mod level), with one inner product and one pi, both summed on
integer numerators over one denominator: tau_0 is the level-1 fiber
x = 0 and takes coefficients of any period, while the Haar space needs
period | level at every level, 1 included.  The operator D
implementing the covariant derivation V^n eta(L) is built from eta itself
on finite windows.  A covariant D of degree n maps the m-block of the
window (level vectors for Haar) only to the block m + n, so it is a
single band: the direct sum of level x level blocks B_m, and D*D is
block-diagonal.  In every regime B_m has the diagonal eta(x + m) +
const[x]: const = [c] on tau_0 and const = psi - eta on the Haar fiber;
in the bounded regime (psi - eta)(x - n) sits in the rows x - n instead,
which are the diagonal when level | n.  The diagonals are formed on the
integer rows of eta and psi over one denominator and laid on a window as
the integer bands of numerics._bands; numerics._dense gives their float.
The pi-images pi(V^k g) are bands too, with the blocks diag_x g(x + m),
so the implementation check forms [D, pi(b)] band by band in integer
pairs over the common denominator of D, b and delta(b), on the interior
of the window or, where the bands are affine on each residue class, at
the two ends of each class.  Compact-parametrix detection builds only
the blocks I + B_m^H B_m of the shells M <= |m| < 2M, where divergence
is visible as growth of the smallest eigenvalue, and steps its iteration
on the reciprocal diagonal when they are diagonal; the covariance check
reads the residual off the one band and the largest block norm, an
|entry| when the blocks are diagonal, and refuses a D on several bands.
"""

import cmath
import functools
import math
import operator
from collections import namedtuple
from itertools import chain, product

from .scalars import _canonical, as_scalar, ZERO, ONE
from .errors import LevelMismatch, NoConvergence, WindowTooSmall
from .profinite import LocallyConstantFunction, divides, haar_integral
from .algebra import expectation
from .derivations import bilateral_apply, bounded_regime
from .numerics import _dense


def tau0(b):
    """E(b)(0)."""
    return expectation(b).value_at(0)


def tau_haar(b):
    """The Haar average of E(b)."""
    return haar_integral(expectation(b))


class GNSVector:
    """Finite vector in L^2(Z x Z/level Z), normalized counting measure on
    x, keyed by (m, x mod level); space "tau0" is l^2(Z) as the level-1
    fiber x = 0, with E_l = e_(l,0)."""

    __slots__ = ("coeffs", "level", "space")

    def __init__(self, coeffs, level, space="haar"):
        if space not in ("tau0", "haar"):
            raise ValueError(f"unknown space {space!r}")
        if level < 1 or (space == "tau0" and level != 1):
            raise LevelMismatch(f"level {level} is not a level of {space}")
        kept = {}
        for (m, x), c in coeffs.items():
            c = as_scalar(c)
            if c:
                kept[(int(m), int(x) % level)] = c
        object.__setattr__(self, "coeffs", kept)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):
        raise AttributeError("GNSVector is immutable")

    def coefficient(self, m, x=0):
        return self.coeffs.get((m, x % self.level), ZERO)

    def __eq__(self, other):
        if not isinstance(other, GNSVector):
            return NotImplemented
        return ((self.space, self.level, self.coeffs)
                == (other.space, other.level, other.coeffs))

    def __repr__(self):
        return (f"GNSVector({self.coeffs!r}, level={self.level}, "
                f"space={self.space!r})")

    def to_json(self):
        """The coefficients in key order, keyed "l" on tau_0 and "m,x" on
        the Haar space."""
        return {"coeffs": {
            (str(m) if self.space == "tau0" else f"{m},{x}"): c.to_json()
            for (m, x), c in sorted(self.coeffs.items())}}


def GNSVector0(coeffs):
    """The tau_0 vector sum c E_l of {l: c}."""
    return GNSVector({(l, 0): c for l, c in coeffs.items()}, 1, "tau0")


def chi0(level):
    """The cyclic vector [I] of the Haar space: indicator of m = 0."""
    return GNSVector({(0, x): ONE for x in range(level)}, level)


def inner(u, w):
    """<u, w>, conjugate-linear in the first slot, weighted 1/level."""
    if (u.space, u.level) != (w.space, w.level):
        raise LevelMismatch("vectors live in different spaces or levels")
    du, dw = (math.lcm(*(c._t[2] for c in v.coeffs.values())) for v in (u, w))
    re = im = 0
    for key in u.coeffs.keys() & w.coeffs.keys():
        (p, q, e), (r, t, f) = u.coeffs[key]._t, w.coeffs[key]._t
        h = du // e * (dw // f)
        re, im = re + h * (p * r + q * t), im + h * (p * t - q * r)
    return _canonical(re, im, du * dw * u.level)


def pi_apply(b, v):
    """pi(V^n g) e_(m,x) = g(x + m) e_(m+n, x).  On the Haar space the
    period of every coefficient must divide the level, level 1 included;
    tau_0 reads g at every l, whatever its period."""
    if v.space == "haar":
        _check_level(b, v.level)
    dg = math.lcm(*(g.den for g in b.terms.values()))
    dv = math.lcm(*(c._t[2] for c in v.coeffs.values()))
    out = {}
    for n, g in b.terms.items():
        for (m, x), c in v.coeffs.items():
            (s, t), (p, q, d) = g._at(x + m), c._t
            h, (re, im) = dg // g.den * (dv // d), out.get((m + n, x), (0, 0))
            out[m + n, x] = re + h * (s * p - t * q), im + h * (s * q + t * p)
    return GNSVector({k: _canonical(re, im, dg * dv)
                      for k, (re, im) in out.items()}, v.level, v.space)


# the two-space names, kept for the callers that import them
inner0 = inner_haar = inner
pi0_apply = pi_haar_apply = pi_apply


# ---------------------------------------------------------------------------
# implementation data


class ImplementationData(
        namedtuple("ImplementationData", "n N eta psi c level")):
    """Exact data of the operator implementing the covariant derivation
    V^n eta(L): the datum eta itself, the free L^2 function psi of the
    Haar picture, the free constant c of the tau_0 picture (n = 0 only)
    and the Haar level.  Built by implementation_from_bilateral, which
    validates them.

    case names the regime: "bounded" (eta periodic), "incrementN" (N
    finite, N | n) or "increment0" (N infinite, n = 0).
    """

    __slots__ = ()

    @property
    def case(self):
        if bounded_regime(self.n, self.N):
            return "bounded"
        return "incrementN" if self.N.is_finite() else "increment0"

    def parametrix_predicate(self, space):
        """The exact compactness criterion, as (truth, description)."""
        case, hit = self.case, bool(self.eta.linear)
        if space == "tau0":
            if case == "bounded":
                return False, "eta unbounded: false (periodic eta)"
            return hit, f"eta unbounded (linear != 0): {str(hit).lower()}"
        if space == "haar":
            if case == "incrementN":
                return hit, f"N finite, N | n, C_n != 0: {str(hit).lower()}"
            if case == "increment0":
                return False, "N finite and N | n: false (N infinite)"
            return False, "N finite, N | n, C_n != 0: false (N does not divide n)"
        raise ValueError(f"unknown space {space!r}")


def implementation_from_bilateral(comp, psi=None, c=None, level=None):
    """Implementation data for the covariant quotient component comp.

    The level defaults to N, or to the period of eta when N is infinite;
    it must be positive, divide N and carry the periods of eta and psi.
    """
    n, eta, N = comp.n, comp.eta, comp.N
    if level is None:
        level = N.as_int() if N.is_finite() else eta.ep.period
    if level < 1:
        raise LevelMismatch(f"level {level} is not positive")
    if not divides(level, N):
        raise LevelMismatch(f"level {level} does not divide N")
    if psi is None:
        psi = LocallyConstantFunction([ZERO], N)
    for name, f in (("eta", eta.ep), ("psi", psi)):
        if level % f.period != 0:
            raise LevelMismatch(f"{name} period does not divide the level")
    c = ZERO if c is None else as_scalar(c)
    if c and n != 0:
        raise ValueError("the free constant exists only at n = 0")
    return ImplementationData(n, N, eta, psi, c, level)


# ---------------------------------------------------------------------------
# window builds


def _D_block(data, space):
    """The exact level x level block B_m of D at the column block m, which
    D maps to the row block m + n, as (level, den, diag, off): B_m has the
    diagonal entries eta(x + m) + const[x] and the nonzero cells off,
    (row x, col x, re, im) of the entry (re + i im) / den, fixed in m.

    tau_0 is the level-1 fiber x = 0, where const = [c].  On the Haar
    fiber x in Z/level, const[x] = (psi - eta)(x) in the increment
    regimes; in the bounded case the commutant cells (psi - eta)(x - n)
    sit in the rows x - n, which are the diagonal when level | n.

    eta = linear l + ep(l), psi and c are read as Gaussian-integer rows
    over one denominator den, and const is formed on them, so diag(*runs)
    gives the diagonals of the blocks m of the runs (ranges of m), in
    order, as numerator lists (re, im) built by list repetition and a few
    passes of map.  The float of an entry is complex(a / den, b / den),
    complex of its Scalar because int / int is correctly rounded.
    """
    n, linear, ep, psi = data.n, data.eta.linear, data.eta.ep, data.psi
    if ep.corr:
        raise ValueError("eta is quotient data and has no corrections")
    c = data.c if space == "tau0" else ZERO
    den = math.lcm(linear._t[2], c._t[2], ep.den, psi.den)
    (la, lb), (c0, c1) = ((a * (den // d), b * (den // d))
                          for a, b, d in (linear._t, c._t))
    p, q = ep.period, psi.period
    ta, tb, _ = ep._rows(den, p)
    pa, pb, _ = psi._rows(den, q)
    if space == "tau0":
        level, ca, cb, off = 1, [c0], [c1], []
    elif space != "haar":
        raise ValueError(f"unknown space {space!r}")
    else:
        # (psi - eta)(x - t) sits in the row (x - t) mod level of the
        # column x, t = n in the bounded case and 0 otherwise
        level, t = data.level, n if data.case == "bounded" else 0
        ca, cb, off = [0] * level, [0] * level, []
        for x in range(level):
            k = x - t
            a = pa[k % q] - la * k - ta[k % p]
            b = pb[k % q] - lb * k - tb[k % p]
            if k % level == x:
                ca[x], cb[x] = a, b
            elif a or b:
                off.append((k % level, x, a, b))

    def diag(*runs):
        # on a run of blocks m: lin*m plus a pattern repeating every p blocks
        out = ([], [])
        for ms, (row, lin, t, const) in product(runs, zip(
                out, (la, lb), (ta, tb), (ca, cb))):
            n, at = len(ms), len(row)
            row += ([t[(m + x) % p] + lin * x + const[x] for m in ms[:p]
                     for x in range(level)] * (n // p + 1))[:n * level]
            if lin:
                ramp = range(lin * ms.start, lin * ms.stop, lin)
                row[at:] = map(operator.add, row[at:], ramp if level == 1
                               else chain.from_iterable(zip(*[ramp] * level)))
        return out

    return level, den, diag, off


def _window_bands(data, space, M):
    """D on the window [-M, M] as the exact bands (den, {offset: (re,
    im)}) of numerics._bands over its (2M + 1) level columns: the blocks'
    diagonals at the offset n level, each off cell (xi, xj) at n level +
    xi - xj.  The band n level is there even when no block fits, so the
    rows always record their window."""
    level, den, diag, off = _D_block(data, space)
    # the column blocks m that the band maps into the window
    n = data.n
    ms = range(max(-M, -M - n), min(M, M - n) + 1)
    size = (2 * M + 1) * level
    bands = {n * level: ([0] * size, [0] * size)}
    if ms:
        re, im = bands[n * level]
        lo, hi = (ms.start + M) * level, (ms.stop + M) * level
        re[lo:hi], im[lo:hi] = diag(ms)
        for xi, xj, a, b in off:
            re, im = bands.setdefault(n * level + xi - xj,
                                      ([0] * size, [0] * size))
            re[lo + xj:hi:level] = [a] * len(ms)
            im[lo + xj:hi:level] = [b] * len(ms)
    return den, bands


def build_D(data, space, M):
    """D on the window [-M, M] as a dense complex matrix: its bands' float."""
    den, bands = _window_bands(data, space, M)
    level = data.level if space == "haar" else 1
    return _dense((2 * M + 1) * level, den, bands)


def build_D_tau0_exact(data, M):
    """The exact bands of D over the basis E_{-M..M}; see _window_bands."""
    return _window_bands(data, "tau0", M)


def build_D_haar_exact(data, M):
    """The exact bands of D over e_(m,x), m in [-M, M]; see _window_bands."""
    return _window_bands(data, "haar", M)


def build_D_tau0(data, M):
    return build_D(data, "tau0", M)


def build_D_haar(data, M):
    return build_D(data, "haar", M)


def haar_mvec(M, level):
    import numpy as np
    return np.repeat(np.arange(-M, M + 1), level)


def check_covariance(D, n, M, thetas):
    """max over the grid of ||Phi D Phi^{-1} - e^{in theta} D|| with
    Phi = diag(e^{i theta m}); the x-fiber size is read off the shape.

    Conjugation by Phi multiplies the band of m-difference d by
    e^{i theta d}.  The bands are read in one pass over the float halves
    of D, the imaginary ones included.  A covariant D lies on a single
    band and is the direct sum of its blocks B_m, so the residual is
    |e^{i theta d} - e^{in theta}| times max_m ||B_m||, read off the
    largest |entry| when the blocks are diagonal.  A D on several bands
    is refused with ValueError; the zero D gives 0.0.
    """
    import numpy as np
    if len(thetas) == 0:
        raise ValueError("theta grid needs at least one angle")
    size = D.shape[0]
    if size % (2 * M + 1) != 0:
        raise ValueError(f"matrix size {size} is not a window at M={M}")
    level = size // (2 * M + 1)
    mvec = haar_mvec(M, level)
    # one pass over the real and imaginary halves: float t of the view is
    # half of the complex entry t >> 1
    flat = np.ascontiguousarray(D, dtype=complex).view(np.float64)
    rows, cols = np.divmod(np.flatnonzero(flat != 0) >> 1, size)
    diffs = mvec[rows] - mvec[cols]
    if diffs.size == 0:
        return 0.0
    d = int(diffs[0])
    if (diffs != d).any():
        raise ValueError(f"D lies on {len(set(diffs.tolist()))} bands; a "
                         "covariant D lies on one")
    # the phase of an entry is evaluated at its index difference, which
    # keeps the residual free of large-angle rounding; a covariant D
    # gives exactly 0
    blocks = D.reshape(2 * M + 1, level, 2 * M + 1, level)
    B = np.moveaxis(np.diagonal(blocks, -d, 0, 2), -1, 0)
    diag = np.diagonal(B, 0, 1, 2)
    # the norm of a diagonal block is its largest |entry|
    top = float(np.abs(diag).max()
                if np.count_nonzero(B) == np.count_nonzero(diag)
                else np.linalg.norm(B, 2, axis=(1, 2)).max())
    band = np.array([d], dtype=float)
    return max(
        (float(abs(np.exp(1j * theta * band)[0]
                   - cmath.exp(1j * n * theta))) * top
         for theta in thetas)
    )


# ---------------------------------------------------------------------------
# implementation checks


def _check_level(b, level):
    for g in b.terms.values():
        if level % g.period != 0:
            raise LevelMismatch(
                f"coefficient period {g.period} does not divide level {level}"
            )


def _affine_per_class(row, a, z, P):
    """True when row[a:z] is affine on each residue class mod P, in one
    C-level pass: its lag-P differences repeat with period P."""
    d = list(map(operator.sub, row[a + P:z], row[a:z - P]))
    return d[P:] == d[:-P]


def check_implementation(D, components, b, M, space="tau0", level=1):
    """Interior max deviation of [D, pi(b)] - pi(delta(b)); exactly zero
    when D implements delta.

    D is the pair (den, {offset: (re, im)}) of build_D_*_exact, the bands
    of numerics._bands on the window; rows of another length than
    (2M + 1) level raise ValueError.  The interior is |m| <= M - margin,
    with the margin the largest block distance of a nonzero entry of D
    plus the largest degree of b.  pi(V^k g) maps e_(m,x) to g(x + m)
    e_(m+k,x), the band of index offset s = k level with the entries g(j)
    at the columns j, writing g(j) for g(x_j + m_j).  So a band of D of
    offset e, entries D_e(j) = D[j + e, j], meets it in the band o = e + s
    of both products: D pi(b) has D_e(j + s) g(j) at the column j, pi(b) D
    has g(j + e) D_e(j).  Each output band is formed from aligned slices of
    these rows, less pi(delta(b)); the window products have no other
    entries in the interior.  The rows of D, b and delta(b) are rescaled
    to their common denominator L, and the largest a^2 + b^2 of the
    integer pairs over L^2 is rounded once over L^4, as the Scalar
    |entry|^2 would be.  Each g is constant on the residue classes of
    columns mod P = level lcm(periods of b, delta(b) and each eta), where
    a D built from eta is affine.  When every D_e
    that the band o reads is affine on each class over its columns j and
    j + s (_affine_per_class), so is each entry of o, and the convex
    |entry|^2 peaks at a class's first or last interior column: o is
    formed on [j0, j0 + P) and [j1 - P, j1) alone, any other band on its
    whole interior [j0, j1).
    """
    db = bilateral_apply(components, b)
    if space == "tau0":
        level = 1
    elif space == "haar":
        _check_level(b, level)
        _check_level(db, level)
    else:
        raise ValueError(f"unknown space {space!r}")

    den, bands = D
    size = (2 * M + 1) * level
    if any(len(row) != size for pair in bands.values() for row in pair):
        raise ValueError(f"D is not on the window M={M}, level {level}")
    # the rows D_e over L, indexed by column, of the bands with a nonzero
    # entry; the others add nothing
    L = math.lcm(den, *(g.den for x in (b, db) for g in x.terms.values()))
    t = L // den
    bands = {e: (re, im) if t == 1 else ([a * t for a in re],
                                         [c * t for c in im])
             for e, (re, im) in bands.items() if any(re) or any(im)}
    # D_e maps the column x of a block q to the block q + (x + e) // level
    band_D = max((abs((x + e) // level) for e, (re, im) in bands.items()
                  for x in range(level)
                  if any(re[x::level]) or any(im[x::level])), default=0)
    margin = band_D + b.max_abs_degree()
    if M <= margin:
        raise WindowTooSmall(f"window {M} is all boundary at margin {margin}")

    lo, hi = margin * level, size - margin * level
    P = level * math.lcm(*(g.period for x in (b, db)
                           for g in x.terms.values()),
                         *(c.eta.ep.period for c in components.values()))
    # g(j) over L at the window indices j - pad, ..., size + pad - 1: the
    # pi(b) D slices reach j + e outside the window where D_e(j) is 0
    pad = max(map(abs, bands), default=0)

    def rows(g):
        # g(j) = g(j // level + j % level - M) has the period level per in j
        gr, gi, _ = g._rows(L, g.period)
        per, reps = g.period, (size + 2 * pad) // (level * g.period) + 1
        ys = [(t // level + t % level - M) % per
              for t in range(-pad, level * per - pad)]
        return [gr[y] for y in ys] * reps, [gi[y] for y in ys] * reps

    def spans(o, whole=False):
        # the interior columns j of the band o, j and j + o in [lo, hi), or
        # the ends of its classes mod P unless a D_e it reads is not affine
        j0, j1 = max(lo, lo - o), min(hi, hi - o)
        if whole or o in full or j1 - j0 <= 2 * P:
            return [(j0, j1)] * (j0 < j1)
        return [(j0, j0 + P), (j1 - P, j1)]

    full = {e + s for e in bands for s in (k * level for k in b.terms)
            for j0, j1 in spans(e + s, True) if not all(_affine_per_class(
                r, min(j0, j0 + s), max(j1, j1 + s), P) for r in bands[e])}
    out = {}

    def add(key, *pair):
        have = out.get(key)
        out[key] = pair if have is None else [
            list(map(operator.add, x, y)) for x, y in zip(have, pair)]

    for k, g in b.terms.items():
        s, (gr, gi) = k * level, rows(g)
        for e, (dr, di) in bands.items():
            for j0, j1 in spans(e + s):
                # D_e(j + s), g(j), g(j + e), D_e(j) at the columns j
                rows8 = (dr[j0 + s:j1 + s], di[j0 + s:j1 + s],
                         gr[j0 + pad:j1 + pad], gi[j0 + pad:j1 + pad],
                         gr[j0 + e + pad:j1 + e + pad],
                         gi[j0 + e + pad:j1 + e + pad], dr[j0:j1], di[j0:j1])
                add((e + s, j0),
                    [a * x - c * u - y * p + v * q
                     for a, c, x, u, y, v, p, q in zip(*rows8)],
                    [a * u + c * x - y * q - v * p
                     for a, c, x, u, y, v, p, q in zip(*rows8)])
    # pi(delta(b)) on the interior, lifted to L^2
    for k, g in db.terms.items():
        s, (gr, gi) = k * level, rows(g)
        for j0, j1 in spans(s):
            add((s, j0), [-L * x for x in gr[j0 + pad:j1 + pad]],
                [-L * u for u in gi[j0 + pad:j1 + pad]])
    worst = max((a * a + c * c for re, im in out.values()
                 for a, c in zip(re, im)), default=0)
    return math.sqrt(worst / L ** 4)


# ---------------------------------------------------------------------------
# parametrix detection


@functools.lru_cache(maxsize=32)
def _start_vector(length, seed):
    """The unit start vector of the inverse iteration, a pure function of
    its key; read-only, since every solve of that length shares it."""
    import numpy as np
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


def _min_eig_inverse_power(G, tol=1e-12, cap=20000, seed=20240117):
    """Smallest eigenvalue of Hermitian G >= I via power iteration on
    the inverse; G is block-diagonal, given as the (k, L, L) stack of its
    blocks, and vectors run over the blocks in order.  Each step applies
    G^{-1} once: the product w = G^{-1} v that gives the Rayleigh quotient
    of v is carried into the next step, which normalizes it.
    NoConvergence when cap iterations do not settle.

    When the blocks are diagonal, which is every shell but the bounded
    Haar one with off cells, G^{-1} is the flat vector 1 / diagonal(G),
    with the bits of the diagonal of np.linalg.inv(G) on every such shell
    of the tests, and the block product would add only exact zeros to its
    entry-wise products.  G >= I keeps its diagonal nonzero, so the blocks
    are diagonal exactly when G has k L nonzero entries.

    The steps write into two preallocated vectors and spell out what the
    plain loop v = w / np.linalg.norm(w) computes, with the same bits:
    numpy's norm of a complex vector is sqrt(x.real . x.real + x.imag .
    x.imag), and it divides a complex array by a real scalar as the
    product with the reciprocal.  The start vector comes from a cache of
    32 entries keyed by (k L, seed)."""
    import numpy as np
    k, L, _ = G.shape
    if np.count_nonzero(G) == k * L:
        op, A = np.multiply, 1 / np.diagonal(G, axis1=1, axis2=2).reshape(-1)
        shape = (k * L,)
    else:
        op, A, shape = np.matmul, np.linalg.inv(G), (k, L, 1)

    v = np.empty(k * L, dtype=complex)
    w = np.empty_like(v)
    vs, ws, wr, wi = v.reshape(shape), w.reshape(shape), w.real, w.imag
    op(A, _start_vector(k * L, seed).reshape(shape), out=ws)
    lam = 0.0
    for _ in range(cap):
        np.multiply(w, 1.0 / math.sqrt(wr.dot(wr) + wi.dot(wi)), out=v)
        op(A, vs, out=ws)
        new = float(np.vdot(v, w).real)
        if abs(new - lam) <= tol * max(1.0, abs(new)):
            return 1.0 / max(new, 1e-300)
        lam = new
    raise NoConvergence(
        "inverse power iteration did not settle",
        last_value=1.0 / max(lam, 1e-300),
        iterations=cap,
    )


def _shell_min_sv(data, space, M):
    """Smallest eigenvalue of (I + D*D)^{1/2} compressed to the shell
    M <= |m| < 2M.

    D maps the column block m to the row block m + n alone, so on the
    shell I + D*D is the direct sum of the blocks I + B_m^H B_m, built
    from the shell blocks B_m alone.
    """
    import numpy as np
    if M < 1:
        raise ValueError(f"the shell M <= |m| < 2M is empty at M={M}")
    level, den, diag, off = _D_block(data, space)
    re, im = diag(range(-2 * M + 1, -M + 1), range(M, 2 * M))
    B = np.zeros((2 * M, level, level), dtype=complex)
    fiber = np.arange(level)
    B.real[:, fiber, fiber] = np.reshape([a / den for a in re], (-1, level))
    B.imag[:, fiber, fiber] = np.reshape([b / den for b in im], (-1, level))
    for xi, xj, a, b in off:
        B[:, xi, xj] = complex(a / den, b / den)
    G = np.eye(level) + B.conj().transpose(0, 2, 1) @ B
    lam = _min_eig_inverse_power(G)
    return math.sqrt(max(lam, 0.0))


def parametrix_report(data, Ms, space="tau0"):
    """Shell decay profile and verdict.

    The authoritative verdict evaluates the regime predicate on the
    exact data; min_sv corroborates it numerically (growth by a factor
    >= 1.5 per doubling in the divergent branches, a plateau otherwise).
    Level truncation cannot see the non-atomic x-fiber of the infinite-N
    Haar space, so there min_sv may grow although no compact parametrix
    exists; the verdict stays with the criterion.
    """
    Ms = list(Ms)
    if not Ms:
        raise ValueError("a decay profile needs at least one window")
    values = [_shell_min_sv(data, space, M) for M in Ms]
    hit, criterion = data.parametrix_predicate(space)
    return {
        "M": Ms,
        "min_sv": values,
        "verdict": (
            "compact-parametrix-consistent" if hit
            else "no-compact-parametrix"
        ),
        "predicate": criterion,
    }


def slope_corroborates(report):
    """True when every window doubling grew min_sv by at least 1.5."""
    values = report["min_sv"]
    if len(values) < 2:
        return False
    return all(b >= 1.5 * a for a, b in zip(values, values[1:]))
