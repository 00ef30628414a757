"""Finite truncations and floating-point diagnostics.

Two arithmetic paths: exact rationals certify symbolic identities on an
interior window, floats handle norms and spectra.  The exact path is
authoritative; every float appears only in bounds and reports.  One band
reader rescales the coefficients' integer rows to one denominator; the
exact and the float truncation read it, and the product oracle multiplies
the rows of the factors as integers and divides the same bands for its
float check.  A float norm is one direct SVD, with no iteration to settle;
in B(N) it is of the J x J symbol of the coefficients' common period J.
"""

import math
from collections import namedtuple

from .errors import WindowTooSmall
from .algebra import multiply


def _bands(M, *elements):
    """The M x M compressions of elements to span{E_0, ..., E_{M-1}} as
    exact bands over one denominator den, as (den, [{n: (re, im)}]).

    The band format, which the GNS windows share: re and im are integer
    lists of length M indexed by the column j, and the entry at (j + n, j)
    is (re[j] + i im[j]) / den, 0 where the band leaves the window.  Here
    re[j] + i im[j] = den coeff(k), k = j - max(-n, 0)."""
    if M < 1:
        raise ValueError("window must contain at least one basis vector")
    den = math.lcm(*(s.den for x in elements for s in x.terms.values()))
    out = [{} for _ in elements]
    for bands, x in zip(out, elements):
        for n, coeff in x.terms.items():
            length, lo = M - abs(n), max(-n, 0)
            if length <= 0:
                continue
            reps = length // coeff.period + 1
            re, im, corr = coeff._rows(den, coeff.period * reps)
            re, im = ([0] * lo + list(r[:length]) + [0] * max(n, 0)
                      for r in (re, im))
            for k, (a, b) in corr.items():
                if k < length:
                    re[k + lo] += a
                    im[k + lo] += b
            bands[n] = re, im
    return den, out


def _dense(M, den, bands):
    """The float M x M matrix of bands of _bands over den.  int / int is
    correctly rounded, so each entry is complex of its Scalar.  Only the
    nonzero slots are divided, as a band may be zero off a few columns
    (the off-cell bands of the GNS windows).  Band n is a slice of stride
    M + 1 of the flattened matrix, from the entry (lo + n, lo)."""
    import numpy as np
    out = np.zeros((M, M), dtype=complex)
    flat = out.reshape(-1)
    for n, rows in bands.items():
        lo = max(-n, 0)
        hi = max(M - max(n, 0), lo)
        band = slice((lo + n) * M + lo, (hi + n) * M + hi, M + 1)
        for part, row in zip((flat.real, flat.imag), rows):
            part[band] = [v and v / den for v in row[lo:hi]]
    return out


def truncate_unilateral(a, M):
    """The M x M compression to span{E_0, ..., E_{M-1}} as floats: the
    float view of the band reader."""
    den, (bands,) = _bands(M, a)
    return _dense(M, den, bands)


def _sparse_mul(A, B, M):
    """The bands of the product of two M x M band matrices of _bands
    over den, as rows over den^2."""
    out = {}
    for n, (ar, ai) in A.items():
        for m, (br, bi) in B.items():
            # B maps the column j to the row j + m, which A maps to j + m + n
            lo, hi = max(0, -m), min(M, M - m)
            pr, pi = out.setdefault(n + m, ([0] * M, [0] * M))
            args = ar[lo + m:hi + m], ai[lo + m:hi + m], br[lo:hi], bi[lo:hi]
            pr[lo:hi] = [t + x * y - u * v
                         for t, x, u, y, v in zip(pr[lo:hi], *args)]
            pi[lo:hi] = [t + x * v + u * y
                         for t, x, u, y, v in zip(pi[lo:hi], *args)]
    return out


class TruncationReport(
        namedtuple("TruncationReport", "M margin max_dev verdict")):
    """Outcome of an interior-window product comparison."""

    __slots__ = ()


def oracle_product_check(a, b, M):
    """Compare truncate(a b) with truncate(a) truncate(b) away from the
    boundary.  The exact path must match identically; the float path is
    reported as a deviation."""
    import numpy as np
    margin = a.max_abs_degree() + b.max_abs_degree()
    if M <= 2 * margin:
        raise WindowTooSmall(
            f"window {M} cannot isolate an interior for margin {margin}"
        )
    cut = M - margin

    ab = multiply(a, b)
    den, (A, B, P) = _bands(M, a, b, ab)
    split = _sparse_mul(A, B, M)
    zero = ([0] * M,) * 2
    exact_ok = True
    for d in P.keys() | split.keys():
        # the interior rows j + d and columns j below cut
        lo, hi = max(0, -d), max(0, cut - max(d, 0))
        for p, q in zip(P.get(d, zero), split.get(d, zero)):
            exact_ok &= all(x * den == y for x, y in zip(p[lo:hi], q[lo:hi]))

    fa, fb, fprod = (_dense(M, den, X) for X in (A, B, P))
    dev = np.abs((fa @ fb)[:cut, :cut] - fprod[:cut, :cut])
    scalefac = max(1.0, float(np.abs(fprod).max()))
    max_dev = float(dev.max()) / scalefac

    verdict = "exact" if exact_ok and max_dev <= 1e-12 else "mismatch"
    return TruncationReport(M, margin, max_dev, verdict)


def norm_lower(a, M):
    """Largest singular value of the M x M truncation, by one LAPACK
    SVD.  A lower bound for the operator norm, monotone nondecreasing in
    M: each truncation is a compression of the next."""
    import numpy as np
    return float(np.linalg.norm(truncate_unilateral(a, M), 2))


def symbol_period(b):
    """The common period J of b's coefficients: b lies in B(J)."""
    return math.lcm(*(f.period for f in b.terms.values()))


def _symbol_norms(terms, J, Q, t):
    """||S(e^(2 pi i t / Q))|| for the integers t by one batched SVD."""
    import numpy as np
    S = np.zeros((len(t), J, J), dtype=complex)
    for n, rows, c in terms:
        theta = (2 * np.pi) * (t * (n % Q) % Q) / Q  # t n reduced exactly
        S[:, rows, np.arange(J)] += np.exp(1j * theta)[:, None] * c
    return np.linalg.norm(S, 2, axis=(1, 2))


def quotient_norm_report(b, N, G, rounds=3):
    """Grid-refinement log for the norm of b in B(N), from its symbol.

    b lies in B(J), J its coefficients' common period, and isometrically:
    ||b|| = max ||S(zeta)|| on the circle, S(zeta) = sum_n zeta^n C^n
    diag(c_n) on C^J, C the cyclic shift.  Grid g samples level L = N (J
    at an infinite N): the L x L matrix form at z = e^(2 pi i m / g) has
    norm max ||S(zeta)|| over zeta^L = z, and diag(w^x) conjugates S(zeta)
    to S(zeta w) for w^J = 1, so the gL / J nodes e^(2 pi i t / gL) carry
    every value; node t of grid g is node 2t of grid 2g, bit for bit."""
    import numpy as np
    if G < 1:
        raise ValueError("grid needs at least one node")
    if rounds < 1:
        raise ValueError(f"grid refinement needs at least one round, "
                         f"got {rounds}")
    J = symbol_period(b)
    L = N.as_int() if N.is_finite() else J
    terms = [(n, (np.arange(J) + n) % J, [complex(p / f.den, q / f.den)
              for p, q in zip(*f._rows(f.den, J)[:2])])
             for n, f in sorted(b.terms.items())]
    chunk = max(1, (1 << 20) // (J * J))  # at most 2^20 entries a chunk
    grids, values, best = [], [], 0.0
    g, nodes = G, np.arange(G * L // J)
    for _ in range(rounds):
        for t in np.array_split(nodes, -(-len(nodes) // chunk)):
            best = max(best, float(_symbol_norms(terms, J, g * L, t).max()))
        grids.append(g)
        values.append(best)
        g *= 2
        nodes = np.arange(1, g * L // J, 2)
    return {"grid": grids, "value": values, "final": values[-1]}


def nonzero_entries(A):
    """The nonzero entries of a dense matrix as [row, col, re, im] lists,
    in row-major order."""
    import numpy as np
    rows, cols = np.nonzero(A)
    vals = A[rows, cols]
    return [list(e) for e in zip(rows.tolist(), cols.tolist(),
                                 vals.real.tolist(), vals.imag.tolist())]


def write_matrix_csv(A, fh):
    """Dump the nonzero entries as `row,col,re,im` lines; returns the
    number of entries written."""
    fh.write("row,col,re,im\n")
    entries = nonzero_entries(A)
    for i, j, re, im in entries:
        fh.write(f"{i},{j},{re!r},{im!r}\n")
    return len(entries)
