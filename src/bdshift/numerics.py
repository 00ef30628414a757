"""Finite truncations and floating-point diagnostics.

Two arithmetic paths: exact rationals certify symbolic identities on an
interior window, floats handle norms and spectra.  The exact path is
authoritative; every float appears only in bounds and reports.
"""

import cmath
import math

import numpy as np

from .scalars import Scalar
from .errors import NoConvergence, NotFinite, WindowTooSmall
from .algebra import multiply, to_matrix_form


def truncate_unilateral(a, M):
    """The M x M compression to span{E_0, ..., E_{M-1}} as floats."""
    if M < 1:
        raise ValueError("window must contain at least one basis vector")
    out = np.zeros((M, M), dtype=complex)
    for n, coeff in a.terms.items():
        # the degree-n band holds coeff(k) at (k + n, k), resp. (k, k - n)
        length = M - abs(n)
        if length <= 0:
            continue
        table = np.array([complex(v) for v in coeff.table], dtype=complex)
        band = np.resize(table, length)
        for k in coeff.correction:
            if k < length:
                band[k] = complex(coeff.value_at(k))
        idx = np.arange(length)
        out[idx + max(n, 0), idx + max(-n, 0)] = band
    return out


def truncate_exact(a, M):
    """The same compression with exact entries, as {(i, j): Scalar}."""
    if M < 1:
        raise ValueError("window must contain at least one basis vector")
    out = {}
    for n, coeff in a.terms.items():
        for k in range(M):
            i, j = (k + n, k) if n >= 0 else (k, k - n)
            if i < M and j < M:
                v = coeff.value_at(k)
                if (i, j) in out:
                    v = out[(i, j)] + v
                if v:
                    out[(i, j)] = v
                elif (i, j) in out:
                    del out[(i, j)]
    return out


def _sparse_mul(A, B):
    rows = {}
    for (k, j), v in B.items():
        rows.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), u in A.items():
        for j, v in rows.get(k, ()):
            key = (i, j)
            w = out.get(key)
            w = u * v if w is None else w + u * v
            if w:
                out[key] = w
            elif key in out:
                del out[key]
    return out


class TruncationReport:
    """Outcome of an interior-window product comparison."""

    __slots__ = ("M", "margin", "max_dev", "verdict")

    def __init__(self, M, margin, max_dev, verdict):
        self.M = M
        self.margin = margin
        self.max_dev = max_dev
        self.verdict = verdict

    def to_json(self):
        return {
            "M": self.M,
            "margin": self.margin,
            "max_dev": self.max_dev,
            "verdict": self.verdict,
        }

    def __repr__(self):
        return (
            f"TruncationReport(M={self.M}, margin={self.margin}, "
            f"max_dev={self.max_dev}, verdict={self.verdict!r})"
        )


def oracle_product_check(a, b, M):
    """Compare truncate(a b) with truncate(a) truncate(b) away from the
    boundary.  The exact path must match identically; the float path is
    reported as a deviation."""
    margin = a.max_abs_degree() + b.max_abs_degree()
    if M <= 2 * margin:
        raise WindowTooSmall(
            f"window {M} cannot isolate an interior for margin {margin}"
        )
    cut = M - margin

    exact_prod = truncate_exact(multiply(a, b), M)
    exact_split = _sparse_mul(truncate_exact(a, M), truncate_exact(b, M))
    keys = set(exact_prod) | set(exact_split)
    exact_ok = True
    for i, j in keys:
        if i < cut and j < cut:
            if exact_prod.get((i, j), Scalar(0)) != exact_split.get(
                (i, j), Scalar(0)
            ):
                exact_ok = False

    fa = truncate_unilateral(a, M)
    fb = truncate_unilateral(b, M)
    fprod = truncate_unilateral(multiply(a, b), M)
    dev = np.abs((fa @ fb)[:cut, :cut] - fprod[:cut, :cut])
    scalefac = max(1.0, float(np.abs(fprod).max()))
    max_dev = float(dev.max()) / scalefac if dev.size else 0.0

    verdict = "exact" if exact_ok and max_dev <= 1e-12 else "mismatch"
    return TruncationReport(M, margin, max_dev, verdict)


# power-iteration tolerance and start-vector seed of norm_lower
NORM_TOL = 1e-10
NORM_SEED = 20240117


def norm_lower(a, M, cap=10000, strict=True):
    """Largest singular value of the M x M truncation, by power
    iteration on the Gram matrix.  A lower bound for the operator norm,
    monotone nondecreasing in M.

    With strict=False a stalled iteration returns its last Rayleigh
    iterate (still a lower bound) instead of raising."""
    A = truncate_unilateral(a, M)
    gram = A.conj().T @ A
    rng = np.random.default_rng(NORM_SEED)
    v = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(cap):
        w = gram @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        new = float(np.real(np.vdot(v, gram @ v)))
        if abs(new - lam) <= NORM_TOL * max(1.0, abs(new)):
            return math.sqrt(max(new, 0.0))
        lam = new
    if strict:
        raise NoConvergence(
            "power iteration did not settle",
            last_value=math.sqrt(max(lam, 0.0)),
            iterations=cap,
        )
    return math.sqrt(max(lam, 0.0))


def quotient_norm_estimate(b, N, G):
    """Max over a uniform G-grid on the circle of the spectral norm of
    the matrix form; a lower bound for the quotient norm."""
    if not N.is_finite():
        raise NotFinite("the matrix picture needs a finite N")
    if G < 1:
        raise ValueError("grid needs at least one node")
    F = to_matrix_form(b, N)
    best = 0.0
    for m in range(G):
        z = cmath.exp(2j * math.pi * m / G)
        A = np.array(F.eval_at(z), dtype=complex)
        best = max(best, float(np.linalg.norm(A, 2)))
    return best


def quotient_norm_report(b, N, G, rounds=3):
    """Grid-refinement log for the quotient norm estimate."""
    grids = []
    values = []
    g = G
    for _ in range(max(1, rounds)):
        grids.append(g)
        values.append(quotient_norm_estimate(b, N, g))
        g *= 2
    return {"grid": grids, "value": values, "final": values[-1]}


def nonzero_entries(A):
    """The nonzero entries of a dense matrix as [row, col, re, im] lists,
    in row-major order."""
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
