"""Fixed reference kernels, timed between consecutive jobs, that scale
the end-to-end times to a nominal machine speed.

The shared hosts this benchmark was written on change speed by up to 2x
for seconds at a time: a fixed pure-Python loop took 4.1 ms in some
stretches and 8.2-8.9 ms in others within one minute, and over five
20-second runs the raw jobs_per_s of unilateral_exact spread by 37%
(quartile distance over median).  With every job scaled by the kernels
timed just before and after it, ten runs of each workload spread by 2-5%.

The kernels do not call bdshift, so a change to the program moves the
scaled figures by the same factor as the raw ones.  Each workload weighs the
two kernels by where its own time goes (see ``Workload.profile``).
"""

from fractions import Fraction
from time import perf_counter

# Nominal kernel times in seconds: the fast state of the 2-core host the
# benchmark was written on.  They only fix the unit of the scaled times.
NOMINAL_PY_S = 0.001
NOMINAL_NP_S = 0.0009

_matrix = None


def python_kernel():
    """Fraction and integer arithmetic plus dict traffic: the profile of
    the exact engine and the CLI."""
    acc = Fraction(0)
    x = Fraction(1, 3)
    s = 0
    table = {}
    for i in range(1, 300):
        acc += x * i
        s += i * i % 7
        table[i % 64] = s
        if acc.denominator > 10 ** 6:
            acc = Fraction(1, 7)
    return acc, s, len(table)


def numpy_kernel():
    """One dense 96 x 96 complex SVD: the profile of the GNS diagnostics.
    numpy is imported here, not at module level, so that the set-up
    samples can time the python kernel before numpy is loaded."""
    global _matrix
    import numpy as np

    if _matrix is None:
        k = np.arange(96 * 96).reshape(96, 96)
        _matrix = (k % 17 - 8.0) + 1j * (k % 5 - 2.0)
    return np.linalg.svd(_matrix, compute_uv=False)


def best_of(kernel, k=2):
    best = None
    for _ in range(k):
        t0 = perf_counter()
        kernel()
        t = perf_counter() - t0
        best = t if best is None else min(best, t)
    return best


def slowdown(profile):
    """Current machine slowdown against the nominal speed, weighted by
    the workload profile (python weight, numpy weight)."""
    w_py, w_np = profile
    factor = 0.0
    if w_py:
        factor += w_py * best_of(python_kernel) / NOMINAL_PY_S
    if w_np:
        factor += w_np * best_of(numpy_kernel) / NOMINAL_NP_S
    return factor
