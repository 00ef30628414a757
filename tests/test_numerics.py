import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bdshift.scalars import Scalar, ZERO, ONE, _canonical
from bdshift.errors import WindowTooSmall
from bdshift.profinite import LocallyConstantFunction, SupernaturalNumber
from bdshift.sequences import EPSequence, ep_constant
from bdshift.algebra import (
    BilateralElement,
    UnilateralElement,
    bilateral_diag,
    diag_element,
    identity_element,
    multiply,
    p0_element,
    u_element,
    v_element,
)
from bdshift import numerics
from bdshift.numerics import (
    _bands,
    nonzero_entries,
    norm_lower,
    oracle_product_check,
    quotient_norm_report,
    truncate_unilateral,
    write_matrix_csv,
)

N2 = SupernaturalNumber.from_int(2)
N4 = SupernaturalNumber.from_int(4)
N6 = SupernaturalNumber.from_int(6)
N2INF = SupernaturalNumber({2: "inf"})


def rand_scalar(rng):
    return Scalar(rng.randint(-3, 3), rng.randint(-2, 2))


def rand_ep(rng, N, periods):
    per = rng.choice(periods)
    corr = {
        rng.randint(0, 5): rand_scalar(rng) for _ in range(rng.randint(0, 2))
    }
    return EPSequence(corr, [rand_scalar(rng) for _ in range(per)], N)


def rand_unilateral(rng, N, periods, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.randint(-max_deg, max_deg)] = rand_ep(rng, N, periods)
    return UnilateralElement(terms, N)


def test_truncation_matrices():
    U = u_element(N4)
    A = truncate_unilateral(U, 4)
    want = np.zeros((4, 4), dtype=complex)
    for k in range(3):
        want[k + 1, k] = 1.0
    assert np.array_equal(A, want)
    # adjoint truncates to the conjugate transpose
    B = truncate_unilateral(u_element(N4, -1), 4)
    assert np.array_equal(B, want.conj().T)
    a = EPSequence({1: Scalar(2)}, [Scalar(0), Scalar(0, 1)], N4)
    D = truncate_unilateral(diag_element(a), 4)
    assert D[1, 1] == 2 + 1j and D[0, 0] == 0 and D[3, 3] == 1j
    with pytest.raises(ValueError):
        truncate_unilateral(U, 0)


def _truncate_per_entry(a, M):
    out = np.zeros((M, M), dtype=complex)
    for n, coeff in a.terms.items():
        for k in range(M):
            i, j = (k + n, k) if n >= 0 else (k, k - n)
            if i < M and j < M:
                out[i, j] = complex(coeff.value_at(k))
    return out


def test_truncate_unilateral_matches_per_entry_reference():
    rng = random.Random(20241018)
    third = Scalar(Fraction(1, 3), Fraction(-2, 7))
    cases = [
        # both signs of n, corrections beyond M, |n| >= M
        UnilateralElement({
            2: EPSequence({0: third, 9: Scalar(5), 40: ONE},
                          [ONE, third], N2),
            -3: EPSequence({1: Scalar(-1, 1), 12: third}, [third], N2),
            7: ep_constant(Scalar(2), N2),
            -9: ep_constant(Scalar(0, 4), N2),
        }, N2),
        # N = 2^infinity with a long period
        UnilateralElement({
            n: EPSequence({k: third for k in range(0, 20, 3)},
                          [Scalar(Fraction(r, 8), r % 3) for r in range(16)],
                          N2INF)
            for n in (-5, -1, 0, 4)
        }, N2INF),
    ]
    cases += [rand_unilateral(rng, N6, [1, 2, 3, 6], max_deg=8)
              for _ in range(20)]
    for x in cases:
        for M in (1, 3, 7, 8, 16, 33):
            got = truncate_unilateral(x, M)
            want = _truncate_per_entry(x, M)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_truncate_exact_matches_float():
    # each float entry is complex of the exact entry the band reader gives
    rng = random.Random(20240130)
    for _ in range(40):
        x = rand_unilateral(rng, N6, [1, 2, 3, 6])
        M = rng.choice([5, 9, 16])
        den, (bands,) = _bands(M, x)
        exact = {(j + n, j): _canonical(re[j], im[j], den)
                 for n, (re, im) in bands.items()
                 for j in range(max(-n, 0), M - max(n, 0))}
        dense = truncate_unilateral(x, M)
        for i in range(M):
            for j in range(M):
                assert complex(exact.get((i, j), ZERO)) == dense[i, j]


def test_oracle_product_check():
    rng = random.Random(20240131)
    for _ in range(40):
        a = rand_unilateral(rng, N6, [1, 2, 3, 6], max_deg=2)
        b = rand_unilateral(rng, N6, [1, 2, 3, 6], max_deg=2)
        rep = oracle_product_check(a, b, 24)
        assert rep.verdict == "exact"
        assert rep.max_dev <= 1e-12
        assert rep.margin == a.max_abs_degree() + b.max_abs_degree()
    U = u_element(N6)
    with pytest.raises(WindowTooSmall):
        oracle_product_check(U, U, 4)
    rep = oracle_product_check(U, U, 5)
    assert rep.verdict == "exact" and (rep.M, rep.margin) == (5, 2)


def test_oracle_exact_path_alone_catches_a_sub_float_error(monkeypatch):
    # a product wrong by 10^-30 U^k: invisible to the float comparison,
    # caught by the exact one exactly when the band meets the interior
    rng = random.Random(20261018)
    a = rand_unilateral(rng, N6, [1, 2, 3, 6], max_deg=1)
    b = rand_unilateral(rng, N6, [1, 2, 3, 6], max_deg=1)
    M = 24
    cut = M - a.max_abs_degree() - b.max_abs_degree()
    tiny = EPSequence({}, [Scalar(Fraction(1, 10**30))], N6)
    # k = 5 and -7 are degrees no pair of terms reaches
    for k, want in ((1, "mismatch"), (5, "mismatch"), (-7, "mismatch"),
                    (cut, "exact"), (-cut, "exact"), (M - 1, "exact")):
        err = UnilateralElement({k: tiny}, N6)
        monkeypatch.setattr(numerics, "multiply",
                            lambda x, y: multiply(x, y) + err)
        rep = oracle_product_check(a, b, M)
        assert rep.verdict == want, k
        assert rep.max_dev <= 1e-12


def test_norm_lower_frozen_values():
    one = identity_element(N4)
    assert abs(norm_lower(one, 8) - 1.0) < 1e-9
    assert abs(norm_lower(u_element(N4), 8) - 1.0) < 1e-9
    assert abs(norm_lower(p0_element(N4), 8) - 1.0) < 1e-9
    a = EPSequence({2: Scalar(3)}, [Scalar(0, 1)], N4)
    assert abs(norm_lower(diag_element(a), 8) - abs(3 + 1j)) < 1e-9


def test_norm_lower_monotone_and_bounded():
    rng = random.Random(20240201)
    x = u_element(N4) + u_element(N4, -1)
    vals = [norm_lower(x, M) for M in (4, 8, 16, 32)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-12
    assert vals[-1] <= 2.0 + 1e-9
    # random elements: larger window never shrinks the bound
    for _ in range(10):
        y = rand_unilateral(rng, N6, [1, 2, 3], max_deg=2)
        v1 = norm_lower(y, 8)
        v2 = norm_lower(y, 20)
        assert v2 >= v1 - 1e-8


def test_norm_lower_matches_the_path_graph_norm():
    # the M x M truncation of U + U* is the adjacency matrix of the path
    # on M vertices, whose largest eigenvalue is 2 cos(pi / (M + 1)); its
    # top eigenvalues cluster, which is where an iteration stalls
    x = u_element(N4) + u_element(N4, -1)
    for M in (16, 64, 512):
        exact = 2 * math.cos(math.pi / (M + 1))
        assert abs(norm_lower(x, M) - exact) <= 1e-12 * exact, M


def test_quotient_norm_frozen_values():
    def estimate(b, N, G):
        return quotient_norm_report(b, N, G, rounds=1)["final"]

    V = v_element(N2)
    assert abs(estimate(V, N2, 8) - 1.0) < 1e-12
    x = V + v_element(N2, -1)
    assert abs(estimate(x, N2, 16) - 2.0) < 1e-12
    g = LocallyConstantFunction([Scalar(3), Scalar(-4)], N2)
    assert abs(estimate(bilateral_diag(g), N2, 4) - 4.0) < 1e-12
    # at an infinite N the grid samples the level J of the coefficients
    assert estimate(
        BilateralElement({1: LocallyConstantFunction([ONE], N2INF)}, N2INF),
        N2INF,
        4,
    ) == 1.0
    with pytest.raises(ValueError):
        estimate(V, N2, 0)


def test_quotient_norm_report_refines():
    x = v_element(N2) + v_element(N2, -1)
    rep = quotient_norm_report(x, N2, 4, rounds=3)
    assert rep["grid"] == [4, 8, 16]
    assert rep["final"] == rep["value"][-1]
    for lo, hi in zip(rep["value"], rep["value"][1:]):
        assert hi >= lo - 1e-12


def test_quotient_norm_report_reuses_the_coarser_grid(monkeypatch):
    N3 = SupernaturalNumber.from_int(3)
    g = LocallyConstantFunction([Scalar(1, 2), Scalar(-3), ONE], N3)
    x = (v_element(N3) * bilateral_diag(g) + v_element(N3, -2)
         + bilateral_diag(g))
    evals = []
    symbol_norms = numerics._symbol_norms

    def counted(terms, J, Q, t):
        evals.extend(t)
        return symbol_norms(terms, J, Q, t)

    monkeypatch.setattr(numerics, "_symbol_norms", counted)
    for G, rounds in ((4, 3), (5, 2), (3, 1)):
        evals.clear()
        rep = quotient_norm_report(x, N3, G, rounds=rounds)
        # each doubling evaluates only the symbol nodes the coarser grid
        # lacks; the period is J = N = 3, so grid G has G nodes
        assert len(evals) == G << (rounds - 1)
        assert rep["grid"] == [G << r for r in range(rounds)]
        assert rep["value"] == [
            quotient_norm_report(x, N3, grid, rounds=1)["final"]
            for grid in rep["grid"]]


def _matrix_form_report(b, N, G, rounds):
    """The report from the N x N matrix form: each grid's value is the
    largest norm of F(e^(2 pi i m / g)) over it and the coarser grids."""
    from bdshift.algebra import to_matrix_form

    F = to_matrix_form(b, N)
    grids, values, best = [], [], 0.0
    for r in range(rounds):
        g = G << r
        for m in range(g):
            z = np.exp(2j * np.pi * m / g)
            A = [[sum(complex(c) * z ** w for w, c in p.coeffs.items())
                  for p in row] for row in F.entries]
            best = max(best, float(np.linalg.norm(np.array(A), 2)))
        grids.append(g)
        values.append(best)
    return grids, values


def _rand_bilateral(rng, N, periods, degrees):
    return BilateralElement({
        n: LocallyConstantFunction(
            [rand_scalar(rng) for _ in range(rng.choice(periods))], N)
        for n in rng.sample(degrees, rng.randint(1, 4))}, N)


def test_quotient_norm_report_matches_the_matrix_form():
    # the symbol of the common period J gives the norms of the N x N
    # matrix form, node by node of every grid
    rng = random.Random(20261019)
    for n in (1, 2, 3, 4, 6, 8, 12):
        N = SupernaturalNumber.from_int(n)
        periods = [j for j in range(1, n + 1) if n % j == 0]
        for _ in range(4):
            b = _rand_bilateral(rng, N, periods, range(-7, 8))
            G, rounds = rng.choice((1, 3, 4, 5)), rng.randint(1, 3)
            rep = quotient_norm_report(b, N, G, rounds=rounds)
            grids, values = _matrix_form_report(b, N, G, rounds)
            assert rep["grid"] == grids and rep["final"] == rep["value"][-1]
            for got, want in zip(rep["value"], values, strict=True):
                assert abs(got - want) <= 1e-12 * max(want, 1.0), (n, b)


def test_quotient_norm_report_at_infinite_n_samples_level_j():
    # at N = 2^inf the grid is the one of N = J, the common period, for
    # the same tables
    rng = random.Random(20261020)
    for _ in range(12):
        tables = {n: [rand_scalar(rng) for _ in range(j)]
                  for n, j in zip(rng.sample(range(-5, 6), 3),
                                  rng.choices((1, 2, 4, 8), k=3))}
        G, rounds = rng.choice((1, 2, 7)), rng.randint(1, 3)
        b = BilateralElement({n: LocallyConstantFunction(t, N2INF)
                              for n, t in tables.items()}, N2INF)
        NJ = SupernaturalNumber.from_int(numerics.symbol_period(b))
        bJ = BilateralElement({n: LocallyConstantFunction(t, NJ)
                               for n, t in tables.items()}, NJ)
        assert (quotient_norm_report(b, N2INF, G, rounds=rounds)
                == quotient_norm_report(bJ, NJ, G, rounds=rounds))


def test_quotient_norm_below_truncation_norm():
    # the quotient norm is dominated by the operator norm upstairs
    rng = random.Random(20240203)
    from bdshift.algebra import quotient

    for _ in range(10):
        x = rand_unilateral(rng, N2, [1, 2], max_deg=2)
        qn = quotient_norm_report(quotient(x), N2, 32, rounds=1)["final"]
        # truncation norms increase to the true norm, which dominates
        up = 0.0
        for M in (64, 128, 256, 512):
            up = norm_lower(x, M)
            if qn <= up + 1e-6:
                break
        assert qn <= up + 1e-6


def test_write_matrix_csv():
    A = np.array([[0.0, 1.5], [-2.0 + 0.5j, 0.0]])
    buf = io.StringIO()
    nnz = write_matrix_csv(A, buf)
    assert nnz == 2
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "row,col,re,im"
    assert lines[1] == "0,1,1.5,0.0"
    assert lines[2] == "1,0,-2.0,0.5"


def test_nonzero_entries_match_the_entrywise_loop():
    rng = np.random.default_rng(20240224)
    A = rng.standard_normal((23, 17)) + 1j * rng.standard_normal((23, 17))
    A[rng.random(A.shape) < 0.8] = 0
    # signed zeros are zero; a zero real or imaginary part alone is not
    A[0, 0], A[1, 1] = complex(-0.0, 0.0), complex(0.0, -0.0)
    A[2, 3], A[4, 5] = complex(-0.0, 2.5), complex(-1.25, 0.0)
    want = []
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            v = A[i, j]
            if v != 0:
                want.append([i, j, float(v.real), float(v.imag)])
    got = nonzero_entries(A)
    assert got == want and len(want) > 20
    assert all(type(x) is int for e in got for x in e[:2])
    assert all(type(x) is float for e in got for x in e[2:])
    assert [[repr(x) for x in e] for e in got] == \
        [[repr(x) for x in e] for e in want]
