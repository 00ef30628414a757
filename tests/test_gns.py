import ast
import cmath
import math
import random
from pathlib import Path
from fractions import Fraction

import numpy as np
import pytest

from bdshift.scalars import Scalar, ZERO, ONE, _canonical
from bdshift.errors import LevelMismatch, NoConvergence, WindowTooSmall
from bdshift.profinite import (
    LocallyConstantFunction,
    SupernaturalNumber,
    ep_shift,
)
from bdshift.sequences import BilateralAffineSequence, BilateralEPSequence
from bdshift.algebra import (
    BilateralElement,
    bilateral_adjoint,
    bilateral_diag,
    bilateral_identity,
    bilateral_multiply,
    residue_indicator,
    v_element,
)
from bdshift.derivations import bilateral_apply, bilateral_covariant
from bdshift import gns
from bdshift.gns import (
    GNSVector,
    GNSVector0,
    ImplementationData,
    build_D,
    build_D_haar,
    build_D_haar_exact,
    build_D_tau0,
    build_D_tau0_exact,
    check_covariance,
    check_implementation,
    chi0,
    implementation_from_bilateral,
    inner,
    inner0,
    inner_haar,
    parametrix_report,
    pi0_apply,
    pi_apply,
    pi_haar_apply,
    slope_corroborates,
    tau0,
    tau_haar,
)
from bdshift.gns import (
    _D_block,
    _min_eig_inverse_power,
    _shell_min_sv,
    haar_mvec,
)

N2 = SupernaturalNumber.from_int(2)
N4 = SupernaturalNumber.from_int(4)
NINF = SupernaturalNumber({2: "inf"})

GRID16 = [2 * math.pi * k / 16 for k in range(16)]
POSITIVE = "compact-parametrix-consistent"
NEGATIVE = "no-compact-parametrix"


def rand_scalar(rng):
    return Scalar(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
    )


def rand_lcf(rng, N, per):
    return LocallyConstantFunction([rand_scalar(rng) for _ in range(per)], N)


def rand_bilateral(rng, N, per, deg=2):
    terms = {}
    for n in range(-deg, deg + 1):
        if rng.random() < 0.6:
            terms[n] = rand_lcf(rng, N, per)
    if not terms:
        terms[0] = rand_lcf(rng, N, per)
    return BilateralElement(terms, N)


def rand_eta(rng, N, per, linear_ok):
    lin = rand_scalar(rng) if linear_ok and rng.random() < 0.8 else ZERO
    return BilateralAffineSequence(
        lin,
        BilateralEPSequence({}, [rand_scalar(rng) for _ in range(per)], N),
    )


def band_entries(D):
    """{(row, col): Scalar} of the nonzero entries of the exact bands
    D = (den, {offset: (re, im)})."""
    den, bands = D
    return {(j + e, j): _canonical(a, c, den)
            for e, (re, im) in bands.items()
            for j, (a, c) in enumerate(zip(re, im)) if a or c}


def entry_bands(entries, size):
    """The exact bands of {(row, col): Scalar} on a window of size
    columns, over the lcm of the entries' denominators."""
    den = math.lcm(*(v._t[2] for v in entries.values()))
    bands = {}
    for (i, j), v in entries.items():
        a, c, d = v._t
        re, im = bands.setdefault(i - j, ([0] * size, [0] * size))
        re[j], im[j] = a * (den // d), c * (den // d)
    return den, bands


def periodic_eta(f):
    """The bounded datum eta = f of a locally constant function f."""
    return BilateralAffineSequence(
        ZERO, BilateralEPSequence({}, list(f.table), f.N)
    )


def test_states_on_basics():
    rng = random.Random(20240204)
    f = rand_lcf(rng, N2, 2)
    assert tau0(bilateral_diag(f)) == f.value_at(0)
    eN = residue_indicator(0, 2, N2)
    assert tau_haar(bilateral_diag(eN)) == Scalar(Fraction(1, 2))
    assert tau0(v_element(N2, 3)) == ZERO
    assert tau_haar(v_element(N2, -1)) == ZERO
    assert tau0(bilateral_identity(N2)) == ONE
    assert tau_haar(bilateral_identity(N2)) == ONE


def test_states_positive():
    rng = random.Random(20240205)
    for _ in range(30):
        b = rand_bilateral(rng, N2, 2)
        for t in (tau0, tau_haar):
            val = t(bilateral_multiply(bilateral_adjoint(b), b))
            assert val.is_real() and val.re >= 0


def test_pi0_action():
    rng = random.Random(20240206)
    f = rand_lcf(rng, N2, 2)
    e0 = GNSVector0({0: ONE})
    assert pi0_apply(v_element(N2), e0) == GNSVector0({1: ONE})
    v = GNSVector0({-2: rand_scalar(rng), 5: rand_scalar(rng)})
    w = pi0_apply(bilateral_diag(f), v)
    for (l, x), c in v.coeffs.items():
        assert x == 0
        assert w.coefficient(l) == f.value_at(l) * c
    for _ in range(30):
        b = rand_bilateral(rng, N2, 2)
        # the state is reproduced by the cyclic vector, exactly
        assert inner0(e0, pi0_apply(b, e0)) == tau0(b)
        b2 = rand_bilateral(rng, N2, 2)
        lhs = pi0_apply(bilateral_multiply(b, b2), v)
        assert lhs == pi0_apply(b, pi0_apply(b2, v))


def test_pi_haar_action():
    rng = random.Random(20240207)
    f = rand_lcf(rng, N2, 2)
    x0 = chi0(2)
    assert inner_haar(x0, x0) == ONE
    got = pi_haar_apply(v_element(N2), GNSVector({(0, 1): ONE}, 2))
    assert got == GNSVector({(1, 1): ONE}, 2)
    vH = GNSVector({(2, 0): rand_scalar(rng), (-1, 1): rand_scalar(rng)}, 2)
    w = pi_haar_apply(bilateral_diag(f), vH)
    for (m, x), c in vH.coeffs.items():
        assert w.coefficient(m, x) == f.value_at(x + m) * c
    for _ in range(30):
        b = rand_bilateral(rng, N2, 2)
        assert inner_haar(x0, pi_haar_apply(b, x0)) == tau_haar(b)
        b2 = rand_bilateral(rng, N2, 2)
        assert pi_haar_apply(bilateral_multiply(b, b2), vH) == pi_haar_apply(
            b, pi_haar_apply(b2, vH)
        )
    with pytest.raises(LevelMismatch):
        pi_haar_apply(
            rand_bilateral(rng, N4, 4), GNSVector({(0, 0): ONE}, 2)
        )


def test_one_vector_type_for_both_states():
    # tau_0 is the level-1 fiber x = 0 of the Haar picture, recorded with
    # its space; the two-space names are the same objects
    assert inner0 is inner_haar is gns.inner
    assert pi0_apply is pi_haar_apply is gns.pi_apply
    e0 = GNSVector0({0: ONE, 3: ZERO})
    assert (e0.space, e0.level, e0.coeffs) == ("tau0", 1, {(0, 0): ONE})
    assert e0 == gns.GNSVector({(0, 5): ONE}, 1, "tau0")
    assert e0 != chi0(1)
    assert inner0(e0, e0) == ONE
    # same level, different spaces: refused, not a silent zero
    with pytest.raises(LevelMismatch):
        inner0(chi0(1), e0)
    with pytest.raises(LevelMismatch):
        inner(chi0(2), chi0(4))
    with pytest.raises(LevelMismatch):
        gns.GNSVector({(0, 0): ONE}, 2, "tau0")
    with pytest.raises(LevelMismatch):
        GNSVector({(0, 0): ONE}, 0)
    with pytest.raises(ValueError):
        gns.GNSVector({}, 1, "qux")
    with pytest.raises(AttributeError):
        e0.level = 2
    # the period check runs on the Haar space at every level, 1 included,
    # and never on tau_0
    rng = random.Random(20240211)
    b = rand_bilateral(rng, N4, 4)
    with pytest.raises(LevelMismatch):
        pi_apply(b, chi0(1))
    assert inner(e0, pi_apply(b, e0)) == tau0(b)
    assert inner(chi0(4), pi_apply(b, chi0(4))) == tau_haar(b)


def test_build_D_tau0():
    etaL = BilateralAffineSequence(ONE, BilateralEPSequence({}, [ZERO], N2))
    dataL = implementation_from_bilateral(bilateral_covariant(0, etaL, N2))
    D = build_D_tau0(dataL, 3)
    assert np.allclose(D, np.diag(np.arange(-3, 4, dtype=float)))
    eta1 = BilateralAffineSequence(ZERO, BilateralEPSequence({}, [ONE], N2))
    data1 = implementation_from_bilateral(bilateral_covariant(1, eta1, N2))
    D1 = build_D_tau0(data1, 2)
    S = np.zeros((5, 5))
    for i in range(4):
        S[i + 1, i] = 1.0
    assert np.allclose(D1, S)


def test_check_covariance():
    etaL = BilateralAffineSequence(ONE, BilateralEPSequence({}, [ZERO], N2))
    dataL = implementation_from_bilateral(bilateral_covariant(0, etaL, N2))
    assert check_covariance(build_D_tau0(dataL, 8), 0, 8, GRID16) < 1e-12
    eta1 = BilateralAffineSequence(ZERO, BilateralEPSequence({}, [ONE], N2))
    data1 = implementation_from_bilateral(bilateral_covariant(1, eta1, N2))
    D1 = build_D_tau0(data1, 2)
    assert check_covariance(D1, 1, 2, GRID16) < 1e-12
    # wrong degree: covariance fails loudly
    assert check_covariance(D1, 2, 2, GRID16) > 0.5
    # a size that is no window at M is refused
    with pytest.raises(ValueError, match="not a window at M=3"):
        check_covariance(D1, 1, 3, GRID16)


def test_tau0_implementation_exact_all_regimes():
    rng = random.Random(20240208)
    cases = (
        [(n, N2, 2, False) for n in (1, -1, 3)]
        + [(n, N2, 2, True) for n in (0, 2, -2)]
        + [(0, NINF, 4, True)]
        + [(n, NINF, 4, False) for n in (1, -3)]
    )
    for n, N, per, lin_ok in cases:
        for _ in range(3):
            eta = rand_eta(rng, N, per, lin_ok)
            comp = bilateral_covariant(n, eta, N)
            data = implementation_from_bilateral(
                comp, c=rand_scalar(rng) if n == 0 else None
            )
            Dx = build_D_tau0_exact(data, 8)
            b = rand_bilateral(rng, N, per, 2)
            res = check_implementation(Dx, {n: comp}, b, 8, space="tau0")
            assert res == 0.0


def test_tau0_inner_implementation():
    rng = random.Random(20240209)
    g = rand_lcf(rng, N2, 2)
    eta_g = BilateralAffineSequence(
        ZERO, BilateralEPSequence({}, list(g.values), N2)
    )
    comp_g = bilateral_covariant(0, eta_g, N2)
    # pi_0(g) on the window E_{-8..8}, column by column, is the D of eta = g
    Dg = {(k + 8, l + 8): v for l in range(-8, 9) for (k, _), v in pi0_apply(
        bilateral_diag(g), GNSVector0({l: ONE})).coeffs.items()}
    assert Dg == band_entries(
        build_D_tau0_exact(implementation_from_bilateral(comp_g), 8))
    res = check_implementation(
        entry_bands(Dg, 17), {0: comp_g}, rand_bilateral(rng, N2, 2), 8,
        space="tau0"
    )
    assert res == 0.0


def test_haar_implementation_exact_all_cases():
    rng = random.Random(20240210)
    cases = (
        [(n, N2, 2, False) for n in (1, -1, 3)]
        + [(n, N2, 2, True) for n in (0, 2, -2)]
        + [(0, NINF, 4, True)]
        # level | n in the bounded case: two entries share a key
        + [(n, NINF, 2, False) for n in (2, 4, -2)]
    )
    for n, N, per, lin_ok in cases:
        for psi in (None, rand_lcf(rng, N, per)):
            eta = rand_eta(rng, N, per, lin_ok)
            comp = bilateral_covariant(n, eta, N)
            data = implementation_from_bilateral(comp, psi=psi)
            Dx = build_D_haar_exact(data, 8)
            b = rand_bilateral(rng, N, per, 2)
            res = check_implementation(
                Dx, {n: comp}, b, 8, space="haar", level=data.level
            )
            assert res == 0.0


def test_haar_covariance():
    rng = random.Random(20240211)
    for n, N, per, lin_ok in [(1, N2, 2, False), (0, N2, 2, True), (2, N2, 2, True)]:
        eta = rand_eta(rng, N, per, lin_ok)
        data = implementation_from_bilateral(
            bilateral_covariant(n, eta, N), psi=rand_lcf(rng, N, per)
        )
        Dh = build_D_haar(data, 8)
        assert check_covariance(Dh, n, 8, GRID16) < 1e-12


def test_haar_generator_formulas():
    rng = random.Random(20240212)
    h = rand_lcf(rng, N2, 2)
    data_b = implementation_from_bilateral(
        bilateral_covariant(1, periodic_eta(h), N2), psi=h
    )
    Db = band_entries(build_D_haar_exact(data_b, 4))
    # psi = h kills the commutant term: pure shifted multiplication
    for (i, j), val in Db.items():
        mi, xi = i // 2 - 4, i % 2
        mj, xj = j // 2 - 4, j % 2
        assert mi == mj + 1 and xi == xj
        assert val == h.value_at(xj + mj)
    etaL = BilateralAffineSequence(ONE, BilateralEPSequence({}, [ZERO], N2))
    data_d = implementation_from_bilateral(bilateral_covariant(2, etaL, N2))
    Dd = band_entries(build_D_haar_exact(data_d, 4))
    for (i, j), val in Dd.items():
        mi, xi = i // 2 - 4, i % 2
        mj, xj = j // 2 - 4, j % 2
        assert mi == mj + 2 and xi == xj and val == Scalar(mj)


def test_window_guard():
    rng = random.Random(20240213)
    eta = rand_eta(rng, N2, 2, False)
    comp = bilateral_covariant(1, eta, N2)
    data = implementation_from_bilateral(comp)
    Dx = build_D_tau0_exact(data, 2)
    b = rand_bilateral(rng, N2, 2, 2)
    with pytest.raises(WindowTooSmall):
        check_implementation(Dx, {1: comp}, b, 2, space="tau0")


def test_window_guard_on_haar_off_cells():
    # bounded Haar data at level 2, n = 1: D carries off cells at the band
    # offsets 2 +- 1, yet every entry lies one block off the diagonal, so
    # a degree-2 b gives the margin 1 + 2 = 3
    rng = random.Random(20240224)
    comp = bilateral_covariant(1, periodic_eta(rand_lcf(rng, N2, 2)), N2)
    data = implementation_from_bilateral(comp, psi=rand_lcf(rng, N2, 2))
    b = BilateralElement({2: rand_lcf(rng, N2, 2),
                          -1: rand_lcf(rng, N2, 2)}, N2)
    D3 = build_D_haar_exact(data, 3)
    assert set(D3[1]) == {1, 2, 3}
    with pytest.raises(WindowTooSmall, match="margin 3"):
        check_implementation(D3, {1: comp}, b, 3, space="haar", level=2)
    assert check_implementation(build_D_haar_exact(data, 4), {1: comp}, b, 4,
                                space="haar", level=2) == 0.0


def test_check_implementation_refuses_a_D_off_the_window():
    # the band rows record their window: a D built at another M, or for
    # the other space, is refused instead of read out of place
    rng = random.Random(20240225)
    comp = bilateral_covariant(1, rand_eta(rng, N2, 2, False), N2)
    data = implementation_from_bilateral(comp)
    b = rand_bilateral(rng, N2, 2, 2)
    D_tau0, D_haar = build_D_tau0_exact(data, 8), build_D_haar_exact(data, 8)
    for D, M, space, level in ((D_tau0, 6, "tau0", 1),
                               (D_tau0, 10, "tau0", 1),
                               (D_tau0, 8, "haar", 2),
                               (D_haar, 8, "tau0", 1)):
        with pytest.raises(ValueError, match="not on the window"):
            check_implementation(D, {1: comp}, b, M, space=space,
                                 level=level)
    assert check_implementation(D_haar, {1: comp}, b, 8, space="haar",
                                level=2) == 0.0


def test_parametrix_tau0():
    Ms = [8, 16, 32]
    etaL = BilateralAffineSequence(ONE, BilateralEPSequence({}, [ZERO], N2))
    dataL = implementation_from_bilateral(bilateral_covariant(0, etaL, N2))
    rep = parametrix_report(dataL, Ms, space="tau0")
    assert rep["verdict"] == POSITIVE and slope_corroborates(rep)
    assert rep["min_sv"][-1] > 25
    assert rep["M"] == Ms and len(rep["min_sv"]) == 3

    eta1 = BilateralAffineSequence(ZERO, BilateralEPSequence({}, [ONE], N2))
    data1 = implementation_from_bilateral(bilateral_covariant(1, eta1, N2))
    rep = parametrix_report(data1, Ms, space="tau0")
    assert rep["verdict"] == NEGATIVE and not slope_corroborates(rep)

    eta_c0 = BilateralAffineSequence(
        ZERO, BilateralEPSequence({}, [ONE, Scalar(3)], N2)
    )
    rep = parametrix_report(
        implementation_from_bilateral(bilateral_covariant(2, eta_c0, N2)),
        Ms,
        space="tau0",
    )
    assert rep["verdict"] == NEGATIVE and not slope_corroborates(rep)

    eta_i0 = BilateralAffineSequence(
        Scalar(Fraction(1, 2)),
        BilateralEPSequence({}, [ONE, ZERO, ZERO, ONE], NINF),
    )
    rep = parametrix_report(
        implementation_from_bilateral(bilateral_covariant(0, eta_i0, NINF)),
        Ms,
        space="tau0",
    )
    assert rep["verdict"] == POSITIVE and slope_corroborates(rep)


def test_parametrix_haar():
    Ms = [8, 16, 32]
    eta_h = BilateralAffineSequence(
        ONE, BilateralEPSequence({}, [ONE, ZERO], N2)
    )
    rep = parametrix_report(
        implementation_from_bilateral(bilateral_covariant(2, eta_h, N2)),
        Ms,
        space="haar",
    )
    assert rep["verdict"] == POSITIVE and slope_corroborates(rep)

    rng = random.Random(20240214)
    h = rand_lcf(rng, N2, 2)
    data_b = implementation_from_bilateral(
        bilateral_covariant(1, periodic_eta(h), N2), psi=h
    )
    rep = parametrix_report(data_b, Ms, space="haar")
    assert rep["verdict"] == NEGATIVE and not slope_corroborates(rep)

    eta_c0 = BilateralAffineSequence(
        ZERO, BilateralEPSequence({}, [ONE, Scalar(3)], N2)
    )
    rep = parametrix_report(
        implementation_from_bilateral(bilateral_covariant(2, eta_c0, N2)),
        Ms,
        space="haar",
    )
    assert rep["verdict"] == NEGATIVE and not slope_corroborates(rep)

    # infinite N: the Haar fiber is non-atomic, so no compact parametrix
    # even though the number operator grows on every finite level
    eta_i0 = BilateralAffineSequence(
        Scalar(Fraction(1, 2)),
        BilateralEPSequence({}, [ONE, ZERO, ZERO, ONE], NINF),
    )
    rep = parametrix_report(
        implementation_from_bilateral(bilateral_covariant(0, eta_i0, NINF)),
        Ms,
        space="haar",
    )
    assert rep["verdict"] == NEGATIVE


def test_implementation_data_guards():
    comps = regime_components()
    bounded, flatN = comps["bounded"], comps["incrementN_flat"]
    linearN, linear0 = comps["incrementN_linear"], comps["increment0_linear"]
    # the level is positive, divides N and carries the periods of eta
    # (2 at N = 2, 4 at N = 2^inf) and psi
    for comp, level in ((bounded, 0), (linearN, -2), (linear0, 0),
                        (flatN, 4), (linearN, 1), (linear0, 2)):
        with pytest.raises(LevelMismatch):
            implementation_from_bilateral(comp, level=level)
    psi8 = LocallyConstantFunction([ONE] + [ZERO] * 7, NINF)
    with pytest.raises(LevelMismatch):
        implementation_from_bilateral(linear0, psi=psi8)
    assert implementation_from_bilateral(linear0, psi=psi8, level=8).level == 8
    # the free constant exists only at n = 0, in every regime
    for comp in (bounded, flatN, linearN):
        with pytest.raises(ValueError, match="only at n = 0"):
            implementation_from_bilateral(comp, c=ONE)
        assert implementation_from_bilateral(comp, c=ZERO).c == ZERO
    assert implementation_from_bilateral(linear0, c=ONE).c == ONE
    # eta is quotient data: a correction, formed by hand, is refused
    for data in correction_data():
        for build in (build_D_tau0_exact, build_D_haar_exact, build_D_tau0):
            with pytest.raises(ValueError, match="no corrections"):
                build(data, 2)


def test_haar_implementation_exact_at_proper_divisor_levels():
    # N = 6 and N | n: every level that divides N and carries the periods
    # of eta, psi and b gives an exact implementation
    rng = random.Random(20240220)
    N6 = SupernaturalNumber.from_int(6)
    for level in (1, 2, 3):
        for n in (0, 6, -6):
            comp = bilateral_covariant(n, rand_eta(rng, N6, level, True), N6)
            data = implementation_from_bilateral(
                comp, psi=rand_lcf(rng, N6, level), level=level
            )
            assert data.case == "incrementN" and data.level == level
            Dx = build_D_haar_exact(data, 12)
            b = rand_bilateral(rng, N6, level, 2)
            res = check_implementation(
                Dx, {n: comp}, b, 12, space="haar", level=level
            )
            assert res == 0.0


def test_naturality_of_implementation():
    # D commutes past pi exactly because the defect lies in the commutant:
    # cross-check the full derivation identity on a two-component sum
    rng = random.Random(20240216)
    for _ in range(10):
        eta_a = rand_eta(rng, N2, 2, False)
        eta_b = rand_eta(rng, N2, 2, True)
        comp_a = bilateral_covariant(1, eta_a, N2)
        comp_b = bilateral_covariant(2, eta_b, N2)
        comps = {1: comp_a, 2: comp_b}
        b = rand_bilateral(rng, N2, 2, 2)
        img = bilateral_apply(comps, b)
        Dx = build_D_tau0_exact(
            implementation_from_bilateral(comp_a), 10
        )
        Dy = build_D_tau0_exact(
            implementation_from_bilateral(comp_b), 10
        )
        D = band_entries(Dx)
        for k, v in band_entries(Dy).items():
            D[k] = D.get(k, ZERO) + v
        assert check_implementation(entry_bands(D, 21), comps, b, 10,
                                    space="tau0") == 0.0
        assert not img.is_zero() or b.is_zero() or comp_a.is_zero()


# ---------------------------------------------------------------------------
# band-structured routes against the dense ones they replace


def regime_components():
    """The five regime representatives of acceptance criterion 09."""
    def eta_of(linear, table, N):
        return BilateralAffineSequence(
            linear, BilateralEPSequence({}, table, N)
        )

    return {
        "bounded": bilateral_covariant(
            1, eta_of(ZERO, [ONE, Scalar(2)], N2), N2),
        "incrementN_flat": bilateral_covariant(
            2, eta_of(ZERO, [ONE, Scalar(3)], N2), N2),
        "incrementN_linear": bilateral_covariant(
            2, eta_of(ONE, [ONE, ZERO], N2), N2),
        "increment0_flat": bilateral_covariant(
            0, eta_of(ZERO, [ONE, ZERO, ZERO, ONE], NINF), NINF),
        "increment0_linear": bilateral_covariant(
            0, eta_of(Scalar(Fraction(1, 2)), [ONE, ZERO, ZERO, ONE], NINF),
            NINF),
    }


def gtilde_sum_loop(gtilde, m, x):
    total = ZERO
    if m >= 0:
        for i in range(m):
            total = total + gtilde.value_at(x + i)
    else:
        for i in range(m, 0):
            total = total - gtilde.value_at(x + i)
    return total


def dense_covariance(D, n, M, thetas):
    size = D.shape[0]
    level = size // (2 * M + 1)
    mvec = haar_mvec(M, level)
    marr = np.asarray(mvec, dtype=float)
    diff = marr[:, None] - marr[None, :]
    worst = 0.0
    for theta in thetas:
        conj = np.exp(1j * theta * diff) * D
        resid = conj - cmath.exp(1j * n * theta) * D
        worst = max(worst, float(np.linalg.norm(resid, 2)))
    return worst


def dense_shell_min_sv(data, space, M, tol=1e-12, cap=20000, seed=20240117):
    big = 2 * M + abs(data.n) + 1
    if space == "tau0":
        D = build_D_tau0(data, big)
        mvec = haar_mvec(big, 1)
    else:
        D = build_D_haar(data, big)
        mvec = haar_mvec(big, data.level)
    G = np.eye(D.shape[0]) + D.conj().T @ D
    idx = np.nonzero((np.abs(mvec) >= M) & (np.abs(mvec) < 2 * M))[0]
    Ginv = np.linalg.inv(G[np.ix_(idx, idx)])
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(cap):
        w = Ginv @ v
        v = w / np.linalg.norm(w)
        new = float(np.real(np.vdot(v, Ginv @ v)))
        if abs(new - lam) <= tol * max(1.0, abs(new)):
            break
        lam = new
    return math.sqrt(1.0 / new)


def test_check_covariance_matches_dense():
    rng = random.Random(20240218)
    M = 8
    cases = []
    for comp in regime_components().values():
        data = implementation_from_bilateral(comp)
        cases.append((build_D_tau0(data, M), comp.n))
        psi = rand_lcf(rng, comp.N, 2)
        data = implementation_from_bilateral(comp, psi=psi)
        cases.append((build_D_haar(data, M), comp.n))
    eta1 = BilateralAffineSequence(ZERO, BilateralEPSequence({}, [ONE], N2))
    D1 = build_D_tau0(implementation_from_bilateral(
        bilateral_covariant(1, eta1, N2)), M)
    etaL = BilateralAffineSequence(ONE, BilateralEPSequence({}, [ZERO], N2))
    DL = build_D_tau0(implementation_from_bilateral(
        bilateral_covariant(0, etaL, N2)), M)
    cases += [
        (D1, 2),  # wrong degree
        (np.zeros((2 * M + 1, 2 * M + 1), dtype=complex), 1),
        (np.zeros((2 * (2 * M + 1), 2 * (2 * M + 1)), dtype=complex), 0),
    ]
    for D, n in cases:
        got = check_covariance(D, n, M, GRID16)
        assert abs(got - dense_covariance(D, n, M, GRID16)) <= 1e-12
    # no covariant D lies on two bands, one of them purely imaginary in the
    # second case: both are refused, not measured
    for D, n in ((D1 + DL, 1), (1j * D1 + DL, 0)):
        with pytest.raises(ValueError):
            check_covariance(D, n, M, GRID16)


def wide_bounded_components():
    """Bounded components at level 2 with |n| >= 2 level, and with level | n
    so that the two entries of a Haar column share one row."""
    eta = BilateralAffineSequence(
        ZERO, BilateralEPSequence({}, [ONE, Scalar(-2, 1)], NINF)
    )
    return [bilateral_covariant(n, eta, NINF) for n in (5, -5, 4, -2)]


def test_shell_min_sv_matches_dense():
    comps = [*regime_components().values(), *wide_bounded_components()]
    for comp in comps:
        data = implementation_from_bilateral(comp)
        for space in ("tau0", "haar"):
            for M in (4, 8, 16):
                got = _shell_min_sv(data, space, M)
                want = dense_shell_min_sv(data, space, M)
                assert abs(got - want) <= 1e-12 * want


def batched_shell_min_sv(data, space, M, tol=1e-12, seed=20240117):
    """The shell minimum with every step a batched (k, L, L) @ (k, L, 1)
    product, whatever the block structure."""
    level, den, diag, off = _D_block(data, space)
    shell = [*range(-2 * M + 1, -M + 1), *range(M, 2 * M)]
    re, im = diag(range(-2 * M + 1, -M + 1), range(M, 2 * M))
    B = np.zeros((len(shell), level, level), dtype=complex)
    fiber = np.arange(level)
    B.real[:, fiber, fiber] = np.reshape([a / den for a in re], (-1, level))
    B.imag[:, fiber, fiber] = np.reshape([b / den for b in im], (-1, level))
    for xi, xj, a, b in off:
        B[:, xi, xj] = complex(_canonical(a, b, den))
    G = np.eye(level) + B.conj().transpose(0, 2, 1) @ B
    Ginv = np.linalg.inv(G)
    k = len(shell)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(k * level) + 1j * rng.standard_normal(k * level)
    v /= np.linalg.norm(v)
    w = (Ginv @ v.reshape(k, level, 1)).reshape(-1)
    lam = 0.0
    for _ in range(20000):
        v = w / np.linalg.norm(w)
        w = (Ginv @ v.reshape(k, level, 1)).reshape(-1)
        new = float(np.real(np.vdot(v, w)))
        if abs(new - lam) <= tol * max(1.0, abs(new)):
            return math.sqrt(max(1.0 / max(new, 1e-300), 0.0))
        lam = new
    raise AssertionError("the reference iteration did not settle")


def test_shell_min_sv_is_the_batched_iteration_bit_for_bit():
    comps = [*regime_components().values(), *wide_bounded_components()]
    diagonal = 0
    for comp in comps:
        data = implementation_from_bilateral(comp)
        for space in ("tau0", "haar"):
            diagonal += not _D_block(data, space)[3]
            for M in (4, 8, 16):
                got = _shell_min_sv(data, space, M)
                assert got == batched_shell_min_sv(data, space, M), \
                    (comp.n, space, M)
    # both step paths are taken
    assert 0 < diagonal < 2 * len(comps)


# ---------------------------------------------------------------------------
# entry-by-entry window builds, the reference for the block builds


def reference_parts(data):
    """The per-regime data of eta = C l + eta~: C, eta~ as h or htilde,
    and at n = 0 with N infinite the forward increment gtilde of eta~ and
    the anchor eta~(0) that its sums lose."""
    C, ep = data.eta.linear, data.eta.ep
    return C, ep, ep_shift(ep, 1) - ep, ep.value_at(0)


def reference_D_tau0_exact(data, M):
    """{(row, col): Scalar} over E_{-M..M}: D E_l = (eta(l) + c) E_{l+n}."""
    n = data.n
    C, ep, gtilde, anchor = reference_parts(data)
    out = {}
    for l in range(-M, M + 1):
        if data.case == "bounded":
            val = ep.value_at(l)
        elif data.case == "incrementN":
            val = C * Scalar(l) + ep.value_at(l)
        else:
            val = C * Scalar(l) + gtilde_sum_loop(gtilde, l, 0) + anchor
        if n == 0:
            val = val + data.c
        i = l + n
        if -M <= i <= M and val:
            out[(i + M, l + M)] = val
    return out


def reference_D_haar_exact(data, M):
    """{(row, col): Scalar} over e_(m,x), m in [-M, M]."""
    n, level, psi = data.n, data.level, data.psi
    C, ep, gtilde, _ = reference_parts(data)
    out = {}

    def index(m, x):
        return (m + M) * level + (x % level)

    def put(mi, xi, mj, xj, val):
        # in the bounded case with level | n both entries of a column
        # share one key and add up
        if -M <= mi <= M and val:
            key = (index(mi, xi), index(mj, xj))
            w = out.get(key)
            w = val if w is None else w + val
            if w:
                out[key] = w
            else:
                del out[key]

    for m in range(-M, M + 1):
        for x in range(level):
            if data.case == "bounded":
                put(m + n, x, m, x, ep.value_at(x + m))
                put(m + n, x - n, m, x,
                    psi.value_at(x - n) - ep.value_at(x - n))
            elif data.case == "increment0":
                val = (C * Scalar(m)
                       + gtilde_sum_loop(gtilde, m, x)
                       + psi.value_at(x))
                put(m, x, m, x, val)
            else:
                val = (C * Scalar(m)
                       + ep.value_at(x + m)
                       - ep.value_at(x)
                       + psi.value_at(x))
                put(m + n, x, m, x, val)
    return out


def test_block_builds_match_the_entrywise_reference():
    rng = random.Random(20240219)
    eta = rand_eta(rng, N2, 2, True)
    comps = [
        *regime_components().values(),
        *wide_bounded_components(),
        bilateral_covariant(-1, rand_eta(rng, N2, 2, False), N2),
        bilateral_covariant(-2, eta, N2),
        bilateral_covariant(-4, eta, N2),
    ]
    signs = set()
    for comp in comps:
        signs.add((comp.n > 0) - (comp.n < 0))
        psi = rand_lcf(rng, comp.N, 2)
        variants = [{}, {"psi": psi}]
        if comp.n == 0:
            c = rand_scalar(rng)
            variants += [{"c": c}, {"psi": psi, "c": c}]
        if not comp.N.is_finite():
            variants += [{"level": 8}, {"psi": psi, "level": 8}]
        for kw in variants:
            data = implementation_from_bilateral(comp, **kw)
            for M in (1, 4, 8):
                assert band_entries(build_D_tau0_exact(data, M)) == \
                    reference_D_tau0_exact(data, M)
                assert band_entries(build_D_haar_exact(data, M)) == \
                    reference_D_haar_exact(data, M)
    assert signs == {-1, 0, 1}


def test_min_eig_inverse_power_raises_at_cap():
    # smallest eigenvalues 1 and 1.01 lie close, so the inverse iteration
    # settles only after hundreds of steps
    G = np.array([np.diag([1.0, 1.01]), np.diag([1.005, 2.0])], dtype=complex)
    assert abs(_min_eig_inverse_power(G) - 1.0) <= 1e-6
    with pytest.raises(NoConvergence) as info:
        _min_eig_inverse_power(G, cap=2)
    assert info.value.iterations == 2
    assert 1.0 <= info.value.last_value <= 2.0


def reference_min_eig_inverse_power(G, tol=1e-12, cap=20000, seed=20240117):
    """The inverse iteration with fresh arrays at every step, a start
    vector drawn anew, np.linalg.norm and a true division."""
    Ginv = np.linalg.inv(G)
    k, L, _ = G.shape

    if np.count_nonzero(G) == k * L:
        scale = np.diagonal(Ginv, axis1=1, axis2=2).reshape(-1)

        def apply(u):
            return scale * u
    else:
        def apply(u):
            return (Ginv @ u.reshape(k, L, 1)).reshape(-1)

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(k * L) + 1j * rng.standard_normal(k * L)
    v /= np.linalg.norm(v)
    w = apply(v)
    lam = 0.0
    for _ in range(cap):
        v = w / np.linalg.norm(w)
        w = apply(v)
        new = float(np.real(np.vdot(v, w)))
        if abs(new - lam) <= tol * max(1.0, abs(new)):
            return 1.0 / max(new, 1e-300)
        lam = new
    raise AssertionError("the reference iteration did not settle")


def test_cached_start_vector_and_buffers_share_no_state(monkeypatch):
    # the shell stacks of both step paths at two lengths each, as
    # _shell_min_sv passes them to the solver
    stacks = []
    solve = gns._min_eig_inverse_power
    monkeypatch.setattr(gns, "_min_eig_inverse_power",
                        lambda G: stacks.append(G) or solve(G))
    for comp, Ms in ((regime_components()["incrementN_linear"], (4, 8)),
                     (wide_bounded_components()[0], (16, 32))):
        data = implementation_from_bilateral(comp)
        for M in Ms:
            _shell_min_sv(data, "haar", M)
    monkeypatch.undo()
    diagonal = [np.count_nonzero(G) == G.shape[0] * G.shape[1]
                for G in stacks]
    assert diagonal == [True, True, False, False]
    assert len({G.shape[0] * G.shape[1] for G in stacks}) == 4
    want = [reference_min_eig_inverse_power(G) for G in stacks]
    # every stack twice, alternating lengths and paths, from a cold cache
    gns._start_vector.cache_clear()
    assert [solve(G) for G in stacks * 2] == want * 2
    assert gns._start_vector.cache_info().hits == len(stacks)
    start = gns._start_vector(stacks[0].shape[0] * stacks[0].shape[1],
                              20240117)
    with pytest.raises(ValueError):
        start[0] = 0


# ---------------------------------------------------------------------------
# integer-row builds and the scattered implementation check


def correction_data():
    """Implementation data whose eta carries a correction, negative keys
    included, in each regime; the quotient never builds such an eta, so
    ImplementationData is formed directly, and the builds refuse it."""
    rng = random.Random(20240221)

    def eta(linear, N, per):
        corr = {-3: rand_scalar(rng), 0: Scalar(Fraction(5, 7)),
                4: rand_scalar(rng) or ONE}
        return BilateralAffineSequence(linear, BilateralEPSequence(
            corr, [rand_scalar(rng) for _ in range(per)], N))

    return [
        ImplementationData(1, N2, eta(ZERO, N2, 2), rand_lcf(rng, N2, 2),
                           ZERO, 2),
        ImplementationData(-2, NINF, eta(ZERO, NINF, 2),
                           rand_lcf(rng, NINF, 2), ZERO, 4),
        ImplementationData(2, N2, eta(Scalar(Fraction(2, 3), 1), N2, 2),
                           rand_lcf(rng, N2, 2), ZERO, 2),
        ImplementationData(0, NINF, eta(Scalar(Fraction(1, 2)), NINF, 4),
                           rand_lcf(rng, NINF, 4), Scalar(Fraction(-1, 3), 2),
                           4),
    ]


def build_cases():
    """Implementation data over every regime and variant: psi, c, a level
    finer than the period and bounded Haar blocks with off cells (level
    does not divide n)."""
    rng = random.Random(20240222)
    out = []
    for comp in (*regime_components().values(), *wide_bounded_components()):
        variants = [{}, {"psi": rand_lcf(rng, comp.N, 2)}]
        if comp.n == 0:
            variants.append({"c": rand_scalar(rng), **variants[1]})
        if not comp.N.is_finite():
            variants.append({"level": 8, **variants[1]})
        out += [implementation_from_bilateral(comp, **kw) for kw in variants]
    return out


def test_dense_build_is_the_float_of_the_exact_build():
    off_cells = 0
    for data in build_cases():
        for space in ("tau0", "haar"):
            for M in (0, 1, 4, 9):
                Dx = band_entries(gns._window_bands(data, space, M))
                want = np.zeros(((2 * M + 1) * (
                    data.level if space == "haar" else 1),) * 2,
                    dtype=complex)
                for (i, j), v in Dx.items():
                    want[i, j] = complex(v)
                assert build_D(data, space, M).tobytes() == want.tobytes()
                if space == "haar":
                    level = data.level
                    off_cells += sum((i - j) % level != 0 for i, j in Dx)
    assert off_cells > 0


def test_shell_min_sv_frozen_values():
    comps = regime_components()
    wide = wide_bounded_components()[0]
    frozen = [
        (comps["incrementN_linear"], "tau0",
         ["0x1.94c583ada5f96p+1", "0x1.e110c3922d11dp+3"]),
        (comps["incrementN_linear"], "haar",
         ["0x1.07e0f66affe6ep+2", "0x1.007fe010d9c98p+4"]),
        (comps["increment0_linear"], "haar",
         ["0x1.cd82b44617a1dp+0", "0x1.e43f74703ef71p+2"]),
        (comps["increment0_flat"], "tau0",
         ["0x1.00000000002b0p+0", "0x1.00000000000c9p+0"]),
        (comps["bounded"], "haar",
         ["0x1.000000000000cp+0", "0x1.0000000000005p+0"]),
        (wide, "haar", ["0x1.0000000000000p+0", "0x1.0000000000000p+0"]),
    ]
    for comp, space, want in frozen:
        data = implementation_from_bilateral(comp)
        got = [_shell_min_sv(data, space, M).hex() for M in (4, 16)]
        assert got == want, (comp.n, space)


def test_reciprocal_diagonal_is_the_inverse_diagonal(monkeypatch):
    # the shell iteration applies 1 / diagonal(G) to a diagonal stack in
    # place of the diagonal of np.linalg.inv(G); both carry the same bits
    # on every diagonal stack of build_cases, both spaces
    stacks, real = [], gns._min_eig_inverse_power
    monkeypatch.setattr(gns, "_min_eig_inverse_power",
                        lambda G: stacks.append(G) or real(G))
    for data in build_cases():
        for space in ("tau0", "haar"):
            for M in (2, 5, 16, 64):
                _shell_min_sv(data, space, M)
    diagonal = [G for G in stacks
                if np.count_nonzero(G) == G.shape[0] * G.shape[1]]
    assert 0 < len(diagonal) < len(stacks)
    for G in diagonal:
        want = np.diagonal(np.linalg.inv(G), axis1=1, axis2=2)
        got = 1 / np.diagonal(G, axis1=1, axis2=2)
        assert got.tobytes() == want.tobytes()


def dense_exact(entries, size):
    A = [[ZERO] * size for _ in range(size)]
    for (i, j), v in entries.items():
        A[i][j] = A[i][j] + v
    return A


def dense_exact_mul(A, B):
    size = len(A)
    out = [[ZERO] * size for _ in range(size)]
    for i in range(size):
        for k in range(size):
            if A[i][k]:
                for j in range(size):
                    if B[k][j]:
                        out[i][j] = out[i][j] + A[i][k] * B[k][j]
    return out


def reference_pi_dense(b, M, level):
    """pi(b) on the window, entry by entry: e_(m,x) -> g(x + m) e_(m+k,x)."""
    size = (2 * M + 1) * level
    P = [[ZERO] * size for _ in range(size)]
    for k, g in b.terms.items():
        for m in range(-M, M + 1):
            if abs(m + k) <= M:
                for x in range(level):
                    i, j = (m + k + M) * level + x, (m + M) * level + x
                    P[i][j] = P[i][j] + g.value_at(x + m)
    return P


def reference_implementation_deviation(D, components, b, M, level):
    """max |[D, pi(b)] - pi(delta b)| over the interior, by dense exact
    products over the whole window."""
    size = (2 * M + 1) * level
    Dd, P = dense_exact(D, size), reference_pi_dense(b, M, level)
    Q = reference_pi_dense(bilateral_apply(components, b), M, level)
    DP, PD = dense_exact_mul(Dd, P), dense_exact_mul(P, Dd)
    band = max(abs(i // level - j // level) for i, j in D)
    cut = M - band - b.max_abs_degree()
    inner = [i for i in range(size) if abs(i // level - M) <= cut]
    worst = max((DP[i][j] - PD[i][j] - Q[i][j]).abs_sq()
                for i in inner for j in inner)
    return math.sqrt(worst)


def test_check_implementation_matches_dense_products_off_zero():
    rng = random.Random(20240223)
    M = 7
    cases = []
    # a perturbed D: one interior entry moved
    comp = bilateral_covariant(0, rand_eta(rng, N2, 2, True), N2)
    Dx = band_entries(
        build_D_tau0_exact(implementation_from_bilateral(comp), M))
    Dx[M, M] = Dx.get((M, M), ZERO) + Scalar(Fraction(1, 3), -1)
    cases.append((Dx, {0: comp}, 1))
    # a D of the wrong degree
    eta = rand_eta(rng, N2, 2, False)
    D1 = band_entries(build_D_tau0_exact(
        implementation_from_bilateral(bilateral_covariant(1, eta, N2)), M))
    cases.append((D1, {2: bilateral_covariant(2, eta, N2)}, 1))
    # the two-band sum of test_naturality_of_implementation, checked
    # against one of its components
    comp_a = bilateral_covariant(1, rand_eta(rng, N2, 2, False), N2)
    comp_b = bilateral_covariant(2, rand_eta(rng, N2, 2, True), N2)
    D2 = band_entries(
        build_D_tau0_exact(implementation_from_bilateral(comp_a), M))
    for k, v in band_entries(build_D_tau0_exact(
            implementation_from_bilateral(comp_b), M)).items():
        D2[k] = D2.get(k, ZERO) + v
    cases.append((D2, {1: comp_a}, 1))
    cases.append((D2, {1: comp_a, 2: comp_b}, 1))
    # Haar, bounded with level 2 not dividing n = 1: D carries off cells;
    # checked against a component with another eta
    comp_h = bilateral_covariant(1, rand_eta(rng, N2, 2, False), N2)
    data_h = implementation_from_bilateral(comp_h, psi=rand_lcf(rng, N2, 2))
    Dh = band_entries(build_D_haar_exact(data_h, M))
    other = bilateral_covariant(1, rand_eta(rng, N2, 2, False), N2)
    cases.append((Dh, {1: other}, 2))
    cases.append((Dh, {1: comp_h}, 2))
    nonzero = 0
    for D, comps, level in cases:
        b = rand_bilateral(rng, N2, 2, 2)
        space = "haar" if level > 1 else "tau0"
        got = check_implementation(entry_bands(D, (2 * M + 1) * level),
                                   comps, b, M, space=space, level=level)
        want = reference_implementation_deviation(D, comps, b, M, level)
        assert got == want
        nonzero += got > 0
    assert nonzero == 4


def test_check_implementation_over_coprime_denominators():
    # eta over 3, b over 5, D moved by 1/7 and by 10^-30: the integer
    # scatter over one common denominator gives the exact deviation, down
    # to one far below a float's resolution of the other entries
    M, third, fifth = 7, Fraction(1, 3), Fraction(1, 5)
    eta = BilateralAffineSequence(Scalar(third), BilateralEPSequence(
        {}, [Scalar(2 * third, -third), Scalar(third)], N2))
    comp = bilateral_covariant(0, eta, N2)
    b = BilateralElement({
        1: LocallyConstantFunction([Scalar(fifth), Scalar(0, -2 * fifth)], N2),
        -1: LocallyConstantFunction([Scalar(3 * fifth, fifth)], N2),
    }, N2)
    psi = LocallyConstantFunction([Scalar(fifth), ZERO], N2)
    tiny = []
    for space, level in (("tau0", 1), ("haar", 2)):
        data = implementation_from_bilateral(
            comp, psi=psi if space == "haar" else None)
        D = band_entries(gns._window_bands(data, space, M))
        i = M * level
        for moved in (ZERO, Scalar(Fraction(1, 7)),
                      Scalar(0, Fraction(1, 10**30))):
            Dx = dict(D)
            Dx[i, i + level] = Dx.get((i, i + level), ZERO) + moved
            got = check_implementation(
                entry_bands(Dx, (2 * M + 1) * level), {0: comp}, b, M,
                space=space, level=level)
            assert got == reference_implementation_deviation(
                Dx, {0: comp}, b, M, level)
            assert (got > 0) == bool(moved)
            if moved.im:
                tiny.append(got)
    assert len(tiny) == 2 and all(1e-31 < t < 1e-29 for t in tiny)


def test_exact_sparse_product_serves_only_the_truncation_oracle():
    # the exact window product stays with the truncation oracle; the GNS
    # checks scatter their entries instead
    assert not hasattr(gns, "_sparse_mul")
    users = set()
    for path in sorted(Path(gns.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            where = getattr(stmt, "name", "<module>")
            for node in ast.walk(stmt):
                if isinstance(node, ast.ImportFrom):
                    if any(a.name == "_sparse_mul" for a in node.names):
                        users.add((path.stem, "<import>"))
                elif (isinstance(node, ast.Name) and node.id == "_sparse_mul"
                      or isinstance(node, ast.Attribute)
                      and node.attr == "_sparse_mul"):
                    users.add((path.stem, where))
    assert users == {("numerics", "oracle_product_check")}
