import random
from fractions import Fraction

import pytest

from bdshift.scalars import Scalar, ZERO, ONE
from bdshift.errors import (
    NotDerivation,
    NotFinite,
    RegimeMismatch,
    UnboundedCoefficient,
)
from bdshift.profinite import LocallyConstantFunction, SupernaturalNumber
from bdshift.sequences import (
    AffineSequence,
    EPSequence,
    ep_constant,
    ep_zero,
)
from bdshift.algebra import (
    bilateral_zero,
    commutator,
    diag_element,
    identity_element,
    matrix_unit_compact,
    quotient,
    to_matrix_form,
    toeplitz,
    u_element,
    v_element,
)
from bdshift.derivations import (
    DerivationSum,
    LaurentFunction,
    apply,
    bilateral_apply,
    bounded_regime,
    classify,
    covariant,
    d_f_build,
    d_nk,
    delta_f_apply,
    derivation_scale,
    extract_f,
    fejer_mean,
    fourier_component,
    inner_part_H,
    obstruction_gap,
    quotient_derivation,
    reassemble,
)

N2 = SupernaturalNumber.from_int(2)
N3 = SupernaturalNumber.from_int(3)
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
    from bdshift.algebra import UnilateralElement

    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.randint(-max_deg, max_deg)] = rand_ep(rng, N, periods)
    return UnilateralElement(terms, N)


def rand_derivation(rng, N=N6, degrees=(-6, -2, -1, 0, 1, 2, 6)):
    comps = {}
    for n in rng.sample(degrees, rng.randint(1, 3)):
        linear = (
            rand_scalar(rng) if not bounded_regime(n, N) else ZERO
        )
        comps[n] = covariant(
            n, AffineSequence(linear, rand_ep(rng, N, [1, 2, 3, 6])), N
        )
    return DerivationSum(comps, N)


def test_bounded_regime():
    assert bounded_regime(1, N4)
    assert bounded_regime(-3, N4)
    assert not bounded_regime(0, N4)
    assert not bounded_regime(8, N4)
    assert bounded_regime(3, N2INF)
    assert not bounded_regime(0, N2INF)


def test_covariant_validation():
    beta = AffineSequence(ONE, ep_zero(N4))
    with pytest.raises(UnboundedCoefficient):
        covariant(1, beta, N4)
    covariant(4, beta, N4)
    covariant(0, beta, N2INF)
    with pytest.raises(UnboundedCoefficient):
        covariant(2, beta, N2INF)


def test_leibniz():
    rng = random.Random(20240118)
    for _ in range(60):
        d = rand_derivation(rng)
        x = rand_unilateral(rng, N6, [1, 2, 3, 6])
        y = rand_unilateral(rng, N6, [1, 2, 3, 6])
        assert apply(d, x * y) == apply(d, x) * y + x * apply(d, y)
        assert apply(d, x + y) == apply(d, x) + apply(d, y)
    # derivations vanish on constants and preserve the compact ideal
    from bdshift.algebra import UnilateralElement, is_compact

    for _ in range(10):
        d = rand_derivation(rng)
        assert apply(d, identity_element(N6)).is_zero()
        assert apply(d, diag_element(ep_constant(rand_scalar(rng), N6))).is_zero()
        k = UnilateralElement(
            {rng.randint(-2, 2): EPSequence({rng.randint(0, 4): ONE}, [ZERO], N6)},
            N6,
        )
        assert is_compact(apply(d, k))


def test_inner_derivations_are_commutators():
    rng = random.Random(20240119)
    for _ in range(60):
        x = rand_unilateral(rng, N6, [1, 2, 3, 6])
        y = rand_unilateral(rng, N6, [1, 2, 3, 6])
        # ad x: the components carry the terms of x verbatim, as both
        # store the diagonal part to the left of the shift power
        ad_x = DerivationSum({n: covariant(n, AffineSequence(ZERO, a), N6)
                              for n, a in x.terms.items()}, N6)
        assert apply(ad_x, y) == commutator(x, y)


def test_distinguished_component_images():
    U = u_element(N4)
    for n in (-4, 0, 4, 8):
        d = DerivationSum({n: d_nk(n, N4)}, N4)
        assert apply(d, U) == u_element(N4, n + 1)


def test_degree_covariance():
    rng = random.Random(20240120)
    for _ in range(40):
        d = rand_derivation(rng)
        m = rng.randint(-3, 3)
        from bdshift.algebra import UnilateralElement

        mono = UnilateralElement({m: rand_ep(rng, N6, [1, 2, 3])}, N6)
        image = apply(d, mono)
        allowed = {m + n for n in d.degrees()}
        assert set(image.degrees()) <= allowed


def test_derivation_linear_structure():
    rng = random.Random(20240121)
    for _ in range(40):
        d1 = rand_derivation(rng)
        d2 = rand_derivation(rng)
        x = rand_unilateral(rng, N6, [1, 2, 3, 6])
        c = rand_scalar(rng)
        assert apply(d1 + d2, x) == apply(d1, x) + apply(d2, x)
        assert apply(d1 - d2, x) == apply(d1, x) - apply(d2, x)
        assert apply(derivation_scale(d1, c), x) == c * apply(d1, x)
        n = d1.degrees()[0]
        assert fourier_component(d1, n) == d1.component(n)


def test_classify_round_trip():
    rng = random.Random(20240122)
    for _ in range(60):
        # increment regime at finite N: n a multiple of N
        n = rng.choice([-4, 0, 4, 8])
        comp = covariant(
            n,
            AffineSequence(rand_scalar(rng), rand_ep(rng, N4, [1, 2, 4])),
            N4,
        )
        parts = classify(comp)
        assert parts["inner_per"].beta.linear == ZERO
        assert not parts["inner_per"].beta.ep.correction
        assert reassemble(parts, n, N4) == DerivationSum({n: comp}, N4)
    for _ in range(30):
        # infinite N: only n = 0 admits the increment regime
        comp = covariant(
            0,
            AffineSequence(rand_scalar(rng), rand_ep(rng, N2INF, [1, 2, 4])),
            N2INF,
        )
        parts = classify(comp)
        assert reassemble(parts, 0, N2INF) == DerivationSum({0: comp}, N2INF)
    with pytest.raises(RegimeMismatch):
        classify(covariant(1, AffineSequence(ZERO, ep_zero(N4)), N4))


def test_classify_constant_reads_linear_part():
    comp = covariant(
        4,
        AffineSequence(
            Scalar(2), EPSequence({1: Scalar(3)}, [Scalar(1), Scalar(-1)], N4)
        ),
        N4,
    )
    assert classify(comp)["C_n"] == Scalar(2)


def test_obstruction_gap():
    assert obstruction_gap(0, N4, ep_zero(N4)) == Fraction(1)
    parity = EPSequence({}, [Scalar(0), Scalar(1)], N4)
    assert obstruction_gap(0, N4, parity) == Fraction(4)
    rng = random.Random(20240123)
    for _ in range(60):
        beta = rand_ep(rng, N4, [1, 2, 4])
        assert obstruction_gap(0, N4, beta) >= Fraction(1)


def test_fejer_weights_exact():
    rng = random.Random(20240124)
    d = rand_derivation(rng, degrees=(-6, -1, 0, 2, 6))
    M = 4
    fm = fejer_mean(d, M)
    for n in d.degrees():
        w = Scalar(Fraction(max(M + 1 - abs(n), 0), M + 1))
        comp = fm.component(n)
        want = d.component(n)
        assert comp.beta.linear == want.beta.linear * w
        for k in range(10):
            assert comp.beta.ep.value_at(k) == want.beta.ep.value_at(k) * w
    assert all(abs(n) <= M for n in fm.degrees())
    with pytest.raises(ValueError):
        fejer_mean(d, -1)


def test_d_f_and_extraction():
    rng = random.Random(20240125)
    for N in (N2, N3, N4):
        for _ in range(20):
            coeffs = {
                j: rand_scalar(rng)
                for j in rng.sample(range(-3, 4), rng.randint(1, 3))
            }
            f = LaurentFunction({j: c for j, c in coeffs.items() if c})
            if f.is_zero():
                continue
            d = d_f_build(f, N)
            assert extract_f(d, N) == f
            # d_f(U) = (1/N) T(f(V^N)) U and d_f(U*) = -(1/N) U* T(f(V^N))
            n = N.as_int()
            f_VN = sum((c * v_element(N, j * n) for j, c in f.coeffs.items()),
                       bilateral_zero(N))
            t = toeplitz(f_VN)
            U, Us = u_element(N), u_element(N, -1)
            assert apply(d, U) == Scalar(Fraction(1, n)) * (t * U)
            assert apply(d, Us) == Scalar(Fraction(-1, n)) * (Us * t)
    with pytest.raises(NotFinite):
        d_f_build(LaurentFunction({1: ONE}), N2INF)


def test_extraction_ignores_bounded_and_inner_parts():
    f = LaurentFunction({-1: Scalar(2), 1: Scalar(1, 1)})
    d = d_f_build(f, N3)
    noise = DerivationSum(
        {
            1: covariant(
                1,
                AffineSequence(
                    ZERO, EPSequence({}, [Scalar(1), ZERO, ZERO], N3)
                ),
                N3,
            ),
            0: covariant(
                0,
                AffineSequence(
                    ZERO,
                    EPSequence({}, [Scalar(1), Scalar(-2), Scalar(1)], N3),
                ),
                N3,
            ),
        },
        N3,
    )
    assert extract_f(d + noise, N3) == f


def test_delta_f_leibniz():
    rng = random.Random(20240126)
    from bdshift.algebra import BilateralElement

    def rand_trig(N):
        n = N.as_int()
        terms = {}
        for _ in range(rng.randint(1, 3)):
            per = rng.choice([1, n])
            terms[rng.randint(-2 * n, 2 * n)] = LocallyConstantFunction(
                [rand_scalar(rng) for _ in range(per)], N
            )
        return to_matrix_form(BilateralElement(terms, N), N)

    for N in (N2, N3):
        for _ in range(25):
            f = LaurentFunction({rng.randint(-2, 2): rand_scalar(rng)})
            F, G = rand_trig(N), rand_trig(N)
            lhs = delta_f_apply(f, F * G)
            rhs = delta_f_apply(f, F) * G + F * delta_f_apply(f, G)
            assert lhs == rhs
            assert delta_f_apply(
                f, MatrixTrigPoly_constant_identity(N.as_int())
            ).is_zero()


def MatrixTrigPoly_constant_identity(size):
    from bdshift.algebra import MatrixTrigPoly

    return MatrixTrigPoly(
        size,
        [
            [({0: ONE} if i == j else {}) for j in range(size)]
            for i in range(size)
        ],
    )


def loop_delta_f_apply(f, F):
    """The earlier delta_f_apply, kept as a reference: each power z^k of
    an entry scales by k and convolves with f."""
    from bdshift.algebra import MatrixTrigPoly

    size = F.size
    entries = []
    for r in range(size):
        row = []
        for s in range(size):
            out = {}
            for k, c in F.entries[r][s].coeffs.items():
                if k == 0:
                    continue
                base = Scalar(k) * c
                for j, fj in f.coeffs.items():
                    key = k + j
                    acc = out.get(key, ZERO) + fj * base
                    out[key] = acc
            row.append({k: v for k, v in out.items() if v})
        entries.append(row)
    return MatrixTrigPoly(size, entries)


def test_delta_f_apply_matches_the_loop():
    from bdshift.algebra import BilateralElement

    rng = random.Random(20261020)
    for n in (2, 3, 4, 6, 12):
        N = SupernaturalNumber.from_int(n)
        for _ in range(8):
            f = LaurentFunction({rng.randint(-3, 3): rand_scalar(rng)
                                 for _ in range(rng.randint(0, 3))})
            terms = {rng.randint(-3 * n, 3 * n): LocallyConstantFunction(
                [rand_scalar(rng) for _ in range(rng.choice([1, n]))], N)
                for _ in range(rng.randint(1, 4))}
            F = to_matrix_form(BilateralElement(terms, N), N)
            assert delta_f_apply(f, F) == loop_delta_f_apply(f, F)


def test_inner_part_H():
    rng = random.Random(20240127)
    from bdshift.algebra import MatrixTrigPoly

    def unit(size, r, s):
        return MatrixTrigPoly(
            size,
            [
                [({0: ONE} if (i, j) == (r, s) else {}) for j in range(size)]
                for i in range(size)
            ],
        )

    for N_int in (2, 3):
        for _ in range(10):
            entries = [
                [
                    {rng.randint(-2, 2): rand_scalar(rng)}
                    for _ in range(N_int)
                ]
                for _ in range(N_int)
            ]
            X = MatrixTrigPoly(N_int, entries)
            images = {}
            for r in range(N_int):
                for s in range(N_int):
                    u = unit(N_int, r, s)
                    images[(r, s)] = X * u - u * X
            H = inner_part_H(images, N_int)
            for r in range(N_int):
                for s in range(N_int):
                    u = unit(N_int, r, s)
                    assert H * u - u * H == images[(r, s)]
    # corrupt one image: the unit relations no longer hold
    images[(0, 0)] = images[(0, 0)] + unit(3, 0, 1)
    with pytest.raises(NotDerivation):
        inner_part_H(images, 3)


def test_quotient_derivation_rotation():
    table = [Scalar(1), Scalar(2), Scalar(3), Scalar(4)]
    d = DerivationSum(
        {
            -1: covariant(
                -1, AffineSequence(ZERO, EPSequence({}, table, N4)), N4
            )
        },
        N4,
    )
    comp = quotient_derivation(d)[-1]
    assert list(comp.eta.ep.table) == [
        Scalar(4), Scalar(1), Scalar(2), Scalar(3),
    ]
    # corrections die in the quotient
    dc = DerivationSum(
        {
            0: covariant(
                0,
                AffineSequence(ZERO, EPSequence({2: Scalar(5)}, [ZERO], N4)),
                N4,
            )
        },
        N4,
    )
    assert quotient_derivation(dc) == {}


def test_quotient_naturality():
    rng = random.Random(20240128)
    for _ in range(40):
        d = rand_derivation(rng)
        x = rand_unilateral(rng, N6, [1, 2, 3, 6])
        lhs = quotient(apply(d, x))
        rhs = bilateral_apply(quotient_derivation(d), quotient(x))
        assert lhs == rhs


def test_each_apply_refuses_the_other_algebra():
    """apply takes an element of A(N) alone and bilateral_apply one of
    B(N), each with components of its own algebra: with N = 2, one
    component at n = -1 with beta = [1, 0] and b = V, apply(d, b) once
    answered {0: [-1, 1]}, without the rotation by -n that
    quotient_derivation gives the table."""
    beta = AffineSequence(ZERO, EPSequence({}, [ONE, ZERO], N2))
    d = DerivationSum({-1: covariant(-1, beta, N2)}, N2)
    comps, b = quotient_derivation(d), v_element(N2)
    with pytest.raises(ValueError, match=r"acts on A\(N\) alone"):
        apply(d, b)
    with pytest.raises(ValueError, match=r"acts on B\(N\) alone"):
        bilateral_apply(comps, u_element(N2))
    # nor do a derivation's components of A(N) act on B(N): the cast of
    # beta gave the same unrotated answer
    with pytest.raises(ValueError, match=r"acts on B\(N\) alone"):
        bilateral_apply(d.components, b)
    assert bilateral_apply(comps, b).to_json() == {"terms": {"0": {
        "period": 2, "values": [[1, 1, 0, 1], [-1, 1, 0, 1]]}}}
    assert quotient(apply(d, u_element(N2))) == bilateral_apply(comps, b)


def test_derivation_json_round_trip():
    rng = random.Random(20240129)
    for _ in range(30):
        d = rand_derivation(rng)
        assert DerivationSum.from_json(d.to_json(), N6) == d
    f = LaurentFunction({-2: Scalar(1, 3), 1: Scalar(5)})
    assert LaurentFunction.from_json(f.to_json()) == f
