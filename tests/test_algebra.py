import random

import pytest

from bdshift.scalars import Scalar, ZERO, ONE
from bdshift.errors import NotFinite
from bdshift.derivations import (
    DerivationSum,
    apply,
    bilateral_apply,
    d_nk,
    quotient_derivation,
)
from bdshift.profinite import (
    LocallyConstantFunction,
    SupernaturalNumber,
    haar_integral,
)
from bdshift.sequences import (
    EPSequence,
    ep_add,
    ep_scale,
    ep_shift,
)
from bdshift.algebra import (
    BilateralElement,
    LaurentFunction,
    MatrixTrigPoly,
    UnilateralElement,
    adjoint,
    bilateral_adjoint,
    bilateral_diag,
    bilateral_identity,
    bilateral_zero,
    commutator,
    diag_element,
    expectation,
    from_matrix_form,
    identity_element,
    is_compact,
    matrix_unit_compact,
    matrix_units,
    mult_defect,
    multiply,
    p0_element,
    quotient,
    residue_indicator,
    to_matrix_form,
    toeplitz,
    u_element,
    v_element,
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
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.randint(-max_deg, max_deg)] = rand_ep(rng, N, periods)
    return UnilateralElement(terms, N)


def rand_lcf(rng, N, periods):
    per = rng.choice(periods)
    return LocallyConstantFunction(
        [rand_scalar(rng) for _ in range(per)], N
    )


def rand_bilateral(rng, N, periods, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.randint(-max_deg, max_deg)] = rand_lcf(rng, N, periods)
    return BilateralElement(terms, N)


def test_shift_relations():
    one = identity_element(N4)
    U, Us, P0 = u_element(N4), u_element(N4, -1), p0_element(N4)
    assert Us * U == one
    assert U * Us == one - P0
    assert adjoint(U) == Us
    a = EPSequence({1: Scalar(3)}, [Scalar(1), Scalar(0)], N4)
    # a(K) U = U a(K+1)
    assert diag_element(a) * U == U * diag_element(ep_shift(a, 1))
    assert (u_element(N4, 2) + diag_element(a)).max_abs_degree() == 2


def test_matrix_entries():
    U = u_element(N4)
    for i in range(4):
        for j in range(4):
            assert U.entry(i, j) == (ONE if i == j + 1 else ZERO)
    e12 = matrix_unit_compact(1, 2, N4)
    assert e12.entry(1, 2) == ONE
    assert sum(1 for i in range(6) for j in range(6) if e12.entry(i, j)) == 1
    # e_rs e_tq = delta_st e_rq on the compact matrix units
    rng = random.Random(20240108)
    for _ in range(40):
        r, s, t, q = (rng.randint(0, 3) for _ in range(4))
        prod = matrix_unit_compact(r, s, N4) * matrix_unit_compact(t, q, N4)
        if s == t:
            assert prod == matrix_unit_compact(r, q, N4)
        else:
            assert prod.is_zero()


def test_ring_axioms_unilateral():
    rng = random.Random(20240109)
    for _ in range(80):
        x = rand_unilateral(rng, N6, [1, 2, 3, 6])
        y = rand_unilateral(rng, N6, [1, 2, 3, 6])
        z = rand_unilateral(rng, N6, [1, 2, 3, 6])
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        assert adjoint(adjoint(x)) == x
        assert adjoint(x * y) == adjoint(y) * adjoint(x)
        assert commutator(x, y) == x * y - y * x
        c = rand_scalar(rng)
        assert adjoint(c * x) == c.conjugate() * adjoint(x)
        # entries of the product agree with matrix multiplication
        i, j = rng.randint(0, 9), rng.randint(0, 9)
        acc = ZERO
        for k in range(16):
            acc = acc + x.entry(i, k) * y.entry(k, j)
        assert (x * y).entry(i, j) == acc


def test_ring_axioms_bilateral():
    rng = random.Random(20240110)
    for _ in range(80):
        x = rand_bilateral(rng, N6, [1, 2, 3, 6])
        y = rand_bilateral(rng, N6, [1, 2, 3, 6])
        z = rand_bilateral(rng, N6, [1, 2, 3, 6])
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert bilateral_adjoint(bilateral_adjoint(x)) == x
        assert bilateral_adjoint(x * y) == bilateral_adjoint(
            y
        ) * bilateral_adjoint(x)
        assert commutator(x, y) == x * y - y * x


def test_bilateral_shift_relations():
    one = bilateral_identity(N4)
    V, Vi = v_element(N4), v_element(N4, -1)
    assert V * Vi == one and Vi * V == one
    assert bilateral_adjoint(V) == Vi
    g = LocallyConstantFunction([Scalar(1), Scalar(4)], N4)
    # g(L) V = V g(L+1)
    assert bilateral_diag(g) * V == V * bilateral_diag(ep_shift(g, 1))


def test_compacts_form_ideal():
    rng = random.Random(20240111)
    for _ in range(60):
        k = UnilateralElement(
            {
                rng.randint(-2, 2): EPSequence(
                    {rng.randint(0, 4): rand_scalar(rng)}, [ZERO], N6
                )
            },
            N6,
        )
        x = rand_unilateral(rng, N6, [1, 2, 3])
        assert is_compact(k)
        assert is_compact(x * k) and is_compact(k * x)
        assert quotient(k).is_zero()
    assert is_compact(p0_element(N6))
    assert not is_compact(u_element(N6))


def test_quotient_is_star_homomorphism():
    rng = random.Random(20240112)
    for _ in range(60):
        x = rand_unilateral(rng, N6, [1, 2, 3, 6])
        y = rand_unilateral(rng, N6, [1, 2, 3, 6])
        assert quotient(x * y) == quotient(x) * quotient(y)
        assert quotient(x + y) == quotient(x) + quotient(y)
        assert quotient(adjoint(x)) == bilateral_adjoint(quotient(x))
    assert quotient(u_element(N6)) == v_element(N6)
    assert quotient(identity_element(N6)) == bilateral_identity(N6)


def test_toeplitz_section():
    rng = random.Random(20240113)
    for _ in range(60):
        b = rand_bilateral(rng, N6, [1, 2, 3, 6])
        assert quotient(toeplitz(b)) == b
    assert toeplitz(v_element(N6)) == u_element(N6)
    assert toeplitz(v_element(N6, -1)) == u_element(N6, -1)


def test_mult_defect():
    V, Vi = v_element(N4), v_element(N4, -1)
    assert mult_defect(V, Vi) == p0_element(N4)
    assert mult_defect(Vi, V).is_zero()
    rng = random.Random(20240114)
    for _ in range(60):
        b1 = rand_bilateral(rng, N6, [1, 2, 3])
        b2 = rand_bilateral(rng, N6, [1, 2, 3])
        d = mult_defect(b1, b2)
        assert is_compact(d)
        assert d == toeplitz(b1 * b2) - toeplitz(b1) * toeplitz(b2)


def test_products_refuse_elements_of_two_algebras():
    # multiply(U, V) gave U^2 in A(N), mult_defect(U, V*) read the terms
    # of U as those of V and gave 0, and U + V gave 2U
    U, V = u_element(N2), v_element(N2)
    add, sub = (lambda x, y: x + y), (lambda x, y: x - y)
    ops = (multiply, commutator, lambda x, y: x * y, add, sub)
    for op in ops:
        for x, y in ((U, V), (V, U)):
            with pytest.raises(TypeError):
                op(x, y)
    for x, y in ((U, v_element(N2, -1)), (V, u_element(N2, -1)),
                 (U, u_element(N2, -1))):
        with pytest.raises(TypeError):
            mult_defect(x, y)
    # U + 1 raised AttributeError
    for x, y in ((U, 1), (1, U), (V, ONE), (ONE, V)):
        for op in (add, sub):
            with pytest.raises(TypeError):
                op(x, y)
    # over two N: V(N2) - V(N3) gave 0, multiply(V(N2), V*(N3)) the
    # identity of B(2) and mult_defect of the same pair P_0
    for op in (*ops, mult_defect):
        with pytest.raises(ValueError):
            op(v_element(N2), v_element(N3, -1))
    for op in ops:
        with pytest.raises(ValueError):
            op(u_element(N2), u_element(N2INF, -1))
    # sequences over two N: 5 + 7 gave 12 over N = 2, and periods 2 and 3
    # raised PeriodNotDivisor; a derivation over N = 2 applied to an
    # element over N = 3 raised the element's coefficient check
    for a, b in (([5], [7]), ([5, 1], [7, 1, 2])):
        for op in (add, sub, ep_add):
            with pytest.raises(ValueError, match="over N = "):
                op(EPSequence({}, a, N2), EPSequence({}, b, N3))
    d = DerivationSum({2: d_nk(2, N2)}, N2)
    for op, x in ((apply, u_element(N3)), (bilateral_apply, v_element(N3))):
        with pytest.raises(ValueError, match="apply a derivation"):
            op(quotient_derivation(d) if op is bilateral_apply else d, x)
    # == compared the terms alone: a set kept one of two elements over two N
    assert v_element(N2) != v_element(N3)
    assert len({v_element(N2), v_element(N3)}) == 2
    assert EPSequence({}, [5], N2) != EPSequence({}, [5], N3)
    # an equal N held in another object is the same N
    assert U + u_element(SupernaturalNumber.from_int(2)) == U * Scalar(2)
    assert v_element(SupernaturalNumber.from_int(2)) == V


def test_elements_refuse_a_coefficient_over_another_N():
    # UnilateralElement({0: a}, N2) with a period-3 a over N3 built an
    # element of A(2) with a period-3 coefficient
    with pytest.raises(ValueError):
        UnilateralElement({0: EPSequence({}, [1, 2, 3], N3)}, N2)
    with pytest.raises(ValueError):
        BilateralElement({1: LocallyConstantFunction([1, 2], N4)}, N2)
    a = EPSequence({}, [1, 2], SupernaturalNumber.from_int(2))
    assert UnilateralElement({0: a}, N2).terms == {0: a}


def test_expectation():
    g = LocallyConstantFunction([Scalar(2), Scalar(5)], N4)
    b = v_element(N4, 2) + bilateral_diag(g)
    assert expectation(b) == g
    assert expectation(v_element(N4)) == LocallyConstantFunction([ZERO], N4)
    assert haar_integral(expectation(b)) == Scalar(7, 0) / Scalar(2)
    rng = random.Random(20240115)
    for _ in range(40):
        x = rand_bilateral(rng, N6, [1, 2, 3, 6])
        # E is a conditional expectation: E(g b h) = g E(b) h for diagonals
        g1, g2 = rand_lcf(rng, N6, [2, 3]), rand_lcf(rng, N6, [2, 3])
        lhs = expectation(bilateral_diag(g1) * x * bilateral_diag(g2))
        e = expectation(x)
        assert lhs == LocallyConstantFunction(
            [g1.value_at(l) * e.value_at(l) * g2.value_at(l)
             for l in range(6)], N6)


def test_matrix_units_relations():
    for N in (N2, N3, N4):
        n = N.as_int()
        units = matrix_units(N)
        one = bilateral_identity(N)
        V = v_element(N)
        acc = bilateral_zero(N)
        for s in range(n):
            acc = acc + units[(s, s)]
            for r in range(n):
                assert bilateral_adjoint(units[(s, r)]) == units[(r, s)]
                for t in range(n):
                    for q in range(n):
                        prod = units[(s, r)] * units[(t, q)]
                        if r == t:
                            assert prod == units[(s, q)]
                        else:
                            assert prod.is_zero()
        assert acc == one
        # V = P_10 + ... + P_{N-1,N-2} + V^N P_{0,N-1}
        rebuilt = bilateral_zero(N)
        for s in range(1, n):
            rebuilt = rebuilt + units[(s, s - 1)]
        rebuilt = rebuilt + v_element(N, n) * units[(0, n - 1)]
        assert rebuilt == V
    with pytest.raises(NotFinite):
        matrix_units(N2INF)


def test_residue_indicator():
    e = residue_indicator(1, 3, N6)
    assert [e.value_at(k) for k in range(6)] == [
        ZERO, ONE, ZERO, ZERO, ONE, ZERO,
    ]


def test_matrix_form_round_trip():
    rng = random.Random(20240116)
    for N in (N2, N3):
        for _ in range(40):
            b = rand_bilateral(rng, N, [1, N.as_int()])
            F = to_matrix_form(b, N)
            assert from_matrix_form(F, N) == b
            c = rand_bilateral(rng, N, [1, N.as_int()])
            G = to_matrix_form(c, N)
            assert to_matrix_form(b * c, N) == F * G
            assert to_matrix_form(b + c, N) == F + G
            assert (
                to_matrix_form(bilateral_adjoint(b), N)
                == F.conjugate_transpose()
            )


def indicator_sum_from_matrix_form(F, N):
    """The earlier from_matrix_form, kept as a reference: each power w of
    entry (j', j) adds val * [l = j mod N] to the term of degree
    j' - j + wN."""
    N_int = N.as_int()
    terms = {}
    for jp in range(N_int):
        for j in range(N_int):
            for w, val in F.entries[jp][j].coeffs.items():
                n = jp - j + w * N_int
                contrib = ep_scale(residue_indicator(j, N_int, N), val)
                if n in terms:
                    terms[n] = ep_add(terms[n], contrib)
                else:
                    terms[n] = contrib
    return BilateralElement(terms, N)


def rand_trig_poly(rng, size, powers=3):
    """Entries with up to `powers` random powers in random order."""
    return MatrixTrigPoly(size, [
        [{rng.randint(-3, 3): rand_scalar(rng)
          for _ in range(rng.randint(0, powers))} for _ in range(size)]
        for _ in range(size)
    ])


def test_from_matrix_form_matches_the_indicator_sum():
    rng = random.Random(20261018)
    for n in (2, 3, 4, 6, 12):
        N = SupernaturalNumber.from_int(n)
        periods = [d for d in range(1, n + 1) if n % d == 0]
        for _ in range(12):
            b = rand_bilateral(rng, N, periods, max_deg=3 * n)
            for F in (to_matrix_form(b, N), rand_trig_poly(rng, n)):
                got = from_matrix_form(F, N)
                want = indicator_sum_from_matrix_form(F, N)
                assert got == want
                assert list(got.terms) == list(want.terms)
            assert from_matrix_form(to_matrix_form(b, N), N) == b


def test_laurent_functions_ignore_insertion_order():
    rng = random.Random(20261019)
    for _ in range(50):
        coeffs = [(j, rand_scalar(rng)) for j in rng.sample(range(-6, 7), 5)]
        f = LaurentFunction(dict(coeffs))
        g = LaurentFunction(dict(reversed(coeffs)))
        assert f == g and hash(f) == hash(g)
        # the JSON lists the powers ascending, whatever the insertion order
        assert list(f.to_json()["coeffs"]) == list(map(str, sorted(g.coeffs)))
    # the order the powers are first met is kept, zeros dropped
    f = LaurentFunction({2: ONE, -1: Scalar(3), 0: ZERO, 1: ONE})
    assert list(f.coeffs) == [2, -1, 1]


def test_matrix_form_eval():
    # V at N=2 becomes [[0, z], [1, 0]]
    F = to_matrix_form(v_element(N2), N2)
    assert F == MatrixTrigPoly(2, [[{}, {1: ONE}], [{0: ONE}, {}]])

