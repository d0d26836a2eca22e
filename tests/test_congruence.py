"""Reduction, congruence testing and q-harmonic sums."""

from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import q_factorial
from hypothesis import assume, given, strategies as hst

from qcong.congruence import (
    CongruenceContext,
    DenominatorNotUnitError,
    QRational,
    q_double_harmonic,
    q_harmonic_sum,
)
from qcong.poly import Poly
from qcong.qanalogs import NotPrimeError, modulus, q_binomial, q_number

# Remainder of q_binomial(10, 5) modulo ([5]_q)^3, computed independently
# (long division of both the Gaussian binomial and 1 + q^25 - 2(q^5-1)^2).
QB_10_5_MOD_5_3 = Poly([5, 0, 0, 0, 0, -11, 0, 0, 0, 0, 8])

coeff_lists = hst.lists(hst.integers(-(10**3), 10**3), max_size=30)
polys = coeff_lists.map(Poly)


def test_context_caches_modulus():
    ctx = CongruenceContext(5, 3)
    assert ctx.modulus == q_number(5) ** 3
    assert ctx.modulus.degree == 12
    with pytest.raises(NotPrimeError):
        CongruenceContext(6, 1)


def test_reduce_q_to_the_p():
    ctx = CongruenceContext(5, 1)
    assert ctx.reduce(Poly.monomial(5)) == Poly([1])


def test_reduce_modulus_to_zero():
    ctx = CongruenceContext(7, 2)
    assert ctx.reduce(ctx.modulus).is_zero()


def test_reduce_central_gaussian_binomial():
    ctx = CongruenceContext(5, 3)
    lhs = ctx.reduce(q_binomial(10, 5))
    rhs = ctx.reduce(Poly([1]) + Poly.monomial(25) - 2 * (Poly.monomial(5) - 1) ** 2)
    assert lhs == QB_10_5_MOD_5_3
    assert rhs == QB_10_5_MOD_5_3


def test_reduce_against_sympy():
    sympy = pytest.importorskip("sympy")
    q = sympy.symbols("q")
    ctx = CongruenceContext(5, 3)
    rem = ctx.reduce(q_binomial(10, 5))
    sa = sum(c * q**i for i, c in enumerate(q_binomial(10, 5).coeffs))
    sm = sum(c * q**i for i, c in enumerate(ctx.modulus.coeffs))
    _, srem = sympy.div(sa, sm, q, domain="QQ")
    assert sympy.expand(srem - sum(c * q**i for i, c in enumerate(rem.coeffs))) == 0


@given(hst.data())
def test_reduce_matches_monic_division(data):
    # The fold modulo (q^p - 1)^k against plain division by ([p]_q)^k, for
    # lengths up to 5kp and lengths at the fold's threshold kp.
    p = data.draw(hst.sampled_from((2, 3, 5, 7, 11, 13)), label="p")
    k = data.draw(hst.integers(1, 5), label="k")
    length = data.draw(hst.one_of(
        hst.integers(0, 5 * k * p),
        hst.sampled_from((k * p - 1, k * p, k * p + 1)),
    ), label="length")
    bits = data.draw(hst.integers(0, 200), label="bits")
    rnd = data.draw(hst.randoms(use_true_random=False))
    coeffs = [rnd.randint(-(2**bits), 2**bits) for _ in range(length)]
    if coeffs and not coeffs[-1]:
        coeffs[-1] = 1
    a = Poly(coeffs)
    assert CongruenceContext(p, k).reduce(a) == a.divrem_monic(modulus(p, k))[1]


@given(polys)
def test_reduce_is_idempotent(a):
    ctx = CongruenceContext(5, 2)
    assert ctx.reduce(ctx.reduce(a)) == ctx.reduce(a)


@given(polys)
def test_congruent_is_reflexive(a):
    assert CongruenceContext(5, 2).congruent(a, a)


@given(polys)
def test_reduce_preserves_value_at_one_mod_p_to_k(a):
    # [p]_q evaluates to p at q=1, so reduction cannot change the residue
    # of the coefficient sum modulo p^k.
    ctx = CongruenceContext(5, 2)
    assert ctx.reduce(a).eval_at_one() % 25 == a.eval_at_one() % 25


def test_congruent_q_to_the_p():
    assert CongruenceContext(5, 1).congruent(Poly.monomial(5), Poly([1]))


def test_congruence_gap_between_square_and_cube():
    # The Babbage-level congruence holds mod [5]^2 but not mod [5]^3.
    lhs = q_binomial(10, 5)
    rhs = q_binomial(2, 1).substitute_power(25)
    assert CongruenceContext(5, 2).congruent(lhs, rhs)
    assert not CongruenceContext(5, 3).congruent(lhs, rhs)


@given(polys, polys, polys, polys)
def test_congruence_respects_ring_operations(a, c, t, u):
    ctx = CongruenceContext(5, 2)
    b = a + ctx.modulus * t
    d = c + ctx.modulus * u
    assert ctx.congruent(a + c, b + d)
    assert ctx.congruent(a * c, b * d)


def test_frac_congruent_trivial():
    ctx = CongruenceContext(5, 2)
    one = Poly([1])
    assert ctx.frac_congruent(QRational(one, one), one)


def test_frac_congruent_exact_quotient():
    for p, k in ((3, 1), (5, 2), (7, 3)):
        ctx = CongruenceContext(p, k)
        f = QRational(Poly([1, 2, 1]), Poly([1, 1]))
        assert ctx.frac_congruent(f, Poly([1, 1]))


def test_frac_congruent_rejects_non_unit_denominator():
    ctx = CongruenceContext(5, 2)
    with pytest.raises(DenominatorNotUnitError):
        ctx.frac_congruent(QRational(Poly([1]), q_number(5)), Poly([1]))
    with pytest.raises(DenominatorNotUnitError):
        ctx.frac_congruent(QRational(Poly([1]), q_number(5) * Poly([3, 1])), Poly([1]))
    # Coprime to [p]_q over Q, yet p divides D(1): not units in Z_(p)[q].
    cases = [(5, Poly([5])), (5, Poly([4, 1])), (3, Poly([12]))]
    cases += [(p, Poly([-1, 1])) for p in (3, 5, 7)]
    for p, den in cases:
        with pytest.raises(DenominatorNotUnitError):
            CongruenceContext(p, 2).frac_congruent(QRational(Poly([1]), den), Poly([1]))


@given(
    hst.lists(hst.integers(-20, 20), max_size=8),
    hst.lists(hst.integers(-20, 20), min_size=1, max_size=8),
    hst.lists(hst.integers(-20, 20), max_size=8),
    hst.lists(hst.integers(-20, 20), min_size=1, max_size=6),
)
def test_frac_congruent_scale_invariance(num, den, r, g):
    ctx = CongruenceContext(5, 2)
    den_p, g_p = Poly(den), Poly(g)
    assume(den_p.eval_at_one() % 5 != 0)
    assume(g_p.eval_at_one() % 5 != 0)
    r_p = Poly(r)
    plain = ctx.frac_congruent(QRational(Poly(num), den_p), r_p)
    scaled = ctx.frac_congruent(QRational(Poly(num) * g_p, den_p * g_p), r_p)
    assert plain == scaled


def test_qrational_rejects_zero_denominator():
    with pytest.raises(ValueError):
        QRational(Poly([1]), Poly())


def test_harmonic_sum_p3_as_fraction():
    h = q_harmonic_sum(3, 1)
    assert h.den == q_number(1) * q_number(2)
    # num/den == (2+q)/(1+q), checked by cross-multiplication
    assert h.num * Poly([1, 1]) == Poly([2, 1]) * h.den


def test_harmonic_sum_validation():
    with pytest.raises(ValueError):
        q_harmonic_sum(5, 3)
    with pytest.raises(ValueError):
        q_harmonic_sum(4, 1)
    with pytest.raises(ValueError):
        q_harmonic_sum(2, 1)


def test_harmonic_sum_p5_congruences():
    # sum 1/[i] = -2(q-1) + (q-1)^2 [5]_q  mod [5]^2
    ctx2 = CongruenceContext(5, 2)
    h1 = q_harmonic_sum(5, 1)
    rhs = -2 * Poly([-1, 1]) + Poly([-1, 1]) ** 2 * q_number(5)
    assert ctx2.frac_congruent(h1, rhs)
    # sum 1/[i]^2 = 0  mod [5]  (the scalar (p-1)(p-5)/12 vanishes at p=5)
    ctx1 = CongruenceContext(5, 1)
    h2 = q_harmonic_sum(5, 2)
    assert ctx1.frac_congruent(h2, Poly())


def test_double_harmonic_p3_as_fraction():
    dh = q_double_harmonic(3)
    # single term 1/([1][2]) == 1/(1+q)
    assert dh.num * Poly([1, 1]) == dh.den


def test_double_harmonic_p5_congruence():
    ctx = CongruenceContext(5, 1)
    dh = q_double_harmonic(5)
    assert ctx.frac_congruent(dh, 2 * Poly([-1, 1]) ** 2)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_double_harmonic_vs_square_identity(p):
    # q_double_harmonic is built as ((sum x_i)^2 - sum x_i^2)/2 over the square
    # of H1's denominator; check it against sympy's exact sum over i < j.
    sympy = pytest.importorskip("sympy")
    field, q = sympy.field("q", sympy.QQ)

    def frac(poly):
        return sum((c * q**e for e, c in enumerate(poly.coeffs)), field.zero)

    x = [1 / sum(q**e for e in range(i)) for i in range(1, p)]
    exact = sum((x[i] * x[j] for j in range(len(x)) for i in range(j)), field.zero)
    dh = q_double_harmonic(p)
    assert frac(dh.num) == exact * frac(dh.den)
    assert dh.den == q_harmonic_sum(p, 1).den ** 2


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_harmonic_denominators_are_units(p):
    ctx = CongruenceContext(p, 1)
    for s in (1, 2):
        den = q_factorial(p - 1) ** s
        assert q_harmonic_sum(p, s).den == den
        assert ctx.frac_congruent(QRational(den, den), Poly([1]))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_harmonic_sum_specializes_to_harmonic_numbers(p):
    h = q_harmonic_sum(p, 1)
    expected = sum(Fraction(1, i) for i in range(1, p))
    assert Fraction(h.num.eval_at_one(), h.den.eval_at_one()) == expected
