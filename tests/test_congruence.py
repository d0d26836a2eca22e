"""Reduction, congruence testing and q-harmonic sums."""

from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import (q_double_harmonic_full, q_double_harmonic_per_k, q_factorial,
                      q_harmonic_full, q_harmonic_per_k, valuation_per_k)
from hypothesis import assume, given, strategies as hst

from qcong import congruence
from qcong.congruence import (
    CongruenceContext,
    DenominatorNotUnitError,
    q_double_harmonic,
    q_harmonic_sum,
)
from qcong.poly import FOLD_BLOCK_CUTOFF, Poly
from qcong.qanalogs import NotPrimeError, is_prime, modulus, q_binomial, q_number
from qcong.statements import binomial_residue

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


def test_contexts_share_one_modulus_build():
    modulus.cache_clear()
    first, second = CongruenceContext(11, 4), CongruenceContext(11, 4)
    assert first.modulus is second.modulus
    assert modulus.cache_info().misses == 1


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


@given(hst.data())
def test_fold_keeps_the_class_and_the_value_at_one(data):
    # fold leaves at most kp coefficients, differs from a by a multiple of
    # (q^p - 1)^k, so reduce cannot tell them apart, and keeps a(1), so the
    # p | den(1) unit test of a folded denominator is unchanged.
    p = data.draw(hst.sampled_from((2, 3, 5, 7, 11, 13)), label="p")
    k = data.draw(hst.integers(1, 5), label="k")
    length = data.draw(hst.one_of(
        hst.integers(0, 5 * k * p),
        hst.sampled_from((k * p - 1, k * p, k * p + 1)),
    ), label="length")
    bits = data.draw(hst.integers(0, 200), label="bits")
    rnd = data.draw(hst.randoms(use_true_random=False))
    a = Poly(rnd.randint(-(2**bits), 2**bits) for _ in range(length))
    ctx = CongruenceContext(p, k)
    folded = a.fold(p, k)
    assert len(folded.coeffs) < k * p + 1
    assert ctx.reduce(folded) == ctx.reduce(a)
    assert folded.eval_at_one() == a.eval_at_one()
    assert (a - folded).divrem_monic((Poly.monomial(p) - 1) ** k)[1].is_zero()


@given(hst.data())
def test_fold_is_the_remainder_on_both_sides_of_the_stride_cutoff(data):
    # Past FOLD_BLOCK_CUTOFF blocks above the k kept, Poly.fold takes its stride
    # sums instead of its block loop; both must give the unique remainder
    # modulo (q^p - 1)^k, at every length.  Block size 1 is _binomial_gap's
    # fold modulo (x - 1)^k, which no reduce by a modulus follows.
    p = data.draw(hst.sampled_from((1, 2, 3, 5, 7, 11, 13, 23, 31)), label="p")
    k = data.draw(hst.integers(1, 5), label="k")
    cut = (k + FOLD_BLOCK_CUTOFF) * p
    length = data.draw(hst.one_of(
        hst.integers(0, 150 * p),
        hst.sampled_from((cut - p, cut - 1, cut, cut + 1, cut + p)),
    ), label="length")
    bits = data.draw(hst.integers(0, 120), label="bits")
    rnd = data.draw(hst.randoms(use_true_random=False))
    a = Poly(rnd.randint(-(2**bits), 2**bits) for _ in range(length))
    assert a.fold(p, k) == a.divrem_monic((Poly.monomial(p) - 1) ** k)[1]
    if p > 1:
        assert CongruenceContext(p, k).reduce(a) == a.divrem_monic(modulus(p, k))[1]


@given(polys)
def test_reduce_is_idempotent(a):
    ctx = CongruenceContext(5, 2)
    assert ctx.reduce(ctx.reduce(a)) == ctx.reduce(a)


@given(polys)
def test_congruent_is_reflexive(a):
    assert CongruenceContext(5, 2).reduce(a - a).is_zero()


@given(polys)
def test_reduce_preserves_value_at_one_mod_p_to_k(a):
    # [p]_q evaluates to p at q=1, so reduction cannot change the residue
    # of the coefficient sum modulo p^k.
    ctx = CongruenceContext(5, 2)
    assert ctx.reduce(a).eval_at_one() % 25 == a.eval_at_one() % 25


def test_congruent_q_to_the_p():
    assert CongruenceContext(5, 1).reduce(Poly.monomial(5) - 1).is_zero()


def test_congruence_gap_between_square_and_cube():
    # The Babbage-level congruence holds mod [5]^2 but not mod [5]^3.
    lhs = q_binomial(10, 5)
    rhs = q_binomial(2, 1).substitute_power(25)
    assert CongruenceContext(5, 2).reduce(lhs - rhs).is_zero()
    assert not CongruenceContext(5, 3).reduce(lhs - rhs).is_zero()


@given(polys, polys, polys, polys)
def test_congruence_respects_ring_operations(a, c, t, u):
    ctx = CongruenceContext(5, 2)
    b = a + ctx.modulus * t
    d = c + ctx.modulus * u
    assert ctx.reduce((a + c) - (b + d)).is_zero()
    assert ctx.reduce(a * c - b * d).is_zero()


PRIMES_TO_23 = [p for p in range(2, 24) if is_prime(p)]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("p", PRIMES_TO_23)
def test_mul_is_the_reduced_schoolbook_product_on_block_units(p, k):
    # the operands of binomial_residue's products: the block units V(1) and
    # V(2) modulo ([p]_q)^k, a Newton-form combination and 1 - V(1); from
    # p = 5 on, V(1) has at most 3 nonzero coefficients up to k = 3 and is
    # dense from k = 4 on
    v1, v2 = (binomial_residue(j * p + p - 1, p - 1, p, k) for j in (1, 2))
    if p >= 5:
        nonzero = sum(map(bool, v1.coeffs))
        assert nonzero <= 3 if k <= 3 else nonzero >= len(v1.coeffs) - 1
    ctx = CongruenceContext(p, k)
    operands = [v1, v2, 3 * v2 - 2 * v1, 1 - v1]
    for f in operands:
        for g in operands:
            assert ctx.mul(f, g) == ctx.reduce(f * g)


@given(hst.sampled_from(PRIMES_TO_23), hst.integers(1, 5),
       hst.lists(hst.integers(-(2**64), 2**64), max_size=120).map(Poly), polys)
def test_mul_is_the_reduced_schoolbook_product(p, k, f, g):
    ctx = CongruenceContext(p, k)
    assert ctx.mul(f, g) == ctx.reduce(f * g) == ctx.mul(g, f)


def test_frac_congruent_trivial():
    ctx = CongruenceContext(5, 2)
    one = Poly([1])
    assert ctx.frac_congruent(one, one, one)


def test_frac_congruent_exact_quotient():
    for p, k in ((3, 1), (5, 2), (7, 3)):
        ctx = CongruenceContext(p, k)
        assert ctx.frac_congruent(Poly([1, 2, 1]), Poly([1, 1]), Poly([1, 1]))


def test_frac_congruent_rejects_non_unit_denominator():
    ctx = CongruenceContext(5, 2)
    with pytest.raises(DenominatorNotUnitError):
        ctx.frac_congruent(Poly([1]), q_number(5), Poly([1]))
    with pytest.raises(DenominatorNotUnitError):
        ctx.frac_congruent(Poly([1]), q_number(5) * Poly([3, 1]), Poly([1]))
    # Coprime to [p]_q over Q, yet p divides D(1): not units in Z_(p)[q].
    cases = [(5, Poly([5])), (5, Poly([4, 1])), (3, Poly([12]))]
    cases += [(p, Poly([-1, 1])) for p in (3, 5, 7)]
    for p, den in cases:
        with pytest.raises(DenominatorNotUnitError):
            CongruenceContext(p, 2).frac_congruent(Poly([1]), den, Poly([1]))


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
    plain = ctx.frac_congruent(Poly(num), den_p, r_p)
    scaled = ctx.frac_congruent(Poly(num) * g_p, den_p * g_p, r_p)
    assert plain == scaled


def test_frac_congruent_rejects_zero_denominator():
    with pytest.raises(DenominatorNotUnitError):
        CongruenceContext(5, 2).frac_congruent(Poly([1]), Poly(), Poly([1]))


def test_harmonic_sum_p3_as_fraction():
    # k(p-1) = 4 exceeds every degree involved, so reduce is the identity
    num, den = q_harmonic_sum(CongruenceContext(3, 2), 1)
    assert den == q_number(1) * q_number(2)
    # num/den == (2+q)/(1+q), checked by cross-multiplication
    assert num * Poly([1, 1]) == Poly([2, 1]) * den


def test_harmonic_sum_validation():
    with pytest.raises(ValueError):
        q_harmonic_sum(CongruenceContext(5, 1), 3)
    with pytest.raises(ValueError):
        q_harmonic_sum(CongruenceContext(2, 1), 1)
    with pytest.raises(ValueError):
        q_double_harmonic(CongruenceContext(2, 1))
    with pytest.raises(ValueError):  # NotPrimeError: no context exists at p = 4
        CongruenceContext(4, 1)


def test_harmonic_sum_p5_congruences():
    # sum 1/[i] = -2(q-1) + (q-1)^2 [5]_q  mod [5]^2
    ctx2 = CongruenceContext(5, 2)
    rhs = -2 * Poly([-1, 1]) + Poly([-1, 1]) ** 2 * q_number(5)
    assert ctx2.frac_congruent(*q_harmonic_sum(ctx2, 1), rhs)
    # sum 1/[i]^2 = 0  mod [5]  (the scalar (p-1)(p-5)/12 vanishes at p=5)
    ctx1 = CongruenceContext(5, 1)
    assert ctx1.frac_congruent(*q_harmonic_sum(ctx1, 2), Poly())


def test_double_harmonic_p3_as_fraction():
    num, den = q_double_harmonic(CongruenceContext(3, 2))
    # single term 1/([1][2]) == 1/(1+q)
    assert num * Poly([1, 1]) == den


def test_double_harmonic_p5_congruence():
    ctx = CongruenceContext(5, 1)
    assert ctx.frac_congruent(*q_double_harmonic(ctx), 2 * Poly([-1, 1]) ** 2)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_double_harmonic_vs_square_identity(p):
    # q_double_harmonic is e2/e0, over H1's denominator [p-1]_q!; check it
    # against sympy's exact sum over i < j.  With k = p - 1, k(p-1) exceeds
    # deg [p-1]_q! = (p-1)(p-2)/2, so reduce is the identity and the sums
    # are the full-size ones.
    sympy = pytest.importorskip("sympy")
    field, q = sympy.field("q", sympy.QQ)

    def frac(poly):
        return sum((c * q**e for e, c in enumerate(poly.coeffs)), field.zero)

    x = [1 / sum(q**e for e in range(i)) for i in range(1, p)]
    exact = sum((x[i] * x[j] for j in range(len(x)) for i in range(j)), field.zero)
    ctx = CongruenceContext(p, p - 1)
    num, den = q_double_harmonic(ctx)
    assert frac(num) == exact * frac(den)
    assert den == q_harmonic_sum(ctx, 1)[1]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_harmonic_denominators_are_units(p):
    for k in (1, 2, 3):
        ctx = CongruenceContext(p, k)
        for s in (1, 2):
            den = q_harmonic_sum(ctx, s)[1]
            assert ctx.reduce(den - q_factorial(p - 1) ** s).is_zero()
            assert ctx.frac_congruent(den, den, Poly([1]))


PRIMES_TO_61 = [p for p in range(3, 62) if is_prime(p)]


def _at_one_gap(pair: tuple[Poly, Poly], expected: Fraction) -> int:
    """num(1) / den(1) - expected, cleared of both denominators."""
    num, den = pair
    return num.eval_at_one() * expected.denominator - expected.numerator * den.eval_at_one()


@pytest.mark.parametrize("p", PRIMES_TO_61)
def test_harmonic_sum_specializes_to_harmonic_numbers(p):
    # M(1) = p^k, so at q = 1 each reduced pair still gives its integer sum,
    # sum 1/i, sum 1/i^2 or sum_{i<j} 1/(ij), modulo p^k
    h1 = sum(Fraction(1, i) for i in range(1, p))
    h2 = sum(Fraction(1, i * i) for i in range(1, p))
    double = sum(Fraction(1, i * j) for j in range(1, p) for i in range(1, j))
    for k in (1, 2, 3, 4):
        ctx = CongruenceContext(p, k)
        assert _at_one_gap(q_harmonic_sum(ctx, 1), h1) % p**k == 0
        assert _at_one_gap(q_harmonic_sum(ctx, 2), h2) % p**k == 0
        assert _at_one_gap(q_double_harmonic(ctx), double) % p**k == 0


@pytest.mark.parametrize("p", PRIMES_TO_61)
def test_harmonic_pairs_satisfy_newtons_identity(p):
    # no oracle: the double sum shares H1's denominator, and
    # sum 1/[i]^2 = H1^2 - 2 H2' holds between the three reduced pairs
    for k in (1, 2, 3, 4):
        ctx = CongruenceContext(p, k)
        num1, den1 = q_harmonic_sum(ctx, 1)
        num2, den2 = q_harmonic_sum(ctx, 2)
        dh_num, dh_den = q_double_harmonic(ctx)
        assert dh_den == den1
        assert ctx.reduce(num2 - num1 * num1 + 2 * dh_num * den1).is_zero()
        assert ctx.reduce(den2 - den1 * den1).is_zero()


HARMONIC_GRID = [(p, k) for p in (3, 5, 7, 11, 13) for k in (1, 2, 3, 4)]


@pytest.mark.parametrize("p,k", HARMONIC_GRID)
def test_reduced_harmonic_sums_match_full_oracle(p, k):
    ctx = CongruenceContext(p, k)
    for s in (1, 2):
        num, den = q_harmonic_full(p, s)
        assert q_harmonic_sum(ctx, s) == (ctx.reduce(num), ctx.reduce(den))
    num, den = q_double_harmonic_full(p)
    assert q_double_harmonic(ctx) == (ctx.reduce(num), ctx.reduce(den))


@pytest.mark.parametrize("p,k", [(p, k) for p, k in HARMONIC_GRID if p >= 5 and k <= 3])
def test_reduced_harmonic_residues_match_full_oracle_on_failure(p, k):
    # The Shi-Pan right sides plus 1 fail, and the witness reduce(num - r*den)
    # from the reduced sums is the oracle's, residue for residue.
    ctx = CongruenceContext(p, k)
    qm1 = Poly([-1, 1])
    cases = [
        (q_harmonic_sum(ctx, 1), q_harmonic_full(p, 1),
         -(p - 1) // 2 * qm1 + (p * p - 1) // 24 * qm1 ** 2 * q_number(p)),
        (q_harmonic_sum(ctx, 2), q_harmonic_full(p, 2),
         -((p - 1) * (p - 5) // 12) * qm1 ** 2),
        (q_double_harmonic(ctx), q_double_harmonic_full(p),
         (p - 1) * (p - 2) // 6 * qm1 ** 2),
    ]
    for (num, den), (full_num, full_den), rhs in cases:
        r = rhs + 1
        residue = ctx.reduce(num - r * den)
        assert not residue.is_zero()
        assert not ctx.frac_congruent(num, den, r)
        assert residue == ctx.reduce(full_num - r * full_den)


@pytest.mark.parametrize("s", [1, 2])
def test_harmonic_sum_takes_no_general_product(monkeypatch, s):
    # times [i]_q is a prefix sum: the fill must take no product at all, and it
    # ends with one reduce of each of e0, e1 and e2; s = 1 reads two of them as
    # they are, and s = 2 takes three packed products and reduces two results;
    # Poly.__mul__ is never reached
    ctx = CongruenceContext(31, 3)
    expected = q_harmonic_sum(ctx, s)
    mul, packed = Poly.__mul__, congruence.packed_product
    schoolbook, calls = [], []

    def counted_mul(self, other):
        schoolbook.append(other)
        return mul(self, other)

    def counted_packed(f, g):
        calls.append(g)
        return packed(f, g)

    reduces = []
    reduce = CongruenceContext.reduce

    def counted_reduce(self, a):
        reduces.append(a)
        return reduce(self, a)

    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    monkeypatch.setattr(Poly, "__rmul__", counted_mul)
    monkeypatch.setattr(congruence, "packed_product", counted_packed)
    monkeypatch.setattr(CongruenceContext, "reduce", counted_reduce)
    congruence._harmonic_sums.cache_clear()
    congruence._harmonic_sums(31, 3)
    assert (len(calls), len(reduces)) == (0, 3)
    assert q_harmonic_sum(ctx, s) == expected
    assert congruence._harmonic_sums.cache_info().misses == 1
    assert (len(calls), len(reduces)) == ((0, 3), (3, 5))[s - 1]
    assert schoolbook == []


@pytest.mark.parametrize("p", [5, 7, 13])
def test_low_k_pairs_do_not_depend_on_what_was_asked_first(p):
    def pairs(ks):
        return {k: [q_harmonic_sum(CongruenceContext(p, k), s) for s in (1, 2)] for k in ks}

    congruence._harmonic_sums.cache_clear()
    low_first = pairs((1, 2))
    congruence._harmonic_sums.cache_clear()
    high_first = pairs((3, 1, 2))
    assert {k: high_first[k] for k in (1, 2)} == low_first


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("p", [p for p in range(5, 62) if is_prime(p)])
def test_harmonic_sums_match_the_per_k_loop(p, k):
    # The cached sums, built once modulo ([p]_q)^max(k,3) with folds, against
    # a loop that divides by ([p]_q)^k at every step; the Shi-Pan right sides
    # plus 1 fail, with the same residue from either pair.
    ctx = CongruenceContext(p, k)
    singles = [q_harmonic_per_k(p, k, s) for s in (1, 2)]
    assert [q_harmonic_sum(ctx, s) for s in (1, 2)] == singles
    double = q_double_harmonic_per_k(p, k)
    assert q_double_harmonic(ctx) == double
    qm1 = Poly([-1, 1])
    cases = [
        (q_harmonic_sum(ctx, 1), singles[0],
         -(p - 1) // 2 * qm1 + (p * p - 1) // 24 * qm1 ** 2 * q_number(p)),
        (q_harmonic_sum(ctx, 2), singles[1], -((p - 1) * (p - 5) // 12) * qm1 ** 2),
        (q_double_harmonic(ctx), double, (p - 1) * (p - 2) // 6 * qm1 ** 2),
    ]
    for pair, oracle, rhs in cases:
        r = rhs + 1
        residue = ctx.frac_residue(*pair, r)
        assert not residue.is_zero()
        assert residue == ctx.reduce(oracle[0] - r * oracle[1])


@given(
    p=hst.sampled_from([2, 3, 5, 7, 11, 13]),
    cap=hst.integers(1, 5),
    j=hst.integers(0, 7),
    cofactor=hst.one_of(hst.none(), polys),
)
def test_valuation_matches_the_per_k_loop(p, cap, j, cofactor):
    # f = [p]_q^j * u, u random (zero included) or, for None, the constant p,
    # a non-unit that [p]_q does not divide; for a unit u the valuation is
    # exactly min(j, cap)
    u = Poly([p]) if cofactor is None else cofactor
    f = modulus(p, j) * u if j else u
    v = CongruenceContext(p, cap).valuation(f)
    assert v == valuation_per_k(p, cap, f)
    if u.eval_at_one() % p:
        assert v == min(j, cap)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_valuation_edge_cases(p):
    ctx = CongruenceContext(p, 4)
    assert ctx.valuation(Poly()) == 4
    assert ctx.valuation(Poly([p])) == 0
    assert ctx.valuation(modulus(p, 2) * p) == 2
    assert ctx.valuation(modulus(p, 9)) == 4
