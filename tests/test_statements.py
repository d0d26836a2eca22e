"""Statement checks: identities, congruences, and their negative controls."""

from __future__ import annotations

import functools
import math

import pytest
from conftest import (
    expansion_sum, list_add, list_mul, list_shift, qbinom_pascal, shadow_binomial,
    shadow_image,
)
from hypothesis import given, settings, strategies as hst

import qcong.congruence as congruence
import qcong.statements as statements
from qcong.congruence import CongruenceContext, q_double_harmonic, q_harmonic_sum
from qcong.poly import Poly
from qcong.qanalogs import is_prime, modulus, q_binomial, q_number
from qcong.statements import (
    STATEMENT_IDS,
    CheckResult,
    PrecondViolationError,
    check_clark,
    check_classical,
    check_cong2,
    check_convolution_identity,
    check_double_harmonic,
    check_expansion_identity,
    check_jacobsthal,
    check_power_reduction,
    check_q_ljunggren,
    check_q_wolstenholme,
    check_qchu,
    check_shipan,
)


def test_catalog_is_sorted_and_fixed():
    assert list(STATEMENT_IDS) == sorted(STATEMENT_IDS)
    assert len(set(STATEMENT_IDS)) == 12


def test_check_result_verdict_follows_the_residue():
    res = CheckResult({}, Poly())
    assert res.passed and res.witness is None
    res = CheckResult({}, Poly([0, 3]))
    assert not res.passed and res.witness == res.residue == Poly([0, 3])


# --- exact identities -------------------------------------------------------


def test_qchu_smallest_case():
    res = check_qchu(1, 1, 1)
    assert res.passed and res.witness is None
    assert res.params == {"m": 1, "n": 1, "k": 1}


def test_qchu_2_2_2_against_oracle():
    # Both sides expanded with the independent Pascal-recurrence oracle.
    lhs = qbinom_pascal(4, 2)
    rhs: list[int] = []
    m = n = k = 2
    for j in range(max(0, k - n), min(m, k) + 1):
        term = list_shift(
            list_mul(qbinom_pascal(m, j), qbinom_pascal(n, k - j)), j * (n - k + j)
        )
        rhs = list_add(rhs, term)
    assert lhs == rhs
    assert check_qchu(2, 2, 2).passed


def test_qchu_empty_selection():
    assert check_qchu(3, 4, 0).passed
    assert check_qchu(0, 0, 0).passed


def test_qchu_sweep():
    for m in range(6):
        for n in range(6):
            for k in range(m + n + 2):
                assert check_qchu(m, n, k).passed, (m, n, k)


def _fake_binomial(monkeypatch, n0: int, k0: int):
    """Route the checks' q_binomial through C_q(n0, k0) + 1 and return the
    Pascal oracle faked the same way, as a coefficient-list function."""
    real = statements.q_binomial

    def bump(n: int, k: int) -> int:
        return int((n, k) == (n0, k0))

    monkeypatch.setattr(statements, "q_binomial", lambda n, k: real(n, k) + bump(n, k))
    return lambda n, k: list_add(qbinom_pascal(n, k), [bump(n, k)])


def test_qchu_fails_with_the_exact_residue_of_a_faked_factor(monkeypatch):
    fake = _fake_binomial(monkeypatch, 2, 1)
    m, n, k = 2, 3, 2
    rhs: list[int] = []
    for j in range(k + 1):
        term = list_mul(fake(m, j), fake(n, k - j))
        rhs = list_add(rhs, list_shift(term, j * (n - k + j)))
    res = check_qchu(m, n, k)
    assert not res.passed
    assert res.residue == Poly(qbinom_pascal(5, 2)) - Poly(rhs)


def test_qchu_rejects_negative_arguments():
    with pytest.raises(PrecondViolationError):
        check_qchu(-1, 2, 1)


def test_expansion_identity_small_primes():
    assert check_expansion_identity(3, 2, 1).passed
    assert check_expansion_identity(5, 2, 1).passed
    assert check_expansion_identity(2, 3, 2).passed


def test_expansion_identity_degenerate_b():
    res = check_expansion_identity(7, 3, 0)
    assert res.passed
    assert check_expansion_identity(5, 4, 4).passed


def test_expansion_identity_budget():
    with pytest.raises(PrecondViolationError, match="exceeds the budget"):
        check_expansion_identity(5, 10, 1, budget=10**5)


def test_expansion_identity_preconditions():
    with pytest.raises(PrecondViolationError):
        check_expansion_identity(4, 2, 1)
    with pytest.raises(PrecondViolationError):
        check_expansion_identity(5, 2, 3)


@pytest.mark.parametrize("p, a", [(p, a) for p in (2, 3, 5) for a in (2, 3, 4)])
def test_expansion_right_side_matches_the_composition_oracle(monkeypatch, p, a):
    # Only C_q(ap, bp) reads as zero (a >= 2 leaves every factor C_q(p, c)
    # genuine), so the residue is minus the check's right side.
    real = statements.q_binomial
    monkeypatch.setattr(statements, "q_binomial",
                        lambda n, k: Poly() if n == a * p else real(n, k))
    for b in range(a + 1):
        res = check_expansion_identity(p, a, b)
        assert -res.residue == Poly(expansion_sum(p, a, b)), b


def test_convolution_identity_p2_by_hand():
    # left side (1+q)^2 q, right side C_q(4,2) - (1+q^4) = q + 2q^2 + q^3
    assert q_binomial(2, 1) ** 2 * Poly.monomial(1) == Poly([0, 1, 2, 1])
    assert q_binomial(4, 2) - Poly([1]) - Poly.monomial(4) == Poly([0, 1, 2, 1])
    assert check_convolution_identity(2).passed


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_convolution_identity(p):
    assert check_convolution_identity(p).passed


@pytest.mark.parametrize("p, d0", [(2, 1), (3, 1), (5, 2)])
def test_convolution_fails_with_the_exact_residue_of_a_faked_factor(monkeypatch, p, d0):
    fake = _fake_binomial(monkeypatch, p, d0)
    lhs: list[int] = []
    for d in range(1, p):
        lhs = list_add(lhs, list_shift(list_mul(fake(p, d), fake(p, p - d)), d * d))
    res = check_convolution_identity(p)
    assert not res.passed
    expected = Poly(lhs) - (Poly(qbinom_pascal(2 * p, p)) - 1 - Poly.monomial(p * p))
    assert res.residue == expected


# --- congruences ------------------------------------------------------------


@pytest.mark.parametrize("p,a,b", [(5, 2, 1), (3, 2, 1), (2, 2, 1), (3, 4, 2)])
def test_clark(p, a, b):
    assert check_clark(p, a, b).passed


def test_clark_degenerate():
    res = check_clark(5, 3, 3)
    assert res.passed


def test_clark_fails_at_higher_exponent():
    # The k_override hook: Clark's congruence is sharp at k=2.
    assert not check_clark(5, 2, 1, k=3).passed


def test_q_ljunggren_example_p13():
    res = check_q_ljunggren(13, 2, 1)
    assert res.passed
    assert res.params == {"p": 13, "a": 2, "b": 1, "k": 3}


def test_q_ljunggren_p5():
    assert check_q_ljunggren(5, 2, 1).passed


def test_q_ljunggren_degenerate():
    assert check_q_ljunggren(5, 3, 3).passed
    assert check_q_ljunggren(5, 3, 0).passed


def test_q_ljunggren_rejects_small_primes():
    with pytest.raises(PrecondViolationError):
        check_q_ljunggren(3, 2, 1)
    with pytest.raises(PrecondViolationError):
        check_q_ljunggren(2, 2, 1)


@pytest.mark.parametrize("p,a,b", [(5, 3, 1), (5, 2, 1), (7, 4, 2)])
def test_cong2(p, a, b):
    assert check_cong2(p, a, b).passed


def test_cong2_rejects_small_primes():
    with pytest.raises(PrecondViolationError):
        check_cong2(3, 2, 1)


@pytest.mark.parametrize("p", [5, 13])
def test_q_wolstenholme(p):
    assert check_q_wolstenholme(p).passed


def test_q_wolstenholme_rejects_p3():
    with pytest.raises(PrecondViolationError):
        check_q_wolstenholme(3)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_q_wolstenholme_agrees_with_central_q_ljunggren(p):
    assert check_q_wolstenholme(p).passed == check_q_ljunggren(p, 2, 1).passed


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_correction_term_is_necessary(p):
    # Without the (p^2-1)/12 correction the congruence fails mod [p]^3
    # while Clark's mod [p]^2 version still holds: the gap is real.
    lhs = q_binomial(2 * p, p)
    rhs = q_number(2).substitute_power(p * p)
    assert CongruenceContext(p, 2).reduce(lhs - rhs).is_zero()
    assert not CongruenceContext(p, 3).reduce(lhs - rhs).is_zero()


@pytest.mark.parametrize(
    "p,a,b", [(5, 2, 1), (5, 3, 2), (7, 2, 1), (7, 4, 1), (11, 3, 2)]
)
def test_q_ljunggren_specializes_to_classical(p, a, b):
    # At q=1 the q-congruence must reproduce the integer verdict.
    qres = check_q_ljunggren(p, a, b)
    cres = check_classical(p, a, b)
    assert qres.passed
    assert cres.params["binom_ok"] == 1


def test_shipan_p5():
    res = check_shipan(5)
    assert res.passed
    assert res.params == {"p": 5, "harmonic1_ok": 1, "harmonic2_ok": 1}


def test_shipan_p7():
    assert check_shipan(7).passed


def test_shipan_reports_a_failing_second_part(monkeypatch):
    real = statements.q_harmonic_sum

    def second_numerator_plus_one(ctx, s):
        num, den = real(ctx, s)
        return (num + 1 if s == 2 else num), den

    monkeypatch.setattr(statements, "q_harmonic_sum", second_numerator_plus_one)
    res = check_shipan(7)
    assert res.params == {"p": 7, "harmonic1_ok": 1, "harmonic2_ok": 0}
    ctx = CongruenceContext(7, 1)
    num, den = second_numerator_plus_one(ctx, 2)
    rhs2 = -((7 - 1) * (7 - 5) // 12) * Poly([-1, 1]) ** 2
    assert res.witness == ctx.reduce(num - rhs2 * den)


def test_shipan_rejects_p3():
    with pytest.raises(PrecondViolationError):
        check_shipan(3)


@pytest.mark.parametrize("p,coeff", [(5, 2), (7, 5), (11, 15)])
def test_double_harmonic(p, coeff):
    res = check_double_harmonic(p)
    assert res.passed
    assert (p - 1) * (p - 2) // 6 == coeff


def test_double_harmonic_rejects_p3():
    with pytest.raises(PrecondViolationError):
        check_double_harmonic(3)


@pytest.mark.parametrize("p", [5, 7])
def test_power_reduction(p):
    res = check_power_reduction(p)
    assert res.passed
    assert res.params["harmonic_form_ok"] == 1
    assert res.params["central_reduction_ok"] == 1
    assert res.params["two_power_ok"] == 1


def test_power_reduction_reports_a_failing_third_part(monkeypatch):
    real = statements._two_power
    monkeypatch.setattr(statements, "_two_power", lambda p: real(p) + 1)
    res = check_power_reduction(7)
    assert list(res.params.items()) == [
        ("p", 7), ("harmonic_form_ok", 1), ("central_reduction_ok", 1), ("two_power_ok", 0),
    ]
    qp1 = Poly.monomial(7) - 1
    rhs3 = 2 + 7 * qp1 + (6 * 7 // 2) * qp1 ** 2
    assert res.witness == CongruenceContext(7, 3).reduce(real(7) + 1 - rhs3)


def test_power_reduction_scalars_p5():
    assert (5 - 1) * (5 * 5 - 1) // 12 == 8
    assert (5 - 1) * 5 // 2 == 10


def test_power_reduction_rejects_p3():
    with pytest.raises(PrecondViolationError):
        check_power_reduction(3)


@pytest.fixture
def cold_binomial_residues():
    """Clear the shared residues before and after a test that fakes or logs
    their builds."""
    residues = statements.binomial_residue
    residues.cache_clear()
    yield
    residues.cache_clear()


def _binomial_congruences(p: int):
    """Every instance of the six checks that read C_q(ap, bp)'s cached residue,
    at p with a <= 4, as (check, args) pairs."""
    yield check_q_wolstenholme, (p,)
    yield check_power_reduction, (p,)
    for a in range(5):
        for b in range(a + 1):
            for check in (check_clark, check_cong2, check_q_ljunggren):
                yield check, (p, a, b)
            if 0 < b < a:
                yield check_jacobsthal, (p, a, b)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_binomial_congruences_build_no_large_binomial(monkeypatch, cold_binomial_residues, p):
    # cold: C_q(ap, bp) reaches its residue from the block units
    # C_q(jp + p - 1, p - 1) and the small C_q(a, b), a <= 4 < p; every
    # q_binomial(n, k) asked for has min(k, n - k) < p
    expected = [check(*args) for check, args in _binomial_congruences(p)]
    statements.binomial_residue.cache_clear()
    real, asked = statements.q_binomial, []

    def logged(n: int, k: int) -> Poly:
        asked.append((n, k))
        return real(n, k)

    monkeypatch.setattr(statements, "q_binomial", logged)
    assert [check(*args) for check, args in _binomial_congruences(p)] == expected
    assert (2 * p - 1, p - 1) in asked
    assert [(n, k) for n, k in asked if min(k, n - k) >= p] == []


@pytest.mark.parametrize("p", [5, 7, 11])
def test_a_faked_central_binomial_fails_as_the_peeled_formulas_say(
    monkeypatch, cold_binomial_residues, p
):
    # C_q(2p, p) + q^3, both as the convolution's exact build and as the shared
    # residue that power_reduction reads: the peeled convolution left minus
    # C_q(2p, p) - (1 + q^(p^2)) is -q^3, and power_reduction's first two parts
    # fail with the third intact, the first with the residue of -q^3 cleared
    # over dh_den
    bump = {(2 * p, p): Poly.monomial(3)}
    real_binomial, real_residue = statements.q_binomial, statements.binomial_residue
    monkeypatch.setattr(statements, "q_binomial",
                        lambda n, k: real_binomial(n, k) + bump.get((n, k), 0))
    monkeypatch.setattr(statements, "binomial_residue",
                        lambda n, k, *rest: real_residue(n, k, *rest) + bump.get((n, k), 0))
    assert check_convolution_identity(p).residue == -Poly.monomial(3)
    res = check_power_reduction(p)
    assert list(res.params.items()) == [
        ("p", p), ("harmonic_form_ok", 0), ("central_reduction_ok", 0), ("two_power_ok", 1),
    ]
    ctx = CongruenceContext(p, 3)
    _, dh_den = q_double_harmonic(ctx)
    assert res.residue == ctx.reduce(-Poly.monomial(3) * dh_den)


# --- the integer layer ------------------------------------------------------


def test_classical_p5():
    res = check_classical(5, 2, 1)
    assert res.passed
    assert math.comb(10, 5) - math.comb(2, 1) == 250


def test_classical_p13():
    assert check_classical(13, 2, 1).passed


def test_classical_p3_is_the_negative_control():
    res = check_classical(3, 2, 1)
    assert not res.passed
    assert res.params["binom_ok"] == 0
    assert math.comb(6, 3) % 27 == 20
    assert res.witness == Poly([18])


def test_classical_reports_the_first_failing_part():
    # at p = 3: binom(3, 0) = binom(1, 0), sum 1/i = 2/1 + 2/2 = 3 mod 9 and
    # sum 1/i^2 = 4/1 + 4/4 = 2 mod 3; the witness is the first failure's 3
    res = check_classical(3, 1, 0)
    assert res.params == {
        "p": 3, "a": 1, "b": 0, "binom_ok": 1, "harmonic1_ok": 0, "harmonic2_ok": 0,
    }
    assert res.witness == Poly([3])


def test_classical_runs_even_at_p2():
    # The integer congruences genuinely fail at p = 2; that is a verdict,
    # not a precondition error.
    res = check_classical(2, 2, 1)
    assert not res.passed


def test_classical_validation():
    with pytest.raises(PrecondViolationError):
        check_classical(4, 2, 1)
    with pytest.raises(PrecondViolationError):
        check_classical(5, 1, 2)


def test_jacobsthal_5_5_1():
    res = check_jacobsthal(5, 5, 1)
    assert isinstance(res, CheckResult)
    assert res.params["r"] == 2
    assert res.passed and res.witness is None
    assert math.comb(25, 5) == 53130
    assert (53130 - 5) == 17 * 3125


def test_jacobsthal_base_case():
    res = check_jacobsthal(5, 2, 1)
    assert isinstance(res, CheckResult)
    assert res.params["r"] == 0
    assert res.passed and res.witness is None


def test_jacobsthal_7_7_2():
    # v_7(7*2*5*21) = 2: both the explicit factor 7 and the 7 inside
    # binom(7,2) = 21 count, so the congruence sharpens to mod 7^5.
    res = check_jacobsthal(7, 7, 2)
    assert isinstance(res, CheckResult)
    assert res.params["r"] == 2
    assert res.passed and res.witness is None
    assert (math.comb(49, 14) - math.comb(7, 2)) % 7**5 == 0


def test_jacobsthal_q_exponent_is_at_least_three():
    for p, a, b in ((5, 5, 1), (7, 7, 2), (5, 3, 1)):
        res = check_jacobsthal(p, a, b)
        assert isinstance(res, CheckResult) and res.witness is None
        assert 3 <= res.params["q_exponent"] <= 5


@pytest.mark.parametrize("j", [3, 4, 5, 6])
@pytest.mark.parametrize("p", [5, 7])
def test_jacobsthal_q_exponent_is_the_gap_valuation_capped_at_five(monkeypatch, p, j):
    # the real gaps all have valuation 3 on the catalog's grid, so feed gaps
    # of known valuation: ([p]_q)^j times the unit q + 2
    monkeypatch.setattr(statements, "_ljunggren_gap",
                        lambda p, a, b, k: modulus(p, j) * Poly([2, 1]))
    assert check_jacobsthal(p, 2, 1).params["q_exponent"] == min(j, 5)


def _count_reduces(monkeypatch) -> list[int]:
    """Patch CongruenceContext.reduce to log each call's k into the returned list."""
    calls = []
    reduce = CongruenceContext.reduce

    def counted_reduce(self, a):
        calls.append(self.k)
        return reduce(self, a)

    monkeypatch.setattr(CongruenceContext, "reduce", counted_reduce)
    return calls


def test_jacobsthal_reduces_its_gap_once(monkeypatch, cold_binomial_residues):
    # cold, C_q(49, 14)'s residue takes 10 reduces: the block units V(1..4)
    # it builds (V(0) is 1, and V(5) and V(6) are their Newton form), the
    # product V(5) V(6), the three Horner steps of the inverse of V(1) past its
    # start 2 - V(1), the unit part, and its sum of shifts by C_{q^7}(7, 2);
    # the short gap is one more; warm, only the gap is reduced
    calls = _count_reduces(monkeypatch)
    assert check_jacobsthal(7, 7, 2).params["q_exponent"] == 3
    assert calls == [5] * 11
    calls.clear()
    assert check_jacobsthal(7, 7, 2).params["q_exponent"] == 3
    assert calls == [5]


@pytest.mark.parametrize("k", [7, 13])
def test_a_symmetric_pair_is_one_residue(monkeypatch, cold_binomial_residues, k):
    # binomial_residue owns the symmetric key: whichever of k and n - k is
    # asked first, both return one object and the pair costs one reduce
    calls = _count_reduces(monkeypatch)
    first = statements.binomial_residue(20, k, 5, 3)
    assert statements.binomial_residue(20, 20 - k, 5, 3) is first
    assert calls == [3]


def test_a_failing_shipan_part_reduces_as_often_as_a_passing_one(monkeypatch):
    # every Shi-Pan right side off by one fails both parts; a residue costs
    # the same two reduces (r, then num - r * den) whether it is zero or not
    assert check_shipan(7).passed
    calls = _count_reduces(monkeypatch)
    assert check_shipan(7).passed
    passing = len(calls)
    calls.clear()
    monkeypatch.setattr(statements, "_exact_scalar", lambda n, d: n // d + 1)
    failed = check_shipan(7)
    assert (failed.params["harmonic1_ok"], failed.params["harmonic2_ok"]) == (0, 0)
    assert len(calls) == passing == 11


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_binomial_residues_keep_the_binomial_at_q_one(p):
    # M(1) = p^k, so every cached residue R of C_q(ap, bp) has
    # R(1) = binom(ap, bp) mod p^k; math.comb shares no code with the kernels
    for a in range(6):
        for b in range(a + 1):
            for k in range(1, 6):
                r = statements.binomial_residue(a * p, b * p, p, k)
                assert (r.eval_at_one() - math.comb(a * p, b * p)) % p ** k == 0, (a, b, k)


@pytest.mark.parametrize("p, a_max", [(5, 6), (7, 6), (11, 6), (13, 6), (23, 4)])
def test_binomial_residues_match_the_root_of_unity_shadow(p, a_max):
    # every cached residue R of C_q(ap, bp) has the product formula's image
    # under q -> w(1 + e); q maps to a unit, so R + q never does
    for a in range(a_max + 1):
        for b in range(a // 2 + 1):
            for k in range(1, 6):
                r = statements.binomial_residue(a * p, b * p, p, k)
                shadow = shadow_binomial(a * p, b * p, p, k)
                assert shadow_image(r, p, k) == shadow, (a, b, k)
                assert shadow_image(r + Poly.monomial(1), p, k) != shadow, (a, b, k)


@settings(deadline=None, max_examples=80)
@given(
    p=hst.sampled_from([n for n in range(62) if is_prime(n)]),
    ab=hst.integers(0, 6).flatmap(lambda a: hst.tuples(hst.just(a), hst.integers(0, a))),
    k=hst.integers(1, 5),
)
def test_binomial_residues_match_the_shadow_at_every_prime_to_61(p, ab, k):
    # the fixed grid's check past p = 23, and at b > a/2, where
    # binomial_residue hands back C_q(ap, (a-b)p)'s entry
    a, b = ab
    r = statements.binomial_residue(a * p, b * p, p, k)
    shadow = shadow_binomial(a * p, b * p, p, k)
    assert shadow_image(r, p, k) == shadow
    assert shadow_image(r + Poly.monomial(1), p, k) != shadow


@pytest.mark.parametrize("p", [67, 101, 211])
def test_binomial_residues_match_the_shadow_past_any_full_build(p):
    # up to C_q(12p, 6p), of degree 36p^2; at k = 3 the residue builds only
    # the block units C_q(2p - 1, p - 1) and C_q(3p - 1, p - 1)
    for a in range(2, 13):
        for b in range(1, a // 2 + 1):
            r = statements.binomial_residue(a * p, b * p, p, 3)
            shadow = shadow_binomial(a * p, b * p, p, 3)
            assert shadow_image(r, p, 3) == shadow, (a, b)
            assert shadow_image(r + Poly.monomial(1), p, 3) != shadow, (a, b)


@settings(deadline=None, max_examples=120)
@given(
    p=hst.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]),
    ab=hst.integers(0, 5).flatmap(lambda a: hst.tuples(hst.just(a), hst.integers(0, a))),
    k=hst.integers(1, 5),
)
def test_binomial_residues_match_the_full_build(p, ab, k):
    # the unit-part path against C_q(ap, bp) built in full and reduced, for
    # b > a/2 as well, where binomial_residue reads C_q(ap, (a-b)p)'s entry
    a, b = ab
    full = CongruenceContext(p, k).reduce(q_binomial(a * p, b * p))
    assert statements.binomial_residue(a * p, b * p, p, k) == full


def test_a_residue_at_a_1200_matches_the_full_build():
    # a = 1200: C_q(6000, 10)'s unit part reads V(1198) and V(1199), which are
    # Newton forms far past the built V(0..2)
    full = CongruenceContext(5, 3).reduce(q_binomial(6000, 10))
    assert statements.binomial_residue(6000, 10, 5, 3) == full


def test_a_residue_of_150_blocks_over_150_matches_the_shadow():
    # C_q(1500, 750) at p = 5: the product of the block units V(150..299)
    # over that of V(0..149), which is inverted
    r = statements.binomial_residue(1500, 750, 5, 3)
    shadow = shadow_binomial(1500, 750, 5, 3)
    assert shadow_image(r, 5, 3) == shadow
    assert shadow_image(r + Poly.monomial(1), 5, 3) != shadow


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_block_units_are_units_and_newton_forms(p):
    # V(t) = C_q(tp + p - 1, p - 1) as a one-factor block product: Newton's
    # form on V(0..min(k - 1, t)), against the full build for every t < 12;
    # V(t) = 1 modulo [p]_q (q-Lucas), and V times its inverse is 1 modulo
    # ([p]_q)^k; and the product over 1 <= j < 12, which crosses t = k, is the
    # reduced product of the full builds
    for k in range(1, 6):
        ctx = CongruenceContext(p, k)
        full = [ctx.reduce(q_binomial(t * p + p - 1, p - 1)) for t in range(12)]
        for t in range(12):
            v = statements._block_product(ctx, range(t, t + 1))
            assert v == full[t], (k, t)
            assert v.divrem_monic(q_number(p))[1] == 1, (k, t)
            assert ctx.reduce(v * statements._unit_inverse(ctx, v)) == 1, (k, t)
        product = functools.reduce(lambda f, g: ctx.reduce(f * g), full[1:])
        assert statements._block_product(ctx, range(1, 12)) == product, k


def test_a_block_product_builds_each_unit_once(monkeypatch):
    # V(1..39) at p = 5, k = 3: V(0) = 1 is not built, V(1) = C_q(9, 4) and
    # V(2) = C_q(14, 4) are asked for once each, and every other V(j) is
    # their Newton form
    real, asked = statements.binomial_residue, []

    def logged(*args: int) -> Poly:
        asked.append(args)
        return real(*args)

    monkeypatch.setattr(statements, "binomial_residue", logged)
    statements._block_product(CongruenceContext(5, 3), range(1, 40))
    assert asked == [(9, 4, 5, 3), (14, 4, 5, 3)]


@given(
    p=hst.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]),
    ab=hst.integers(0, 5).flatmap(lambda a: hst.tuples(hst.just(a), hst.integers(0, a))),
    k=hst.integers(1, 5),
    scale=hst.integers(-3, 3),
)
def test_binomial_gap_reduces_like_the_full_gap(p, ab, k, scale):
    # the short gap against C_q(ap, bp) - C_{q^(p^2)}(a, b) - correction built
    # at full size, with a multiple of the Ljunggren correction: FAILs included
    a, b = ab
    corr = scale * (Poly.monomial(p) - 1) ** 2
    full = q_binomial(a * p, b * p) - q_binomial(a, b).substitute_power(p * p) - corr
    ctx = CongruenceContext(p, k)
    assert ctx.reduce(statements._binomial_gap(p, a, b, k, corr)) == ctx.reduce(full)


@pytest.mark.parametrize("check,count", [
    (check_shipan, 11), (check_double_harmonic, 4), (check_power_reduction, 4),
])
def test_passing_fraction_checks_reduce_r_once(monkeypatch, check, count):
    # warm: the elementary symmetric sums are cached at k = 3, so at k < 3 the
    # look-up reduces those it reads (two for s = 1 and the double sum, three
    # for s = 2), s = 2 reduces its two products, and frac_residue reduces r
    # once and then num - r * den
    assert check(7).passed
    calls = _count_reduces(monkeypatch)
    assert check(7).passed
    assert len(calls) == count


@pytest.mark.parametrize("p", [5, 7, 31])
def test_passing_power_reduction_takes_one_general_product(monkeypatch, p):
    # warm: H1 and H2' share the denominator [p-1]_q!, and (q^p - 1)^2 is a
    # substitution, so the one product of two polynomials is C_q(2p, p) times
    # that denominator, packed inside frac_residue; Poly.__mul__ takes none
    assert check_power_reduction(p).passed
    den = q_harmonic_sum(CongruenceContext(p, 3), 1)[1]
    mul, packed = Poly.__mul__, congruence.packed_product
    schoolbook, products = [], []

    def counted_mul(self, other):
        if isinstance(other, Poly):
            schoolbook.append(other)
        return mul(self, other)

    def counted_packed(f, g):
        products.append(g)
        return packed(f, g)

    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    monkeypatch.setattr(Poly, "__rmul__", counted_mul)
    monkeypatch.setattr(congruence, "packed_product", counted_packed)
    assert check_power_reduction(p).passed
    assert products == [den]
    assert schoolbook == []


def test_jacobsthal_validation():
    with pytest.raises(PrecondViolationError):
        check_jacobsthal(3, 2, 1)
    with pytest.raises(PrecondViolationError):
        check_jacobsthal(5, 2, 0)
    with pytest.raises(PrecondViolationError):
        check_jacobsthal(5, 2, 2)


def test_jacobsthal_identity_holds_generally():
    for a in range(1, 21):
        for b in range(1, a):
            lhs = a * b * (a - b) * math.comb(a, b)
            assert lhs == 2 * a * math.comb(a, b + 1) * math.comb(b + 1, 2)


def test_witness_reports_the_reduced_difference():
    res = check_clark(5, 2, 1, k=3)
    assert not res.passed
    ctx = CongruenceContext(5, 3)
    expected = ctx.reduce(q_binomial(10, 5) - q_binomial(2, 1).substitute_power(25))
    assert res.witness == expected
