"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with ``pytest -s`` to see them all).

Every expected value is either pinned from an independent computation
(integer arithmetic, the Pascal-recurrence oracle, long division done
separately) or is an exact structural property; there are no tolerances
anywhere.
"""

from __future__ import annotations

import random
from math import comb
from time import perf_counter

from conftest import qbinom_pascal

from qcong.congruence import CongruenceContext, DenominatorNotUnitError
from qcong.poly import Poly
from qcong.qanalogs import modulus, q_binomial
from qcong.statements import (
    CheckResult,
    check_clark,
    check_convolution_identity,
    check_expansion_identity,
    check_jacobsthal,
    check_q_ljunggren,
    check_q_wolstenholme,
    check_qchu,
    check_shipan,
)


def _verdict(tag: str, label: str, ok: bool) -> None:
    print(f"[criterion {tag}] {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"criterion {tag} failed: {label}"


def test_criterion_01_central_binomial_p13():
    t0 = perf_counter()
    mod = modulus(13, 3)
    lhs = q_binomial(26, 13)
    rhs = Poly([1]) + Poly.monomial(169) - 14 * (Poly.monomial(13) - 1) ** 2
    same_remainder = lhs.divrem_monic(mod)[1] == rhs.divrem_monic(mod)[1]
    cofactor = (lhs - rhs).exact_div(mod)
    coeffs_ok = cofactor.coeffs[0] == 14 and cofactor.coeffs[1] == -41
    elapsed = perf_counter() - t0
    _verdict(
        "01",
        f"q_binomial(26,13) = 1 + q^169 - 14(q^13-1)^2 mod ([13]_q)^3, "
        f"cofactor starts 14, -41 ({elapsed:.2f} s)",
        same_remainder and coeffs_ok and elapsed < 5.0,
    )


def test_criterion_02_q_equals_one_bridge():
    ok1 = q_binomial(26, 13).eval_at_one() % 13**3 == 2
    ok2 = comb(10, 5) == 252 and 252 % 125 == 2
    _verdict("02", "q=1 bridge: binom(26,13) = 2 mod 13^3 and binom(10,5) = 2 mod 125",
             ok1 and ok2)


def test_criterion_03_q_ljunggren_sweep():
    t0 = perf_counter()
    ok = all(
        check_q_ljunggren(p, a, b).passed
        for p in (5, 7, 11, 13)
        for a in range(5)
        for b in range(a + 1)
    )
    elapsed = perf_counter() - t0
    _verdict(
        "03",
        f"q-Ljunggren congruence for p in {{5,7,11,13}}, 0 <= b <= a <= 4 "
        f"({elapsed:.1f} s)",
        ok and elapsed < 60.0,
    )


def test_criterion_04_clark_sweep():
    ok = all(
        check_clark(p, a, b).passed
        for p in (3, 5, 7, 11, 13)
        for a in range(5)
        for b in range(a + 1)
    )
    _verdict("04", "Clark congruence mod ([p]_q)^2 for p in {3,5,7,11,13}, a <= 4", ok)


def test_criterion_05_shipan_sweep():
    primes = (5, 7, 11, 13, 17, 19, 23, 29, 31)
    ok = all(check_shipan(p).passed for p in primes)
    _verdict("05", "Shi-Pan q-harmonic congruences for all primes 5 <= p <= 31", ok)


def test_criterion_06_q_wolstenholme_sweep():
    primes = (5, 7, 11, 13, 17, 19, 23)
    ok = True
    for p in primes:
        central = check_q_wolstenholme(p).passed
        general = check_q_ljunggren(p, 2, 1).passed
        ok = ok and central and general and (central == general)
    _verdict("06", "q-Wolstenholme for primes 5 <= p <= 23, agreeing with the "
                   "a=2, b=1 q-Ljunggren instance", ok)


def test_criterion_07_exact_identities():
    ok_chu = all(
        check_qchu(m, n, k).passed
        for m in range(8)
        for n in range(8)
        for k in range(m + n + 1)
    )
    budget = 10**6
    ok_exp = True
    for p in (2, 3, 5, 7, 11, 13):
        a = 0
        while (p + 1) ** (a + 1) <= budget:
            a += 1
            for b in range(a + 1):
                ok_exp = ok_exp and check_expansion_identity(p, a, b, budget).passed
    ok_conv = all(check_convolution_identity(p).passed for p in (2, 3, 5, 7, 11, 13))
    _verdict(
        "07",
        "exact identities: q-Chu-Vandermonde (m,n <= 7), multinomial expansion "
        "((p+1)^a <= 10^6), peeled convolution (p <= 13)",
        ok_chu and ok_exp and ok_conv,
    )


def test_criterion_08a_congruence_checker_is_not_trivially_true():
    lhs = q_binomial(10, 5)
    rhs = q_binomial(2, 1).substitute_power(25)
    ok = not CongruenceContext(5, 3).reduce(lhs - rhs).is_zero()
    _verdict("08a", "q_binomial(10,5) is NOT congruent to 1 + q^25 mod ([5]_q)^3", ok)


def test_criterion_08b_classical_control_at_p3():
    ok = comb(6, 3) == 20 and (20 - 2) % 27 != 0
    _verdict("08b", "binom(6,3) = 20 is NOT congruent to 2 mod 27", ok)


def test_criterion_08c_cleared_polynomial_control_at_p3():
    # The central congruence at (p, a, b) = (3, 2, 1) reads
    # C_q(6,3) = (12(1 + q^9) - 8(q^3-1)^2) / 12 modulo ([3]_q)^3 in Z_(3)[q].
    # 4 is a unit there but 3 is not, so the congruence holds exactly when the
    # cleared control lies in 12 * ([3]_q)^3 * Z_(3)[q], i.e. when 3 divides
    # every coefficient of the exact quotient control / ([3]_q)^3.
    c63, oracle = q_binomial(6, 3), Poly(qbinom_pascal(6, 3))
    rhs_num = 12 * (Poly([1]) + Poly.monomial(9)) - 8 * (Poly.monomial(3) - 1) ** 2
    quotients = [(12 * c - rhs_num).exact_div(modulus(3, 3)) for c in (c63, oracle)]
    ok_quotient = quotients == [Poly([8, -12, 12])] * 2
    ok_fails = any(c % 3 for c in quotients[0].coeffs)
    # The library must refuse the fractional form: 12 is not a unit at p = 3.
    try:
        CongruenceContext(3, 3).frac_congruent(rhs_num, Poly([12]), c63)
        ok_rejected = False
    except DenominatorNotUnitError:
        ok_rejected = True
    _verdict(
        "08c",
        "12*(q_binomial(6,3) - 1 - q^9) + 8(q^3-1)^2 = (8 - 12q + 12q^2) * "
        "([3]_q)^3 is NOT in 12*([3]_q)^3*Z_(3)[q], and frac_congruent "
        "rejects the denominator 12 at p = 3",
        ok_quotient and ok_fails and ok_rejected,
    )


def test_criterion_09_jacobsthal_sharpening():
    res = check_jacobsthal(5, 5, 1)
    ok_case = (
        isinstance(res, CheckResult)
        and res.params["r"] == 2
        and res.params["q_exponent"] >= 3
        and res.passed
        and res.witness is None
    )
    ok_values = comb(25, 5) == 53130 and 53130 % 5**5 == 5 and 53130 - 5 == 17 * 3125
    ok_identity = all(
        a * b * (a - b) * comb(a, b) == 2 * a * comb(a, b + 1) * comb(b + 1, 2)
        for a in range(1, 21)
        for b in range(1, a)
    )
    _verdict(
        "09",
        "binom(25,5) = 5 mod 5^5 with r = 2 and q_exponent >= 3; "
        "a*b*(a-b)*binom(a,b) identity for 0 < b < a <= 20",
        ok_case and ok_values and ok_identity,
    )


def test_criterion_10a_recurrence_oracle_agreement():
    ok = all(
        list(q_binomial(n, k).coeffs) == qbinom_pascal(n, k)
        for n in range(31)
        for k in range(n + 1)
    )
    _verdict("10a", "product construction matches the Pascal-recurrence oracle "
                    "for all n <= 30", ok)


def test_criterion_10b_palindromic_nonnegative():
    ok = True
    for n in range(31):
        for k in range(n + 1):
            cs = q_binomial(n, k).coeffs
            ok = ok and cs == cs[::-1] and all(c >= 0 for c in cs)
    _verdict("10b", "q-binomial coefficients are palindromic and nonnegative "
                    "for all n <= 30", ok)


def test_criterion_10c_divrem_round_trip_1000():
    rng = random.Random(20110513)
    ok = True
    for _ in range(1000):
        a = Poly([rng.randint(-(10**6), 10**6) for _ in range(rng.randint(0, 51))])
        m = Poly([rng.randint(-(10**3), 10**3) for _ in range(rng.randint(1, 12))] + [1])
        quot, rem = a.divrem_monic(m)
        ok = ok and quot * m + rem == a
        ok = ok and (rem.is_zero() or rem.degree < m.degree)
    _verdict("10c", "monic division round trip on 1000 random instances", ok)


def test_criterion_10d_frac_congruence_scale_invariance_200():
    rng = random.Random(424242)
    ctx = CongruenceContext(5, 2)

    def random_poly(max_deg, bound, nonzero=False):
        while True:
            p = Poly([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg + 1))])
            if not nonzero or not p.is_zero():
                return p

    def random_unit_poly():
        while True:
            p = random_poly(6, 20, nonzero=True)
            if p.eval_at_one() % 5 != 0:
                return p

    ok = True
    for _ in range(200):
        num = random_poly(8, 50)
        den = random_unit_poly()
        g = random_unit_poly()
        r = random_poly(6, 20)
        plain = ctx.frac_congruent(num, den, r)
        scaled = ctx.frac_congruent(num * g, den * g, r)
        ok = ok and plain == scaled
    _verdict("10d", "fractional congruence verdicts are invariant under "
                    "scaling by units (200 random instances)", ok)
