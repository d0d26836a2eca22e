"""q-analog constructions against the independent Pascal-recurrence oracle."""

from __future__ import annotations

import math

import pytest
from conftest import (
    full_step,
    palindrome,
    q_factorial,
    q_product,
    qbinom_full_steps,
    qbinom_pascal,
    qbinom_pascal_triangle,
)
from hypothesis import given, strategies as hst

from qcong import poly, qanalogs
from qcong.poly import NotDivisibleError, Poly, half_times_q_ratio
from qcong.qanalogs import (
    NotPrimeError,
    is_prime,
    modulus,
    q_binomial,
    q_number,
)


def test_q_number_values():
    assert q_number(1) == Poly([1])
    assert q_number(4) == Poly([1, 1, 1, 1])
    assert q_number(0).is_zero()
    with pytest.raises(ValueError):
        q_number(-1)


def test_q_binomial_base_cases():
    for n in (0, 1, 5, 9):
        assert q_binomial(n, 0) == Poly([1])
        assert q_binomial(n, n) == Poly([1])
    assert q_binomial(4, 2) == Poly([1, 1, 2, 1, 1])
    assert q_binomial(5, 2) == q_binomial(5, 3)


def test_q_binomial_out_of_range_is_zero():
    assert q_binomial(4, -1).is_zero()
    assert q_binomial(4, 5).is_zero()
    with pytest.raises(ValueError):
        q_binomial(-1, 0)


def test_q_binomial_matches_pascal_oracle():
    for n in range(31):
        for k in range(n + 1):
            assert list(q_binomial(n, k).coeffs) == qbinom_pascal(n, k), (n, k)


@given(hst.integers(0, 70).flatmap(
    lambda n: hst.tuples(hst.just(n), hst.integers(-1, n + 1))
))
def test_q_binomial_matches_pascal_oracle_up_to_70(nk):
    # one shared triangle: the oracle rebuilds it for every distinct n
    n, k = nk
    assert q_binomial(n, k).coeffs == qbinom_pascal_triangle(70).get((n, k), ())


def test_q_binomial_guards_its_exact_divisions(monkeypatch):
    # without the prefix sums the division by 1 - q^i leaves a nonzero tail
    monkeypatch.setattr(poly, "accumulate", list)
    q_binomial.cache_clear()
    try:
        with pytest.raises(NotDivisibleError):
            q_binomial(6, 3)
    finally:
        q_binomial.cache_clear()


@pytest.mark.parametrize("n, k", [(9, 3), (12, 7), (40, 25), (41, 1)])
def test_q_binomial_builds_each_symmetric_pair_once(monkeypatch, n, k):
    # whichever of k and n - k comes first, the partner is the same object
    # and costs no half_times_q_ratio step; the first build takes min(k, n - k)
    step = qanalogs.half_times_q_ratio
    steps = []
    monkeypatch.setattr(qanalogs, "half_times_q_ratio",
                        lambda *args: steps.append(args) or step(*args))
    q_binomial.cache_clear()
    try:
        first = q_binomial(n, k)
        assert len(steps) == min(k, n - k)
        assert q_binomial(n, n - k) is first
        assert len(steps) == min(k, n - k)
    finally:
        q_binomial.cache_clear()


@given(hst.integers(0, 200).flatmap(
    lambda n: hst.tuples(hst.just(n), hst.integers(0, n))
))
def test_q_binomial_matches_the_full_steps_up_to_200(nk):
    n, k = nk
    assert list(q_binomial(n, k).coeffs) == qbinom_full_steps(n, min(k, n - k))


@pytest.mark.parametrize("p", [19, 23])
@pytest.mark.parametrize("a, b", [(a, b) for a in range(1, 6) for b in range(a + 1)])
def test_q_binomial_matches_the_full_steps_on_the_ljunggren_grid(p, a, b):
    # the benchmark's q_ljunggren grid, --p 19,23 --a-max 5, built both ways
    assert list(q_binomial(a * p, b * p).coeffs) == qbinom_full_steps(a * p, b * p)


# Palindromes with a chance to divide: a random one times [j]_q for j in 1..8.
palindromes = hst.builds(
    lambda lead, rest, odd, j: palindrome([lead, *rest], odd) * q_number(j),
    hst.integers(-50, 50).filter(bool), hst.lists(hst.integers(-50, 50), max_size=15),
    hst.booleans(), hst.integers(1, 8),
)


@given(palindromes, hst.integers(1, 30), hst.integers(1, 12))
def test_window_check_agrees_with_the_full_length_check(f, m, over):
    # the step raises exactly when the full step's last over sums do not all
    # vanish, and otherwise returns the lower half of the full quotient
    full = full_step(list(f.coeffs), m, over)
    half = list(f.coeffs[:f.degree // 2 + 1])
    if full is None:
        with pytest.raises(NotDivisibleError):
            half_times_q_ratio(half, f.degree, m, over)
    else:
        assert half_times_q_ratio(half, f.degree, m, over) == full[:(len(full) + 1) // 2]


def test_q_binomial_pascal_recurrence_holds_exactly():
    for n in range(1, 31):
        for k in range(1, n + 1):
            expected = q_binomial(n - 1, k - 1) + Poly.monomial(k) * q_binomial(n - 1, k)
            assert q_binomial(n, k) == expected, (n, k)


def test_q_binomial_palindromic_and_nonnegative():
    for n in range(31):
        for k in range(n + 1):
            cs = q_binomial(n, k).coeffs
            assert cs == cs[::-1], (n, k)
            assert all(c >= 0 for c in cs), (n, k)
            assert len(cs) - 1 == k * (n - k), (n, k)


def test_q_binomial_specializes_to_binomials():
    for n in range(31):
        for k in range(n + 1):
            assert q_binomial(n, k).eval_at_one() == math.comb(n, k)


@pytest.mark.parametrize("n,k", [(7, 3), (12, 5), (26, 13), (40, 17)])
def test_q_binomial_agrees_with_factorial_quotient(n, k):
    # Second construction route: one big exact division of factorials.
    quotient = q_factorial(n).exact_div(q_factorial(k) * q_factorial(n - k))
    assert q_binomial(n, k) == quotient


def test_q_number_factorization_law():
    # [a*n]_q = [a]_{q^n} * [n]_q
    for a in range(1, 13):
        for n in range(1, 13):
            assert q_number(a * n) == q_number(a).substitute_power(n) * q_number(n)


def test_q_number_splitting_law():
    # [n+m]_q = [n]_q + q^n [m]_q
    for n in range(31):
        for m in range(31):
            assert q_number(n + m) == q_number(n) + Poly.monomial(n) * q_number(m)


def test_modulus_values():
    assert modulus(5, 1) == Poly([1, 1, 1, 1, 1])
    m = modulus(5, 3)
    assert m.degree == 12
    assert m.coeffs[-1] == 1
    assert m.eval_at_one() == 125


@pytest.mark.parametrize("p", [2, 3, 5, 13, 31])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_modulus_matches_schoolbook_power(p, k):
    # built by prefix sums; the oracle multiplies the coefficient lists out
    assert modulus(p, k) == Poly(q_product([p] * k))


def test_modulus_rejects_composites_and_bad_exponents():
    with pytest.raises(NotPrimeError):
        modulus(4, 1)
    with pytest.raises(NotPrimeError):
        modulus(1, 2)
    with pytest.raises(ValueError):
        modulus(5, 0)


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-3, 32):
        assert is_prime(n) == (n in primes)


def test_oracle_triangle_is_self_consistent():
    tri = qbinom_pascal_triangle(12)
    for (n, k), coeffs in tri.items():
        assert sum(coeffs) == math.comb(n, k)
