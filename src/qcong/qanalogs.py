"""q-analog constructions: q-integers, Gaussian binomial coefficients,
and powers of the modulus [p]_q.

All values are exact integer polynomials.  For prime p the q-integer
[p]_q = 1 + q + ... + q^(p-1) is the p-th cyclotomic polynomial, which is
what makes ([p]_q)^k the natural polynomial analog of the prime power p^k.
Gaussian binomials and moduli are cached, since every statement reuses them.
"""

from __future__ import annotations

import functools

from .poly import Poly, half_times_q_ratio


class NotPrimeError(ValueError):
    """A parameter that must be prime is composite or smaller than 2."""


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@functools.lru_cache(maxsize=None)
def q_number(n: int) -> Poly:
    """The q-integer [n]_q = 1 + q + ... + q^(n-1); [0]_q = 0."""
    if n < 0:
        raise ValueError(f"q_number needs n >= 0, got {n}")
    return Poly([1] * n)


@functools.lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> Poly:
    """The Gaussian binomial coefficient, an integer polynomial of degree
    k(n-k) with nonnegative coefficients.

    Out-of-range k (k < 0 or k > n) yields the zero polynomial, matching
    the convention for unrestricted summation indices.  Built as the product
    of [n-k+i]_q / [i]_q, i = 1..k, one poly.half_times_q_ratio step each on
    the lower half of the coefficients, mirrored once at the end: the partial
    product up to i is C_q(n-k+i, i), palindromic of degree i(n-k), and every
    step checks that its division is exact.  For 2k > n it is C_q(n, n-k), the
    same cached object, so each symmetric pair is built once.
    """
    if n < 0:
        raise ValueError(f"q_binomial needs n >= 0, got {n}")
    if k < 0 or k > n:
        return Poly()
    if 2 * k > n:
        return q_binomial(n, n - k)
    half = [1]
    for i in range(1, k + 1):
        half = half_times_q_ratio(half, (i - 1) * (n - k), n - k + i, i)
    degree = k * (n - k)
    return Poly(half + half[:(degree + 1) // 2][::-1])


@functools.lru_cache(maxsize=None)
def modulus(p: int, k: int) -> Poly:
    """The congruence modulus ([p]_q)^k, monic of degree k(p-1), by prefix sums;
    cached, so every CongruenceContext with the same (p, k) shares one build."""
    if not is_prime(p):
        raise NotPrimeError(f"modulus requires a prime, got {p}")
    if k < 1:
        raise ValueError(f"modulus exponent must be >= 1, got {k}")
    return functools.reduce(Poly.times_q_number, [p] * k, Poly((1,)))

