"""Shared test helpers.

The q-binomial oracle here is deliberately independent of the package:
plain coefficient lists built with the Pascal-type recurrence

    C_q(m, j) = C_q(m-1, j-1) + q^j * C_q(m-1, j),

so agreement with the package's construction (a product of
(1 - q^m)/(1 - q^i) factors done by shifted subtractions and stride-i
prefix sums) is a genuine cross-check rather than a tautology.  The
q-factorial oracle is the product of q-numbers, multiplied out the same way.

The q-harmonic oracles are the full-size sums from the definition: each
single-sum numerator sums the cofactors [p-1]_q! / [i]_q (squared for s = 2)
over ([p-1]_q!)^s, and the double sum adds up, over i < j, the product of
[l]_q for l outside {i, j}, over [p-1]_q!; all are multiplied out as
coefficient lists.  The package builds elementary symmetric sums folded
modulo (q^p - 1)^k and gets the square sum by Newton's identity, so neither
shortcut is shared with the oracle.  The per-k oracles are direct loops with
no fold modulo (q^p - 1)^k, reduced at every step by plain monic division by
([p]_q)^k: one sum for each (p, k, s), and for the double sum the recurrence
num <- num [i] + (partial H1 numerator), den <- den [i]; they stay cheap up
to p = 61.

The expansion oracle enumerates every composition c_1+...+c_a = bp with
0 <= c_i <= p and adds up prod C_q(p, c_i) q^(p*sum (i-1)c_i - sum_{i<j} c_i c_j)
from Pascal lists, one term per composition; the package instead runs one
q-Chu-Vandermonde step per part over prefix sums.

The full-step oracle is the q-binomial construction before it kept only
lower halves: each step multiplies the whole coefficient list by
(1 - q^m) / (1 - q^i) with stride-i prefix sums and checks that the last i
sums, the class sums modulo i, vanish.

The valuation oracle tries each exponent in turn: the largest j <= cap for
which plain monic division of f by ([p]_q)^j leaves no remainder.

The root-of-unity shadow checks a residue modulo ([p]_q)^K in other
arithmetic.  Take l, the first prime = 1 (mod p) above 2^40, and w of order
p in F_l.  Then q -> w(1 + e) maps Z[q]/([p]_q)^K to F_l[e]/e^K, since w is
a simple root of [p]_q modulo l, so a residue R of C_q(n, k) must have the
image of the product of (1 - q^(n-k+j)) / (1 - q^j), j = 1..k.  That image
is taken factor by factor, with no polynomial: a factor with p | m is e
times a unit, and the e count is c = n//p - k//p - (n-k)//p.  Agreement is
necessary, not sufficient, so the shadow filters residues and decides nothing.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product
from math import comb
from typing import Iterable

import pytest

from qcong.poly import Poly
from qcong.qanalogs import modulus


def list_add(a: list[int], b: list[int]) -> list[int]:
    out = list(a) if len(a) >= len(b) else list(b)
    small = b if len(a) >= len(b) else a
    for i, c in enumerate(small):
        out[i] += c
    return out


def list_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def list_shift(a: list[int], e: int) -> list[int]:
    return [0] * e + list(a) if a else []


@lru_cache(maxsize=None)
def qbinom_pascal_triangle(n_max: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """All q-binomials with n <= n_max as coefficient tuples."""
    tri: dict[tuple[int, int], tuple[int, ...]] = {(0, 0): (1,)}
    for m in range(1, n_max + 1):
        for j in range(m + 1):
            left = list(tri.get((m - 1, j - 1), ()))
            right = list(tri.get((m - 1, j), ()))
            tri[(m, j)] = tuple(list_add(left, list_shift(right, j)))
    return tri


def qbinom_pascal(n: int, k: int) -> list[int]:
    """Oracle q-binomial as an ascending coefficient list; [] when out of range."""
    if k < 0 or k > n:
        return []
    return list(qbinom_pascal_triangle(n)[(n, k)])


def full_step(coeffs: list[int], m: int, over: int) -> list[int] | None:
    """Oracle f * [m]_q / [over]_q on the whole coefficient list, trailing
    zeros kept; None when [over]_q does not divide f * [m]_q."""
    pad = [0] * m
    acc = [x - y for x, y in zip(coeffs + pad, pad + coeffs)]
    for r in range(over):
        acc[r::over] = accumulate(acc[r::over])
    if any(acc[-over:]):
        return None
    return acc[:-over]


def palindrome(half: list[int], odd: bool) -> Poly:
    """The palindrome of odd or even degree whose lower half is half."""
    return Poly(half + half[:len(half) - 1 + odd][::-1])


def qbinom_full_steps(n: int, k: int) -> list[int]:
    """Oracle q-binomial for 0 <= k <= n as the product of full steps
    [n-k+i]_q / [i]_q, i = 1..k."""
    out = [1]
    for i in range(1, k + 1):
        out = full_step(out, n - k + i, i)
    return out


def expansion_sum(p: int, a: int, b: int) -> list[int]:
    """Oracle right side of the multinomial expansion of C_q(ap, bp)."""
    total: list[int] = []
    for cs in product(range(p + 1), repeat=a):
        if sum(cs) != b * p:
            continue
        term = [1]
        for c in cs:
            term = list_mul(term, qbinom_pascal(p, c))
        e = p * sum(i * c for i, c in enumerate(cs))
        e -= sum(cs[i] * cs[j] for j in range(a) for i in range(j))
        total = list_add(total, list_shift(term, e))
    return total


def q_product(indices: Iterable[int], s: int = 1) -> list[int]:
    """Oracle product of ([i]_q)^s over the indices, as a coefficient list."""
    out = [1]
    for i in indices:
        for _ in range(s):
            out = list_mul(out, [1] * i)
    return out


def q_factorial(n: int) -> Poly:
    """Oracle [n]_q! = [1]_q [2]_q ... [n]_q; [0]_q! = 1."""
    return Poly(q_product(range(1, n + 1)))


def _cofactors(p: int) -> list[list[int]]:
    """[p-1]_q! / [i]_q for i = 1..p-1, each multiplied out directly."""
    return [q_product(j for j in range(1, p) if j != i) for i in range(1, p)]


@lru_cache(maxsize=None)
def q_harmonic_full(p: int, s: int) -> tuple[Poly, Poly]:
    """Oracle sum of 1/([i]_q)^s, i = 1..p-1, as (num, den) over ([p-1]_q!)^s."""
    num: list[int] = []
    for c in _cofactors(p):
        num = list_add(num, list_mul(c, c) if s == 2 else c)
    return Poly(num), Poly(q_product(range(1, p), s))


@lru_cache(maxsize=None)
def q_double_harmonic_full(p: int) -> tuple[Poly, Poly]:
    """Oracle sum of 1/([i]_q [j]_q), 1 <= i < j <= p-1, as (num, den) over
    [p-1]_q!."""
    num: list[int] = []
    for j in range(1, p):
        for i in range(1, j):
            num = list_add(num, q_product(l for l in range(1, p) if l not in (i, j)))
    return Poly(num), q_factorial(p - 1)


@lru_cache(maxsize=None)
def q_harmonic_per_k(p: int, k: int, s: int) -> tuple[Poly, Poly]:
    """Oracle sum of 1/([i]_q)^s, i = 1..p-1, as (num, den) with both
    divided by ([p]_q)^k after every step."""
    m = modulus(p, k)
    num, den = Poly(), Poly((1,))
    for i in range(1, p):
        t_num, t_den = num, den
        for _ in range(s):
            t_num, t_den = t_num.times_q_number(i), t_den.times_q_number(i)
        num, den = (t_num + den).divrem_monic(m)[1], t_den.divrem_monic(m)[1]
    return num, den


def q_double_harmonic_per_k(p: int, k: int) -> tuple[Poly, Poly]:
    """Oracle sum of 1/([i]_q [j]_q), i < j, as (num, den) over [p-1]_q!,
    with num, the partial H1 numerator h and den divided by ([p]_q)^k after
    every step: adding [i]_q to the product turns num/den into
    (num [i] + h)/(den [i]), and h/den into (h [i] + den)/(den [i])."""
    m = modulus(p, k)
    num, h, den = Poly(), Poly(), Poly((1,))
    for i in range(1, p):
        num, h, den = (
            (f.times_q_number(i) + g).divrem_monic(m)[1]
            for f, g in ((num, h), (h, den), (den, Poly()))
        )
    return num, den


def valuation_per_k(p: int, cap: int, f: Poly) -> int:
    """Oracle: the largest j <= cap such that ([p]_q)^j divides f."""
    divides = [not f.divrem_monic(modulus(p, j))[1] for j in range(1, cap + 1)]
    return next((j for j, d in enumerate(divides) if not d), cap)


@lru_cache(maxsize=None)
def shadow_field(p: int) -> tuple[int, int]:
    """(l, w): the first prime l = 1 (mod p) above 2^40 and w != 1 with w^p = 1."""
    isprime = pytest.importorskip("sympy").isprime
    ell = 2**40 + 1
    ell += (1 - ell) % p
    while not isprime(ell):
        ell += p
    g = 2
    while pow(g, (ell - 1) // p, ell) == 1:
        g += 1
    return ell, pow(g, (ell - 1) // p, ell)


def _series_mul(a: list[int], b: list[int], ell: int) -> list[int]:
    """a * b in F_l[e]/e^K, K = len(a) = len(b)."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] = (out[i + j] + x * b[j]) % ell
    return out


def _series_inverse(u: list[int], ell: int) -> list[int]:
    """1/u in F_l[e]/e^K for a unit u, K = len(u)."""
    inv0 = pow(u[0], -1, ell)
    out = [inv0]
    for i in range(1, len(u)):
        out.append(-inv0 * sum(u[j] * out[i - j] for j in range(1, i + 1)) % ell)
    return out


def shadow_image(f: Poly, p: int, K: int) -> list[int]:
    """f(w(1 + e)) in F_l[e]/e^K, by Horner's rule."""
    ell, w = shadow_field(p)
    value = [0] * K
    for c in reversed(f.coeffs):
        value = [(w * (x + y) + c * (i == 0)) % ell
                 for i, (x, y) in enumerate(zip(value, [0, *value]))]
    return value


def shadow_binomial(n: int, k: int, p: int, K: int) -> list[int]:
    """C_q(n, k) at q = w(1 + e) in F_l[e]/e^K, from the product formula: each
    1 - q^m is a unit when p does not divide m, and e times a unit when it does."""
    ell, w = shadow_field(p)

    def unit(m: int) -> list[int]:
        if m % p:  # 1 - w^m (1 + e)^m
            return [((i == 0) - pow(w, m, ell) * comb(m, i)) % ell for i in range(K)]
        return [-comb(m, i + 1) % ell for i in range(K)]  # (1 - (1 + e)^m) / e

    num, den = [1] + [0] * (K - 1), [1] + [0] * (K - 1)
    for j in range(1, k + 1):
        num, den = _series_mul(num, unit(n - k + j), ell), _series_mul(den, unit(j), ell)
    c = n // p - k // p - (n - k) // p
    return ([0] * c + _series_mul(num, _series_inverse(den, ell), ell))[:K]
