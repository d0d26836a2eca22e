"""Shared test helpers.

The q-binomial oracle here is deliberately independent of the package:
plain coefficient lists built with the Pascal-type recurrence

    C_q(m, j) = C_q(m-1, j-1) + q^j * C_q(m-1, j),

so agreement with the package's construction (a product of
(1 - q^m)/(1 - q^i) factors done by shifted subtractions and stride-i
prefix sums) is a genuine cross-check rather than a tautology.  The
q-factorial oracle is the product of q-numbers, multiplied out the same way.
"""

from __future__ import annotations

from functools import lru_cache

from qcong.poly import Poly


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


def q_factorial(n: int) -> Poly:
    """Oracle [n]_q! = [1]_q [2]_q ... [n]_q; [0]_q! = 1."""
    out = [1]
    for i in range(1, n + 1):
        out = list_mul(out, [1] * i)
    return Poly(out)
