"""Reference residues computed without qcong.

The classical witnesses use math.comb.  The q-Ljunggren witnesses build
Gaussian binomials with the q-Pascal recurrence
C_q(n, j) = C_q(n-1, j-1) + q^j C_q(n-1, j) on plain coefficient lists
and reduce with sympy's polynomial remainder, so they share no code with
qcong's product-and-exact-division construction or its monic division.
Witnesses are reported as the CLI does: the first `cap` coefficients in
ascending order and the degree.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from sympy import Poly, symbols

_q = symbols("q")


def classical(p: int, a: int, b: int) -> dict:
    """Flags and witness of the classical q = 1 congruences at (p, a, b)."""
    binom_res = (comb(a * p, b * p) - comb(a, b)) % p**3
    fact = factorial(p - 1)
    h1 = sum(fact // i for i in range(1, p)) % p**2
    h2 = sum(fact * fact // (i * i) for i in range(1, p)) % p
    residue = next((r for r in (binom_res, h1, h2) if r), 0)
    return {
        "flags": {"binom_ok": int(binom_res == 0), "harmonic1_ok": int(h1 == 0),
                  "harmonic2_ok": int(h2 == 0)},
        "witness": {"coefficients": [residue], "degree": 0} if residue else None,
    }


@lru_cache(maxsize=None)
def gaussian_row(n: int) -> list[list[int]]:
    """[C_q(n, j) for j = 0..n] as ascending coefficient lists."""
    row = [[1]]
    for m in range(1, n + 1):
        new = [[1]]
        for j in range(1, m):
            left, right = row[j - 1], row[j]
            out = [0] * (j * (m - j) + 1)
            for i, c in enumerate(left):
                out[i] += c
            for i, c in enumerate(right):
                out[i + j] += c
            new.append(out)
        new.append([1])
        row = new
    return row


def _sympy(coeffs: list[int]) -> Poly:
    return Poly(list(reversed(coeffs)), _q, domain="ZZ")


def q_ljunggren(p: int, a: int, b: int, k: int, cap: int = 16) -> dict | None:
    """Witness of the corrected q-Ljunggren congruence modulo ([p]_q)^k,
    or None when it holds."""
    lhs = _sympy(gaussian_row(a * p)[b * p])
    small = gaussian_row(a)[b]
    sub = [0] * ((len(small) - 1) * p * p + 1)
    for i, c in enumerate(small):
        sub[i * p * p] = c
    corr = comb(a, b + 1) * comb(b + 1, 2) * (p * p - 1) // 12
    qp1 = _sympy([-1] + [0] * (p - 1) + [1])
    rhs = _sympy(sub) - corr * qp1**2
    mod = _sympy([1] * p) ** k
    rem = (lhs - rhs).rem(mod)
    if rem.is_zero:
        return None
    coeffs = [int(c) for c in reversed(rem.all_coeffs())]
    return {"coefficients": coeffs[:cap], "degree": len(coeffs) - 1}
