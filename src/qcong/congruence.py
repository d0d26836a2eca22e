"""Congruence services modulo M = ([p]_q)^k, plus q-harmonic sums.

Congruence of integer polynomials means divisibility of the difference by
M inside Z[q]; since M is monic, this is the same as divisibility inside
Z_(p)[q], the ring of the paper's coefficients such as (p^2-1)/12.
Fractional congruences N/D = R (mod M) are interpreted by clearing the
denominator: N = R*D (mod M), which requires D to be a unit modulo M in
Z_(p)[q].  That holds exactly when D(1) is not divisible by p: (1 - zeta_p)
is the only prime above p in Z[zeta_p], with residue field F_p via q -> 1.
Coprimality with [p]_q over Q is not enough: 12 at p = 3, or 5 and q + 4 at
p = 5, are coprime to [p]_q yet not units.

A fraction is a plain (N, D) pair, and any representatives modulo M serve:
M(1) = p^k, so reducing D leaves D(1) mod p, and hence the unit test, as it
was.  The q-harmonic sums are built that way, as pairs reduced modulo the
caller's M, never over the full ([p-1]_q!)^s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce as fold
from math import comb

from .poly import Poly
from .qanalogs import InternalNonDivisibleError, modulus


class DenominatorNotUnitError(ValueError):
    """The denominator D of a fractional congruence is not a unit modulo
    ([p]_q)^k in Z_(p)[q], i.e. p divides D(1)."""


@dataclass(frozen=True)
class CongruenceContext:
    """A prime p and exponent k with the cached modulus ([p]_q)^k."""

    p: int
    k: int
    modulus: Poly = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "modulus", modulus(self.p, self.k))

    def reduce(self, a: Poly) -> Poly:
        """Canonical remainder of a modulo ([p]_q)^k; degree < k(p-1).

        a is first folded modulo (q^p - 1)^k = (1 - q)^k ([p]_q)^k, which has
        k + 1 terms, all at multiples of p, a block of p coefficients at a time;
        the fewer than kp left are divided by ([p]_q)^k.  Coefficients are not
        range-normalized: the degree bound makes the remainder unique in Z[q].
        """
        p, k = self.p, self.k
        r = list(a.coeffs)
        if len(r) > k * p:
            r += [0] * (-len(r) % p)
            blocks = [r[i:i + p] for i in range(0, len(r), p)]
            terms = [(j, (-1) ** (k - j) * comb(k, j)) for j in range(k)]
            for s in reversed(range(len(blocks) - k)):
                top = blocks[s + k]
                for j, c in terms:
                    blocks[s + j] = [x - c * y for x, y in zip(blocks[s + j], top)]
            r = [x for b in blocks[:k] for x in b]
        return Poly(r).divrem_monic(self.modulus)[1]

    def congruent(self, a: Poly, b: Poly) -> bool:
        """True iff ([p]_q)^k divides a - b in Z[q]."""
        return self.reduce(a - b).is_zero()

    def frac_congruent(self, num: Poly, den: Poly, r: Poly) -> bool:
        """True iff num = r * den modulo ([p]_q)^k, i.e. num/den = r.

        num, den and r may be any representatives modulo ([p]_q)^k: the
        verdict depends only on their classes, so r is reduced first.  Raises
        DenominatorNotUnitError when p divides den(1) (a zero den included):
        then den is not a unit modulo ([p]_q)^k in Z_(p)[q], and the
        fractional congruence would be meaningless.
        """
        at_one = den.eval_at_one()
        if at_one % self.p == 0:
            raise DenominatorNotUnitError(
                f"denominator is not a unit modulo [{self.p}]_q: "
                f"its value {at_one} at q = 1 is divisible by {self.p}"
            )
        return self.congruent(num, self.reduce(r) * den)


def q_harmonic_sum(ctx: CongruenceContext, s: int) -> tuple[Poly, Poly]:
    """The sum of 1/([i]_q)^s for i = 1..p-1 as a pair (num, den), both
    reduced modulo ctx's ([p]_q)^k.

    den is ([p-1]_q!)^s and num sums the cofactors ([p-1]_q!)^s / ([i]_q)^s,
    each kept modulo ([p]_q)^k by the canonical reduce, so the pair is the
    full-size one reduced; times [i]_q is a prefix sum, Poly.times_q_number.
    """
    if s not in (1, 2):
        raise ValueError(f"harmonic power must be 1 or 2, got {s}")
    if ctx.p < 3:
        raise ValueError(f"q_harmonic_sum needs a prime p >= 3, got {ctx.p}")
    num, den = Poly(), Poly((1,))
    for i in range(1, ctx.p):
        t_num, t_den = (fold(Poly.times_q_number, [i] * s, f) for f in (num, den))
        num, den = ctx.reduce(t_num + den), ctx.reduce(t_den)
    return num, den


def q_double_harmonic(ctx: CongruenceContext) -> tuple[Poly, Poly]:
    """The sum of 1/([i]_q [j]_q) over 1 <= i < j <= p-1 as a pair
    (num, den), both reduced modulo ctx's ([p]_q)^k; den is that of the
    single sum with s = 2, a representative of ([p-1]_q!)^2.

    Built from the single sums as ((sum x_i)^2 - sum x_i^2) / 2 with
    x_i = 1/[i]_q.  Before reduction the halving is exact; reduce is
    Z-linear, so it stays exact coefficient-wise after it.
    """
    return double_from_singles(ctx, q_harmonic_sum(ctx, 1)[0], *q_harmonic_sum(ctx, 2))


def double_from_singles(ctx: CongruenceContext, num1: Poly, num2: Poly,
                        den2: Poly) -> tuple[Poly, Poly]:
    """q_double_harmonic from the single sums' num1 (s = 1) and num2, den2 (s = 2)."""
    twice = ctx.reduce(num1 * num1 - num2)
    if any(c % 2 for c in twice.coeffs):
        raise InternalNonDivisibleError(f"q_double_harmonic at p={ctx.p}: odd coefficient")
    return Poly(c // 2 for c in twice.coeffs), den2
