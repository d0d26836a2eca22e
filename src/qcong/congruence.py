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
was.  The q-harmonic sums are built that way, never over the full
([p-1]_q!)^s: once per prime, modulo ([p]_q)^max(k,3), folded modulo the
sparse (q^p - 1)^max(k,3) at each step and reduced once at the end; the
double sum is cached beside them.  A caller with k < 3 gets the cached pair
reduced modulo its own M, which is the same pair, since reduce is canonical
and ([p]_q)^k divides ([p]_q)^3; so one reduce also serves valuation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

from .poly import NotDivisibleError, Poly
from .qanalogs import modulus, q_number


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

        a is folded modulo (q^p - 1)^k first (Poly.fold), and the at most kp
        coefficients left are divided by ([p]_q)^k.  Coefficients are not
        range-normalized: the degree bound makes the remainder unique in Z[q].
        """
        return a.fold(self.p, self.k).divrem_monic(self.modulus)[1]

    def valuation(self, f: Poly) -> int:
        """The largest j <= k such that ([p]_q)^j divides f in Z[q]: f is reduced
        modulo ([p]_q)^k once, then divided by [p]_q until a remainder is nonzero."""
        r = self.reduce(f)
        for j in range(self.k):
            r, rem = r.divrem_monic(q_number(self.p))
            if rem:
                return j
        return self.k

    def frac_residue(self, num: Poly, den: Poly, r: Poly) -> Poly:
        """num - r * den reduced modulo ([p]_q)^k: zero iff num/den = r.

        num, den and r may be any representatives modulo ([p]_q)^k: the
        residue depends only on their classes, so r is reduced first.  Raises
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
        return self.reduce(num - self.reduce(r) * den)

    def frac_congruent(self, num: Poly, den: Poly, r: Poly) -> bool:
        """True iff num = r * den modulo ([p]_q)^k, i.e. num/den = r; see
        frac_residue."""
        return not self.frac_residue(num, den, r)


def q_harmonic_sum(ctx: CongruenceContext, s: int) -> tuple[Poly, Poly]:
    """The sum of 1/([i]_q)^s for i = 1..p-1 as a pair (num, den), both
    reduced modulo ctx's ([p]_q)^k.

    den is ([p-1]_q!)^s and num sums the cofactors ([p-1]_q!)^s / ([i]_q)^s,
    so the pair is the full-size one reduced.
    """
    if s not in (1, 2):
        raise ValueError(f"harmonic power must be 1 or 2, got {s}")
    return _look_up(ctx, lambda p, k: _harmonic_sums(p, k)[s - 1])


def q_double_harmonic(ctx: CongruenceContext) -> tuple[Poly, Poly]:
    """The sum of 1/([i]_q [j]_q) over 1 <= i < j <= p-1 as a pair
    (num, den), both reduced modulo ctx's ([p]_q)^k; den is that of the
    single sum with s = 2, a representative of ([p-1]_q!)^2.
    """
    return _look_up(ctx, _double_harmonic)


def _look_up(ctx: CongruenceContext, fill: Callable) -> tuple[Poly, Poly]:
    """fill's pair, cached per (p, max(k, 3)), reduced again when k < 3: the
    same pair as one built modulo ctx's M, since reduce is canonical and
    ([p]_q)^k divides ([p]_q)^3."""
    if ctx.p < 3:
        raise ValueError(f"q-harmonic sums need a prime p >= 3, got {ctx.p}")
    num, den = fill(ctx.p, max(ctx.k, 3))
    return (ctx.reduce(num), ctx.reduce(den)) if ctx.k < 3 else (num, den)


@functools.lru_cache(maxsize=None)
def _harmonic_sums(p: int, k: int) -> tuple[tuple[Poly, Poly], tuple[Poly, Poly]]:
    """q_harmonic_sum's pairs for s = 1 and s = 2 modulo ([p]_q)^k.

    Each step adds 1/([i]_q)^s as (num [i]^s + den, den [i]^s), multiplying
    by [i]_q with prefix sums (Poly.times_q_number), and folds both modulo
    (q^p - 1)^k (Poly.fold); one canonical reduce of each ends the loop.
    """
    ctx = CongruenceContext(p, k)
    pairs = []
    for s in (1, 2):
        num, den = Poly(), Poly((1,))
        for i in range(1, p):
            t_num, t_den = (functools.reduce(Poly.times_q_number, [i] * s, f)
                            for f in (num, den))
            num, den = (t_num + den).fold(p, k), t_den.fold(p, k)
        pairs.append((ctx.reduce(num), ctx.reduce(den)))
    return pairs[0], pairs[1]


@functools.lru_cache(maxsize=None)
def _double_harmonic(p: int, k: int) -> tuple[Poly, Poly]:
    """q_double_harmonic's pair modulo ([p]_q)^k: ((sum x_i)^2 - sum x_i^2) / 2
    with x_i = 1/[i]_q, over the s = 2 denominator, from _harmonic_sums(p, k).
    The halving is exact before reduction, and reduce is Z-linear."""
    (num1, _), (num2, den2) = _harmonic_sums(p, k)
    twice = CongruenceContext(p, k).reduce(num1 * num1 - num2)
    if any(c % 2 for c in twice.coeffs):
        raise NotDivisibleError(f"q_double_harmonic at p={p}: odd coefficient")
    return Poly(c // 2 for c in twice.coeffs), den2
