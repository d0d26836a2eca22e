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
was.  The q-harmonic sums come from one cached pass per prime, modulo
([p]_q)^max(k,3), over the top three elementary symmetric sums e0 = [p-1]_q!,
e1 and e2 of [1]_q..[p-1]_q: sum 1/[i]_q = e1/e0 and sum_{i<j} 1/([i]_q [j]_q)
= e2/e0 share a denominator, and sum 1/[i]_q^2 = (e1^2 - 2 e0 e2)/e0^2 by
Newton's identity.  A caller with k < 3 gets the sums it reads reduced modulo
its own M, which are the same, since reduce is canonical and ([p]_q)^k
divides ([p]_q)^3; so one reduce also serves valuation.
"""

from __future__ import annotations

import functools

from .poly import NotDivisibleError, Poly, packed_product
from .qanalogs import modulus


class DenominatorNotUnitError(ValueError):
    """The denominator D of a fractional congruence is not a unit modulo
    ([p]_q)^k in Z_(p)[q], i.e. p divides D(1)."""


class CongruenceContext:
    """A prime p and exponent k with the cached modulus ([p]_q)^k."""

    def __init__(self, p: int, k: int) -> None:
        self.p, self.k, self.modulus = p, k, modulus(p, k)

    def reduce(self, a: Poly) -> Poly:
        """Canonical remainder of a modulo ([p]_q)^k; degree < k(p-1).

        a is folded modulo (q^p - 1)^k first (Poly.fold), and the at most kp
        coefficients left are divided by ([p]_q)^k.  Coefficients are not
        range-normalized: the degree bound makes the remainder unique in Z[q].
        """
        return a.fold(self.p, self.k).divrem_monic(self.modulus)[1]

    def mul(self, f: Poly, g: Poly) -> Poly:
        """f * g reduced modulo ([p]_q)^k: one packed product
        (poly.packed_product) and one reduce."""
        return self.reduce(packed_product(f, g))

    def valuation(self, f: Poly) -> int:
        """The largest j <= k such that ([p]_q)^j divides f in Z[q]: f is reduced modulo
        ([p]_q)^k once, then divided by [p]_q (times_q_number(1, p)) until it fails."""
        r = self.reduce(f)
        for j in range(self.k):
            try:
                r = r.times_q_number(1, self.p)
            except NotDivisibleError:
                return j
        return self.k

    def frac_residue(self, num: Poly, den: Poly, r: Poly) -> Poly:
        """num - r * den reduced modulo ([p]_q)^k: zero iff num/den = r.

        num, den and r may be any representatives modulo ([p]_q)^k: the
        residue depends only on their classes, so r is reduced first.  Raises
        DenominatorNotUnitError when p divides den(1) (a zero den included):
        then den is not a unit modulo ([p]_q)^k in Z_(p)[q], and the
        fractional congruence would be meaningless.  r * den is one packed
        product (poly.packed_product), reduced with num in one reduce.
        """
        at_one = den.eval_at_one()
        if at_one % self.p == 0:
            raise DenominatorNotUnitError(
                f"denominator is not a unit modulo [{self.p}]_q: "
                f"its value {at_one} at q = 1 is divisible by {self.p}"
            )
        return self.reduce(num - packed_product(self.reduce(r), den))

    def frac_congruent(self, num: Poly, den: Poly, r: Poly) -> bool:
        """True iff num = r * den modulo ([p]_q)^k, i.e. num/den = r; see
        frac_residue."""
        return not self.frac_residue(num, den, r)


def q_harmonic_sum(ctx: CongruenceContext, s: int) -> tuple[Poly, Poly]:
    """The sum of 1/([i]_q)^s for i = 1..p-1 as a pair (num, den), both
    reduced modulo ctx's ([p]_q)^k: den is ([p-1]_q!)^s and num sums the
    cofactors ([p-1]_q!)^s / ([i]_q)^s, so the pair is the full-size one
    reduced.  It is (e1, e0) for s = 1 and (e1^2 - 2 e0 e2, e0^2) for s = 2,
    whose three products are the only general ones of the harmonic sums:
    each is packed (poly.packed_product), and the numerator is reduced once.
    """
    if s not in (1, 2):
        raise ValueError(f"harmonic power must be 1 or 2, got {s}")
    if s == 1:
        e0, e1 = _look_up(ctx, 0, 1)
        return e1, e0
    e0, e1, e2 = _look_up(ctx, 0, 1, 2)
    cross = packed_product(e0, e2)
    return ctx.reduce(packed_product(e1, e1) - cross - cross), ctx.mul(e0, e0)


def q_double_harmonic(ctx: CongruenceContext) -> tuple[Poly, Poly]:
    """The sum of 1/([i]_q [j]_q) over 1 <= i < j <= p-1 as the pair (e2, e0),
    reduced modulo ctx's ([p]_q)^k: over [p-1]_q!, like the sum with s = 1."""
    e0, e2 = _look_up(ctx, 0, 2)
    return e2, e0


def _look_up(ctx: CongruenceContext, *which: int) -> list[Poly]:
    """The sums e_j for j in which, cached per (p, max(k, 3)) and reduced
    again when k < 3: the same sums as ones built modulo ctx's M, since
    reduce is canonical and ([p]_q)^k divides ([p]_q)^3."""
    if ctx.p < 3:
        raise ValueError(f"q-harmonic sums need a prime p >= 3, got {ctx.p}")
    sums = [_harmonic_sums(ctx.p, max(ctx.k, 3))[j] for j in which]
    return [ctx.reduce(e) for e in sums] if ctx.k < 3 else sums


@functools.lru_cache(maxsize=None)
def _harmonic_sums(p: int, k: int) -> tuple[Poly, ...]:
    """(e0, e1, e2) modulo ([p]_q)^k: the coefficients of t^0, t^1 and t^2 in
    the product of t + [i]_q over i = 1..p-1.

    Step i sets e_j <- e_j [i]_q + e_(j-1), multiplying by [i]_q with prefix
    sums (Poly.times_q_number) and folding modulo (q^p - 1)^k (Poly.fold);
    one canonical reduce of each ends the loop.
    """
    e = [Poly((1,)), Poly(), Poly()]
    for i in range(1, p):
        e = [(f.times_q_number(i) + g).fold(p, k) for f, g in zip(e, [0, *e])]
    return tuple(map(CongruenceContext(p, k).reduce, e))
