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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .poly import Poly
from .qanalogs import is_prime, modulus, q_number


class DenominatorNotUnitError(ValueError):
    """The denominator D of a fractional congruence is not a unit modulo
    ([p]_q)^k in Z_(p)[q], i.e. p divides D(1)."""


@dataclass(frozen=True)
class QRational:
    """A formal quotient num/den of two integer polynomials, as taken by
    CongruenceContext.frac_congruent.

    It has no arithmetic and is never normalized: callers build num and den
    as Poly expressions over the denominator they choose.  Congruence
    verdicts are invariant under scaling by units modulo ([p]_q)^k
    (polynomials g with p not dividing g(1)), so canonical form is never
    needed.
    """

    num: Poly
    den: Poly

    def __post_init__(self) -> None:
        if self.den.is_zero():
            raise ValueError("QRational denominator must be nonzero")


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

    def frac_congruent(self, f: QRational, r: Poly) -> bool:
        """True iff f.num = r * f.den modulo ([p]_q)^k.

        Raises DenominatorNotUnitError when p divides f.den(1): then f.den
        is not a unit modulo ([p]_q)^k in Z_(p)[q], and the fractional
        congruence would be meaningless.
        """
        at_one = f.den.eval_at_one()
        if at_one % self.p == 0:
            raise DenominatorNotUnitError(
                f"denominator is not a unit modulo [{self.p}]_q: "
                f"its value {at_one} at q = 1 is divisible by {self.p}"
            )
        return self.congruent(f.num, r * f.den)


def q_harmonic_sum(p: int, s: int) -> QRational:
    """The sum of 1/([i]_q)^s for i = 1..p-1, over the fixed common
    denominator ([p-1]_q!)^s: the numerator is the sum of the cofactors
    ([p-1]_q!)^s / ([i]_q)^s."""
    if s not in (1, 2):
        raise ValueError(f"harmonic power must be 1 or 2, got {s}")
    if p < 3 or not is_prime(p):
        raise ValueError(f"q_harmonic_sum needs a prime p >= 3, got {p}")
    num = Poly()
    den = Poly((1,))
    for i in range(1, p):
        t = q_number(i) ** s
        num = num * t + den
        den = den * t
    return QRational(num, den)


def q_double_harmonic(p: int) -> QRational:
    """The sum of 1/([i]_q [j]_q) over 1 <= i < j <= p-1, over the fixed
    common denominator ([p-1]_q!)^2.

    Built from the single sums as ((sum x_i)^2 - sum x_i^2) / 2 with
    x_i = 1/[i]_q: both are over ([p-1]_q!)^2, and the halving is exact, so
    the numerator is the sum of the products of cofactors over i < j.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"q_double_harmonic needs a prime p >= 3, got {p}")
    h1 = q_harmonic_sum(p, 1)
    h2 = q_harmonic_sum(p, 2)
    return QRational((h1.num * h1.num - h2.num).exact_div(Poly((2,))), h2.den)
