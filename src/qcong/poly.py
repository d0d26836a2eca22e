"""Dense exact arithmetic for univariate polynomials over the integers.

A polynomial is a tuple of arbitrary-precision integer coefficients in
ascending powers of q, trimmed so that the highest stored coefficient is
nonzero.  The zero polynomial stores an empty tuple and reports a degree
of ``None`` rather than a number, so accidental degree arithmetic on it
fails loudly.  Nothing in this module ever leaves integer arithmetic.
The q-binomial step half_times_q_ratio works on a plain list instead: the
lower half of a palindrome, whose upper half it never stores.  Besides the
schoolbook Poly.__mul__, packed_product multiplies by Kronecker
substitution: both operands packed into one integer each (pack), one integer
product, and the coefficients read back (unpack).
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, gcd as _int_gcd
from operator import add, neg, sub
from typing import Iterable, Sequence

#: Above this many blocks of p coefficients beyond the k that Poly.fold keeps,
#: its stride sums beat its block loop (break-even at about 6-10 blocks for p
#: in 5..31 and k in 3..5).  The block loop serves the short folds of the
#: q-harmonic sums, the stride sums the long residues of Gaussian binomials.
FOLD_BLOCK_CUTOFF = 8


class NonMonicDivisorError(ValueError):
    """The divisor of a monic division does not have leading coefficient 1."""


class NotDivisibleError(ArithmeticError):
    """Exact division failed: nonzero remainder or a fractional quotient step."""


class Poly:
    """Immutable polynomial in q with integer coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = coeffs if type(coeffs) is tuple else tuple(coeffs)
        n = len(cs)
        while n and cs[n - 1] == 0:
            n -= 1
        self.coeffs = cs if n == len(cs) else cs[:n]

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> Poly:
        """Return coefficient * q**exponent."""
        if exponent < 0:
            raise ValueError(f"exponent must be nonnegative, got {exponent}")
        return cls([0] * exponent + [coefficient])

    def shift(self, e: int) -> Poly:
        """Return self * q**e, for e >= 0, without a multiplication."""
        if e < 0:
            raise ValueError(f"shift must be nonnegative, got {e}")
        if not self.coeffs or e == 0:
            return self
        return Poly((0,) * e + self.coeffs)

    def times_q_number(self, m: int) -> Poly:
        """Return self * [m]_q, for m >= 0: the prefix sums of self - q^m self,
        i.e. its quotient by 1 - q.  No polynomial multiplication is made."""
        if m < 0:
            raise ValueError(f"need m >= 0, got m={m}")
        pad = (0,) * m
        acc = list(accumulate(map(sub, self.coeffs + pad, pad + self.coeffs)))
        return Poly(acc[:-1])

    def fold(self, p: int, k: int) -> Poly:
        """The remainder of self modulo (q^p - 1)^k = (1 - q)^k ([p]_q)^k, of
        degree < kp, for p, k >= 1.  It keeps self's class modulo ([p]_q)^k and
        its value at q = 1, where q^p - 1 vanishes; for ([p]_q)^k it is not
        canonical.

        That modulus has k + 1 terms, all at multiples of p, so up to
        FOLD_BLOCK_CUTOFF blocks of p coefficients above the k kept, self is
        folded a block at a time.  Past that, stride sums are faster: in
        x = q^p, self is a polynomial whose coefficients are blocks of p
        coefficients, and the remainder is sum_{j<k} E_j (x - 1)^j, with E_j
        its Taylor coefficients at x = 1.  Read top block first, round j of
        stride-p prefix sums leaves E_j as the last block, which is removed
        before the next round; Horner in x - 1 then rebuilds the remainder.
        No polynomial multiplication is made.
        """
        if len(self.coeffs) <= k * p:
            return self
        if len(self.coeffs) <= (k + FOLD_BLOCK_CUTOFF) * p:
            r = list(self.coeffs)
            r += [0] * (-len(r) % p)
            blocks = [r[i:i + p] for i in range(0, len(r), p)]
            terms = [(j, (-1) ** (k - j) * comb(k, j)) for j in range(k)]
            for s in reversed(range(len(blocks) - k)):
                top = blocks[s + k]
                for j, c in terms:
                    blocks[s + j] = [x - c * y for x, y in zip(blocks[s + j], top)]
            return Poly([x for b in blocks[:k] for x in b])
        # blocks top first, each one reversed, so the lowest block ends the list
        acc = list(reversed(self.coeffs))
        taylor = []
        for _ in range(k):
            _stride_sums(acc, p)
            taylor.append(Poly(acc[:-p - 1:-1]))
            del acc[-p:]
        out = Poly()
        for e in reversed(taylor):
            out = out.shift(p) - out + e
        return out

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == (() if other == 0 else (other,))
        return NotImplemented

    def __hash__(self) -> int:
        # constants compare equal to ints, so they must hash alike
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    # The ring operations map operator functions over coefficient lists.  A list,
    # not tuple(map(...)): tuple() of an iterator with no length hint resizes a
    # 10-slot tuple, which drains one small-tuple free list and fills another.
    def __neg__(self) -> Poly:
        return Poly(list(map(neg, self.coeffs)))

    def __add__(self, other: Poly | int) -> Poly:
        if isinstance(other, int):
            other = Poly((other,))
        elif not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(map(add, a, b))
        out += a[len(b):]
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other: Poly | int) -> Poly:
        if isinstance(other, int):
            other = Poly((other,))
        elif not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = list(map(sub, a, b))
        out += a[len(b):]
        out += map(neg, b[len(a):])
        return Poly(out)

    def __rsub__(self, other: int) -> Poly:
        return Poly((other,)) - self

    def __mul__(self, other: Poly | int) -> Poly:
        if isinstance(other, int):
            if other == 0:
                return Poly()
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        if len(a) < len(b):
            a, b = b, a
        nb = len(b)
        out = [0] * (len(a) + nb - 1)
        for i, ai in enumerate(a):
            if ai:
                seg = out[i:i + nb]
                out[i:i + nb] = [s + ai * bj for s, bj in zip(seg, b)]
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def divrem_monic(self, m: Poly) -> tuple[Poly, Poly]:
        """Divide by a monic polynomial, returning (quotient, remainder).

        Monicity keeps every intermediate coefficient an integer and makes
        the remainder of degree < degree(m) unique.
        """
        if m.is_zero() or m.coeffs[-1] != 1:
            raise NonMonicDivisorError(f"divisor is not monic: {m}")
        dm = len(m.coeffs) - 1
        if dm == 0:
            return self, Poly()
        r = list(self.coeffs)
        if len(r) <= dm:
            return Poly(), self
        body = m.coeffs[:dm]
        quot = [0] * (len(r) - dm)
        for i in reversed(range(len(quot))):
            c = r[i + dm]
            if c:
                quot[i] = c
                seg = r[i:i + dm]
                r[i:i + dm] = [rv - c * mv for rv, mv in zip(seg, body)]
                r[i + dm] = 0
        return Poly(quot), Poly(r[:dm])

    def exact_div(self, b: Poly) -> Poly:
        """Return c with c * b == self, or raise NotDivisibleError.

        Works for arbitrary nonzero divisors by back-substituting from the
        leading coefficient; every quotient coefficient must come out an
        integer, and the final remainder must vanish.
        """
        if b.is_zero():
            raise ZeroDivisionError("exact division by the zero polynomial")
        if self.is_zero():
            return Poly()
        db = len(b.coeffs) - 1
        if len(self.coeffs) - 1 < db:
            raise NotDivisibleError(f"{self} is not divisible by {b}")
        lead = b.coeffs[-1]
        body = b.coeffs[:db]
        r = list(self.coeffs)
        quot = [0] * (len(r) - db)
        for i in reversed(range(len(quot))):
            c = r[i + db]
            step, frac = divmod(c, lead)
            if frac:
                raise NotDivisibleError(f"{self} is not divisible by {b}")
            if step:
                quot[i] = step
                seg = r[i:i + db]
                r[i:i + db] = [rv - step * bv for rv, bv in zip(seg, body)]
            r[i + db] = 0
        if any(r[:db]):
            raise NotDivisibleError(f"{self} is not divisible by {b}")
        return Poly(quot)

    def substitute_power(self, m: int) -> Poly:
        """Return self(q**m)."""
        if m < 1:
            raise ValueError(f"substitution power must be >= 1, got {m}")
        if m == 1 or self.is_zero():
            return self
        out = [0] * ((len(self.coeffs) - 1) * m + 1)
        for i, c in enumerate(self.coeffs):
            out[i * m] = c
        return Poly(out)

    def eval_at_one(self) -> int:
        """Value at q = 1, i.e. the coefficient sum."""
        return sum(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            elif i == 1:
                term = "q" if mag == 1 else f"{mag}*q"
            else:
                term = f"q^{i}" if mag == 1 else f"{mag}*q^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly('{self}')"


# Half-length steps: full ones made q_binomial builds ~1.6x slower (2-vCPU Xeon).
def half_times_q_ratio(half: list[int], degree: int, m: int, over: int) -> list[int]:
    """The lower half of f * [m]_q / [over]_q, for f palindromic of the given
    degree and half its coefficients 0..degree//2; m, over >= 1.

    The quotient is palindromic of degree degree + m - over, so only its
    lower half is computed: f is mirrored up to L = (degree + m)//2 + 1
    coefficients, d = f - q^m f is cut there, and the stride-over prefix sums
    T of d are the quotient by 1 - q^over.  d is anti-palindromic, so each
    class sum of d modulo over is a top-window entry of T minus a bottom
    one; [over]_q divides f [m]_q iff they all vanish, else NotDivisibleError.
    """
    if degree < 0 or m < 1 or over < 1 or len(half) != degree // 2 + 1 or not half[0]:
        raise ValueError(f"need the nonzero half of a palindrome of degree {degree} >= 0, "
                         f"m >= 1 and over >= 1; got {len(half)} coefficients, "
                         f"m={m}, over={over}")
    size = (degree + m) // 2 + 1
    top = (degree + 1) // 2
    mirrored = min(top, size - len(half))
    d = half + half[top - mirrored:top][::-1]
    d += [0] * (size - len(d))
    d[m:] = map(sub, d[m:], d)  # the map is drained before d changes
    _stride_sums(d, over)

    def window(end: int) -> list[int]:
        # d[end - over:end], a negative index reading 0
        return [0] * (over - end) + d[max(end - over, 0):end]

    if window(size)[::-1] != window(degree + m - size + 1):
        raise NotDivisibleError(
            f"f * [{m}]_q is not divisible by [{over}]_q for f of degree {degree}")
    del d[(degree + m - over) // 2 + 1:]
    return d


def pack(coeffs: Sequence[int], size: int) -> int:
    """The value at q = 2^(8 size) of the polynomial with these coefficients,
    for signed coefficients below 2^(8 size - 1) in absolute value: each
    slot holds c + 2^(8 size - 1) in size bytes, and the offsets are taken
    off the whole at once."""
    off = 1 << (8 * size - 1)
    data = b"".join([(c + off).to_bytes(size, "little") for c in coeffs])
    return int.from_bytes(data, "little") - _offsets(off, size, len(coeffs))


def unpack(x: int, size: int, n: int) -> list[int]:
    """The n coefficients that pack(coeffs, size) packed into x, for x the
    value at q = 2^(8 size) of a polynomial of degree < n whose coefficients
    are below 2^(8 size - 1) in absolute value.  With the offset added back
    to every slot, no slot borrows from the next, so each one is read as it
    stands."""
    off = 1 << (8 * size - 1)
    data = (x + _offsets(off, size, n)).to_bytes(n * size, "little")
    return [int.from_bytes(data[i:i + size], "little") - off for i in range(0, n * size, size)]


def _offsets(off: int, size: int, n: int) -> int:
    # off in each of n slots of size bytes
    return int.from_bytes(off.to_bytes(size, "little") * n, "little")


def packed_product(f: Poly, g: Poly) -> Poly:
    """f * g by Kronecker substitution (Harvey, J. Symbolic Comput. 44, 2009):
    one integer product of f and g packed at q = 2^(8 size), unpacked.

    No product coefficient exceeds max|f| max|g| min(len f, len g) in
    absolute value, so one bit above that bound, rounded up to whole bytes,
    is a wide enough slot.  Unlike the schoolbook loop of Poly.__mul__, it
    does not skip zero coefficients.  On a 2-vCPU Xeon, for the block-unit
    residues V(1) V(2) modulo ([p]_q)^k: dense from k = 4 on, it is 1.8x
    faster at 20 coefficients (p = 5) and 24x at 600 (p = 151); sparse (three
    nonzero coefficients) at k = 3, it is 20 us slower at p = 19 and 210 us
    at p = 151.
    """
    a, b = f.coeffs, g.coeffs
    if not a or not b:
        return Poly()
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    size = (bound.bit_length() + 8) // 8
    x = pack(a, size)
    y = x if a is b else pack(b, size)
    return Poly(unpack(x * y, size, len(a) + len(b) - 1))


def _stride_sums(acc: list[int], stride: int) -> None:
    """Replace acc, in place, by its prefix sums within each residue class
    of positions modulo stride."""
    for r in range(stride):
        acc[r::stride] = accumulate(acc[r::stride])


def _content(p: Poly) -> int:
    g = 0
    for c in p.coeffs:
        g = _int_gcd(g, c)
    return g


def _primitive(p: Poly) -> Poly:
    """Primitive part of p, normalized to a positive leading coefficient."""
    if p.is_zero():
        return p
    g = _content(p)
    if p.coeffs[-1] < 0:
        g = -g
    if g == 1:
        return p
    return Poly([c // g for c in p.coeffs])


def _pseudo_rem(a: Poly, b: Poly) -> Poly:
    # Remainder of lc(b)**t * a divided by b; stays in integer coefficients.
    db = len(b.coeffs) - 1
    lead = b.coeffs[-1]
    r = a
    while not r.is_zero() and len(r.coeffs) - 1 >= db:
        shift = len(r.coeffs) - 1 - db
        r = r * lead - b * Poly.monomial(shift, r.coeffs[-1])
    return r


def gcd_primitive(a: Poly, b: Poly) -> Poly:
    """Greatest common divisor over the rationals, as a primitive integer
    polynomial with positive leading coefficient.

    Uses a primitive pseudo-remainder sequence, so no rational arithmetic
    occurs at any point.  gcd_primitive(p, 0) is the primitive part of p.
    """
    a = _primitive(a)
    b = _primitive(b)
    while not b.is_zero():
        a, b = b, _primitive(_pseudo_rem(a, b))
    return a
