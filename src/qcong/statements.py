"""One verifiable check per congruence or identity in the statement catalog,
the STATEMENTS table that drivers run them from, and binomial_residue, the
one cached path from a Gaussian binomial to its residue modulo ([p]_q)^power.

Every check returns its parameters and the reduced difference that should
be zero, so a driver can report exactly what broke; timing and naming an
instance are the driver's business.  Statements quantified over primes
p >= 5 reject smaller primes with PrecondViolationError instead of
reporting a failure; "does not apply" and "is false" are kept distinct.
The one exception is check_classical, which accepts p = 3 so the known
failure of the mod-p^3 congruence there can serve as a negative control.
A compound check (shipan, power_reduction, classical) has one 0/1 flag
per part in its params, and the residue of its first failing part.
The binomial congruences (clark, cong2, q_ljunggren, q_wolstenholme,
jacobsthal's q_exponent and power_reduction's central binomial) and the
CLI's reduce command read their residues from binomial_residue, whose
docstring says how it does without building C_q(ap, bp).
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import comb, factorial
from typing import Callable, Literal, NamedTuple

from .congruence import CongruenceContext, q_double_harmonic, q_harmonic_sum
from .poly import Poly
from .qanalogs import is_prime, q_binomial, q_number

class PrecondViolationError(ValueError):
    """The requested parameters are outside a statement's hypotheses, or over
    the run's size budget; either way the instance is skipped, not failed."""


class CheckResult(NamedTuple):
    """Outcome of one verified statement instance.

    ``residue`` is the reduced difference that should be zero; the check
    passed exactly when it is.  ``witness`` is the residue of a failed
    check and None for a passed one.  For a compound check, ``params``
    holds one 0/1 ``*_ok`` flag per part and ``residue`` is that of the
    first failing part.
    """

    params: dict[str, int]
    residue: Poly

    @property
    def passed(self) -> bool:
        return self.residue.is_zero()

    @property
    def witness(self) -> Poly | None:
        return None if self.passed else self.residue


def _require_prime(p: int, statement: str, minimum: int = 2) -> None:
    if not is_prime(p):
        raise PrecondViolationError(f"{statement} needs a prime p, got {p}")
    if p < minimum:
        raise PrecondViolationError(f"{statement} needs p >= {minimum}, got p={p}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise PrecondViolationError(message)


def _exact_scalar(numerator: int, divisor: int) -> int:
    value, frac = divmod(numerator, divisor)
    if frac:
        raise PrecondViolationError(
            f"scalar coefficient {numerator}/{divisor} is not an integer"
        )
    return value


def _parts(params: dict[str, int], **residues: Poly) -> CheckResult:
    """A compound check's result: params, then one flag per keyword, 1 when
    that part's residue is zero; the residue is the first nonzero part."""
    flags = {name: int(not r) for name, r in residues.items()}
    first_failure = next((r for r in residues.values() if r), Poly())
    return CheckResult({**params, **flags}, first_failure)


def _q_power_minus_one(m: int, j: int) -> Poly:
    # (q^m - 1)^j by the binomial theorem, with no product
    return Poly([(-1) ** (j - i) * comb(j, i) for i in range(j + 1)]).substitute_power(m)


def _two_power(p: int) -> Poly:
    # [2] evaluated at q^(p^2), i.e. 1 + q^(p^2)
    return q_number(2).substitute_power(p * p)


@lru_cache(maxsize=None)
def binomial_residue(n: int, k: int, p: int, power: int) -> Poly:
    """C_q(n, k) reduced modulo M = ([p]_q)^power for 0 <= k <= n, cached.  For
    2k > n it is C_q(n, n-k)'s entry, so each symmetric pair is reduced once.

    For n = ap and k = bp >= p, C_q(n, k) is never built: as for integer
    binomials modulo p^k (Granville, CMS Conf. Proc. 20, 1997), each
    q-factorial splits into a part at multiples of p and a unit part.  The
    factors [(a-b)p + i]_q / [i]_q of C_q(ap, bp) with p | i make
    C_{q^p}(a, b), and the others, in blocks of p - 1, the unit part
    P(a) / (P(b) P(a-b)), where P(t) is the product of the block units V(j)
    over j < t: the product of V(j) over a - b <= j < a, over P(b), and as
    V(0) = C_q(p - 1, p - 1) is 1, P(b) is the product over 0 < j < b, so b = 1
    inverts nothing.  Only C_x(a, b) modulo (x - 1)^power is needed, since M
    divides it at x = q^p: at most power terms, so it multiplies as shifts.
    Otherwise C_q(n, k) is built and reduced.
    """
    if 2 * k > n:
        return binomial_residue(n, n - k, p, power)
    ctx = CongruenceContext(p, power)
    if k < p or n % p or k % p:
        return ctx.reduce(q_binomial(n, k))
    a, b = n // p, k // p
    unit = _block_product(ctx, range(a - b, a))
    if b > 1:
        unit = ctx.reduce(unit * _unit_inverse(ctx, _block_product(ctx, range(1, b))))
    outer = q_binomial(a, b).fold(1, power)
    shifts = sum(((unit * c).shift(j * p) for j, c in enumerate(outer.coeffs)), Poly())
    return ctx.reduce(shifts)


def _block_product(ctx: CongruenceContext, js: range) -> Poly:
    """The product of the block units V(j) = C_q(jp + p - 1, p - 1) over js
    modulo ctx's M = ([p]_q)^k, reduced after each factor.

    V(j) is the product of [jp + r]_q / [r]_q over 0 < r < p, and
    [jp + r]_q = [r]_q + q^r [p]_q [j]_(q^p), where [j]_x is the sum of
    binom(j, i+1) (x - 1)^i; so modulo M, V(j) is a polynomial in j of degree
    < k.  So only V(1), ..., V(t) for t < min(k, js[-1] + 1) are built, each a
    binomial_residue with bottom p - 1 < p; with V(0) = 1 their forward
    differences at 0 are taken once, and every V(j) is Newton's form, the sum
    of binom(j, i) times the i-th difference, exact at the sampled j too.
    """
    p, k = ctx.p, ctx.k
    diffs = [Poly((1,))]
    diffs += [binomial_residue(t * p + p - 1, p - 1, p, k) for t in range(1, min(k, js[-1] + 1))]
    for i in range(1, len(diffs)):  # diffs[i] becomes the i-th difference at 0
        for j in reversed(range(i, len(diffs))):
            diffs[j] = diffs[j] - diffs[j - 1]
    units = (sum((comb(j, i) * d for i, d in enumerate(diffs)), Poly()) for j in js)
    out = next(units)
    for unit in units:
        out = ctx.reduce(out * unit)
    return out


def _unit_inverse(ctx: CongruenceContext, u: Poly) -> Poly:
    """1/u modulo M = ([p]_q)^k for u = 1 modulo [p]_q, as every block unit is
    by q-Lucas: (1 - u)^k vanishes modulo M, so 1/u is the sum of (1 - u)^i
    over i < k, with integer coefficients, taken by Horner's rule from its
    last two terms, 1 + (1 - u) = 2 - u (for k = 1 also 1 modulo M)."""
    inverse = 2 - u
    for _ in range(ctx.k - 2):
        inverse = 1 + ctx.reduce((1 - u) * inverse)
    return inverse


def _binomial_gap(p: int, a: int, b: int, k: int, correction: Poly | int) -> Poly:
    """C_q(ap, bp) - C_{q^(p^2)}(a, b) - correction modulo ([p]_q)^k, as a
    short representative: not canonical, so reduce it again.

    The left side is binomial_residue's; the right side is C_{x^p}(a, b)
    folded modulo (x - 1)^k at x = q^p, which ([p]_q)^k divides.  Neither
    side forms a polynomial of degree b(a-b)p^2, and since reduce is
    canonical and Z-linear, the reduced gap is that of the full one.
    """
    lhs = binomial_residue(a * p, b * p, p, k)
    rhs = q_binomial(a, b).substitute_power(p).fold(1, k).substitute_power(p)
    return lhs - rhs - correction


def _ljunggren_gap(p: int, a: int, b: int, k: int) -> Poly:
    """Left side minus right side of check_q_ljunggren's congruence modulo
    ([p]_q)^k, as _binomial_gap's short representative."""
    corr = comb(a, b + 1) * comb(b + 1, 2) * _exact_scalar(p * p - 1, 12)
    return _binomial_gap(p, a, b, k, -corr * _q_power_minus_one(p, 2))


def _chu_sum(m: int, n: int, k: int, right: Callable[[int], Poly]) -> Poly:
    """Sum of C_q(m, j) right(k-j) q^(j(n-k+j)) over every j with 0 <= j <= m and
    0 <= k-j <= n, as exact Poly products.  With right = C_q(n, .) the sum is
    C_q(m+n, k), the q-Chu-Vandermonde sum."""
    js = range(max(0, k - n), min(m, k) + 1)
    return sum(((q_binomial(m, j) * right(k - j)).shift(j * (n - k + j)) for j in js), Poly())


def check_qchu(m: int, n: int, k: int) -> CheckResult:
    """q-analog of the Chu-Vandermonde convolution, as an exact identity:

        C_q(m+n, k) = sum_j C_q(m, j) C_q(n, k-j) q^(j(n-k+j)).
    """
    _require(m >= 0 and n >= 0 and k >= 0, "qchu needs nonnegative m, n, k")
    rhs = _chu_sum(m, n, k, partial(q_binomial, n))
    return CheckResult({"m": m, "n": n, "k": k}, q_binomial(m + n, k) - rhs)


def check_expansion_identity(
    p: int, a: int, b: int, budget: int = 10**6
) -> CheckResult:
    """Multinomial expansion of C_q(ap, bp) over bounded compositions:

        C_q(ap, bp) = sum over c_1+...+c_a = bp, 0 <= c_i <= p, of
            prod_i C_q(p, c_i) * q^(p*sum (i-1)c_i - sum_{i<j} c_i c_j).

    The right side enumerates no composition: one Chu step per part takes
    the sums f_s over c_1+...+c_i = s to the prefix sums t that can still
    reach bp, f'_t = sum_c C_q(p, c) f_(t-c) q^(c(ip-t+c)).  The budget
    caps the (p+1)^a compositions that the right side stands for.
    """
    _require_prime(p, "expansion")
    _require(0 <= b <= a, f"expansion needs 0 <= b <= a, got a={a}, b={b}")
    _require((p + 1) ** a <= budget, f"(p+1)^a = {(p + 1) ** a} exceeds the budget {budget}")
    target = b * p
    layer = {0: Poly((1,))}
    for i in range(a):
        reachable = range(max(0, target - (a - 1 - i) * p), min(target, (i + 1) * p) + 1)
        # for each such t, _chu_sum's j range reads exactly the keys of layer
        layer = {t: _chu_sum(p, i * p, t, layer.__getitem__) for t in reachable}
    return CheckResult({"p": p, "a": a, "b": b}, q_binomial(a * p, b * p) - layer[target])


def check_convolution_identity(p: int) -> CheckResult:
    """The peeled convolution identity

        sum_{d=1..p-1} C_q(p, d) C_q(p, p-d) q^(d^2)
            = C_q(2p, p) - (1 + q^(p^2)),

    exact for every prime p >= 2: check_qchu at m = n = k = p, whose d = 0
    and d = p terms are exactly 1 and q^(p^2), so the full sum minus
    C_q(2p, p) is this identity's difference.
    """
    _require_prime(p, "convolution")
    lhs = _chu_sum(p, p, p, partial(q_binomial, p))
    return CheckResult({"p": p}, lhs - q_binomial(2 * p, p))


def check_clark(p: int, a: int, b: int, k: int = 2) -> CheckResult:
    """Clark's congruence: C_q(ap, bp) = C_{q^(p^2)}(a, b) mod ([p]_q)^2."""
    _require_prime(p, "clark")
    _require(0 <= b <= a, f"clark needs 0 <= b <= a, got a={a}, b={b}")
    diff = CongruenceContext(p, k).reduce(_binomial_gap(p, a, b, k, 0))
    return CheckResult({"p": p, "a": a, "b": b, "k": k}, diff)


def check_q_ljunggren(p: int, a: int, b: int, k: int = 3) -> CheckResult:
    """q-analog of Ljunggren's congruence: for primes p >= 5,

        C_q(ap, bp) = C_{q^(p^2)}(a, b)
            - binom(a, b+1) binom(b+1, 2) ((p^2-1)/12) (q^p - 1)^2

    modulo ([p]_q)^3.
    """
    _require_prime(p, "q_ljunggren", minimum=5)
    _require(0 <= b <= a, f"q_ljunggren needs 0 <= b <= a, got a={a}, b={b}")
    diff = CongruenceContext(p, k).reduce(_ljunggren_gap(p, a, b, k))
    return CheckResult({"p": p, "a": a, "b": b, "k": k}, diff)


def check_cong2(p: int, a: int, b: int, k: int = 3) -> CheckResult:
    """Reduction of the general case to the central one: for primes p >= 5,

        C_q(ap, bp) = C_{q^(p^2)}(a, b)
            + binom(a, b+1) binom(b+1, 2) (C_q(2p, p) - (1 + q^(p^2)))

    modulo ([p]_q)^3.
    """
    _require_prime(p, "cong2", minimum=5)
    _require(0 <= b <= a, f"cong2 needs 0 <= b <= a, got a={a}, b={b}")
    # C_q(2p, p) - (1 + q^(p^2)) is the gap at (a, b) = (2, 1)
    correction = comb(a, b + 1) * comb(b + 1, 2) * _binomial_gap(p, 2, 1, k, 0)
    diff = CongruenceContext(p, k).reduce(_binomial_gap(p, a, b, k, correction))
    return CheckResult({"p": p, "a": a, "b": b, "k": k}, diff)


def check_q_wolstenholme(p: int, k: int = 3) -> CheckResult:
    """q-analog of Wolstenholme's congruence: for primes p >= 5,

        C_q(2p, p) = 1 + q^(p^2) - ((p^2-1)/12) (q^p - 1)^2

    modulo ([p]_q)^3.  This is the a=2, b=1 case of check_q_ljunggren.
    """
    _require_prime(p, "q_wolstenholme", minimum=5)
    diff = CongruenceContext(p, k).reduce(_ljunggren_gap(p, 2, 1, k))
    return CheckResult({"p": p, "k": k}, diff)


def check_shipan(p: int) -> CheckResult:
    """Shi and Pan's q-harmonic congruences: for primes p >= 5,

        sum 1/[i]_q   = -((p-1)/2)(q-1) + ((p^2-1)/24)(q-1)^2 [p]_q
                                                     mod ([p]_q)^2,
        sum 1/[i]_q^2 = -((p-1)(p-5)/12)(q-1)^2      mod [p]_q.
    """
    _require_prime(p, "shipan", minimum=5)
    ctx2 = CongruenceContext(p, 2)
    num1, den1 = q_harmonic_sum(ctx2, 1)
    rhs1 = (
        -_exact_scalar(p - 1, 2) * _q_power_minus_one(1, 1)
        + (_exact_scalar(p * p - 1, 24) * _q_power_minus_one(1, 2)).times_q_number(p)
    )

    ctx1 = CongruenceContext(p, 1)
    num2, den2 = q_harmonic_sum(ctx1, 2)
    rhs2 = -_exact_scalar((p - 1) * (p - 5), 12) * _q_power_minus_one(1, 2)

    return _parts(
        {"p": p},
        harmonic1_ok=ctx2.frac_residue(num1, den1, rhs1),
        harmonic2_ok=ctx1.frac_residue(num2, den2, rhs2),
    )


def check_double_harmonic(p: int) -> CheckResult:
    """Double q-harmonic congruence: for primes p >= 5,

        sum_{i<j} 1/([i]_q [j]_q) = ((p-1)(p-2)/6)(q-1)^2  mod [p]_q.
    """
    _require_prime(p, "double_harmonic", minimum=5)
    ctx = CongruenceContext(p, 1)
    num, den = q_double_harmonic(ctx)
    rhs = _exact_scalar((p - 1) * (p - 2), 6) * _q_power_minus_one(1, 2)
    return CheckResult({"p": p}, ctx.frac_residue(num, den, rhs))


def check_power_reduction(p: int) -> CheckResult:
    """The three reductions modulo ([p]_q)^3 that pin down C_q(2p, p):

    (i)   C_q(2p, p) against its harmonic-product form
          (1 + q^p)(q^(p(p-1)) + q^(p(p-2)) [p]_q H1 + q^(p(p-3)) [p]_q^2 H2'),
          where H1 sums 1/[i]_q and H2' sums 1/([i]_q [j]_q) over i < j;
    (ii)  C_q(2p, p)  = 2 + p(q^p - 1) + ((p-1)(5p-1)/12)(q^p - 1)^2;
    (iii) 1 + q^(p^2) = 2 + p(q^p - 1) + ((p-1)p/2)(q^p - 1)^2.

    (i) is cleared over den = [p-1]_q!, the denominator that H1 and H2'
    share, so its only general product is C_q(2p, p) times den.  C_q(2p, p)
    is the binomial congruences' shared residue.
    """
    _require_prime(p, "power_reduction", minimum=5)
    ctx = CongruenceContext(p, 3)
    central = binomial_residue(2 * p, p, p, 3)
    h1_num, den = q_harmonic_sum(ctx, 1)
    dh_num, _ = q_double_harmonic(ctx)
    num = (
        den.shift(p * (p - 1))
        + h1_num.times_q_number(p).shift(p * (p - 2))
        + dh_num.times_q_number(p).times_q_number(p).shift(p * (p - 3))
    )
    num = num + num.shift(p)  # times 1 + q^p

    qp1, qp1_squared = _q_power_minus_one(p, 1), _q_power_minus_one(p, 2)
    rhs2 = 2 + p * qp1 + _exact_scalar((p - 1) * (5 * p - 1), 12) * qp1_squared
    rhs3 = 2 + p * qp1 + _exact_scalar((p - 1) * p, 2) * qp1_squared
    return _parts(
        {"p": p},
        harmonic_form_ok=ctx.frac_residue(num, den, central),
        central_reduction_ok=ctx.reduce(central - rhs2),
        two_power_ok=ctx.reduce(_two_power(p) - rhs3),
    )


def check_classical(p: int, a: int, b: int) -> CheckResult:
    """The classical integer congruences at q = 1:

        binom(ap, bp) = binom(a, b)  mod p^3,
        sum 1/i   = 0  mod p^2,
        sum 1/i^2 = 0  mod p,

    with the harmonic sums cleared over the denominator (p-1)!^s.  All
    three hold for primes p >= 5; smaller primes are accepted and report
    their genuine failures, p = 3 being the documented negative control.
    """
    _require_prime(p, "classical")
    _require(0 <= b <= a, f"classical needs 0 <= b <= a, got a={a}, b={b}")
    binom_res = (comb(a * p, b * p) - comb(a, b)) % p ** 3

    fact = factorial(p - 1)
    h1 = sum(fact // i for i in range(1, p)) % p ** 2
    h2 = sum((fact * fact) // (i * i) for i in range(1, p)) % p

    return _parts(
        {"p": p, "a": a, "b": b},
        binom_ok=Poly((binom_res,)),
        harmonic1_ok=Poly((h1,)),
        harmonic2_ok=Poly((h2,)),
    )


def check_jacobsthal(p: int, a: int, b: int) -> CheckResult:
    """Jacobsthal's sharpening: binom(ap, bp) = binom(a, b) mod p^(3+r)
    with r the p-adic valuation of a*b*(a-b)*binom(a, b), for p >= 5 and
    0 < b < a.  Also cross-checks the identity

        a*b*(a-b)*binom(a, b) = 2a * binom(a, b+1) * binom(b+1, 2).

    The residue is binom(ap, bp) - binom(a, b) mod p^(3+r), or the
    identity's gap when that is zero.  ``q_exponent`` in the params is the
    q-side of that sharpening, as exploratory data: the largest k <= 5 for
    which check_q_ljunggren's corrected congruence holds modulo ([p]_q)^k.
    """
    _require_prime(p, "jacobsthal", minimum=5)
    _require(0 < b < a, f"jacobsthal needs 0 < b < a, got a={a}, b={b}")
    value = a * b * (a - b) * comb(a, b)
    r = 0
    while value % p ** (r + 1) == 0:
        r += 1
    residue = (comb(a * p, b * p) - comb(a, b)) % p ** (3 + r)
    identity_gap = value - 2 * a * comb(a, b + 1) * comb(b + 1, 2)
    q_exponent = CongruenceContext(p, 5).valuation(_ljunggren_gap(p, a, b, 5))
    return CheckResult(
        {"p": p, "a": a, "b": b, "r": r, "q_exponent": q_exponent},
        Poly((residue or identity_gap,)),
    )


class Statement(NamedTuple):
    """How a driver instantiates and runs one catalog statement.

    ``grid`` is the parameter shape: (m, n, k), p alone, (p, a, b) with
    0 <= b <= a, or (p, a, b) with 0 < b < a.  A curated catalog run uses
    primes from ``min_p`` up, plus ``control_primes`` as negative controls
    whose failures are expected.  ``run`` takes the grid's parameters and
    the run-wide ``settings`` it accepts (``k``, ``budget``) as keywords
    and returns the check's CheckResult; the driver times the call and
    names the result by the table key.  ``run`` looks the check up by
    module name at call time, so a wrapped check is the one that runs.
    """

    grid: Literal["mnk", "p", "pab", "pab_inner"]
    run: Callable[..., CheckResult]
    min_p: int = 5
    control_primes: tuple[int, ...] = ()
    settings: tuple[str, ...] = ()


#: The statement catalog, keyed by the stable ids the CLI accepts.
STATEMENTS: dict[str, Statement] = {
    "clark": Statement("pab", lambda **kw: check_clark(**kw), min_p=2, settings=("k",)),
    "classical": Statement("pab", lambda **kw: check_classical(**kw), control_primes=(3,)),
    "cong2": Statement("pab", lambda **kw: check_cong2(**kw), settings=("k",)),
    "convolution": Statement("p", lambda **kw: check_convolution_identity(**kw), min_p=2),
    "double_harmonic": Statement("p", lambda **kw: check_double_harmonic(**kw)),
    "expansion": Statement(
        "pab", lambda **kw: check_expansion_identity(**kw), min_p=2, settings=("budget",)
    ),
    "jacobsthal": Statement("pab_inner", lambda **kw: check_jacobsthal(**kw)),
    "power_reduction": Statement("p", lambda **kw: check_power_reduction(**kw)),
    "q_ljunggren": Statement("pab", lambda **kw: check_q_ljunggren(**kw), settings=("k",)),
    "q_wolstenholme": Statement(
        "p", lambda **kw: check_q_wolstenholme(**kw), settings=("k",)
    ),
    "qchu": Statement("mnk", lambda **kw: check_qchu(**kw)),
    "shipan": Statement("p", lambda **kw: check_shipan(**kw)),
}

#: Stable statement identifiers, as accepted by the CLI.
STATEMENT_IDS = tuple(STATEMENTS)
