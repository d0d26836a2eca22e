"""Exact polynomial kernel: arithmetic, division, gcd."""

from __future__ import annotations

import random
from itertools import zip_longest
from math import isqrt
from operator import add, sub

import pytest
from conftest import palindrome
from hypothesis import given, strategies as hst

from qcong.poly import (
    NonMonicDivisorError,
    NotDivisibleError,
    Poly,
    gcd_primitive,
    half_times_q_ratio,
    pack,
    packed_product,
    unpack,
)
from qcong.qanalogs import q_number

# Random polynomials: coefficients up to 10**6, degree up to 50.
coeff_lists = hst.lists(hst.integers(-(10**6), 10**6), max_size=51)
polys = coeff_lists.map(Poly)
small_polys = hst.lists(hst.integers(-100, 100), max_size=12).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
monic_polys = hst.lists(hst.integers(-(10**3), 10**3), max_size=11).map(
    lambda cs: Poly(cs + [1])
)


def test_add_cancellation():
    assert Poly([1, 1]) + Poly([1, -1]) == Poly([2])


def test_add_identity():
    p = Poly([3, 0, -2, 7])
    assert p + Poly() == p
    assert Poly() + p == p


def test_sub_canonical_zero():
    z = Poly.monomial(2) - Poly.monomial(2)
    assert z.coeffs == ()
    assert z.is_zero()


def test_mul_difference_of_squares():
    assert Poly([1, 1]) * Poly([1, -1]) == Poly([1, 0, -1])


def test_mul_hand_expansion():
    assert Poly([1, 1, 1]) * Poly([1, 1]) == Poly([1, 2, 2, 1])


def test_mul_absorbing_zero():
    assert Poly([4, 5, 6]) * Poly() == Poly()


def test_int_operands():
    assert 2 * Poly([1, 1]) == Poly([2, 2])
    assert Poly([1, 1]) + 1 == Poly([2, 1])
    assert 1 - Poly([0, 1]) == Poly([1, -1])


def test_degree_is_a_sentinel_for_zero():
    assert Poly().degree is None
    assert Poly([7]).degree == 0
    assert Poly([0, 0, 3]).degree == 2
    with pytest.raises(TypeError):
        Poly().degree < 1  # noqa: B015 - the comparison itself must fail


@given(coeff_lists, hst.integers(0, 3))
def test_constructor_trims_every_input_form(cs, zeros):
    padded = cs + [0] * zeros
    trimmed = list(padded)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    for form in (padded, tuple(padded), iter(padded)):
        coeffs = Poly(form).coeffs
        assert type(coeffs) is tuple
        assert coeffs == tuple(trimmed)
    # an already-trimmed tuple is kept, not copied
    kept = tuple(trimmed)
    assert Poly(kept).coeffs is kept


def test_monomial_rejects_negative_exponent():
    with pytest.raises(ValueError):
        Poly.monomial(-1)


def test_shift_zero_and_identity():
    assert Poly().shift(5) == Poly()
    p = Poly([3, 0, -2])
    assert p.shift(0) == p
    assert p.shift(2) == Poly([0, 0, 3, 0, -2])
    with pytest.raises(ValueError):
        p.shift(-1)


@given(polys, hst.integers(0, 60))
def test_shift_matches_monomial_product(p, e):
    assert p.shift(e) == p * Poly.monomial(e)


# Long polynomials with wide coefficients of either sign: up to 300 terms of 300 bits.
wide_polys = hst.lists(hst.integers(-(2**300), 2**300), max_size=300).map(Poly)


@given(wide_polys, hst.integers(0, 80))
def test_times_q_number_matches_schoolbook_product(p, m):
    assert p.times_q_number(m) == p * q_number(m)


def test_times_q_number_edge_cases():
    assert Poly([3, -1, 4]).times_q_number(0) == Poly()
    assert Poly().times_q_number(5) == Poly()
    assert Poly([2, -3]).times_q_number(1) == Poly([2, -3])
    assert Poly([1, -1]).times_q_number(3) == Poly([1, 0, 0, -1])
    with pytest.raises(ValueError):
        Poly([1]).times_q_number(-1)


def _lower_half(f: Poly) -> list[int]:
    return list(f.coeffs[:f.degree // 2 + 1])


# Lower halves of nonzero palindromes: a nonzero constant term, up to 12 coefficients.
halves = hst.tuples(
    hst.integers(-100, 100).filter(bool), hst.lists(hst.integers(-100, 100), max_size=11)
).map(lambda t: [t[0], *t[1]])


@given(halves, hst.booleans(), hst.integers(1, 12), hst.integers(1, 6))
def test_half_times_q_ratio_matches_monic_division(half, odd, m, over):
    f = palindrome(half, odd)
    quot, rem = (f * q_number(m)).divrem_monic(q_number(over))
    if rem:
        with pytest.raises(NotDivisibleError):
            half_times_q_ratio(half, f.degree, m, over)
    else:
        assert half_times_q_ratio(half, f.degree, m, over) == _lower_half(quot)


@given(halves, hst.booleans(), hst.integers(1, 12), hst.integers(1, 6))
def test_half_times_q_ratio_divides_a_multiple_of_over(half, odd, m, over):
    f = palindrome(half, odd) * q_number(over)
    expected = palindrome(half, odd) * q_number(m)
    assert half_times_q_ratio(_lower_half(f), f.degree, m, over) == _lower_half(expected)


def test_half_times_q_ratio_edge_cases():
    # over beyond deg f + m + 1: a nonzero product never divides
    with pytest.raises(NotDivisibleError):
        half_times_q_ratio([1, 2], 2, 2, 9)
    with pytest.raises(NotDivisibleError):
        half_times_q_ratio([3], 0, 1, 3)
    # [over]_q itself, times [1]_q = 1, over [over]_q
    assert half_times_q_ratio([1, 1, 1], 4, 1, 5) == [1]
    assert half_times_q_ratio([1], 0, 7, 7) == [1]
    for bad in (([1], 0, 0, 1), ([1], 0, 1, 0), ([1, 2], 1, 1, 1),
                ([0, 2], 2, 1, 1), ([1], -1, 1, 1)):
        with pytest.raises(ValueError):
            half_times_q_ratio(*bad)


def test_divrem_monic_exact_factor():
    quot, rem = Poly([-1, 0, 1]).divrem_monic(Poly([-1, 1]))
    assert quot == Poly([1, 1])
    assert rem.is_zero()


def test_divrem_monic_single_step():
    quot, rem = Poly.monomial(3).divrem_monic(Poly([1, 0, 1]))
    assert quot == Poly([0, 1])
    assert rem == Poly([0, -1])


def test_divrem_monic_rejects_non_monic():
    with pytest.raises(NonMonicDivisorError):
        Poly([1, 1]).divrem_monic(Poly([1, 2]))
    with pytest.raises(NonMonicDivisorError):
        Poly([1, 1]).divrem_monic(Poly())


def test_exact_div_factorization():
    assert Poly([-1, 0, 0, 0, 1]).exact_div(Poly([-1, 0, 1])) == Poly([1, 0, 1])


def test_exact_div_q_numbers():
    assert q_number(6).exact_div(q_number(3)) == Poly([1, 0, 0, 1])


def test_exact_div_non_factor():
    with pytest.raises(NotDivisibleError):
        Poly([1, 0, 1]).exact_div(Poly([1, 1]))


def test_exact_div_fractional_step():
    with pytest.raises(NotDivisibleError):
        Poly([0, 1]).exact_div(Poly([2]))
    with pytest.raises(ZeroDivisionError):
        Poly([1]).exact_div(Poly())


def test_substitute_power():
    assert Poly([1, 1]).substitute_power(3) == Poly([1, 0, 0, 1])
    assert Poly.monomial(1).substitute_power(5) == Poly.monomial(5)
    assert q_number(3).substitute_power(2) == Poly([1, 0, 1, 0, 1])
    with pytest.raises(ValueError):
        Poly([1, 1]).substitute_power(0)


def test_eval_at_one():
    assert q_number(7).eval_at_one() == 7
    assert (Poly([-1, 1]) ** 2).eval_at_one() == 0
    assert Poly().eval_at_one() == 0


def test_gcd_of_q_numbers():
    assert gcd_primitive(q_number(2), q_number(4)) == q_number(2)
    assert gcd_primitive(q_number(2), q_number(5)) == Poly([1])


def test_gcd_with_zero_is_primitive_part():
    assert gcd_primitive(Poly([6, 12]), Poly()) == Poly([1, 2])
    assert gcd_primitive(Poly(), Poly([-2, -4])) == Poly([1, 2])
    assert gcd_primitive(Poly(), Poly()).is_zero()


def test_gcd_common_factor():
    a = Poly([1, 1]) * Poly([2, 0, 3])
    b = Poly([1, 1]) * Poly([-1, 5])
    assert gcd_primitive(a, b) == Poly([1, 1])


def test_constants_compare_and_hash_like_ints():
    assert Poly([2]) == 2
    assert Poly() == 0
    assert Poly([0, 1]) != 1
    assert hash(Poly([2])) == hash(2)
    assert hash(Poly()) == hash(0)
    assert len({Poly([3]), 3}) == 1


def test_str_and_repr():
    p = Poly([1, -1, 0, 2])
    assert str(p) == "1 - q + 2*q^3"
    assert repr(p) == "Poly('1 - q + 2*q^3')"
    assert str(Poly()) == "0"


@given(polys, polys)
def test_add_commutes(a, b):
    assert a + b == b + a


def _coefficientwise(op, a: Poly, b: Poly) -> tuple[int, ...]:
    cs = [op(x, y) for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0)]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@given(coeff_lists, coeff_lists, hst.integers(-(10**6), 10**6))
def test_add_sub_neg_match_a_coefficientwise_reference(xs, ys, c):
    # unequal lengths both ways, int operands (0 included), and differences
    # whose top coefficients cancel, down to the zero polynomial
    a, b, const = Poly(xs), Poly(ys), Poly((c,))
    top_shared = Poly(ys + xs[len(ys):])
    for x, y in ((a, b), (b, a), (a, top_shared), (a, a)):
        assert (x + y).coeffs == _coefficientwise(add, x, y)
        assert (x - y).coeffs == _coefficientwise(sub, x, y)
    assert (-a).coeffs == _coefficientwise(sub, Poly(), a)
    assert (a - a).coeffs == (a + -a).coeffs == ()
    assert (a + c).coeffs == (c + a).coeffs == _coefficientwise(add, a, const)
    assert (a - c).coeffs == _coefficientwise(sub, a, const)
    assert (c - a).coeffs == _coefficientwise(sub, const, a)


@given(polys, polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(small_polys, small_polys, small_polys)
def test_associativity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@given(small_polys, small_polys, small_polys)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


# Signed coefficients of mixed sizes up to 2^300, so that operand lengths and
# magnitudes differ; lists of zeros are the zero polynomial.
kernel_polys = hst.lists(
    hst.one_of(hst.integers(-2, 2), hst.integers(-(2**300), 2**300)), max_size=40
).map(Poly)


@given(kernel_polys, kernel_polys)
def test_packed_product_matches_schoolbook_product(f, g):
    assert packed_product(f, g) == f * g


@pytest.mark.parametrize("f,g", [
    ([], []), ([], [5]), ([0, 0], [1, -2, 3]), ([7], [-3]), ([-(2**300)], [2**300, 0, -1]),
    ([1, -1], [2**200, 0, 0, 0, 0, 0, 0, 0, 0, -(2**200)]), ([0, 0, 0, 4], [0, -1]),
])
def test_packed_product_edge_cases(f, g):
    f, g = Poly(f), Poly(g)
    assert packed_product(f, g) == f * g == packed_product(g, f)
    assert packed_product(f, f) == f * f


@given(hst.integers(1, 40).flatmap(lambda size: hst.tuples(
    hst.just(size),
    hst.lists(hst.integers(-(2 ** (8 * size - 1)), 2 ** (8 * size - 1) - 1), max_size=30))))
def test_unpack_inverts_pack(size_cs):
    size, cs = size_cs
    assert unpack(pack(cs, size), size, len(cs)) == cs


@pytest.mark.parametrize("size,m,n", [(1, 2, 3), (2, 3, 5), (5, 20, 7), (38, 40, 40)])
@pytest.mark.parametrize("signs", ["++", "+-", "alternating"])
def test_a_slot_one_bit_narrower_than_the_bound_is_caught(size, m, n, signs):
    # every coefficient is +-top, where top^2 min(m, n) has exactly 8 size bits,
    # so the kernel needs 8 size + 1 bits and rounds up to size + 1 bytes;
    # slots of size bytes, one bit narrower, wrap an extreme coefficient
    top = isqrt(((1 << 8 * size) - 1) // min(m, n))
    bound = top * top * min(m, n)
    assert bound.bit_length() == 8 * size and bound > 1 << (8 * size - 1)
    f = Poly([(-top if signs == "alternating" and i % 2 else top) for i in range(m)])
    g = Poly([(-top if signs == "+-" or signs == "alternating" and i % 2 else top)
              for i in range(n)])
    narrow = unpack(pack(f.coeffs, size) * pack(g.coeffs, size), size, m + n - 1)
    assert Poly(narrow) != f * g
    assert packed_product(f, g) == f * g


@given(polys, monic_polys)
def test_divrem_monic_round_trip(a, m):
    quot, rem = a.divrem_monic(m)
    assert quot * m + rem == a
    assert rem.is_zero() or rem.degree < m.degree


@given(polys, nonzero_polys)
def test_exact_div_inverts_mul(a, b):
    assert (a * b).exact_div(b) == a


@given(polys, hst.integers(1, 5))
def test_substitute_power_identities(a, m):
    assert a.substitute_power(1) == a
    assert a.substitute_power(m).eval_at_one() == a.eval_at_one()


@given(polys, polys)
def test_eval_at_one_is_a_ring_homomorphism(a, b):
    assert (a * b).eval_at_one() == a.eval_at_one() * b.eval_at_one()
    assert (a + b).eval_at_one() == a.eval_at_one() + b.eval_at_one()


def test_divrem_against_sympy():
    sympy = pytest.importorskip("sympy")
    q = sympy.symbols("q")
    rng = random.Random(7)
    for _ in range(20):
        a = Poly([rng.randint(-50, 50) for _ in range(rng.randint(0, 25))])
        m = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 8))] + [1])
        quot, rem = a.divrem_monic(m)
        sa = sum(c * q**i for i, c in enumerate(a.coeffs))
        sm = sum(c * q**i for i, c in enumerate(m.coeffs))
        squot, srem = sympy.div(sa, sm, q, domain="QQ")
        assert sympy.expand(squot - sum(c * q**i for i, c in enumerate(quot.coeffs))) == 0
        assert sympy.expand(srem - sum(c * q**i for i, c in enumerate(rem.coeffs))) == 0
