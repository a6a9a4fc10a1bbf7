import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import poly_mul_unreduced

from idemring.errors import ModulusMismatch, NotConstant, PolyParseError, UnsatisfiableParams
from idemring.modarith import MILLER_RABIN_LIMIT
from idemring.polyring import (
    KRONECKER_MIN_LENGTH,
    MAX_GENERATE_DEGREE,
    Poly,
    mul_coeffs,
    parse_poly,
)

N = 105


def P(*coeffs):
    return Poly(N, coeffs)


def test_normalization_drops_trailing_zeros():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    assert P(0, 0).coeffs == ()
    assert Poly(N, P(5, 7).coeffs) == P(5, 7)


def test_degree_sentinel():
    assert P().degree == float("-inf")
    assert P(3).degree == 0
    assert P(0, 0, 4).degree == 2
    assert P().degree < -10**9


def test_add_cancellation():
    # (x + 1) + (n-1)*x collapses to the constant 1
    assert P(1, 1) + P(0, N - 1) == P(1)
    assert P(3, 5) + P() == P(3, 5)


def test_add_example_mod_105():
    assert P(0, 70) + P(0, 70) == P(0, 35)


def test_mul_degree_collapse():
    assert P(0, 15) * P(0, 7) == P()
    assert P(9, 4, 1) * 1 == P(9, 4, 1)


def test_mul_small_expansion():
    assert P(1, 1) * P(1, 1) == P(1, 2, 1)


def test_scale_examples():
    assert 0 * P(3, 1, 4) == P()
    assert 15 * P(7, 1) == P(0, 15)


def test_sub_self_is_zero():
    a = P(10, 20, 30)
    assert (a - a).is_zero()
    assert (1 - P(0, 1)) == P(1, N - 1)


def test_const_value():
    assert P(36).const_value() == 36
    assert P().const_value() == 0
    with pytest.raises(NotConstant):
        P(1, 1).const_value()


def test_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        Poly(105, (1,)) + Poly(385, (1,))
    with pytest.raises(ModulusMismatch):
        Poly(105, (1,)) * Poly(385, (1,))


def test_int_equality():
    assert P(36) == 36
    assert P(36) == 36 + N
    assert P(0, 1) != 1


def test_ring_axioms_bulk():
    rng = random.Random(42)

    def rand_poly():
        return Poly(N, [rng.randrange(N) for _ in range(rng.randint(0, 7))])

    for _ in range(10_000):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


poly_st = st.builds(
    lambda cs: Poly(N, cs), st.lists(st.integers(0, N - 1), max_size=7)
)


@given(poly_st, poly_st)
def test_degree_laws(a, b):
    assert (a + b).degree <= max(a.degree, b.degree)
    assert (a * b).degree <= a.degree + b.degree


def _exact(p):
    return all(type(c) is int for c in p.coeffs)


@given(poly_st, poly_st, st.integers(-2 * N, 2 * N) | st.booleans())
def test_arithmetic_is_the_constructor_of_its_ints(a, b, k):
    # each operator's result is the Poly the public constructor makes of
    # the same unreduced ints: reduced, stripped, exact ints; and the
    # constructor still turns bools (here and in k) into exact ints
    x, y = list(a.coeffs), list(b.coeffs)
    bits = Poly(N, [c % 2 == 1 for c in x])
    assert bits.coeffs == Poly(N, [c % 2 for c in x]).coeffs and _exact(bits)
    size = max(len(x), len(y))
    xs, ys = x + [0] * (size - len(x)), y + [0] * (size - len(y))
    x0 = x or [0]
    results = [
        (a + b, [p + q for p, q in zip(xs, ys)]),
        (-a, [-c for c in x]),
        (a - b, [p - q for p, q in zip(xs, ys)]),
        (a * b, poly_mul_unreduced(x, y)),
        (a + k, [x0[0] + k, *x0[1:]]),
        (k * a, [k * c for c in x]),
        (k - a, [k - x0[0], *(-c for c in x0[1:])]),
    ]
    for got, ints in results:
        want = Poly(N, ints)
        assert got.coeffs == want.coeffs and got.n == want.n
        assert _exact(got) and _exact(want)


@given(poly_st)
def test_render_parse_round_trip(a):
    assert parse_poly(N, a.render()) == a


def test_parse_grammar():
    assert parse_poly(N, " 3 +  2*x + x^2 ") == P(3, 2, 1)
    assert parse_poly(N, "x") == P(0, 1)
    assert parse_poly(N, "7x") == P(0, 7)
    assert parse_poly(N, "-x + 1") == P(1, N - 1)
    assert parse_poly(N, "x^3 + x^3") == P(0, 0, 0, 2)
    assert parse_poly(N, "2*x^3 - 4") == P(N - 4, 0, 0, 2)
    assert parse_poly(N, "0") == P()


def test_parse_rejects_garbage():
    for bad in ("", "x^", "3**x", "y + 1", "1 + + 2"):
        with pytest.raises(PolyParseError):
            parse_poly(N, bad)
    # numbers past the int digit limit
    for template in ("{}", "{}*x", "x^{}", "2*x^{}"):
        with pytest.raises(PolyParseError, match="^bad term of "):
            parse_poly(N, template.format("7" * 5000))


def test_parse_degree_limit_comes_before_the_dense_list():
    # a 10^10-term list would not fit in memory; both calls return at once
    with pytest.raises(UnsatisfiableParams, match="^polynomial of degree 10000000000 exceeds the limit 1000$"):
        parse_poly(N, "x^10000000000")
    assert parse_poly(N, "x^10000000000 - x^10000000000 + x") == P(0, 1)
    # the limit applies to the reduced degree, as generate's does
    assert MAX_GENERATE_DEGREE == 1000
    assert parse_poly(N, f"{N}*x^5000 + x^1000") == Poly(N, [0] * 1000 + [1])
    with pytest.raises(UnsatisfiableParams):
        parse_poly(N, "x^1001 + 1")


# 2, the round trip's 385, a prime cofactor near 10**12 and n just below
# the primality test's limit, about 3.3 * 10**24
KERNEL_MODULI = (2, 385, 5 * 7 * 999999999989, MILLER_RABIN_LIMIT - 1)


@st.composite
def _factor_pairs(draw):
    """(n, a, b): two residue lists of any lengths up to three thresholds,
    all n - 1 (the largest product coefficients) in a share of the draws
    and one factor a scalar (length 1) in another."""
    n = draw(st.sampled_from(KERNEL_MODULI))
    shape = draw(st.sampled_from(("any", "worst", "scalar")))
    lengths = st.integers(0, 3 * KRONECKER_MIN_LENGTH)
    if shape == "worst":
        return n, [n - 1] * draw(lengths), [n - 1] * draw(lengths)
    factor = st.lists(st.integers(0, n - 1), max_size=3 * KRONECKER_MIN_LENGTH)
    if shape == "scalar":
        scalar, other = [draw(st.integers(0, n - 1))], draw(factor)
        return (n, scalar, other) if draw(st.booleans()) else (n, other, scalar)
    return n, draw(factor), draw(factor)


_LONGEST = 2 * MAX_GENERATE_DEGREE + 1


@given(_factor_pairs())
@example((385, [0], [384] * _LONGEST))
@example((385, [384] * _LONGEST, [384]))
@example((2, [1], [1]))
def test_mul_coeffs_is_the_naive_product(case):
    n, a, b = case
    product = mul_coeffs(a, b, n)
    assert product == poly_mul_unreduced(a, b)
    assert len(product) == (len(a) + len(b) - 1 if a and b else 0)


@pytest.mark.parametrize("n", KERNEL_MODULI)
@pytest.mark.parametrize(
    "la, lb",
    [(11, 12), (12, 11), (12, 12), (12, 36), (36, 13), (36, 36)]
    # a scalar factor, either side, against lengths about the threshold
    # and the longest entry generate makes
    + [(1, 1)]
    + [pair for k in (11, 12, 13, _LONGEST) for pair in ((1, k), (k, 1))],
)
def test_mul_coeffs_at_the_threshold(n, la, lb):
    # either side of the switch to the packed product, at the largest
    # coefficients and at the largest and zero ones interleaved; near
    # 3.3 * 10**24, 36 terms of (n - 1)**2 need the slot's length bits
    pairs = [([n - 1] * la, [n - 1] * lb), ([n - 1, 0] * la, [0, n - 1] * lb)]
    if la == 1:
        pairs.append(([0], [n - 1] * lb))
    if lb == 1:
        pairs.append(([n - 1] * la, [0]))
    for a, b in pairs:
        product = mul_coeffs(a, b, n)
        assert product == poly_mul_unreduced(a, b)
        assert len(product) == len(a) + len(b) - 1


@pytest.mark.parametrize("n", [385, 10**24 + 7])
def test_mul_coeffs_at_twice_the_generate_limit(n):
    # the longest entries generate makes have 2001 coefficients
    rng = random.Random(n)
    a, b = ([rng.randrange(n) for _ in range(2 * MAX_GENERATE_DEGREE + 1)] for _ in "ab")
    assert mul_coeffs(a, b, n) == poly_mul_unreduced(a, b)
