import random
from itertools import product
from math import prod

import pytest
from oracles import MANY_PRIMES, crt, crt_lifts, evaluate_closed_form, scan_poly_idempotents, scan_ring_idempotents

from idemring.errors import BudgetExceeded, WrongPrimeCount
from idemring.modarith import Modulus, factor_squarefree
from idemring import polyring, znring
from idemring.znring import (
    enumerate_idempotents,
    euler_closed_form,
    exponent_variant_check,
    pattern_of,
    poly_idempotents_bruteforce,
)


def test_enumerate_105(mod105):
    assert enumerate_idempotents(mod105) == (0, 1, 15, 21, 36, 70, 85, 91)


def test_enumerate_prime():
    assert enumerate_idempotents(Modulus(11, (11,))) == (0, 1)


def test_enumerate_385_matches_scan(mod385):
    assert enumerate_idempotents(mod385) == (0, 1, 56, 155, 176, 210, 231, 330)
    assert list(enumerate_idempotents(mod385)) == scan_ring_idempotents(385)


def test_enumerate_matches_scan_various():
    for n in (6, 30, 210, 1155, 30030):
        mod = factor_squarefree(n)
        assert list(enumerate_idempotents(mod)) == scan_ring_idempotents(n)
        assert len(enumerate_idempotents(mod)) == 2**mod.m


@pytest.mark.parametrize("primes", MANY_PRIMES, ids=lambda primes: f"m{len(primes)}-from{primes[0]}")
def test_enumerate_matches_the_naive_lift(primes):
    # the subset sums of the CRT basis, built by doubling, against one crt
    # per choice of 0 or 1 at each prime
    mod = factor_squarefree(prod(primes))
    assert list(enumerate_idempotents(mod)) == crt_lifts([(0, 1)] * len(primes), primes)


def test_complement_closure():
    rng = random.Random(7)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    for _ in range(30):
        chosen = rng.sample(primes, rng.randint(1, 4))
        mod = factor_squarefree(prod_of(chosen))
        idems = set(enumerate_idempotents(mod))
        assert all((1 - y) % mod.n in idems for y in idems)
        assert {0, 1} <= idems


def prod_of(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def test_euler_idempotent_examples(mod105, mod385):
    assert euler_closed_form(mod105, (0, 0, 1))[0] == 15
    assert euler_closed_form(mod105, (1, 1, 1))[0] == 1
    assert euler_closed_form(mod385, (0, 1, 1))[0] == 155
    # cross-check through the CRT route
    assert crt((0, 1, 1), (5, 7, 11)) == 155


def test_euler_formula_text(mod105):
    assert euler_closed_form(mod105, (0, 0, 1)) == (15, "(3*5)^6")
    assert euler_closed_form(mod105, (0, 1, 1)) == (36, "3^24")


def test_euler_all_patterns_match_crt():
    for n in (105, 385, 455, 1001, 2431):
        mod = factor_squarefree(n)
        for pat in product((0, 1), repeat=3):
            assert euler_closed_form(mod, pat)[0] == crt(pat, mod.primes)


@pytest.mark.parametrize("primes", [(5, 7, 11), (5, 7, 13), (7, 11, 13), (5, 7, 10007)])
def test_printed_power_forms_evaluate_to_their_values(primes):
    mod = Modulus(prod(primes), primes)
    for pat in product((0, 1), repeat=3):
        value, text = euler_closed_form(mod, pat)
        assert evaluate_closed_form(text) % mod.n == value, (pat, text)
    rows = exponent_variant_check(mod)
    assert len(rows) == 2
    for row in rows:
        assert evaluate_closed_form(row.formula) % mod.n == row.value, row
        assert evaluate_closed_form(row.variant_formula) % mod.n == row.variant_value, row


def test_euler_wrong_prime_count():
    with pytest.raises(WrongPrimeCount):
        euler_closed_form(Modulus(35, (5, 7)), (0, 1))
    with pytest.raises(ValueError):
        euler_closed_form(Modulus(105, (3, 5, 7)), (0, 2, 1))


def test_exponent_variant_wrong_prime_count():
    with pytest.raises(WrongPrimeCount, match=r"^need exactly 3 prime factors, got 2$"):
        exponent_variant_check(Modulus(35, (5, 7)))


def test_exponent_variant_rows(mod105, mod385):
    # at 105 both variants coincide with the canonical formula
    assert all(r.agrees for r in exponent_variant_check(mod105))
    # at 385 the (1,0,0) variant genuinely differs: ord_5(77) = 4 does not divide 10
    rows = {r.pattern: r for r in exponent_variant_check(mod385)}
    assert rows[(0, 1, 0)].agrees and rows[(0, 1, 0)].value == 330
    row = rows[(1, 0, 0)]
    assert (row.value, row.variant_value, row.agrees) == (231, 154, False)


def test_exponent_variant_differs_at_1001():
    mod = factor_squarefree(1001)
    rows = {r.pattern: r for r in exponent_variant_check(mod)}
    row = rows[(0, 1, 0)]
    assert row.value == 364
    assert row.variant_value == 273
    assert not row.agrees
    # the canonical formula, not the variant, is the idempotent
    assert 364 in enumerate_idempotents(mod)
    assert 273 not in enumerate_idempotents(mod)


def test_pattern_of(mod385):
    assert pattern_of(mod385, 210) == (0, 0, 1)
    assert pattern_of(mod385, 155) == (0, 1, 1)
    assert pattern_of(mod385, 1) == (1, 1, 1)


def test_poly_bruteforce_degree0_is_ring(mod105):
    polys = poly_idempotents_bruteforce(mod105, 0)
    assert [u.const_value() for u in polys] == list(enumerate_idempotents(mod105))


def test_poly_bruteforce_prime():
    mod = Modulus(11, (11,))
    polys = poly_idempotents_bruteforce(mod, 1)
    assert [u.const_value() for u in polys] == [0, 1]
    assert all(u.is_constant() for u in polys)


def test_poly_bruteforce_105_degree2(mod105):
    polys = poly_idempotents_bruteforce(mod105, 2)
    assert len(polys) == 8
    assert all(u.is_constant() for u in polys)
    assert {u.const_value() for u in polys} == set(enumerate_idempotents(mod105))


def test_poly_bruteforce_matches_literal_scan():
    # literal vector scan at a size where it is cheap
    mod = Modulus(15, (3, 5))
    polys = poly_idempotents_bruteforce(mod, 2)
    literal = scan_poly_idempotents(15, 2)
    normalized = set()
    for vec in literal:
        cs = list(vec)
        while cs and cs[-1] == 0:
            cs.pop()
        normalized.add(tuple(cs))
    assert {u.coeffs for u in polys} == normalized


def _satisfying_prefixes(n: int, k: int) -> int:
    """How many (c_0, ..., c_{k-1}) in Z_n^k meet the first k coefficient
    equations of u*u = u, by a scan of all n**k of them."""
    return sum(
        all((sum(cs[i] * cs[j - i] for i in range(j + 1)) - cs[j]) % n == 0 for j in range(k))
        for cs in product(range(n), repeat=k)
    )


@pytest.mark.parametrize("primes, top", [((2, 3, 5), 2), ((3, 5, 7), 1), ((2, 3), 3)], ids=["30", "105", "6"])
def test_poly_bruteforce_squares_each_satisfying_prefix_once(monkeypatch, primes, top):
    # the scan squares each prefix of length 1..D it reaches, to read the
    # next equation, and each full vector that survives, to verify it: one
    # product per prefix of length 1..D+1 that meets its equations.  3
    # divides n: where c_0 = 1 mod 3, 2*c_0 + 1 = 0 mod 3, so a scan that
    # took that for the slope 2*c_0 - 1 would keep three c_1 there, not one
    mod = Modulus(prod(primes), primes)
    mul_coeffs = polyring.mul_coeffs
    calls = 0

    def counted(a, b, n):
        nonlocal calls
        calls += 1
        return mul_coeffs(a, b, n)

    monkeypatch.setattr(polyring, "mul_coeffs", counted)
    for degree in range(top + 1):
        calls = 0
        poly_idempotents_bruteforce(mod, degree)
        assert calls == sum(_satisfying_prefixes(mod.n, k) for k in range(1, degree + 2)), degree


def test_poly_bruteforce_budget(mod105):
    # 105^4 candidate vectors fit the default budget; 105^5 do not
    with pytest.raises(BudgetExceeded, match=r"^12762815625 candidate vectors exceed budget 125000000$"):
        poly_idempotents_bruteforce(mod105, 4)
    with pytest.raises(BudgetExceeded, match=r"^121550625 candidate vectors exceed budget 1000$"):
        poly_idempotents_bruteforce(mod105, 3, budget=1000)


def test_enumeration_limit_is_on_the_prime_count(monkeypatch):
    # the limit is read at call time; 2310 = 2*3*5*7*11 has five primes
    monkeypatch.setattr(znring, "MAX_ENUMERATED_PRIMES", 4)
    assert len(enumerate_idempotents(factor_squarefree(210))) == 16
    with pytest.raises(BudgetExceeded, match=r"^2\^5 CRT combinations over 5 primes exceed the limit 2\^4$"):
        enumerate_idempotents(factor_squarefree(2310))
