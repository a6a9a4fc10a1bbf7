import importlib
import time
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import crt

from idemring import modarith
from idemring.errors import InternalTheoremViolation, NotCoprime, NotFactorable, NotSquarefree
from idemring.modarith import (
    Modulus,
    crt_basis,
    factor_squarefree,
    is_prime,
    mod_inverse,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIMES_BELOW_100 = SMALL_PRIMES + (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def test_factor_105():
    assert factor_squarefree(105).primes == (3, 5, 7)


def test_factor_385():
    assert factor_squarefree(385).primes == (5, 7, 11)


def test_factor_rejects_square():
    with pytest.raises(NotSquarefree):
        factor_squarefree(4)
    with pytest.raises(NotSquarefree):
        factor_squarefree(12)


def test_factor_prime_cofactor_certified():
    # 999999999989 is the largest prime below 10**12 = (trial bound)**2
    assert factor_squarefree(2 * 999999999989).primes == (2, 999999999989)


def test_factor_unresolved_cofactor():
    # 1000003 * 1000033 has no factor up to the trial bound 10**6 and exceeds 10**12
    with pytest.raises(NotFactorable, match=r"exceeds 1000000\^2"):
        factor_squarefree(1000003 * 1000033)


def test_factor_certifies_a_prime_cofactor_above_the_trial_bound():
    # 10**16 + 61 survives trial division to 10**6 and is certified by is_prime
    assert factor_squarefree(35 * (10**16 + 61)).primes == (5, 7, 10**16 + 61)


def test_factor_certifies_a_prime_cofactor_without_the_wheel():
    # the 6k +- 1 wheel would run to 10**6 before reaching this cofactor
    n = 5 * 7 * 999999999989
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        mod = factor_squarefree(n)
        best = min(best, time.perf_counter() - start)
    assert mod.primes == (5, 7, 999999999989)
    assert best < 0.005


def test_factor_runs_the_wheel_for_a_cofactor_at_the_primality_limit():
    # 1009 * q is past is_prime's limit, so the wheel finds 1009 and is_prime
    # certifies q afterwards
    q = pytest.importorskip("sympy").prevprime(modarith.MILLER_RABIN_LIMIT)
    assert 1009 * q >= modarith.MILLER_RABIN_LIMIT
    assert factor_squarefree(1009 * q).primes == (1009, q)
    assert factor_squarefree(5 * 1009 * q).primes == (5, 1009, q)


def test_is_prime_equals_sympy_below_200000():
    isprime = pytest.importorskip("sympy").isprime
    assert [k for k in range(200_000) if is_prime(k)] == [k for k in range(200_000) if isprime(k)]


@pytest.mark.parametrize(
    "k",
    # strong pseudoprimes to the first 4, 9-11 and 12 prime bases
    [3215031751, 3825123056546413051, 318665857834031151167461],
)
def test_is_prime_rejects_strong_pseudoprimes(k):
    assert pytest.importorskip("sympy").isprime(k) is False
    assert is_prime(k) is False


@settings(max_examples=300)
@given(st.integers(0, modarith.MILLER_RABIN_LIMIT - 1))
def test_is_prime_equals_sympy_below_the_limit(k):
    sympy = pytest.importorskip("sympy")
    assert is_prime(k) == sympy.isprime(k)
    # a random k is rarely prime, so check the next prime above it too
    q = sympy.nextprime(k)
    if q < modarith.MILLER_RABIN_LIMIT:
        assert is_prime(q)


def test_is_prime_refuses_beyond_the_limit():
    assert is_prime(modarith.MILLER_RABIN_LIMIT - 1) is False  # even
    with pytest.raises(NotFactorable):
        is_prime(modarith.MILLER_RABIN_LIMIT)


def test_modulus_with_a_16_digit_prime_is_fast():
    p = 10**16 + 61
    start = time.perf_counter()
    mod = Modulus(5 * 7 * p, (5, 7, p))
    assert time.perf_counter() - start < 0.05
    assert mod.primes == (5, 7, p)


def test_modulus_validation():
    with pytest.raises(ValueError):
        Modulus(12, (3, 4))
    with pytest.raises(ValueError):
        Modulus(9, (3, 3))
    with pytest.raises(ValueError):
        Modulus(15, (3, 7))


def test_factor_does_not_recertify_primes(monkeypatch):
    # every prime is proved once: trial division proves those it finds and
    # is_prime the prime cofactor left when the table of primes below 1000
    # runs out, and the result is built without a second primality pass;
    # Modulus(...) still checks
    calls = []

    def counted(k):
        calls.append(k)
        return is_prime(k)

    monkeypatch.setattr(modarith, "is_prime", counted)
    mod = factor_squarefree(35 * 999999999989)
    assert isinstance(mod, Modulus)
    assert mod == (35 * 999999999989, (5, 7, 999999999989))
    assert calls == [999999999989]
    # the table's d*d > rem stop proves a cofactor below 997**2 prime
    assert factor_squarefree(35 * 40009) == (35 * 40009, (5, 7, 40009))
    assert calls == [999999999989]
    monkeypatch.undo()
    with pytest.raises(ValueError):
        Modulus(21, (1, 21))


# the seams of the small-prime screen: the table ends at 997, the wheel
# starts at 1001 and certifies by trial up to 10**6
@pytest.mark.parametrize(
    "primes",
    [
        (997, 1009),  # a table prime times a wheel prime
        (1009, 1013),  # no table factor, composite above 1009**2: the wheel finds 1009
        (5, 7, 999983),  # the largest prime below 10**6
        (5, 7, 1000003),  # the least prime above 10**6
        modarith._SMALL_PRIMES,  # every table prime
        (*modarith._SMALL_PRIMES, 1009),
    ],
    ids=["997*1009", "1009*1013", "35*999983", "35*1000003", "table", "table*1009"],
)
def test_factor_at_the_screen_seams(primes):
    assert factor_squarefree(prod(primes)) == (prod(primes), primes)


@pytest.mark.parametrize("n, p", [(5 * 997**2, 997), (36, 2), (997**2 * 1009**2, 997), (5 * 1009**2, 1009)])
def test_factor_names_the_least_repeated_prime(n, p):
    with pytest.raises(NotSquarefree) as exc:
        factor_squarefree(n)
    assert str(exc.value) == f"{p}^2 divides {n}"


def test_mod_inverse_examples():
    assert mod_inverse(2, 5) == 3
    assert mod_inverse(35, 11) == 6
    with pytest.raises(NotCoprime):
        mod_inverse(5, 105)
    assert mod_inverse(-4, 15) == 11


@pytest.mark.parametrize(
    "a, n, message",
    [(-10, 15, "gcd(-10, 15) = 5"), (5, 105, "gcd(5, 105) = 5"), (0, 7, "gcd(0, 7) = 7"), (30, 15, "gcd(30, 15) = 15")],
)
def test_mod_inverse_not_coprime_message(a, n, message):
    with pytest.raises(NotCoprime) as exc:
        mod_inverse(a, n)
    assert str(exc.value) == message


@settings(max_examples=200)
@given(st.integers(-10**6, 10**6), st.integers(2, 10**5))
def test_mod_inverse_property(a, n):
    from math import gcd

    if gcd(a, n) == 1:
        assert mod_inverse(a, n) * a % n == 1
    else:
        with pytest.raises(NotCoprime):
            mod_inverse(a, n)


@settings(max_examples=200)
@given(
    st.lists(st.sampled_from(PRIMES_BELOW_100), min_size=1, max_size=16, unique=True),
    st.data(),
)
def test_crt_basis_lifts_residues_like_the_oracle(primes, data):
    primes = tuple(sorted(primes))
    mod = Modulus(prod(primes), primes)
    basis = crt_basis(mod)
    # e_p is 1 mod p and 0 mod every other prime
    assert [[e % q for q in primes] for e in basis] == [[int(p == q) for q in primes] for p in primes]
    # residues need no reduction mod p first
    residues = [data.draw(st.integers(-2 * p, 2 * p)) for p in primes]
    assert sum(map(mul, residues, basis)) % mod.n == crt(residues, primes)


def test_every_lift_goes_through_crt_basis(monkeypatch, mod385):
    # n/p without its inverse mod p is not 1 mod p; a module that kept a CRT
    # of its own would still answer as before.  znring is the one importer
    # of crt_basis, so patching its name alone reaches every lift.
    znring, quadcong, classify = (
        importlib.import_module(f"idemring.{name}") for name in ("znring", "quadcong", "classify")
    )
    calls = {
        "enumerate_idempotents": lambda: znring.enumerate_idempotents(mod385),
        "trace_candidates": lambda: quadcong.trace_candidates(mod385, 210),
        # __wrapped__ skips the cache, which holds the right answer
        "template_table": lambda: dict(classify.template_table.__wrapped__(mod385)),
    }
    right = {name: call() for name, call in calls.items()}
    monkeypatch.setattr(znring, "crt_basis", lambda mod: [mod.n // p for p in mod.primes])
    for name, call in calls.items():
        try:
            answer = call()
        except InternalTheoremViolation:
            continue
        assert answer != right[name], name


@given(st.integers(2, 2000))
def test_factor_recomposes(n):
    try:
        mod = factor_squarefree(n)
    except NotSquarefree:
        return
    prodval = 1
    for p in mod.primes:
        assert is_prime(p)
        prodval *= p
    assert prodval == n


def _factor_as_sympy_says(n):
    """Check factor_squarefree(n) against sympy.factorint.

    Trial division stops at 10**6, so a repeated prime up to there raises
    NotSquarefree naming the least one, two prime factors above it (counted
    with multiplicity) leave a composite cofactor above 10**12 and raise
    NotFactorable, and otherwise the primes are factorint's.
    """
    factors = pytest.importorskip("sympy").factorint(n)
    repeated = sorted(p for p, e in factors.items() if e > 1 and p <= 10**6)
    if repeated:
        with pytest.raises(NotSquarefree) as exc:
            factor_squarefree(n)
        assert str(exc.value) == f"{repeated[0]}^2 divides {n}"
    elif sum(e for p, e in factors.items() if p > 10**6) > 1:
        with pytest.raises(NotFactorable):
            factor_squarefree(n)
    else:
        assert factor_squarefree(n) == (n, tuple(sorted(factors)))


def _primes_from(seeds):
    # the least prime >= each seed
    nextprime = pytest.importorskip("sympy").nextprime
    return [nextprime(k - 1) for k in seeds]


# seeds around the end of the prime table (997) and the start of the wheel
# after it (1001, 1009), and around the trial bound 10**6
_NEAR_TABLE_END = st.integers(900, 1120)
_NEAR_TRIAL_BOUND = st.integers(10**6 - 400, 10**6 + 100)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(2, 60), max_size=2),
    st.lists(_NEAR_TABLE_END, max_size=3),
    st.lists(_NEAR_TRIAL_BOUND, max_size=2),
)
def test_factor_matches_sympy_around_the_prime_table_end(small, near_end, near_bound):
    primes = _primes_from(small + near_end + near_bound)
    if primes:
        _factor_as_sympy_says(prod(primes))


@settings(max_examples=60, deadline=None)
@given(_NEAR_TABLE_END, st.lists(st.integers(2, 1120), max_size=2))
def test_factor_names_a_squared_prime_near_the_table_end(seed, others):
    [p] = _primes_from([seed])
    _factor_as_sympy_says(p * p * prod(set(_primes_from(others)) - {p}))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from((5, 7, 11, 997, 1009)), max_size=2, unique=True),
    st.integers(10**12 - 10**5, 10**12 + 10**5),
    st.booleans(),
)
def test_factor_matches_sympy_at_cofactors_near_10_12(small, seed, next_prime):
    # a cofactor near 10**12, the least prime at or above seed or seed itself
    [q] = _primes_from([seed]) if next_prime else [seed]
    _factor_as_sympy_says(prod(small) * q)


@given(st.integers(20_000, 59_999))
def test_factor_matches_sympy_on_the_trace_workload_moduli(seed):
    # solve-trace's benchmark moduli 5*7*p, p in [2*10**4, 6*10**4)
    [p] = _primes_from([seed])
    _factor_as_sympy_says(35 * p)
