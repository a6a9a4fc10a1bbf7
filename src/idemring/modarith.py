"""Exact modular arithmetic: squarefree factorization, inverses, CRT.

Residues are plain Python ints kept canonical in ``[0, n)``; every public
function reduces its inputs, so arbitrary integers are accepted.  Python's
arbitrary-precision ints make all intermediate products exact.
"""

from collections import namedtuple
from itertools import compress, cycle
from math import gcd, isqrt, prod

from .errors import ModulusTooSmall, NotCoprime, NotFactorable, NotSquarefree


# The first 13 primes as Miller-Rabin bases decide primality exactly below
# MILLER_RABIN_LIMIT, the least strong pseudoprime to all of them
# (Sorenson & Webster 2015).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981


def is_prime(k: int) -> bool:
    """Deterministic Miller-Rabin over the first 13 prime bases.

    Exact for k < MILLER_RABIN_LIMIT, O(log k) multiplications per base;
    a larger k raises NotFactorable.
    """
    if k >= MILLER_RABIN_LIMIT:
        raise NotFactorable(f"{k} is beyond the deterministic Miller-Rabin limit {MILLER_RABIN_LIMIT}")
    if k < 2:
        return False
    for a in MILLER_RABIN_BASES:
        if k % a == 0:
            return k == a
    odd, s = k - 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, odd, k)
        if x == 1 or x == k - 1:
            continue
        for _ in range(s - 1):
            x = x * x % k
            if x == k - 1:
                break
        else:
            return False
    return True


class Modulus(namedtuple("Modulus", "n primes")):
    """A squarefree modulus together with its verified prime factorization."""

    __slots__ = ()

    def __new__(cls, n: int, primes: tuple[int, ...]) -> "Modulus":
        if n < 2:
            raise ValueError("modulus must be at least 2")
        if list(primes) != sorted(set(primes)):
            raise ValueError("primes must be strictly ascending and distinct")
        if prod(primes) != n:
            raise ValueError(f"primes {primes} do not multiply to {n}")
        for p in primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        return super().__new__(cls, n, primes)

    @property
    def m(self) -> int:
        return len(self.primes)

    def __str__(self) -> str:
        return f"{self.n} = " + " * ".join(str(p) for p in self.primes)


def _primes_below(limit: int) -> tuple[int, ...]:
    """The primes below limit, by a sieve of Eratosthenes over a bytearray."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for k in range(2, isqrt(limit - 1) + 1):
        if sieve[k]:
            sieve[k * k :: k] = bytes(len(range(k * k, limit, k)))
    return tuple(compress(range(limit), sieve))


_SMALL_PRIMES = _primes_below(1000)
# the table's 168 primes multiplied, 1,380 bits: one gcd finds those dividing n
_SMALL_PRIMES_PRODUCT = prod(_SMALL_PRIMES)


def factor_squarefree(n: int) -> Modulus:
    """Factor n, insisting every prime appears exactly once.

    One gcd of n with the product of the primes below 1000 (_SMALL_PRIMES)
    screens them all (D. J. Bernstein, "How to find smooth parts of
    integers", 2004), and trial division runs over that gcd alone.  The
    cofactor left has no prime factor below 1009, so below 1009**2 it is 1
    or prime.  A larger one below MILLER_RABIN_LIMIT that is_prime
    certifies ends the search; any other continues with 6k - 1, 6k + 1
    from 1001 up to 10**6, and a cofactor then left above 10**12 is
    certified prime by is_prime.  Raises ModulusTooSmall for n < 2,
    NotSquarefree naming the least repeated prime and NotFactorable when
    that cofactor is composite (it has no factor up to 10**6, and finding
    one is not attempted) or beyond is_prime's limit.
    """
    if n < 2:
        raise ModulusTooSmall(f"n must be at least 2, got {n}")
    bound = 10**6  # trial division certifies a prime cofactor up to bound**2
    primes = []
    screen = gcd(n, _SMALL_PRIMES_PRODUCT)
    rem = n // screen
    # screen is squarefree, so d**2 divides n exactly when d divides rem
    for d in _SMALL_PRIMES:
        if d * d > screen:
            break
        if screen % d == 0:
            screen //= d
            if rem % d == 0:
                raise NotSquarefree(f"{d}^2 divides {n}")
            primes.append(d)
    if screen > 1:  # the largest table prime dividing n
        if rem % screen == 0:
            raise NotSquarefree(f"{screen}^2 divides {n}")
        primes.append(screen)
    # 1009 is the least prime above the table: below 1009**2, rem is 1 or prime
    if 1009 * 1009 <= rem < MILLER_RABIN_LIMIT and is_prime(rem):
        return Modulus._make((n, (*primes, rem)))
    d = 1001
    steps = cycle((2, 4))  # 1001, 1003, 1007, 1009, ...
    while d <= bound and d * d <= rem:
        if rem % d == 0:
            rem //= d
            if rem % d == 0:
                raise NotSquarefree(f"{d}^2 divides {n}")
            primes.append(d)
        d += next(steps)
    if rem > 1:
        if rem > bound * bound and not is_prime(rem):
            raise NotFactorable(f"cofactor {rem} of {n} exceeds {bound}^2")
        primes.append(rem)
    # _make skips Modulus's checks, which would test every prime again:
    # the screen yields table primes; each d the wheel finds is the least
    # factor of rem, hence prime; and a final rem is prime because the wheel
    # stopped at d*d > rem (by 1009 for rem < 1009**2, which has no factor
    # below 1009), or at d > bound with no factor up to bound and
    # rem <= bound**2, or is_prime said so.  Modulus(...) still checks.
    return Modulus._make((n, tuple(primes)))


def mod_inverse(a: int, n: int) -> int:
    """Inverse of a modulo n; raises NotCoprime when gcd(a, n) > 1."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    try:
        return pow(a, -1, n)
    except ValueError:
        raise NotCoprime(f"gcd({a}, {n}) = {gcd(a, n)}") from None


def crt_basis(mod: Modulus) -> list[int]:
    """The CRT basis e_p = (n/p)*((n/p)^-1 mod p) of Z_n, one per prime of mod.

    e_p is 1 mod p and 0 mod every other prime, so the x in [0, n) with
    x = r_p (mod p) at each prime is sum(map(mul, residues, basis)) % n.
    This is the one place the CRT is stated; znring's two idempotent
    lifts are its only callers.
    """
    n = mod.n
    return [n // p * pow(n // p, -1, p) for p in mod.primes]
