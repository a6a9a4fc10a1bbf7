"""Exact modular arithmetic: squarefree factorization, powers, inverses, CRT.

Residues are plain Python ints kept canonical in ``[0, n)``; every public
function reduces its inputs, so arbitrary integers are accepted.  Python's
arbitrary-precision ints make all intermediate products exact.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from math import gcd, isqrt, prod

from .errors import ModuliNotCoprime, ModulusTooSmall, NotCoprime, NotFactorable, NotSquarefree


def is_prime(k: int) -> bool:
    """Deterministic trial-division primality test for desk-scale k."""
    if k < 2:
        return False
    if k % 2 == 0:
        return k == 2
    d = 3
    top = isqrt(k)
    while d <= top:
        if k % d == 0:
            return False
        d += 2
    return True


class Modulus(namedtuple("Modulus", "n primes")):
    """A squarefree modulus together with its verified prime factorization."""

    __slots__ = ()

    def __new__(cls, n: int, primes: tuple[int, ...]) -> Modulus:
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


def factor_squarefree(n: int) -> Modulus:
    """Factor n by trial division, insisting every prime appears exactly once.

    Raises ModulusTooSmall for n < 2, NotSquarefree on a repeated prime
    factor and NotFactorable when a cofactor larger than 10**12 survives
    trial division up to 10**6 (such a cofactor cannot be certified prime).
    """
    if n < 2:
        raise ModulusTooSmall(f"n must be at least 2, got {n}")
    bound = 10**6  # trial division certifies a prime cofactor up to bound**2
    primes = []
    rem = n
    d = 2
    while d <= bound and d * d <= rem:
        if rem % d == 0:
            rem //= d
            if rem % d == 0:
                raise NotSquarefree(f"{d}^2 divides {n}")
            primes.append(d)
        d = 3 if d == 2 else d + 2
    if rem > 1:
        if rem > bound * bound:
            raise NotFactorable(f"cofactor {rem} of {n} exceeds {bound}^2")
        primes.append(rem)
    # _make skips Modulus's checks, which would re-run trial division:
    # each d found is the least factor of rem, hence prime, and a final rem
    # is prime because the loop stopped at d*d > rem, or at d > bound with
    # no factor up to bound and rem <= bound**2.  Modulus(...) still checks.
    return Modulus._make((n, tuple(primes)))


def mod_pow(a: int, k: int, n: int) -> int:
    """Canonical a**k mod n; k = 0 yields 1 for every a."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    if k < 0:
        raise ValueError("exponent must be non-negative")
    return pow(a % n, k, n)


def mod_inverse(a: int, n: int) -> int:
    """Inverse of a modulo n; raises NotCoprime when gcd(a, n) > 1."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    try:
        return pow(a, -1, n)
    except ValueError:
        raise NotCoprime(f"gcd({a}, {n}) = {gcd(a, n)}") from None


def crt_combine(system: Iterable[tuple[int, int]]) -> int:
    """Solve x = r_i (mod m_i) for pairwise coprime moduli m_i >= 2.

    Returns the unique solution in [0, prod(m_i)).
    """
    items = list(system)
    if not items:
        raise ValueError("empty congruence system")
    r0, m0 = items[0]
    if m0 < 2:
        raise ValueError("moduli must be at least 2")
    x = r0 % m0
    m = m0
    for r, mi in items[1:]:
        if mi < 2:
            raise ValueError("moduli must be at least 2")
        if gcd(m, mi) != 1:
            raise ModuliNotCoprime(f"moduli {m} and {mi} share a factor")
        k = ((r - x) * mod_inverse(m, mi)) % mi
        x += m * k
        m *= mi
    return x
