"""Idempotent structure of Z_n, the library's CRT lifts, and the polynomial-ring scan oracle."""

from collections import namedtuple
from itertools import product
from math import prod
from operator import mul

from .errors import BudgetExceeded, InternalTheoremViolation, NotIdempotentDet, WrongPrimeCount, charge
from .families import DEFAULT_BUDGET
from .modarith import Modulus, crt_basis, mod_pow

# Most prime factors m whose 2**m idempotents or trace solutions are
# enumerated.  The slowest calls it admit, at m = 16 (the primes 5 to 61),
# took 0.10 s for `idempotents n` and 0.14 s for `solve-trace n d --json`
# as whole processes (2 vCPU, Python 3.11.7); each further prime doubles
# the work.
MAX_ENUMERATED_PRIMES = 16


def require_enumerable(mod: Modulus) -> None:
    """Raise BudgetExceeded when mod has more than MAX_ENUMERATED_PRIMES primes."""
    if mod.m > MAX_ENUMERATED_PRIMES:
        raise BudgetExceeded(
            f"2^{mod.m} CRT combinations over {mod.m} primes exceed the limit 2^{MAX_ENUMERATED_PRIMES}"
        )


def idempotent_lifts(mod: Modulus) -> list[int]:
    """The 2**m idempotents of Z_n, unreduced and unsorted: one per pattern.

    Each is the CRT lift of a choice of 0 or 1 at every prime factor, a
    subset sum of the CRT basis, built by doubling: each basis element is
    added to every sum so far, 2**m - 1 additions in all.  More than
    MAX_ENUMERATED_PRIMES primes raise BudgetExceeded before any is made.
    """
    require_enumerable(mod)
    sums = [0]
    for e in crt_basis(mod):
        sums += [y + e for y in sums]
    return sums


def enumerate_idempotents(mod: Modulus) -> tuple[int, ...]:
    """All 2**m solutions of y*y = y (mod n), ascending: idempotent_lifts reduced."""
    return tuple(sorted(y % mod.n for y in idempotent_lifts(mod)))


def idempotent_of(mod: Modulus, bits) -> int:
    """The idempotent of Z_n that is bits[i] mod the i-th prime: pattern_of's inverse."""
    return sum(map(mul, bits, crt_basis(mod))) % mod.n


def nontrivial_idempotents(mod: Modulus) -> tuple[int, ...]:
    """The idempotents of Z_n other than 0 and 1, ascending."""
    return tuple(y for y in enumerate_idempotents(mod) if y not in (0, 1))


def pattern_of(mod: Modulus, y: int) -> tuple[int, ...]:
    """Per-prime residue pattern of an idempotent y, one bit per prime."""
    y %= mod.n
    bits = []
    for p in mod.primes:
        rp = y % p
        if rp not in (0, 1):
            raise NotIdempotentDet(f"{y} is not idempotent mod {mod.n}")
        bits.append(rp)
    return tuple(bits)


_PATTERNS = frozenset(product((0, 1), repeat=3))


def _check_pattern(mod: Modulus, pattern) -> tuple[int, int, int]:
    if mod.m != 3:
        raise WrongPrimeCount(f"need exactly 3 prime factors, got {mod.m}")
    pat = tuple(pattern)
    if pat not in _PATTERNS:
        raise ValueError(f"pattern must be three bits, got {pattern!r}")
    return pat


def power_form(primes, exp: int, n: int) -> tuple[int, str]:
    """Value mod n and text of the product of one or two primes raised to exp.

    The primes keep the order given; two factors are parenthesised, as in
    (5*7)^10, and one is not, as in 5^60.  Every closed form's power is
    rendered here.
    """
    if len(primes) == 1:
        (p,) = primes
        return mod_pow(p, exp, n), f"{p}^{exp}"
    a, b = primes
    return mod_pow(a * b, exp, n), f"({a}*{b})^{exp}"


def euler_closed_form(mod: Modulus, pattern) -> tuple[int, str]:
    """Value and rendered text of the power formula for one residue pattern.

    Patterns with a single 1-bit at prime s evaluate (product of the other
    two primes)**(s-1); patterns with a single 0-bit at prime z evaluate
    z**((a-1)*(b-1)) for the two 1-bit primes a, b.  Fermat's little theorem
    makes each expression congruent to 1 at its 1-bit primes, and the result
    is checked against the CRT combination before being returned.  This is
    the one place the idempotents' closed forms are stated.
    """
    pat = _check_pattern(mod, pattern)
    ones, zeros = [], []
    for p, bit in zip(mod.primes, pat):
        (ones if bit else zeros).append(p)
    if not ones:
        value, text = 0, "0"
    elif len(ones) == 3:
        value, text = 1, "1"
    elif len(ones) == 1:
        value, text = power_form(zeros, ones[0] - 1, mod.n)
    else:
        value, text = power_form(zeros, (ones[0] - 1) * (ones[1] - 1), mod.n)
    # a value in [0, n) is the CRT combination of pat exactly when it is 0
    # mod the 0-bit primes and 1 mod the 1-bit primes
    if value % prod(zeros) or (value - 1) % prod(ones):
        expected = idempotent_of(mod, pat)
        raise InternalTheoremViolation(
            f"closed form {text} = {value} but CRT gives {expected} (mod {mod.n})"
        )
    return value, text


def closed_form_cross_check(mod: Modulus) -> list[tuple]:
    """(pattern, CRT value, formula text, formula value) for the 8 patterns.

    The CRT value is computed apart from the formula; euler_closed_form
    raises InternalTheoremViolation before any row could disagree.
    """
    rows = []
    for pat in product((0, 1), repeat=3):
        value, text = euler_closed_form(mod, pat)
        rows.append((pat, idempotent_of(mod, pat), text, value))
    return rows


ExponentVariantRow = namedtuple(
    "ExponentVariantRow", "pattern formula value variant_formula variant_value agrees"
)


def exponent_variant_check(mod: Modulus) -> list[ExponentVariantRow]:
    """Sensitivity of the pair-power closed forms to the exponent choice.

    For the two patterns whose formula is (a*b)**(s-1) with s not the
    largest prime, also evaluate the same base raised to (largest prime - 1).
    The variant agrees exactly when the multiplicative order of a*b modulo s
    divides it, which fails for some moduli, so both values are reported
    side by side instead of being assumed equal.  euler_closed_form
    raises WrongPrimeCount unless mod has exactly three primes.
    """
    rows = []
    r_max = mod.primes[-1]
    for pat in ((0, 1, 0), (1, 0, 0)):
        value, text = euler_closed_form(mod, pat)
        zeros = [p for p, b in zip(mod.primes, pat) if not b]
        variant_value, variant_text = power_form(zeros, r_max - 1, mod.n)
        rows.append(
            ExponentVariantRow(pat, text, value, variant_text, variant_value, variant_value == value)
        )
    return rows


def poly_idempotents_bruteforce(
    mod: Modulus, max_degree: int, budget: int = DEFAULT_BUDGET
) -> "list[Poly]":
    """Every u in Z_n[x] of degree <= max_degree with u*u = u, by full scan.

    The search covers all n**(max_degree+1) coefficient vectors as a DFS
    over prefixes: coefficient k of u*u depends only on c_0..c_k, so a
    prefix violating the k-th coefficient equation rules out its whole
    subtree.  Survivors get a final exact u*u == u verification.  Reports
    whatever it finds; it never assumes the results are constant.
    """
    from .polyring import Poly, mul_coeffs

    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    n = mod.n
    states = n ** (max_degree + 1)
    charge(states, budget, f"{states} candidate vectors")
    width = max_degree + 1
    cs = [0] * width
    found: list[Poly] = []

    def walk(k: int) -> None:
        if k == width:
            cand = Poly(n, cs)
            if cand * cand == cand:
                found.append(cand)
            return
        # the k-th equation reads c*c = c at k = 0 and, with cs[k] still 0,
        # 2*c_0*c + rest = c above, rest the k-th coefficient of the square
        # of the prefix: one product per candidate c
        if k == 0:
            survivors = (c for c in range(n) if (c * c - c) % n == 0)
        else:
            slope, rest = 2 * cs[0] - 1, mul_coeffs(cs, cs, n)[k]
            survivors = (c for c in range(n) if (slope * c + rest) % n == 0)
        for c in survivors:
            cs[k] = c
            walk(k + 1)
        cs[k] = 0

    walk(0)
    return sorted(found, key=lambda u: (len(u.coeffs), u.coeffs))
