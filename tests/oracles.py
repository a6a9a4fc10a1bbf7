"""Independent brute-force oracles the tests freeze expected values from.

Everything here is deliberately naive: full scans and literal loops that
share no code path with the library functions they check.
"""

import re
from itertools import product


def scan_ring_idempotents(n):
    return [y for y in range(n) if (y * y - y) % n == 0]


def scan_prime_roots(p, c):
    """All x in [0, p) with x*x = x + c (mod p), ascending, by the full scan."""
    return tuple(x for x in range(p) if (x * x - x - c) % p == 0)


def scan_trace_solutions(n, d):
    return [t for t in range(n) if (t * t - t - 2 * d) % n == 0]


def scan_matrix_idempotents(n):
    """All constant idempotent 2x2 matrices by the full n**4 scan."""
    out = []
    for e in range(n):
        for h in range(n):
            eh = (e + h) % n
            for f in range(n):
                for g in range(n):
                    if (
                        (e * e + f * g - e) % n == 0
                        and (f * eh - f) % n == 0
                        and (g * eh - g) % n == 0
                        and (f * g + h * h - h) % n == 0
                    ):
                        out.append((e, f, g, h))
    return out


def matrix_census_by_det_trace(p):
    """Bucket the full matrix scan over Z_p by (det, trace)."""
    census = {}
    for e, f, g, h in scan_matrix_idempotents(p):
        key = ((e * h - f * g) % p, (e + h) % p)
        census[key] = census.get(key, 0) + 1
    return census


def scan_poly_idempotents(n, max_degree):
    """Coefficient vectors of all u with deg(u) <= max_degree and u*u = u.

    Literal scan over n**(max_degree+1) vectors; tiny n only.
    """
    found = []
    for vec in product(range(n), repeat=max_degree + 1):
        ok = True
        for k in range(2 * max_degree + 1):
            s = 0
            for i in range(max(0, k - max_degree), min(k, max_degree) + 1):
                s += vec[i] * vec[k - i]
            target = vec[k] if k <= max_degree else 0
            if (s - target) % n:
                ok = False
                break
        if ok:
            found.append(vec)
    return found


# --- an independent generator of non-constant idempotent matrices --------
#
# A matrix is a tuple (e, f, g, h) of little-endian coefficient lists.  Over
# F_p[x] each one here is E * diag(type) * E^-1 with E a product of four
# elementary matrices, so it has the type's (det, trace) and is idempotent;
# per-prime matrices are lifted to Z_n[x] by CRT, coefficient by coefficient.

# the diagonal of each type, and its (det, trace) mod p
ELEMENTARY_DIAGONALS = {"0": ([], []), "I": ([1], [1]), "R": ([1], [])}
ELEMENTARY_DET_TRACE = {"0": (0, 0), "I": (1, 2), "R": (0, 1)}


def _poly_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_add(a, b, n):
    size = max(len(a), len(b))
    return _poly_trim(((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % n for i in range(size))


def poly_mul_unreduced(a, b):
    """Integer coefficients of the product, by the literal double loop:
    neither reduced nor trimmed."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] += a[i] * b[j]
    return out


def _poly_mul(a, b, n):
    return _poly_trim(c % n for c in poly_mul_unreduced(a, b))


def _matmul(A, B, n):
    e, f, g, h = A
    a, b, c, d = B
    return (
        _poly_add(_poly_mul(e, a, n), _poly_mul(f, c, n), n),
        _poly_add(_poly_mul(e, b, n), _poly_mul(f, d, n), n),
        _poly_add(_poly_mul(g, a, n), _poly_mul(h, c, n), n),
        _poly_add(_poly_mul(g, b, n), _poly_mul(h, d, n), n),
    )


def elementary_idempotent(p, kind, rs):
    """E * diag(kind) * E^-1 over F_p[x] for E = U(r0) L(r1) U(r2) L(r3).

    U(r) = [[1, r], [0, 1]] and L(r) = [[1, 0], [r, 1]], each r a
    coefficient list; kind is "0", "I" or "R" (diag(0, 0), diag(1, 1),
    diag(1, 0)).  E^-1 = L(-r3) U(-r2) L(-r1) U(-r0).
    """
    one = [1]

    def factor(k, r):
        r = _poly_trim(c % p for c in r)
        return (one, r, [], one) if k % 2 == 0 else (one, [], r, one)

    E = E_inv = (one, [], [], one)
    for k, r in enumerate(rs):
        E = _matmul(E, factor(k, r), p)
        E_inv = _matmul(factor(k, [-c for c in r]), E_inv, p)
    a, b = ELEMENTARY_DIAGONALS[kind]
    return _matmul(_matmul(E, (a, [], [], b), p), E_inv, p)


def crt(residues, primes):
    """The x in [0, prod(primes)) with x = r (mod p) for each pair."""
    n = 1
    for p in primes:
        n *= p
    return sum(r * (n // p) * pow(n // p, -1, p) for r, p in zip(residues, primes)) % n


def crt_lifts(roots, primes):
    """Every crt of one residue per prime, one from each of roots (a
    collection per prime), ascending and without repeats."""
    return sorted({crt(combo, primes) for combo in product(*roots)})


# Moduli past the scans' reach, as their primes: the first m primes from 2
# (so 2 and 3 divide n) and from 5, for m = 1 to 8, 12 and 16
MANY_PRIMES = tuple(
    primes[:m]
    for primes in ((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53),
                   (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61))
    for m in (1, 2, 3, 4, 5, 6, 7, 8, 12, 16)
)


def crt_lift_matrix(mats, primes):
    """The matrix over Z_n[x] that reduces to mats[i] mod primes[i]."""
    lifted = []
    for k in range(4):
        size = max(len(M[k]) for M in mats)
        coeffs = [crt([M[k][i] if i < len(M[k]) else 0 for M in mats], primes) for i in range(size)]
        lifted.append(_poly_trim(coeffs))
    return tuple(lifted)


def matrix_is_idempotent(G, n):
    """G * G == G over Z_n[x], by literal products."""
    return _matmul(G, G, n) == tuple(_poly_trim(c % n for c in entry) for entry in G)


def evaluate_closed_form(text):
    """The integer a printed closed form names, by Python's own integer
    arithmetic with ^ read as **: "(5*7)^10" is 35**10."""
    if not re.fullmatch(r"[0-9 ()*+^-]+", text):
        raise ValueError(f"not a closed form: {text!r}")
    return eval(text.replace("^", "**"), {"__builtins__": {}})
