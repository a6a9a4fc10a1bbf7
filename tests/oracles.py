"""Independent brute-force oracles the tests freeze expected values from.

Everything here is deliberately naive: full scans and literal loops that
share no code path with the library functions they check.
"""

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
