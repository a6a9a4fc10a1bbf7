"""Reference answers and checkers that share no code with idemring.

Everything here is naive integer arithmetic written for the benchmark:
per-prime p^4 scans, a hand-rolled CRT, Euler's criterion and schoolbook
polynomial products.  The checkers take the program's outputs and return
how many of the items they cover are wrong, so a mismatch shows up as a
non-zero failed count rather than an exception.
"""

from __future__ import annotations

import json
from collections import Counter
from math import prod

DET0_GENERAL = "det0-general"
DET0_SCALED = "det0-scaled"
DETPAIR_SCALAR = "detpair-scalar"
DETPAIR_SHIFT = "detpair-shift"
DETPAIR_MIXED = "detpair-mixed"
DETSINGLE_SCALAR = "detsingle-scalar"
DETSINGLE_SHIFT = "detsingle-shift"
FAMILIES = (
    DET0_GENERAL,
    DET0_SCALED,
    DETPAIR_SCALAR,
    DETPAIR_SHIFT,
    DETPAIR_MIXED,
    DETSINGLE_SCALAR,
    DETSINGLE_SHIFT,
)


def crt(residues, primes) -> int:
    """The x in [0, prod(primes)) with x = r_i (mod p_i)."""
    n = prod(primes)
    x = 0
    for r, p in zip(residues, primes):
        m = n // p
        x += r * m * pow(m, -1, p)
    return x % n


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi) by a sieve of Eratosthenes."""
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\x00\x00"
    for k in range(2, int(hi**0.5) + 1):
        if sieve[k]:
            sieve[k * k :: k] = bytearray(len(range(k * k, hi, k)))
    return [k for k in range(lo, hi) if sieve[k]]


def idempotents(primes) -> list[int]:
    """All 2^m idempotents of Z_n, one per 0/1 pattern, ascending."""
    m = len(primes)
    return sorted(crt([(mask >> i) & 1 for i in range(m)], primes) for mask in range(2**m))


def prime_matrix_idempotents(p: int) -> list[tuple[int, int, int, int]]:
    """Every (e, f, g, h) over Z_p with [[e, f], [g, h]]^2 = itself, by full scan."""
    out = []
    for e in range(p):
        for h in range(p):
            s = e + h
            for f in range(p):
                for g in range(p):
                    if (
                        (e * e + f * g - e) % p == 0
                        and (f * s - f) % p == 0
                        and (g * s - g) % p == 0
                        and (f * g + h * h - h) % p == 0
                    ):
                        out.append((e, f, g, h))
    return out


class ConstantIdempotents:
    """The constant idempotent matrices of M2(Z_n) as CRT lifts of per-prime ones.

    Index i in [0, total) names one matrix through a mixed-radix split over
    the per-prime lists, so sampling and striding need no full enumeration.
    """

    def __init__(self, primes):
        self.primes = tuple(primes)
        self.n = prod(self.primes)
        self.local = [prime_matrix_idempotents(p) for p in self.primes]
        self.total = prod(len(loc) for loc in self.local)
        census = []
        for p, loc in zip(self.primes, self.local):
            census.append(Counter(((e * h - f * g) % p, (e + h) % p) for e, f, g, h in loc))
        self.det_trace_histogram: Counter = Counter({(): 1})
        for p, cen in zip(self.primes, census):
            nxt: Counter = Counter()
            for key, c in self.det_trace_histogram.items():
                for local_key, lc in cen.items():
                    nxt[key + (local_key,)] += c * lc
            self.det_trace_histogram = nxt
        self.det_trace_histogram = Counter(
            {
                (crt([k[0] for k in key], self.primes), crt([k[1] for k in key], self.primes)): c
                for key, c in self.det_trace_histogram.items()
            }
        )
        self.det_histogram: Counter = Counter()
        for (d, _), c in self.det_trace_histogram.items():
            self.det_histogram[d] += c

    def entry(self, index: int) -> tuple[int, int, int, int]:
        picks = []
        for loc in self.local:
            index, r = divmod(index, len(loc))
            picks.append(loc[r])
        return tuple(crt([pk[i] for pk in picks], self.primes) for i in range(4))

    def family_counts(self) -> Counter:
        out: Counter = Counter()
        for (d, t), c in self.det_trace_histogram.items():
            fam = expected_family(self.primes, d, t)
            if fam is not None:
                out[fam] += c
        return out


def expected_family(primes, d: int, t: int) -> str | None:
    """The template family the paper assigns to a (det, trace) pair.

    None for the trivial matrices (det 0 trace 0, det 1) and for pairs no
    idempotent can have.
    """
    n = prod(primes)
    weight = sum(d % p for p in primes)
    if weight == 0:
        if t == 1:
            return DET0_GENERAL
        if t not in (0, 1) and (t * t - t) % n == 0:
            return DET0_SCALED
        return None
    if weight == len(primes):
        return None
    pair = weight == 1
    if t == 2 * d % n:
        return DETPAIR_SCALAR if pair else DETSINGLE_SCALAR
    if t == (d + 1) % n:
        return DETPAIR_SHIFT if pair else DETSINGLE_SHIFT
    return DETPAIR_MIXED if pair else None


def quadratic_root_count(p: int, c: int) -> int:
    """Number of x mod an odd prime p with x^2 = x + c, by Euler's criterion on 1 + 4c."""
    disc = (1 + 4 * c) % p
    if disc == 0:
        return 1
    return 2 if pow(disc, (p - 1) // 2, p) == 1 else 0


def poly_mul(a, b, n: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _canon(out, n)


def _canon(cs, n: int) -> list[int]:
    out = [c % n for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_add(a, b, n: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return _canon(out, n)


def matrix_is_idempotent(entries, n: int) -> bool:
    """[[e, f], [g, h]]^2 == itself for coefficient lists, by schoolbook products."""
    (e, f), (g, h) = entries
    sq = (
        poly_add(poly_mul(e, e, n), poly_mul(f, g, n), n),
        poly_add(poly_mul(e, f, n), poly_mul(f, h, n), n),
        poly_add(poly_mul(g, e, n), poly_mul(h, g, n), n),
        poly_add(poly_mul(g, f, n), poly_mul(h, h, n), n),
    )
    return sq == tuple(_canon(x, n) for x in (e, f, g, h))


# --- checkers -----------------------------------------------------------


def _hist_distance(got: dict, want: dict) -> int:
    return sum(abs(got.get(k, 0) - want.get(k, 0)) for k in set(got) | set(want))


def check_completeness(report, ref: ConstantIdempotents, archived: dict) -> tuple[int, int]:
    """(attempted, failed) for one completeness verdict, one item per matrix.

    report carries total, trivial, family_counts, det_histogram,
    det_trace_histogram, unmatched and match_multiplicity; archived is the
    reports/completeness-<n>.json document.  Every matrix a histogram,
    count or unmatched list puts in the wrong place counts as failed.
    """
    if report is None:
        return ref.total, ref.total
    arch_dt = {(r["det"], r["trace"]): r["count"] for r in archived["det_trace_histogram"]}
    arch_mult = {int(k): v for k, v in archived["match_multiplicity"].items()}
    bad = abs(report.total - ref.total)
    bad += abs(report.trivial - archived["trivial"])
    bad += len(report.unmatched)
    bad += _hist_distance(dict(report.det_trace_histogram), ref.det_trace_histogram)
    bad += _hist_distance(dict(report.det_histogram), ref.det_histogram)
    bad += _hist_distance(dict(report.det_trace_histogram), arch_dt)
    bad += _hist_distance(dict(report.family_counts), ref.family_counts())
    bad += _hist_distance(dict(report.family_counts), archived["family_counts"])
    bad += _hist_distance(dict(report.match_multiplicity), arch_mult)
    bad += abs(len(archived["unmatched"]) - len(report.unmatched))
    return ref.total, min(bad, ref.total)


def _json_object(text: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    return doc


def trace_answer_ok(rc: int, text: str, primes, d: int) -> bool:
    """One `solve-trace <n> <d> --json` answer against t^2 = t + 2d and Euler's criterion."""
    n = prod(primes)
    try:
        doc = _json_object(text)
    except ValueError:
        return False
    if rc != 0 or doc.get("n") != n or doc.get("primes") != list(primes) or doc.get("det") != d % n:
        return False
    sols = doc.get("solutions")
    if not isinstance(sols, list) or sols != sorted(set(sols)):
        return False
    if any(not 0 <= t < n or (t * t - t - 2 * d) % n for t in sols):
        return False
    if len(sols) != prod(quadratic_root_count(p, 2 * d) for p in primes):
        return False
    forms = doc.get("closed_forms")
    if d % n in (0, 1):
        return forms is None
    return isinstance(forms, dict) and forms.get("solver_solutions") == sols


def classified_ok(rep, primes, entry, d: int, t: int) -> bool:
    """One classify() report on the constant matrix entry with reference det d, trace t."""
    n = prod(primes)
    if not rep.idempotent or rep.det != d or rep.trace != t:
        return False
    trivial = entry in ((0, 0, 0, 0), (1, 0, 0, 1))
    if rep.trivial != trivial:
        return False
    if trivial:
        return not rep.matches
    fams = {label.family for label in rep.matches}
    want = expected_family(primes, d, t)
    return want is not None and fams == {want} and all(
        label.det % n == d and label.trace % n == t for label in rep.matches
    )


def roundtrip_ok(label, doc: dict, rep) -> bool:
    """One generate -> wire -> classify round trip: idempotent by our own product, label back."""
    n = doc["n"]
    entries = doc["entries"]
    coeffs = [c for row in entries for entry in row for c in entry]
    if any(not 0 <= c < n for c in coeffs):
        return False
    if any(entry and entry[-1] == 0 for row in entries for entry in row):
        return False
    if not matrix_is_idempotent(entries, n):
        return False
    return rep.idempotent and not rep.trivial and label in rep.matches
