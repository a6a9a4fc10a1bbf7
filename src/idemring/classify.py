"""Classification of idempotent matrices in M2(Z_n[x]) for n = p*q*r, primes > 3.

Every idempotent determinant forces the trace into a small solved set, and
each viable (det, trace) pair carries a parameterized matrix template with a
divisibility side condition.  ``template_table`` lists those templates once
per modulus.  ``classify`` matches a verified idempotent against the
template its det and trace select, recovering the template parameters as
explicit witnesses; ``generate`` inverts a template;
``bruteforce_constant_idempotents`` enumerates all constant idempotents; and
``completeness_check`` replays the classifier over that enumeration.

Template families, keyed by the determinant's per-prime pattern:

  det 0, trace 1        det0-general    [[e, f], [g, 1-e]] with e(1-e) = g*f
  det 0, trace I        det0-scaled     I * [[e, f], [g, 1-e]], e(1-e) - g*f
                                        divisible by J = n / gcd(I, n)
  det d = (a*b)^(s-1):
    trace 2d            detpair-scalar  diag(d, d)
    trace d+1           detpair-shift   [[1+s*e, s*f], [s*g, d-s*e]],
                                        e(1+s*e) + s*g*f divisible by a*b
    trace = 2 at s,     detpair-mixed   [[u+a*s*e, a*s*f], [a*s*g, t-(u+a*s*e)]],
    0 at a, 1 at b                      u = 0 mod a, 1 mod s; det condition pins f
  det d = z^((a-1)(b-1)):
    trace 2d            detsingle-scalar  diag(d, d)
    trace d+1           detsingle-shift   stride a*b, side divisor z
"""

from __future__ import annotations

import random
import time
from collections import Counter, defaultdict, namedtuple
from collections.abc import Mapping
from functools import lru_cache
from math import gcd
from types import MappingProxyType

from .errors import (
    BudgetExceeded,
    InternalTheoremViolation,
    ModulusMismatch,
    NotConstant,
    PrimesOutOfScope,
    UnsatisfiableParams,
)
from .mat2 import Mat2Poly
from .modarith import Modulus, crt_combine, mod_inverse
from .polyring import Poly, coeffs_divisible, divide_coeffs
from .znring import enumerate_idempotents, pattern_of

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

DEFAULT_MATRIX_BUDGET = 125_000_000  # n**3 states, i.e. n <= 500


class ClassLabel(
    namedtuple(
        "ClassLabel",
        "modulus family prime_roles det trace scale annihilator mixed_offset",
        defaults=(None, None, None),
    )
):
    """One matched template: family, prime roles and pinned parameters.

    prime_roles lists the primes in the order the template formulas use
    them; scale/annihilator are the (I, J) pair of the scaled det-0 family
    and mixed_offset is the diagonal offset u of the mixed family.  The
    last three are None where the family does not use them.
    """

    __slots__ = ()

    def __str__(self) -> str:
        bits = [f"{self.family} roles {self.prime_roles} det {self.det} trace {self.trace}"]
        if self.scale is not None:
            bits.append(f"scale {self.scale} annihilator {self.annihilator}")
        if self.mixed_offset is not None:
            bits.append(f"offset {self.mixed_offset}")
        return " ".join(bits)


ClassificationReport = namedtuple(
    "ClassificationReport", "idempotent trivial det trace matches witnesses notes"
)


def require_classification_scope(mod: Modulus) -> None:
    if mod.m != 3 or mod.primes[0] <= 3:
        raise PrimesOutOfScope(f"need three distinct primes, all > 3; got {mod}")


def nontrivial_idempotents(mod: Modulus) -> tuple[int, ...]:
    return tuple(y for y in enumerate_idempotents(mod) if y not in (0, 1))


# --- the template table ------------------------------------------------

class Template(namedtuple("Template", "label offset stride side")):
    """One valid label and the numbers its matrix formula uses.

    Every family but det0-scaled reads [[u + stride*e, stride*f],
    [stride*g, t - u - stride*e]] with u = offset (the scalars take
    stride n, so nothing is free); det0-scaled is I * [[e, f], [g, 1-e]]
    with entries that are multiples of stride = gcd(I, n).  The side
    condition is read modulo side = n / stride.
    """

    __slots__ = ()


def _det_roles(mod: Modulus, d: int) -> tuple[tuple[int, int, int], int]:
    """Role order and pattern weight for a nontrivial idempotent d.

    Weight 1 (d = (a*b)^(s-1)) yields (a, b, s); weight 2
    (d = z^((a-1)(b-1))) yields (z, a, b): the det-0 primes come first.
    """
    pat = pattern_of(mod, d)
    zeros = tuple(p for p, bit in zip(mod.primes, pat) if not bit)
    ones = tuple(p for p, bit in zip(mod.primes, pat) if bit)
    return zeros + ones, len(ones)


@lru_cache
def template_table(mod: Modulus) -> Mapping[tuple[int, int], Template]:
    """Every valid template over mod keyed by (det, trace): 25 in all.

    This is the one place the family formulas are written down; labels,
    validation, classification and generation all read from it.
    """
    require_classification_scope(mod)
    n = mod.n
    table: dict[tuple[int, int], Template] = {}

    def add(family, roles, det, trace, offset, stride, **extra):
        label = ClassLabel(n, family, roles, det=det, trace=trace % n, **extra)
        table[det, trace % n] = Template(label, offset, stride, n // stride)

    add(DET0_GENERAL, mod.primes, 0, 1, 0, 1)
    for d in nontrivial_idempotents(mod):
        roles, weight = _det_roles(mod, d)
        c = gcd(d, n)
        add(DET0_SCALED, roles, 0, d, 0, c, scale=d, annihilator=n // c)
        if weight == 1:
            z0, z1, s = roles
            add(DETPAIR_SCALAR, roles, d, 2 * d, d, n)
            add(DETPAIR_SHIFT, roles, d, d + 1, 1, s)
            for a, b in ((z0, z1), (z1, z0)):
                u = crt_combine([(0, a), (1, s)])
                trace = crt_combine([(0, a), (1, b), (2, s)])
                add(DETPAIR_MIXED, (a, b, s), d, trace, u, a * s, mixed_offset=u)
        else:
            z, a, b = roles
            add(DETSINGLE_SCALAR, roles, d, 2 * d, d, n)
            add(DETSINGLE_SHIFT, roles, d, d + 1, 1, a * b)
    if len(table) != 25 or any((t * t - t - 2 * d) % n for d, t in table):
        raise InternalTheoremViolation(f"template table over {n} is not 25 solutions of t^2 = t + 2d")
    return MappingProxyType(table)


def expected_trace_values(mod: Modulus, d: int) -> set[int]:
    """Traces the templates produce for determinant d; empty when no template has det d."""
    d %= mod.n
    return {t for det, t in template_table(mod) if det == d}


def make_label(
    mod: Modulus,
    family: str,
    *,
    det: int | None = None,
    scale: int | None = None,
    swap_mixed_roles: bool = False,
) -> ClassLabel:
    """Look up the ClassLabel of a family over mod.

    det defaults to the pair power with pattern (0,0,1) for the det-pair
    families and to the prime power with pattern (0,1,1) for the det-single
    families; scale defaults to the (0,0,1) idempotent for det0-scaled.
    """
    table = template_table(mod)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    n = mod.n
    single = family in (DETSINGLE_SCALAR, DETSINGLE_SHIFT)
    default = crt_combine(list(zip((0, 1, 1) if single else (0, 0, 1), mod.primes)))
    trace = None
    if family == DET0_SCALED:
        det, trace = 0, (default if scale is None else scale) % n
    elif family == DET0_GENERAL:
        det = 0
    else:
        det = (default if det is None else det) % n
    labels = [
        tpl.label
        for (d, t), tpl in table.items()
        if tpl.label.family == family and d == det and (trace is None or t == trace)
    ]
    if not labels:
        pinned = f"scale {trace}" if family == DET0_SCALED else f"det {det}"
        raise UnsatisfiableParams(f"no {family} template with {pinned} mod {n}")
    return labels[-1] if swap_mixed_roles else labels[0]


def validate_label(mod: Modulus, label: ClassLabel) -> Template:
    """The template of label; raises UnsatisfiableParams unless label is
    exactly one of mod's templates."""
    d, t = label.det, label.trace
    tpl = template_table(mod).get((d, t))
    if tpl is None:
        raise UnsatisfiableParams(f"no template has det {d} and trace {t} mod {mod.n}")
    if tpl.label != label:
        raise UnsatisfiableParams(f"det {d} and trace {t} pin the label to {tpl.label}")
    return tpl


# --- witness recovery --------------------------------------------------
# Each matcher takes a matrix whose (det, trace) selected its template and
# returns the template parameters, or None when a structural check fails.

def _match_det0_general(G, tpl):
    e, f, g = G.e, G.f, G.g
    if G.h != 1 - e:
        return None
    if not (e * (1 - e) - g * f).is_zero():
        return None
    return {"e": e, "f": f, "g": g}


def _match_det0_scaled(G, tpl):
    scale, annihilator = tpl.label.scale, tpl.side
    if any(not coeffs_divisible(entry, tpl.stride) for entry in G.entries()):
        return None
    # entries are multiples of gcd(scale, n), so scale * entry == entry and
    # the entries themselves serve as the template parameters
    e, f, g = G.e, G.f, G.g
    if scale * e != G.e or scale * f != G.f or scale * g != G.g or scale * (1 - e) != G.h:
        return None
    side = e * (1 - e) - g * f
    if not coeffs_divisible(side, annihilator):
        return None
    return {"e": e, "f": f, "g": g, "k": divide_coeffs(side, annihilator)}


def _match_scalar(G, tpl):
    d = tpl.label.det
    return {} if G == Mat2Poly.from_ints(G.n, d, 0, 0, d) else None


def _strided_params(G, tpl):
    """(e, f, g) with G = [[u + stride*e, stride*f], [stride*g, t - u - stride*e]], or None."""
    e_off = G.e - tpl.offset
    if not all(coeffs_divisible(p, tpl.stride) for p in (e_off, G.f, G.g)):
        return None
    if G.h != tpl.label.trace - G.e:
        return None
    return [divide_coeffs(p, tpl.stride) for p in (e_off, G.f, G.g)]


def _match_shift(G, tpl):
    params = _strided_params(G, tpl)
    if params is None:
        return None
    e, f, g = params
    side = e * (1 + tpl.stride * e) + tpl.stride * (g * f)
    if not coeffs_divisible(side, tpl.side):
        return None
    return {"e": e, "f": f, "g": g, "k": divide_coeffs(side, tpl.side)}


def _match_mixed(G, tpl):
    params = _strided_params(G, tpl)
    if params is None:
        return None
    e, f, g = params
    u, sigma, t = tpl.offset, tpl.stride, tpl.label.trace
    diag = u + sigma * e
    if diag * (t - diag) - sigma * sigma * (f * g) != Poly.constant(G.n, tpl.label.det):
        return None
    return {"e": e, "f": f, "g": g, "u": u, "diag_constant": G.e.coeff(0)}


_MATCHERS = {
    DET0_GENERAL: _match_det0_general,
    DET0_SCALED: _match_det0_scaled,
    DETPAIR_SCALAR: _match_scalar,
    DETSINGLE_SCALAR: _match_scalar,
    DETPAIR_SHIFT: _match_shift,
    DETSINGLE_SHIFT: _match_shift,
    DETPAIR_MIXED: _match_mixed,
}


def classify(G: Mat2Poly, mod: Modulus) -> ClassificationReport:
    """Match an idempotent matrix against the template its det/trace select.

    Non-idempotent input yields a report with idempotent=False; the zero
    and identity matrices (and any det-1 case, which forces the identity)
    are flagged trivial.  A match carries its recovered witness
    parameters; an empty match list on a non-trivial idempotent is
    reported via notes rather than raised.
    """
    table = template_table(mod)
    if G.n != mod.n:
        raise ModulusMismatch(f"matrix over {G.n}, modulus {mod.n}")
    if not G.is_idempotent():
        return ClassificationReport(False, False, None, None, [], [], [])
    n = mod.n
    try:
        d = G.det().const_value()
        t = G.trace().const_value()
    except NotConstant as exc:
        raise InternalTheoremViolation(
            f"verified idempotent has non-constant det or trace: {exc}"
        ) from exc
    notes: list[str] = []
    trivial = G == Mat2Poly.zero(n) or G == Mat2Poly.identity(n)
    if d == 1 and not trivial:
        notes.append("det 1 forces the identity; flagging this anomaly as trivial")
        trivial = True
    if trivial:
        return ClassificationReport(True, True, d, t, [], [], notes)
    if (d * d - d) % n:
        raise InternalTheoremViolation(f"idempotent matrix has non-idempotent det {d} (mod {n})")
    tpl = table.get((d, t))
    witness = None if tpl is None else _MATCHERS[tpl.label.family](G, tpl)
    if witness is None:
        notes.append("no template matched a non-trivial idempotent (unexpected)")
        return ClassificationReport(True, False, d, t, [], [], notes)
    return ClassificationReport(True, False, d, t, [tpl.label], [witness], notes)


# --- generation --------------------------------------------------------

def _random_poly(rng: random.Random, n: int, max_degree: int) -> Poly:
    deg = rng.randint(-1, max_degree)
    if deg < 0:
        return Poly(n, ())
    coeffs = [rng.randrange(n) for _ in range(deg)] + [rng.randrange(1, n)]
    return Poly(n, coeffs)


def _unit_constant_mod(gpoly: Poly, w: int):
    """Value of gpoly mod w when it reduces to a unit constant, else None."""
    reduced = [c % w for c in gpoly.coeffs]
    if any(reduced[1:]):
        return None
    g0 = reduced[0] if reduced else 0
    if gcd(g0, w) != 1:
        return None
    return g0


def _solved_f(target: Poly, gpoly: Poly, factor: int, w: int, n: int) -> Poly:
    """f with factor * gpoly * f = target (mod w), solved per coefficient."""
    g0 = _unit_constant_mod(gpoly, w)
    if g0 is None:
        raise UnsatisfiableParams(f"g must reduce to a unit constant mod {w} to solve for f")
    inv = mod_inverse(factor * g0, w)
    return Poly(n, ((inv * c) % w for c in target.coeffs))


def _scaled_matrix(tpl, e, f, g, m):
    """I * [[e, f], [g, 1-e]] with e(1-e) - g*f divisible by the annihilator."""
    n, annihilator = tpl.label.modulus, tpl.side
    if f is None:
        f = _solved_f(e * (1 - e) - annihilator * m, g, 1, n, n)
    elif not coeffs_divisible(e * (1 - e) - g * f, annihilator):
        raise UnsatisfiableParams(f"e(1-e) - g*f must be divisible by the annihilator {annihilator}")
    scale = tpl.label.scale
    return Mat2Poly(scale * e, scale * f, scale * g, scale * (1 - e))


def _strided_matrix(tpl, e, f, g):
    """[[u + stride*e, stride*f], [stride*g, t - u - stride*e]] with det d.

    The det condition leaves a residual divisible by the stride; f solves
    stride * g * f = residual / stride modulo the side divisor.
    """
    n, d, t, sigma = tpl.label.modulus, tpl.label.det, tpl.label.trace, tpl.stride
    diag = tpl.offset + sigma * e
    residual = diag * (t - diag) - d
    if not coeffs_divisible(residual, sigma):
        raise InternalTheoremViolation("template residual not divisible by the stride")
    if f is None:
        f = _solved_f(divide_coeffs(residual, sigma), g, sigma, tpl.side, n)
    elif sigma * sigma * (f * g) != residual:
        raise UnsatisfiableParams("parameters violate the determinant side condition")
    return Mat2Poly(diag, sigma * f, sigma * g, t - diag)


def generate(
    mod: Modulus,
    label: ClassLabel,
    *,
    e: Poly | None = None,
    f: Poly | None = None,
    g: Poly | None = None,
    m: Poly | None = None,
    rng: random.Random | None = None,
    seed: int | None = None,
    max_degree: int = 2,
) -> Mat2Poly:
    """Produce an idempotent matrix that classify() matches to label.

    Free template parameters left as None are drawn from rng (or a fresh
    Random(seed)); the parameter bound by the side condition is solved per
    coefficient.  Explicit parameters that violate the side condition and
    cannot be repaired raise UnsatisfiableParams.  The result is verified
    idempotent before being returned.
    """
    tpl = validate_label(mod, label)
    if max_degree < 0:
        raise UnsatisfiableParams(f"max_degree must be non-negative, got {max_degree}")
    n = mod.n
    if rng is None:
        rng = random.Random(seed)
    fam, d = label.family, label.det
    if fam in (DETPAIR_SCALAR, DETSINGLE_SCALAR):
        G = Mat2Poly.from_ints(n, d, 0, 0, d)
    else:
        e = _random_poly(rng, n, max_degree) if e is None else e
        g = Poly.constant(n, 1) if g is None else g
        if fam == DET0_SCALED:
            if f is None and m is None:
                m = _random_poly(rng, n, max_degree)
            G = _scaled_matrix(tpl, e, f, g, m)
        else:
            G = _strided_matrix(tpl, e, f, g)
    if not G.is_idempotent():
        raise InternalTheoremViolation(f"generated matrix is not idempotent for {label}")
    return G


# --- brute-force oracle and completeness ---------------------------------

def iter_constant_idempotent_entries(mod: Modulus):
    """Yield (e, f, g, h) for every constant idempotent matrix, deterministically.

    Pairs (e, h) must satisfy e - e^2 = h - h^2; given such a pair, f and g
    obey f*g = e - e^2 together with f*(e+h-1) = g*(e+h-1) = 0, so f runs
    over multiples of n/gcd(e+h-1, n) and g comes from gcd solvability of
    the product congruence.  Cost is O(n^3) in the worst case but output
    sensitive in practice.
    """
    n = mod.n
    cvals = [(x - x * x) % n for x in range(n)]
    buckets: dict[int, list[int]] = {}
    for h, c in enumerate(cvals):
        buckets.setdefault(c, []).append(h)
    for e in range(n):
        c = cvals[e]
        for h in buckets[c]:
            t1 = (e + h - 1) % n
            beta = gcd(t1, n)
            step = n // beta
            for f in range(0, n, step):
                if f == 0:
                    if c == 0:
                        for g in range(0, n, step):
                            yield (e, 0, g, h)
                    continue
                gamma = gcd(f, n)
                if c % gamma:
                    continue
                cof = n // gamma
                g0 = ((c // gamma) * mod_inverse(f // gamma, cof)) % cof
                for g in range(g0, n, cof):
                    if g % step == 0:
                        yield (e, f, g, h)


def bruteforce_constant_idempotents(
    mod: Modulus, budget: int = DEFAULT_MATRIX_BUDGET
) -> list[Mat2Poly]:
    """All constant matrices G with G @ G == G, sorted by entry tuple."""
    n = mod.n
    if n**3 > budget:
        raise BudgetExceeded(f"{n}^3 states exceed budget {budget}")
    tuples = sorted(iter_constant_idempotent_entries(mod))
    return [Mat2Poly.from_ints(n, *t) for t in tuples]


class CompletenessReport(
    namedtuple(
        "CompletenessReport",
        "modulus primes total trivial family_counts det_histogram det_trace_histogram"
        " unmatched match_multiplicity mixed_offsets elapsed_seconds",
    )
):
    """Tally of classify() over every constant idempotent matrix."""

    __slots__ = ()

    def det_support_ok(self, idempotents) -> bool:
        return set(self.det_histogram) <= set(idempotents)

    def to_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "primes": list(self.primes),
            "total": self.total,
            "trivial": self.trivial,
            "family_counts": dict(sorted(self.family_counts.items())),
            "det_histogram": [
                {"det": d, "count": c} for d, c in sorted(self.det_histogram.items())
            ],
            "det_trace_histogram": [
                {"det": d, "trace": t, "count": c}
                for (d, t), c in sorted(self.det_trace_histogram.items())
            ],
            "unmatched": [list(t) for t in self.unmatched],
            "match_multiplicity": {str(k): v for k, v in sorted(self.match_multiplicity.items())},
            "mixed_offsets": [
                {"det": d, "trace": t, **info}
                for (d, t), info in sorted(self.mixed_offsets.items())
            ],
        }

    def to_text(self) -> str:
        lines = [
            f"completeness check for n = {self.modulus}",
            f"constant idempotent matrices: {self.total} ({self.trivial} trivial)",
            "family counts:",
        ]
        for fam in FAMILIES:
            if fam in self.family_counts:
                lines.append(f"  {fam:<18} {self.family_counts[fam]}")
        lines.append(f"unmatched non-trivial idempotents: {len(self.unmatched)}")
        mult = ", ".join(f"{k} match(es): {v}" for k, v in sorted(self.match_multiplicity.items()))
        lines.append(f"match multiplicity: {mult or 'n/a'}")
        lines.append("det histogram: " + " ".join(f"{d}:{c}" for d, c in sorted(self.det_histogram.items())))
        for (d, t), info in sorted(self.mixed_offsets.items()):
            lines.append(
                f"mixed det {d} trace {t}: offset(s) {info['offsets']} mod {info['offset_modulus']}, "
                f"{info['distinct_diagonals']} distinct diagonal constants mod {self.modulus}"
            )
        return "\n".join(lines)


def completeness_check(mod: Modulus, budget: int = DEFAULT_MATRIX_BUDGET) -> CompletenessReport:
    """Classify every constant idempotent matrix and tally the outcome.

    The expectation, checked by the acceptance suite, is that every
    non-trivial constant idempotent matches its template and the det
    histogram is supported on the 2^3 idempotents of Z_n.
    """
    table = template_table(mod)
    n = mod.n
    if n**3 > budget:
        raise BudgetExceeded(f"{n}^3 states exceed budget {budget}")
    start = time.perf_counter()
    family_counts: Counter = Counter()
    det_hist: Counter = Counter()
    dt_hist: Counter = Counter()
    multiplicity: Counter = Counter()
    unmatched: list[tuple[int, int, int, int]] = []
    mixed_diagonals: dict[tuple[int, int], set] = defaultdict(set)
    total = 0
    trivial = 0
    for entry in iter_constant_idempotent_entries(mod):
        total += 1
        G = Mat2Poly.from_ints(n, *entry)
        rep = classify(G, mod)
        if not rep.idempotent:
            raise InternalTheoremViolation(f"enumerated non-idempotent {entry}")
        det_hist[rep.det] += 1
        dt_hist[(rep.det, rep.trace)] += 1
        if rep.trivial:
            trivial += 1
            continue
        multiplicity[len(rep.matches)] += 1
        if not rep.matches:
            unmatched.append(entry)
        for label, wit in zip(rep.matches, rep.witnesses):
            family_counts[label.family] += 1
            if label.family == DETPAIR_MIXED:
                mixed_diagonals[rep.det, rep.trace].add(wit["diag_constant"])
    mixed_offsets = {
        key: {
            "offsets": [table[key].offset],
            "offset_modulus": table[key].stride,
            "distinct_diagonals": len(diags),
        }
        for key, diags in mixed_diagonals.items()
    }
    return CompletenessReport(
        modulus=n,
        primes=mod.primes,
        total=total,
        trivial=trivial,
        family_counts=dict(family_counts),
        det_histogram=dict(det_hist),
        det_trace_histogram=dict(dt_hist),
        unmatched=unmatched,
        match_multiplicity=dict(multiplicity),
        mixed_offsets=mixed_offsets,
        elapsed_seconds=time.perf_counter() - start,
    )
