"""Classification of idempotent matrices in M2(Z_n[x]) for n = p*q*r, primes > 3.

Z_n[x] is the product of the F_p[x], so an idempotent matrix reduces mod
each prime to 0, to I, or to a rank-one idempotent R (det 0, trace 1).
Each template is one type vector tau in {0, I, R}^3 other than 000 (the
zero matrix) and III (the identity).  The CRT lifts its I primes and its R
primes to two orthogonal idempotents of Z_n, d (1 at the I primes, 0 at
the others) and r (1 at the R primes), and the template's numbers are read
off that pair:

  det d      the I-idempotent
  trace t    2d + r (I has trace 2 and R trace 1 mod p)
  stride     gcd(r, n), the product of the 0 and I primes; side = n / stride
  offset u   d mod stride (0 when stride = 1)

and its matrices are [[u + stride*e, stride*f], [stride*g, t - u - stride*e]]
with det d.  The family is read off the type counts:

  RRR                det0-general      [[e, f], [g, 1-e]], e(1-e) = g*f
  00R, 0RR and perms det0-scaled       I * [[e, f], [g, 1-e]], I = t, J = side
  00I                detpair-scalar    diag(d, d)
  0II                detsingle-scalar  diag(d, d)
  RRI                detpair-shift     u = 1, side = the two R primes
  RII                detsingle-shift   u = 1, side = the R prime
  0IR                detpair-mixed     u = 0 at the 0 prime, 1 at the I prime

``template_table`` builds the 25 templates of a modulus and certifies
each once.  ``classify`` recovers the parameters of the template a
verified idempotent's det and trace select, as explicit witnesses;
``generate`` inverts a template, checking only its det;
``iter_constant_idempotent_entries`` enumerates all constant idempotents;
and ``completeness_check`` replays the classifier over that enumeration.
"""

from __future__ import annotations

import random
import time
from collections import Counter, defaultdict, namedtuple
from collections.abc import Mapping
from functools import lru_cache
from itertools import product, zip_longest
from math import gcd
from types import MappingProxyType

from .errors import (
    InternalTheoremViolation,
    ModulusMismatch,
    NotConstant,
    PrimesOutOfScope,
    UnsatisfiableParams,
    charge,
)
from .families import (
    DEFAULT_BUDGET,
    DET0_GENERAL,
    DET0_SCALED,
    DETPAIR_MIXED,
    DETPAIR_SCALAR,
    DETPAIR_SHIFT,
    DETSINGLE_SCALAR,
    DETSINGLE_SHIFT,
    FAMILIES,
)
from .mat2 import MAX_ENTRY_DEGREE, Mat2Poly
from .modarith import Modulus, mod_inverse
from .polyring import MAX_GENERATE_DEGREE, Poly, _reduced, mul_coeffs
from .znring import idempotent_of


class ClassLabel(
    namedtuple(
        "ClassLabel",
        "modulus family prime_roles det trace scale annihilator mixed_offset",
        defaults=(None, None, None),
    )
):
    """One matched template: family, prime roles and pinned parameters.

    prime_roles lists the primes by type, 0 first, then R, then I, each
    group ascending; scale/annihilator are the (I, J) pair of the scaled
    det-0 family and mixed_offset is the diagonal offset u of the mixed
    family.  The last three are None where the family does not use them.
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


def require_matrix_budget(mod: Modulus, budget: int) -> None:
    """Charge a sweep over the constant matrices of M2(Z_n) its n**3 states."""
    charge(mod.n**3, budget, f"{mod.n}^3 states")


# --- the template table ------------------------------------------------

class Template(namedtuple("Template", "label offset stride side")):
    """One valid label and the numbers its matrix formula uses.

    The template matrices are [[u + stride*e, stride*f], [stride*g,
    t - u - stride*e]] with det d and u = offset; stride is the product of
    the 0 and I primes of the type and side = n / stride that of its R
    primes.
    """

    __slots__ = ()


def _family(tau: tuple[str, ...]) -> str:
    """The family of type vector tau, read off its counts of 0s and Is."""
    zeros, ones = tau.count("0"), tau.count("I")
    if not ones:
        return DET0_SCALED if zeros else DET0_GENERAL
    if zeros + ones == 3:
        return (DETPAIR_SCALAR, DETSINGLE_SCALAR)[ones - 1]
    if not zeros:
        return (DETPAIR_SHIFT, DETSINGLE_SHIFT)[ones - 1]
    return DETPAIR_MIXED


@lru_cache
def template_table(mod: Modulus) -> Mapping[tuple[int, int], Template]:
    """Every valid template over mod keyed by (det, trace): 25 in all.

    One template per type vector tau in {0, I, R}^3 other than 000 and
    III; labels, validation, classification and generation all read from
    this table.  Each template's Cayley-Hamilton certificate is checked
    here, once per modulus: with offset u and stride s, (t-1)*s = 0,
    (t-1)*u = d and (t-1)*(t-u) = d mod n make (t-1)*G = d*I, so G*G = G
    once det G = d, for every strided G, and u*(t-u) = d mod s makes
    generate's det residual a multiple of s.  The middle two sum to
    t^2 - t = 2d.  A failure raises InternalTheoremViolation.

    The last condition follows from the middle two, so it never fails
    alone.  s = gcd(r, n) is the product of the 0 and I primes, and
    t = 2d + r, so t = 2d mod s; then (t-1)^2 = t^2 - 2t + 1 = 1 + 2d - t
    = 1 mod s, and (t-1) is its own inverse mod s.  Multiplying
    (t-1)*u = d and (t-1)*(t-u) = d by it gives u = (t-1)*d and
    t - u = (t-1)*d mod s, so u*(t-u) = (t-1)^2 * d^2 = d^2 = d mod s, d
    being idempotent.  It is checked all the same.
    """
    require_classification_scope(mod)
    n = mod.n
    table: dict[tuple[int, int], Template] = {}
    # "0RI" orders both the table and each label's prime_roles
    for tau in product("0RI", repeat=3):
        if tau in (("0",) * 3, ("I",) * 3):
            continue
        det, r = (idempotent_of(mod, [k == kind for k in tau]) for kind in "IR")
        trace, stride = (2 * det + r) % n, gcd(r, n)
        offset = det % stride
        roles = tuple(p for kind in "0RI" for k, p in zip(tau, mod.primes) if k == kind)
        family = _family(tau)
        extra = {}
        if family == DET0_SCALED:
            extra = {"scale": trace, "annihilator": n // stride}
        elif family == DETPAIR_MIXED:
            extra = {"mixed_offset": offset}
        label = ClassLabel(n, family, roles, det=det, trace=trace, **extra)
        table[det, trace] = Template(label, offset, stride, n // stride)
    if len(table) != 25:
        raise InternalTheoremViolation(f"template table over {n} does not hold 25 templates")
    for (d, t), tpl in table.items():
        u, s = tpl.offset, tpl.stride
        if (t - 1) * s % n or ((t - 1) * u - d) % n or ((t - 1) * (t - u) - d) % n or (u * (t - u) - d) % s:
            raise InternalTheoremViolation(f"template {tpl.label} fails its Cayley-Hamilton certificate")
    return MappingProxyType(table)


def expected_trace_values(mod: Modulus, d: int) -> set[int]:
    """Traces the templates produce for determinant d; empty when no template has det d."""
    d %= mod.n
    return {t for det, t in template_table(mod) if det == d}


@lru_cache
def _label_index(mod: Modulus):
    """make_label's lookups over mod, built once beside template_table.

    Returns (labels, pair_det, single_det): labels maps (family, det), or
    (family, scale) for det0-scaled, to that family's labels in sorted
    order; pair_det and single_det are the default dets with patterns
    (0,0,1) and (0,1,1).
    """
    labels: dict[tuple[str, int], list[ClassLabel]] = defaultdict(list)
    for (d, t), tpl in template_table(mod).items():
        family = tpl.label.family
        labels[family, t if family == DET0_SCALED else d].append(tpl.label)
    pair_det, single_det = (idempotent_of(mod, bits) for bits in ((0, 0, 1), (0, 1, 1)))
    return {key: sorted(group) for key, group in labels.items()}, pair_det, single_det


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
    labels, pair_det, single_det = _label_index(mod)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == DET0_SCALED:
        key = (pair_det if scale is None else scale) % mod.n
    elif family == DET0_GENERAL:
        key = 0
    elif det is None:
        key = single_det if family in (DETSINGLE_SCALAR, DETSINGLE_SHIFT) else pair_det
    else:
        key = det % mod.n
    found = labels.get((family, key))
    if not found:
        pinned = "scale" if family == DET0_SCALED else "det"
        raise UnsatisfiableParams(f"no {family} template with {pinned} {key} mod {mod.n}")
    return found[-1] if swap_mixed_roles else found[0]


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

def _match_template(G, tpl):
    """Witness parameters of G in tpl's family.

    The one check is that e - u, f and g are coefficientwise multiples of
    the stride, i.e. that G has the template's stride form; an idempotent
    off it contradicts the classification theorem and raises
    InternalTheoremViolation.  Nothing else needs checking: classify has
    read trace(G) = t, so h = t - e exactly, and det(G) = d, which given
    the stride form is equivalent to every family's side condition
    (det0-general's e(1-e) = g*f, the annihilator and side
    divisibilities, the mixed det equation), so the quotient k below is
    exact; a remainder raises InternalTheoremViolation too.  Witnesses
    are presented per family: det0-general and det0-scaled report the
    undivided entries, the shift and mixed families the entries divided
    by the stride, computed on coefficient lists.
    """
    n, sigma, u, family = G.n, tpl.stride, tpl.offset, tpl.label.family
    e_off = [(G.e.coeff(0) - u) % n, *G.e.coeffs[1:]]
    if any(c % sigma for cs in (e_off, G.f.coeffs, G.g.coeffs) for c in cs):
        raise InternalTheoremViolation(f"idempotent off the stride form of {tpl.label}")
    if family in (DET0_GENERAL, DET0_SCALED):
        return {"e": G.e, "f": G.f, "g": G.g}
    if family in (DETPAIR_SCALAR, DETSINGLE_SCALAR):
        return {}
    # residues in [0, side), so in [0, n) as mul_coeffs needs
    e, f, g = ([c // sigma for c in cs] for cs in (e_off, G.f.coeffs, G.g.coeffs))
    witnesses = {"e": _reduced(n, e), "f": _reduced(n, f), "g": _reduced(n, g)}
    if family == DETPAIR_MIXED:
        return {**witnesses, "u": u, "diag_constant": G.e.coeff(0)}
    # side = e(1 + stride*e) + stride*g*f, reduced mod n
    one_se = [sigma * c for c in e]
    one_se[0] = (one_se[0] + 1) % n
    side = [
        (a + sigma * b) % n
        for a, b in zip_longest(mul_coeffs(e, one_se, n), mul_coeffs(g, f, n), fillvalue=0)
    ]
    if any(c % tpl.side for c in side):
        raise InternalTheoremViolation(
            f"e(1 + stride*e) + stride*g*f is not a multiple of the side {tpl.side} for {tpl.label}"
        )
    return {**witnesses, "k": _reduced(n, [c // tpl.side for c in side])}


def classify(G: Mat2Poly, mod: Modulus) -> ClassificationReport:
    """Match an idempotent matrix against the template its det/trace select.

    Non-idempotent input yields a report with idempotent=False; the zero
    and identity matrices are flagged trivial (a unit det forces I).  Mod
    each prime any other idempotent is 0, I or of det 0 and trace 1, so its
    (det, trace) selects a template whose stride form its entries have;
    the one match carries its witnesses.  A key off the table or entries
    off the form raise InternalTheoremViolation.  notes stays empty.
    """
    table = template_table(mod)
    if G.n != mod.n:
        raise ModulusMismatch(f"matrix over {G.n}, modulus {mod.n}")
    det_trace = G.idempotent_det_trace()
    if det_trace is None:
        return ClassificationReport(False, False, None, None, [], [], [])
    n = mod.n
    try:
        d = det_trace[0].const_value()
        t = det_trace[1].const_value()
    except NotConstant as exc:
        raise InternalTheoremViolation(
            f"verified idempotent has non-constant det or trace: {exc}"
        ) from exc
    if G == Mat2Poly.zero(n) or G == Mat2Poly.identity(n):
        return ClassificationReport(True, True, d, t, [], [], [])
    tpl = table.get((d, t))
    if tpl is None:
        raise InternalTheoremViolation(f"non-trivial idempotent with det {d} and trace {t}: no template")
    return ClassificationReport(True, False, d, t, [tpl.label], [_match_template(G, tpl)], [])


# --- generation --------------------------------------------------------

def _random_poly(rng: random.Random, n: int, max_degree: int) -> Poly:
    deg = rng.randint(-1, max_degree)
    if deg < 0:
        return Poly(n, ())
    coeffs = [rng.randrange(n) for _ in range(deg)] + [rng.randrange(1, n)]
    return Poly(n, coeffs)


def _unit_constant_mod(cs, w: int):
    """Value mod w of the polynomial with integer coefficients cs when it
    reduces to a unit constant, else None."""
    reduced = [c % w for c in cs]
    if any(reduced[1:]):
        return None
    g0 = reduced[0] if reduced else 0
    if gcd(g0, w) != 1:
        return None
    return g0


def _strided_matrix(tpl, e, f, g):
    """[[u + stride*e, stride*f], [stride*g, t - u - stride*e]] with det d.

    e, f and g are integer coefficient lists, f None to have it solved:
    the det condition leaves a residual diag*h - d, a multiple of the
    stride by template_table's certificate, and f solves
    stride * g * f = residual / stride modulo the side divisor.  The
    certificate makes every such matrix with det d idempotent, so the one
    check here is det G = d: the residual less stride*f * stride*g must
    vanish.  For an explicit f that is the side condition
    (UnsatisfiableParams); for a solved f it checks the solution.
    """
    label = tpl.label
    n, d, t, sigma, side = label.modulus, label.det, label.trace, tpl.stride, tpl.side
    # every entry a list of residues, made a Poly only when returned
    diag = [sigma * c % n for c in e] or [0]
    diag[0] = (diag[0] + tpl.offset) % n
    h = [-c % n for c in diag]
    h[0] = (h[0] + t) % n
    # diag * h - d, each coefficient congruent mod n (so mod the stride) to
    # the canonical one
    residual = mul_coeffs(diag, h, n)
    residual[0] -= d
    if f is None:
        g0 = _unit_constant_mod(g, side)
        if g0 is None:
            raise UnsatisfiableParams(f"g must reduce to a unit constant mod {side} to solve for f")
        inv = mod_inverse(sigma * g0, side)
        sigma_f = [sigma * (inv * (c // sigma) % side) for c in residual]
    else:
        sigma_f = [sigma * c % n for c in f]
    sigma_g = [sigma * c % n for c in g]
    fg = mul_coeffs(sigma_f, sigma_g, n)
    if any((r - c) % n for r, c in zip_longest(residual, fg, fillvalue=0)):
        if f is not None:
            raise UnsatisfiableParams("parameters violate the determinant side condition")
        raise InternalTheoremViolation(f"generated matrix is not idempotent for {label}")
    return Mat2Poly(_reduced(n, diag), _reduced(n, sigma_f), _reduced(n, sigma_g), _reduced(n, h))


def generate(
    mod: Modulus,
    label: ClassLabel,
    *,
    e: Poly | None = None,
    f: Poly | None = None,
    g: Poly | None = None,
    m: Poly | None = None,
    seed: int | None = None,
    max_degree: int = 2,
) -> Mat2Poly:
    """Produce an idempotent matrix that classify() matches to label.

    Free template parameters left as None are drawn from a Random(seed),
    made only when e is drawn; the parameter bound by the side condition
    is solved per coefficient.  Explicit parameters that violate the side
    condition and cannot be repaired raise UnsatisfiableParams, and so do
    a max_degree or an explicit parameter of degree above
    MAX_GENERATE_DEGREE; an explicit parameter over another modulus
    raises ModulusMismatch.  The result is idempotent by the
    template's certificate, checked once in template_table; generate
    checks only its det, the condition that depends on the parameters.

    m, the multiplier det0-scaled once solved f with, is still accepted
    but only has its degree checked: it entered the matrix as I * J * m,
    and I * J = 0 (mod n), so it never changed a matrix.
    """
    tpl = validate_label(mod, label)
    if max_degree < 0:
        raise UnsatisfiableParams(f"max_degree must be non-negative, got {max_degree}")
    if max_degree > MAX_GENERATE_DEGREE:
        raise UnsatisfiableParams(f"max_degree {max_degree} exceeds the limit {MAX_GENERATE_DEGREE}")
    n = mod.n
    for name, p in (("e", e), ("f", f), ("g", g), ("m", m)):
        if p is None:
            continue
        if p.degree > MAX_GENERATE_DEGREE:
            raise UnsatisfiableParams(f"{name} of degree {p.degree} exceeds the limit {MAX_GENERATE_DEGREE}")
        if p.n != n:
            raise ModulusMismatch(f"{name} over {p.n}, modulus {n}")
    fam, d = label.family, label.det
    if fam in (DETPAIR_SCALAR, DETSINGLE_SCALAR):
        # the template matrix itself: the stride is n
        G = Mat2Poly.from_ints(n, d, 0, 0, d)
    else:
        if e is None:
            e = _random_poly(random.Random(seed), n, max_degree)
        params = [e.coeffs, None if f is None else f.coeffs, (1,) if g is None else g.coeffs]
        if fam == DET0_SCALED:
            # I * [[e, f], [g, 1-e]] is the strided matrix of k*e, k*f, k*g:
            # stride * k = I exactly, and stride * k = 1 (mod J)
            k = label.scale // tpl.stride
            params = [None if cs is None else [k * c for c in cs] for cs in params]
        G = _strided_matrix(tpl, *params)
    if max(len(G.e.coeffs), len(G.f.coeffs), len(G.g.coeffs), len(G.h.coeffs)) > MAX_ENTRY_DEGREE + 1:
        raise InternalTheoremViolation(f"generated entry above the decoder's degree limit {MAX_ENTRY_DEGREE}")
    return G


# --- enumeration and completeness ----------------------------------------

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


def completeness_check(mod: Modulus, budget: int = DEFAULT_BUDGET) -> CompletenessReport:
    """Classify every constant idempotent matrix and tally the outcome.

    The expectation, checked by the acceptance suite, is that every
    non-trivial constant idempotent matches its template and the det
    histogram is supported on the 2^3 idempotents of Z_n.
    """
    table = template_table(mod)
    require_matrix_budget(mod, budget)
    n = mod.n
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
