import json
import random
import sys
from collections import Counter
from itertools import product, zip_longest
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ELEMENTARY_DET_TRACE,
    crt,
    crt_lift_matrix,
    elementary_idempotent,
    matrix_census_by_det_trace,
    matrix_is_idempotent,
    poly_mul_unreduced,
    scan_matrix_idempotents,
)

from idemring.classify import (
    DET0_GENERAL,
    DET0_SCALED,
    DETPAIR_MIXED,
    DETPAIR_SCALAR,
    DETPAIR_SHIFT,
    DETSINGLE_SCALAR,
    DETSINGLE_SHIFT,
    FAMILIES,
    ClassLabel,
    _match_template,
    classify,
    completeness_check,
    expected_trace_values,
    generate,
    iter_constant_idempotent_entries,
    make_label,
    require_matrix_budget,
    template_table,
    validate_label,
)
from idemring.errors import (
    BudgetExceeded,
    InternalTheoremViolation,
    ModulusMismatch,
    PrimesOutOfScope,
    UnsatisfiableParams,
)
from idemring.mat2 import Mat2Poly
from idemring.modarith import Modulus, factor_squarefree
import idemring.polyring as polyring_module
from idemring.polyring import Poly
from idemring.quadcong import trace_candidates
from idemring.znring import enumerate_idempotents, nontrivial_idempotents

REPORTS_DIR = Path(__file__).resolve().parents[1] / "reports"


def test_scope_guard(mod105, mod385):
    with pytest.raises(PrimesOutOfScope):
        classify(Mat2Poly.identity(105), mod105)
    with pytest.raises(PrimesOutOfScope):
        completeness_check(mod105)
    with pytest.raises(PrimesOutOfScope):
        make_label(Modulus(35, (5, 7)), DET0_GENERAL)
    # in-scope modulus passes the guard
    classify(Mat2Poly.identity(385), mod385)


def test_trivial_matrices(mod385):
    rep = classify(Mat2Poly.identity(385), mod385)
    assert rep.idempotent and rep.trivial
    assert (rep.det, rep.trace) == (1, 2)
    rep = classify(Mat2Poly.zero(385), mod385)
    assert rep.idempotent and rep.trivial
    assert (rep.det, rep.trace) == (0, 0)


def test_non_idempotent_reported(mod385):
    rep = classify(Mat2Poly.from_ints(385, 1, 1, 1, 0), mod385)
    assert not rep.idempotent
    assert rep.matches == []


def test_scalar_example(mod385):
    rep = classify(Mat2Poly.from_ints(385, 155, 0, 0, 155), mod385)
    assert len(rep.matches) == 1
    label = rep.matches[0]
    assert label.family == DETSINGLE_SCALAR
    assert label.prime_roles == (5, 7, 11)
    assert label.det == 155


def test_det0_general_example(mod385):
    x = Poly(385, (0, 1))
    G = Mat2Poly(x, x * (1 - x), Poly(385, (1,)), 1 - x)
    rep = classify(G, mod385)
    assert [l.family for l in rep.matches] == [DET0_GENERAL]
    assert rep.witnesses[0]["e"] == x


def test_make_label_defaults(mod385):
    assert make_label(mod385, DETPAIR_SCALAR).det == 210
    assert make_label(mod385, DETSINGLE_SCALAR).det == 155
    lab = make_label(mod385, DET0_SCALED)
    assert (lab.scale, lab.annihilator) == (210, 11)


def test_positional_annihilator_pairing(mod385):
    # J is always the complementary divisor n / gcd(I, n)
    expected = {210: 11, 330: 7, 231: 5, 155: 77, 56: 55, 176: 35}
    for scale, annihilator in expected.items():
        lab = make_label(mod385, DET0_SCALED, scale=scale)
        assert lab.annihilator == annihilator
        assert lab.scale * lab.annihilator % 385 == 0


def test_inconsistent_annihilator_rejected(mod385):
    # a mispaired (I, J) violates I*J = 0 and must be rejected
    bad = ClassLabel(385, DET0_SCALED, (5, 7, 11), det=0, trace=155, scale=155, annihilator=5)
    with pytest.raises(UnsatisfiableParams):
        validate_label(mod385, bad)


def test_validate_label_trace_check(mod385):
    bad = ClassLabel(385, DETPAIR_SCALAR, (5, 7, 11), det=210, trace=211)
    with pytest.raises(UnsatisfiableParams):
        validate_label(mod385, bad)


def test_make_label_wrong_det_pattern(mod385):
    with pytest.raises(UnsatisfiableParams):
        make_label(mod385, DETPAIR_SCALAR, det=155)
    with pytest.raises(UnsatisfiableParams):
        make_label(mod385, DETSINGLE_SHIFT, det=210)


def _make_label_by_scan(mod, family, *, det=None, scale=None, swap_mixed_roles=False):
    """make_label as a CRT and a sorted scan of the whole table on every call."""
    table = template_table(mod)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    n = mod.n
    single = family in (DETSINGLE_SCALAR, DETSINGLE_SHIFT)
    default = crt((0, 1, 1) if single else (0, 0, 1), mod.primes)
    trace = None
    if family == DET0_SCALED:
        det, trace = 0, (default if scale is None else scale) % n
    elif family == DET0_GENERAL:
        det = 0
    else:
        det = (default if det is None else det) % n
    labels = sorted(
        tpl.label
        for (d, t), tpl in table.items()
        if tpl.label.family == family and d == det and (trace is None or t == trace)
    )
    if not labels:
        pinned = f"scale {trace}" if family == DET0_SCALED else f"det {det}"
        raise UnsatisfiableParams(f"no {family} template with {pinned} mod {n}")
    return labels[-1] if swap_mixed_roles else labels[0]


def _outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except (UnsatisfiableParams, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", [385, 455, 1001, 5 * 7 * 10007])
def test_make_label_equals_a_scan_of_the_table(n):
    mod = factor_squarefree(n)
    idems = enumerate_idempotents(mod)
    values = (None, 2, n + 3, *idems, *(-y for y in idems[1:]))
    for family, value, swap in product(FAMILIES, values, (False, True)):
        for kw in ({"det": value}, {"scale": value}, {"det": value, "scale": value}):
            assert _outcome(make_label, mod, family, swap_mixed_roles=swap, **kw) == _outcome(
                _make_label_by_scan, mod, family, swap_mixed_roles=swap, **kw
            ), (family, kw, swap)


def test_make_label_error_order(mod105, mod385):
    # the scope guard comes before the family check, which comes before
    # the unsatisfiable det
    with pytest.raises(PrimesOutOfScope):
        make_label(mod105, "no-such-family", det=2)
    with pytest.raises(ValueError, match="unknown family"):
        make_label(mod385, "no-such-family", det=2)


def test_generate_draws_nothing_when_every_parameter_is_given(monkeypatch):
    def no_rng(*args, **kw):
        raise AssertionError("generate seeded a Random it did not draw from")

    # the name classify here is the function, not its module
    monkeypatch.setattr(sys.modules["idemring.classify"].random, "Random", no_rng)
    for n in (385, 455):
        mod = factor_squarefree(n)
        x = Poly(n, (0, 1))
        for tpl in template_table(mod).values():
            label = tpl.label
            params = {}
            if label.family not in (DETPAIR_SCALAR, DETSINGLE_SCALAR):
                params = {"e": 3 + x * x, "g": Poly(n, (1,))}
            if label.family == DET0_SCALED:
                params["m"] = x + 5
            G = generate(mod, label, seed=0, **params)
            assert label in classify(G, mod).matches


def test_det0_scaled_witness_is_the_undivided_entries(mod385):
    # like det0-general, det0-scaled reports G's own entries and no side
    # quotient: G*G = G gives e*e + f*g = e, so e(1-e) - g*f vanishes
    rng = random.Random(5)
    for label in (tpl.label for tpl in template_table(mod385).values()):
        if label.family != DET0_SCALED:
            continue
        for degree in range(7):
            G = generate(mod385, label, seed=rng.getrandbits(32), max_degree=degree)
            assert G.e * (1 - G.e) - G.g * G.f == Poly(385, ())
            (wit,) = classify(G, mod385).witnesses
            assert wit == {"e": G.e, "f": G.f, "g": G.g}


def test_generate_det0_general_frozen(mod385):
    lab = make_label(mod385, DET0_GENERAL)
    G = generate(mod385, lab, e=Poly(385, (0, 1)))
    x = Poly(385, (0, 1))
    assert G == Mat2Poly(x, x * (1 - x), Poly(385, (1,)), 1 - x)


def test_generate_detpair_scalar_frozen(mod385):
    lab = make_label(mod385, DETPAIR_SCALAR, det=210)
    assert generate(mod385, lab) == Mat2Poly.from_ints(385, 210, 0, 0, 210)


def test_generate_det0_scaled_postverified(mod385):
    lab = make_label(mod385, DET0_SCALED, scale=155)
    G = generate(mod385, lab, e=Poly(385, (0, 1)), m=Poly(385, (1,)))
    assert G.is_idempotent()
    rep = classify(G, mod385)
    assert lab in rep.matches


def test_generate_unsatisfiable_params(mod385):
    lab = make_label(mod385, DET0_GENERAL)
    x = Poly(385, (0, 1))
    with pytest.raises(UnsatisfiableParams):
        generate(mod385, lab, e=x, f=x, g=Poly(385, (1,)))
    shift = make_label(mod385, DETPAIR_SHIFT)
    with pytest.raises(UnsatisfiableParams):
        # g = 11 shares a factor with the side divisor's complement modulus 35
        generate(mod385, shift, e=x, g=Poly(385, (35,)))


def test_generate_classify_round_trip_all_families(mod385):
    rng = random.Random(99)
    pair_dets = [d for d in nontrivial_idempotents(mod385) if len(expected_trace_values(mod385, d)) == 4]
    single_dets = [d for d in nontrivial_idempotents(mod385) if len(expected_trace_values(mod385, d)) == 2]
    assert sorted(pair_dets) == [210, 231, 330]
    assert sorted(single_dets) == [56, 155, 176]
    for _ in range(40):
        for family in FAMILIES:
            if family == DET0_GENERAL:
                lab = make_label(mod385, family)
            elif family == DET0_SCALED:
                lab = make_label(mod385, family, scale=rng.choice(nontrivial_idempotents(mod385)))
            elif family in (DETPAIR_SCALAR, DETPAIR_SHIFT):
                lab = make_label(mod385, family, det=rng.choice(pair_dets))
            elif family == DETPAIR_MIXED:
                lab = make_label(
                    mod385, family, det=rng.choice(pair_dets), swap_mixed_roles=rng.random() < 0.5
                )
            else:
                lab = make_label(mod385, family, det=rng.choice(single_dets))
            G = generate(mod385, lab, seed=rng.getrandbits(32), max_degree=3)
            rep = classify(G, mod385)
            assert lab in rep.matches, (family, lab, G.render())
            comp = Mat2Poly(1 - G.e, -G.f, -G.g, 1 - G.h)
            assert comp.is_idempotent()
            crep = classify(comp, mod385)
            assert crep.trivial or crep.matches


def test_classify_modulus_mismatch(mod385):
    with pytest.raises(ModulusMismatch):
        classify(Mat2Poly.identity(455), mod385)


def test_generate_accepts_recovered_witnesses():
    # feeding a matrix's recovered witnesses back in reproduces it exactly
    for n in (385, 455, 1001, 5 * 7 * 10007):
        mod = factor_squarefree(n)
        rng = random.Random(n)
        for label in (tpl.label for tpl in template_table(mod).values()):
            for degree in range(6):
                G = generate(mod, label, seed=rng.getrandbits(32), max_degree=degree)
                (wit,) = classify(G, mod).witnesses
                params = {key: wit[key] for key in ("e", "f", "g") if key in wit}
                assert generate(mod, label, **params) == G, (n, label, degree)


@pytest.mark.parametrize("n", [385, 455])
def test_generated_matrices_pass_the_literal_square(n):
    # generate checks its matrix by Cayley-Hamilton on the template's own d
    # and t; the oracle squares it with literal products.  The witnesses
    # fed back as explicit e, f and g rebuild the same matrix.
    mod = factor_squarefree(n)
    rng = random.Random(n)
    for label in (tpl.label for tpl in template_table(mod).values()):
        for degree in (0, 1, 5, 20, 200):
            G = generate(mod, label, seed=rng.getrandbits(32), max_degree=degree)
            assert matrix_is_idempotent(tuple(list(p.coeffs) for p in G.entries()), n), (label, degree)
            (wit,) = classify(G, mod).witnesses
            if "f" in wit:
                assert generate(mod, label, e=wit["e"], f=wit["f"], g=wit["g"]) == G, (label, degree)


@pytest.mark.parametrize("n", [385, 455])
def test_shift_and_mixed_witnesses_rebuild_the_entries(n):
    # the witnesses of the strided families are the matrix's own entries:
    # G.e = u + stride*e, G.f = stride*f and G.g = stride*g; and for the
    # shift families side*k = e(1 + stride*e) + stride*g*f (mod n), by the
    # literal product
    mod = factor_squarefree(n)
    rng = random.Random(n + 1)
    for tpl in template_table(mod).values():
        label, s, u = tpl.label, tpl.stride, tpl.offset
        if label.family not in (DETPAIR_SHIFT, DETSINGLE_SHIFT, DETPAIR_MIXED):
            continue
        for degree in (0, 1, 5, 20):
            G = generate(mod, label, seed=rng.getrandbits(32), max_degree=degree)
            (wit,) = classify(G, mod).witnesses
            e, f, g = (list(wit[key].coeffs) for key in "efg")
            diag = [s * c for c in e] or [0]
            assert G.e == Poly(n, [u + diag[0], *diag[1:]]), (label, degree)
            assert G.f == Poly(n, [s * c for c in f]), (label, degree)
            assert G.g == Poly(n, [s * c for c in g]), (label, degree)
            if label.family == DETPAIR_MIXED:
                assert "k" not in wit
                continue
            one_se = [s * c for c in e] or [0]
            one_se[0] += 1
            side = [
                a + s * b
                for a, b in zip_longest(poly_mul_unreduced(e, one_se), poly_mul_unreduced(g, f), fillvalue=0)
            ]
            assert Poly(n, [tpl.side * c for c in wit["k"].coeffs]) == Poly(n, side), (label, degree)


def test_generate_catches_a_wrong_solution_for_f(monkeypatch):
    # the name classify here is the function, not its module
    module = sys.modules["idemring.classify"]
    right = module.mod_inverse
    monkeypatch.setattr(module, "mod_inverse", lambda a, m: (right(a, m) + 1) % m)
    for n in (385, 455):
        mod = factor_squarefree(n)
        x = Poly(n, (0, 1))
        for label in (tpl.label for tpl in template_table(mod).values()):
            if label.family in (DETPAIR_SCALAR, DETSINGLE_SCALAR):
                continue
            with pytest.raises(InternalTheoremViolation, match="^generated matrix is not idempotent for "):
                generate(mod, label, e=x)


@st.composite
def _elementary_draws(draw):
    """(primes, per-prime types, per-prime four elementary r's of degree <= 3)."""
    primes = draw(st.sampled_from([(5, 7, 11), (5, 7, 13), (7, 11, 13), (5, 7, 10007)]))
    # hypothesis favours the first choice; R is the type with content
    kinds = tuple(draw(st.sampled_from("R0I")) for _ in primes)
    rs = [[draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4)) for _ in range(4)] for p in primes]
    return primes, kinds, rs


@settings(max_examples=150, deadline=None)
@given(_elementary_draws())
def test_independent_conjugates_classify_by_their_type_vector(drawn):
    # the oracle's E * diag(type) * E^-1 shares no code with generate, whose
    # default draws all have g a unit constant mod the side
    primes, kinds, rs = drawn
    n = prod(primes)
    entries = crt_lift_matrix([elementary_idempotent(*args) for args in zip(primes, kinds, rs)], primes)
    assert matrix_is_idempotent(entries, n)
    mod = factor_squarefree(n)
    G = Mat2Poly(*(Poly(n, cs) for cs in entries))
    rep = classify(G, mod)
    assert rep.idempotent
    if kinds in (("0",) * 3, ("I",) * 3):
        assert rep.trivial and rep.matches == []
        return
    det, trace = (crt([ELEMENTARY_DET_TRACE[k][i] for k in kinds], primes) for i in (0, 1))
    assert not rep.trivial
    (label,), (wit,) = rep.matches, rep.witnesses
    assert (rep.det, rep.trace) == (label.det, label.trace) == (det, trace)
    params = {key: wit[key] for key in ("e", "f", "g") if key in wit}
    assert generate(mod, label, **params) == G


def _naive_mul(a, b, n):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % n
    return out


def _naive_sub(a, b, n):
    size = max(len(a), len(b))
    return [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % n for i in range(size)]


def _naive_scaled(scale, polys, n):
    """scale * each coefficient list, reduced mod n with trailing zeros dropped."""
    out = []
    for cs in polys:
        cs = [scale * c % n for c in cs]
        while cs and not cs[-1]:
            cs.pop()
        out.append(tuple(cs))
    return tuple(out)


@pytest.mark.parametrize("n", [385, 455, 1001, 5 * 7 * 10007])
def test_det0_scaled_is_the_scaled_det0_matrix(n):
    # generate builds det0-scaled by the strided formula; the reference is
    # the literal I * [[e, f], [g, 1-e]] with f = g^-1 * e(1-e) (mod J)
    mod = factor_squarefree(n)
    rng = random.Random(n)
    solved = accepted = rejected = 0
    for label in (tpl.label for tpl in template_table(mod).values()):
        if label.family != DET0_SCALED:
            continue
        scale, J = label.scale, label.annihilator
        for degree in range(7):
            e = [rng.randrange(n) for _ in range(degree)] + [rng.randrange(1, n)]
            h = _naive_sub([1], e, n)
            eh = _naive_mul(e, h, n)
            g0 = rng.randrange(1, n)
            while gcd(g0, J) != 1:
                g0 = rng.randrange(1, n)
            # g need only reduce to the unit constant g0 mod J
            g = _naive_sub([g0], [J * rng.randrange(n) for _ in range(3)], n)
            f = [pow(g0, -1, J) * c % J for c in eh]
            G = generate(mod, label, e=Poly(n, e), g=Poly(n, g))
            assert tuple(p.coeffs for p in G.entries()) == _naive_scaled(scale, (e, f, g, h), n)
            solved += 1
            # an explicit f and any g: accepted exactly when J | e(1-e) - g*f
            for f, g in (
                (_naive_sub(f, [J * rng.randrange(n) for _ in range(2 * degree + 1)], n), g),
                ([rng.randrange(n) for _ in range(2 * degree + 1)], [rng.randrange(n) for _ in range(3)]),
            ):
                if all(c % J == 0 for c in _naive_sub(eh, _naive_mul(g, f, n), n)):
                    G = generate(mod, label, e=Poly(n, e), f=Poly(n, f), g=Poly(n, g))
                    assert tuple(p.coeffs for p in G.entries()) == _naive_scaled(scale, (e, f, g, h), n)
                    accepted += 1
                else:
                    with pytest.raises(UnsatisfiableParams):
                        generate(mod, label, e=Poly(n, e), f=Poly(n, f), g=Poly(n, g))
                    rejected += 1
    assert solved == 42 and accepted >= 42 and rejected > 0


def _naive_template(n, label, e, f, g):
    """[[u + s*e, s*f], [s*g, t - u - s*e]] for label, as trimmed coefficient
    tuples, or the UnsatisfiableParams message generate gives.

    The stride s is gcd(t - 2d, n) and the offset u is d mod s; f = None is
    solved per coefficient from s*g0*f = (diag*h - d)/s (mod n/s), g0 the
    unit constant g reduces to mod n/s.  det0-scaled first multiplies e, f
    and g by k = I/s, I its scale.
    """
    d, t = label.det, label.trace
    s = gcd((t - 2 * d) % n, n)
    u, side = d % s, n // s
    if label.family == DET0_SCALED:
        k = label.scale // s
        e, g = ([k * c % n for c in cs] for cs in (e, g))
        f = None if f is None else [k * c % n for c in f]
    diag = [s * c % n for c in e] or [0]
    diag[0] = (diag[0] + u) % n
    h = _naive_sub([t], diag, n)
    residual = _naive_sub(_naive_mul(diag, h, n), [d], n)
    assert all(c % s == 0 for c in residual)
    if f is None:
        g0 = g[0] % side if g else 0
        if any(c % side for c in g[1:]) or gcd(g0, side) != 1:
            return f"g must reduce to a unit constant mod {side} to solve for f"
        f = [pow(s * g0, -1, side) * (c // s) % side for c in residual]
    elif any(_naive_sub(residual, [s * s * c for c in _naive_mul(f, g, n)], n)):
        return "parameters violate the determinant side condition"
    return _naive_scaled(1, (diag, [s * c for c in f], [s * c for c in g], h), n)


def _generated(mod, label, **params):
    """generate's entries as coefficient tuples, or its UnsatisfiableParams message."""
    try:
        G = generate(mod, label, **{key: Poly(mod.n, cs) for key, cs in params.items()})
    except UnsatisfiableParams as exc:
        return str(exc)
    return tuple(p.coeffs for p in G.entries())


@pytest.mark.parametrize("n", [385, 455, 1001, 5 * 7 * 10007])
def test_every_template_is_its_strided_formula(n):
    mod = factor_squarefree(n)
    rng = random.Random(n)
    outcomes = Counter()
    for label in (tpl.label for tpl in template_table(mod).values()):
        side = n // gcd((label.trace - 2 * label.det) % n, n)
        for degree in range(7):
            e = [rng.randrange(n) for _ in range(degree)] + [rng.randrange(1, n)]
            g0 = rng.randrange(1, n)
            while gcd(g0, side) != 1:
                g0 = rng.randrange(1, n)
            g = _naive_sub([g0], [side * rng.randrange(n) for _ in range(3)], n)
            want = _naive_template(n, label, e, None, g)
            assert _generated(mod, label, e=e, g=g) == want, (label, e, g)
            outcomes["solved"] += 1
            # the solved f plus multiples of the side is accepted; a random f
            # with a random g is accepted exactly when the side condition holds
            stride = n // side
            k = label.scale // stride if label.family == DET0_SCALED else 1
            solved_f = [c // stride * pow(k, -1, side) % side for c in want[1]]
            for f, g1 in (
                (_naive_sub(solved_f, [side * rng.randrange(n) for _ in range(2 * degree + 1)], n), g),
                ([rng.randrange(n) for _ in range(2 * degree + 1)], [rng.randrange(n) for _ in range(3)]),
            ):
                want = _naive_template(n, label, e, f, g1)
                assert _generated(mod, label, e=e, f=f, g=g1) == want, (label, e, f, g1)
                outcomes["rejected" if isinstance(want, str) else "accepted"] += 1
            # g must be a unit constant mod the side to solve for f
            if side > 1:
                p = next(p for p in mod.primes if side % p == 0)
                for g1 in ([p * rng.randrange(n) % n], [g0, side * rng.randrange(stride) + rng.randrange(1, side)]):
                    want = _naive_template(n, label, e, None, g1)
                    assert want == f"g must reduce to a unit constant mod {side} to solve for f"
                    assert _generated(mod, label, e=e, g=g1) == want
                    outcomes["non-unit g"] += 1
    assert outcomes["solved"] == 25 * 7 and outcomes["accepted"] >= 25 * 7
    # the six scalar templates (side 1) read no parameter and reject none
    assert outcomes["rejected"] > 0 and outcomes["non-unit g"] == 19 * 2 * 7


def test_generate_rejects_a_parameter_over_another_modulus(mod385):
    for label in (tpl.label for tpl in template_table(mod385).values()):
        for name in "efgm":
            with pytest.raises(ModulusMismatch, match=f"^{name} over 455, modulus 385$"):
                generate(mod385, label, **{name: Poly(455, [1, 2])})


def test_det0_scaled_g_need_only_be_a_unit_mod_the_annihilator(mod385):
    label = make_label(mod385, DET0_SCALED, scale=210)
    assert label.annihilator == 11
    x = Poly(385, (0, 1))
    # 5 is a unit mod 11 but not mod 385
    G = generate(mod385, label, e=x, g=Poly(385, (5,)))
    assert classify(G, mod385).matches == [label]
    for g in (Poly(385, (11,)), Poly(385, (22,)), 1 + x):
        with pytest.raises(UnsatisfiableParams, match="unit constant mod 11"):
            generate(mod385, label, e=x, g=g)


def test_mixed_role_swap_distinct(mod385):
    plain = make_label(mod385, DETPAIR_MIXED, det=210)
    swapped = make_label(mod385, DETPAIR_MIXED, det=210, swap_mixed_roles=True)
    assert plain.trace != swapped.trace
    assert plain.prime_roles == (5, 7, 11)
    assert swapped.prime_roles == (7, 5, 11)
    G = generate(mod385, swapped, seed=3)
    assert swapped in classify(G, mod385).matches


def test_oracle_counts_small():
    for p, count in ((2, 8), (5, 32)):
        entries = list(iter_constant_idempotent_entries(Modulus(p, (p,))))
        assert len(entries) == count
        assert set(entries) == set(scan_matrix_idempotents(p))


def test_oracle_count_35_multiplicative():
    entries = list(iter_constant_idempotent_entries(Modulus(35, (5, 7))))
    assert len(entries) == 1856
    assert len(entries) == len(scan_matrix_idempotents(5)) * len(scan_matrix_idempotents(7))
    assert all(Mat2Poly.from_ints(35, *t).is_idempotent() for t in entries)


def test_oracle_budget(mod105):
    mod = factor_squarefree(1001)
    require_matrix_budget(mod, 1001**3)
    with pytest.raises(BudgetExceeded, match=r"^1001\^3 states exceed budget 1000000$"):
        require_matrix_budget(mod, 10**6)
    with pytest.raises(BudgetExceeded, match=r"^1001\^3 states exceed budget 1000000$"):
        completeness_check(mod, budget=10**6)
    # the scope guard comes first
    with pytest.raises(PrimesOutOfScope):
        completeness_check(mod105, budget=1)


def test_enumeration_is_sorted_and_unique(mod385):
    seen = list(iter_constant_idempotent_entries(Modulus(35, (5, 7))))
    assert len(seen) == len(set(seen)) == 1856


def test_completeness_385(completeness385, mod385):
    rep = completeness385
    assert rep.total == 248704
    assert rep.trivial == 2
    assert rep.unmatched == []
    assert set(rep.match_multiplicity) == {1}
    assert rep.det_support_ok(enumerate_idempotents(mod385))


def test_completeness_counts_match_per_prime_census(completeness385, mod385):
    # per-prime census of idempotent matrices over Z_p, bucketed by
    # (det, trace); the global (det, trace) bucket sizes must be the
    # products of the per-prime bucket sizes (entrywise CRT bijection)
    census = {p: matrix_census_by_det_trace(p) for p in mod385.primes}
    for (d, t), count in rep_items(completeness385.det_trace_histogram):
        expected = 1
        for p in mod385.primes:
            expected *= census[p].get((d % p, t % p), 0)
        assert count == expected, (d, t)
    total_expected = 1
    for p in mod385.primes:
        total_expected *= sum(census[p].values())
    assert completeness385.total == total_expected


def rep_items(d):
    return sorted(d.items())


def test_completeness_impossible_traces_absent(completeness385, mod385):
    hist = completeness385.det_trace_histogram
    for d in nontrivial_idempotents(mod385):
        allowed = expected_trace_values(mod385, d)
        for t in trace_candidates(mod385, d):
            if t not in allowed:
                assert (d, t) not in hist


def test_completeness_mixed_offset_report(completeness385):
    # the mixed templates pin the diagonal offset mod (p_role * r_role)
    # while its value mod the free prime varies
    assert completeness385.mixed_offsets
    for (d, t), info in completeness385.mixed_offsets.items():
        assert len(info["offsets"]) == 1
        assert info["distinct_diagonals"] > 1


def test_report_serialization(completeness385):
    doc = completeness385.to_dict()
    assert doc["total"] == 248704
    text = completeness385.to_text()
    assert "unmatched non-trivial idempotents: 0" in text


def test_classify_allocates_nothing_beyond_det_and_trace(monkeypatch, mod385):
    # the first call caches the zero and identity matrices classify compares with
    classify(Mat2Poly.identity(385), mod385)
    x = Poly(385, (0, 1))
    cases = {
        DET0_GENERAL: Mat2Poly(x, x * (1 - x), Poly(385, (1,)), 1 - x),
        DETPAIR_SCALAR: Mat2Poly.from_ints(385, 210, 0, 0, 210),
        DETSINGLE_SCALAR: Mat2Poly.from_ints(385, 155, 0, 0, 155),
    }
    # a Poly is made by its constructor or, as the result of arithmetic or
    # of classify's own list work, by polyring._reduced
    made = [0]
    init = Poly.__init__
    reduced = polyring_module._reduced

    def counted(self, *args):
        made[0] += 1
        init(self, *args)

    def counted_reduced(*args):
        made[0] += 1
        return reduced(*args)

    monkeypatch.setattr(Poly, "__init__", counted)
    for module in (polyring_module, sys.modules["idemring.classify"]):
        monkeypatch.setattr(module, "_reduced", counted_reduced)
    for family, G in cases.items():
        made[0] = 0
        G.idempotent_det_trace()
        floor = made[0]
        assert floor > 0
        made[0] = 0
        rep = classify(G, mod385)
        assert [label.family for label in rep.matches] == [family]
        assert made[0] == floor, family


@pytest.mark.parametrize("n", [385, 455])
def test_closed_form_census_equals_archived_report(n):
    # a constant idempotent is a choice of idempotent mod each prime: 0 and
    # I are one matrix each, rank one (det 0, trace 1) is p^2 + p matrices
    mod = factor_squarefree(n)
    archived = json.loads((REPORTS_DIR / f"completeness-{n}.json").read_text())
    histogram = {(0, 0): 1, (1, 2): 1}
    families = Counter()
    for key, tpl in template_table(mod).items():
        count = prod(p * p + p for p in mod.primes if tpl.side % p == 0)
        histogram[key] = count
        families[tpl.label.family] += count
    assert {(r["det"], r["trace"]): r["count"] for r in archived["det_trace_histogram"]} == histogram
    assert archived["family_counts"] == dict(families)


# the last three are past every sweep: the table builds, so certifies, there
@pytest.mark.parametrize(
    "n", [385, 455, 1001, 5 * 7 * 10007, 31 * 37 * 41, 101 * 103 * 107, 5 * 7 * 999999999989]
)
def test_template_table_is_the_per_prime_type_table(n):
    # (det, trace) mod p of the zero matrix, the identity and a rank-one idempotent
    det_trace = {"0": (0, 0), "I": (1, 2), "R": (0, 1)}
    mod = factor_squarefree(n)
    table = template_table(mod)
    # 000 and III are the zero matrix and the identity
    types = [tau for tau in product("0IR", repeat=3) if tau not in (("0",) * 3, ("I",) * 3)]
    assert len(types) == len(table) == 25
    for tau in types:
        key = tuple(crt([det_trace[k][i] for k in tau], mod.primes) for i in (0, 1))
        tpl = table[key]
        stride = prod(p for k, p in zip(tau, mod.primes) if k != "R")
        zeros, ones, rs = (tau.count(k) for k in "0IR")
        if rs == 3:
            family = DET0_GENERAL
        elif not ones:
            family = DET0_SCALED
        elif not rs:
            family = DETPAIR_SCALAR if ones == 1 else DETSINGLE_SCALAR
        elif not zeros:
            family = DETPAIR_SHIFT if ones == 1 else DETSINGLE_SHIFT
        else:
            family = DETPAIR_MIXED
        assert (tpl.label.det, tpl.label.trace) == key, tau
        assert (tpl.stride, tpl.side) == (stride, n // stride), tau
        fixed = [(int(k == "I"), p) for k, p in zip(tau, mod.primes) if k != "R"]
        assert tpl.offset == (crt(*zip(*fixed)) if fixed else 0), tau
        assert tpl.label.family == family, tau


def test_match_template_rejects_a_stride_that_does_not_divide_f(monkeypatch, mod385):
    # [[0, 1], [0, 1]] is a det0-general idempotent (stride 1); a forged
    # stride 5 divides e - u = 0 and g = 0 but not f = 1
    G = Mat2Poly.from_ints(385, 0, 1, 0, 1)
    table = template_table(mod385)
    tpl = table[0, 1]
    assert _match_template(G, tpl) == {"e": G.e, "f": G.f, "g": G.g}
    forged = tpl._replace(stride=5, side=77)
    off_form = "^idempotent off the stride form of det0-general "
    with pytest.raises(InternalTheoremViolation, match=off_form):
        _match_template(G, forged)
    # the name classify here is the function, not its module
    module = sys.modules["idemring.classify"]
    monkeypatch.setattr(module, "template_table", lambda mod: {**table, (0, 1): forged})
    with pytest.raises(InternalTheoremViolation, match=off_form):
        classify(G, mod385)


def test_match_template_rejects_a_side_that_does_not_divide_its_quotient(monkeypatch, mod385):
    # detpair-shift (stride 11, side 35) with e = x and g = 1: e(1 + 11e) +
    # 11*g*f = 210x, so k = 6x.  The division is exact by whatever side the
    # template holds (a forged 105 gives 2x); a forged 77 leaves a remainder
    x = Poly(385, (0, 1))
    table = template_table(mod385)
    tpl = validate_label(mod385, make_label(mod385, DETPAIR_SHIFT))
    assert (tpl.stride, tpl.side) == (11, 35)
    G = generate(mod385, tpl.label, e=x)
    assert _match_template(G, tpl)["k"] == 6 * x
    assert _match_template(G, tpl._replace(side=105))["k"] == 2 * x
    forged = tpl._replace(side=77)
    remainder = r"^e\(1 \+ stride\*e\) \+ stride\*g\*f is not a multiple of the side 77 for detpair-shift "
    with pytest.raises(InternalTheoremViolation, match=remainder):
        _match_template(G, forged)
    # the name classify here is the function, not its module
    module = sys.modules["idemring.classify"]
    key = tpl.label.det, tpl.label.trace
    monkeypatch.setattr(module, "template_table", lambda mod: {**table, key: forged})
    with pytest.raises(InternalTheoremViolation, match=remainder):
        classify(G, mod385)


def test_classify_raises_when_no_template_has_the_det_and_trace(monkeypatch, mod385):
    G = Mat2Poly.from_ints(385, 0, 1, 0, 1)
    table = template_table(mod385)
    module = sys.modules["idemring.classify"]
    monkeypatch.setattr(module, "template_table", lambda mod: {k: v for k, v in table.items() if k != (0, 1)})
    with pytest.raises(InternalTheoremViolation, match="^non-trivial idempotent with det 0 and trace 1: no template$"):
        classify(G, mod385)
    # the trivial matrices need no template
    assert classify(Mat2Poly.identity(385), mod385).trivial


@pytest.mark.parametrize("n", [385, 455])
def test_certificate_rejects_a_forged_offset(monkeypatch, n):
    mod = factor_squarefree(n)
    module = sys.modules["idemring.classify"]
    real = module.Template
    build = template_table.__wrapped__  # the table without its cache
    for tpl in template_table(mod).values():
        target = tpl.label

        def forged(label, offset, stride, side):
            return real(label, offset + (label == target), stride, side)

        monkeypatch.setattr(module, "Template", forged)
        if target.family == DET0_GENERAL:
            # stride 1: u = 1 gives [[1 + e, f], [g, -e]], the same matrices
            assert build(mod)[target.det, target.trace].offset == 1
        else:
            with pytest.raises(InternalTheoremViolation, match="fails its Cayley-Hamilton certificate$"):
                build(mod)
