from itertools import combinations, product
from math import prod

import pytest
from oracles import MANY_PRIMES, crt_lifts, evaluate_closed_form, scan_prime_roots, scan_trace_solutions

from idemring import quadcong, znring
from idemring.errors import (
    BudgetExceeded,
    InternalTheoremViolation,
    NotIdempotentDet,
    NotSquarefree,
    WrongPrimeCount,
)
from idemring.modarith import Modulus, factor_squarefree, is_prime
from idemring.quadcong import closed_form_trace_solutions, formula_discrepancy_survey, trace_candidates
from idemring.znring import enumerate_idempotents


def prime_roots(p, d):
    """The roots of t^2 = t + 2d modulo the prime p, through the solver."""
    return trace_candidates(factor_squarefree(p), d)


def test_prime_roots_examples():
    assert prime_roots(5, 1) == (2, 4)
    assert prime_roots(7, 0) == (0, 1)
    assert prime_roots(11, 1) == (2, 10)


def test_prime_roots_double_root_at_3():
    # t^2 = t + 2 has the single root 2 mod 3 (2 and -1 coincide)
    assert prime_roots(3, 1) == (2,)


def test_prime_roots_equal_scan_below_300():
    # d is 0 or 1 mod a prime: the roots read off d are the scan's, p = 2, 3 included
    for p in filter(is_prime, range(300)):
        for d in (0, 1):
            assert prime_roots(p, d) == scan_prime_roots(p, 2 * d), (p, d)


@pytest.mark.parametrize("p", [65537, 998244353, 10000000019])
def test_prime_roots_match_sympy_large_p(p):
    # at n = 35p the solver's solutions are the CRT of sympy's per-prime
    # roots (1 + r)/2, r^2 = 1 + 8d, for every idempotent d
    ntheory = pytest.importorskip("sympy.ntheory")
    crt = pytest.importorskip("sympy.ntheory.modular").crt
    mod = factor_squarefree(35 * p)
    for d in enumerate_idempotents(mod):
        per_prime = [
            sorted({(1 + r) * ((q + 1) // 2) % q for r in ntheory.sqrt_mod(1 + 8 * d, q, all_roots=True)})
            for q in mod.primes
        ]
        expect = sorted(int(crt(mod.primes, combo)[0]) for combo in product(*per_prime))
        assert list(trace_candidates(mod, d)) == expect, d


def test_trace_candidates_105(mod105):
    assert trace_candidates(mod105, 36) == (9, 27, 34, 37, 69, 72, 79, 97)


def test_trace_candidates_det0_gives_idempotents(mod385):
    assert trace_candidates(mod385, 0) == enumerate_idempotents(mod385)


def test_trace_candidates_385_contains_expected(mod385):
    sols = trace_candidates(mod385, 210)
    assert 35 in sols and 211 in sols
    assert len(sols) == 8


def test_trace_candidates_not_idempotent(mod105):
    with pytest.raises(NotIdempotentDet):
        trace_candidates(mod105, 37)


def test_trace_candidates_enumeration_limit(monkeypatch):
    monkeypatch.setattr(znring, "MAX_ENUMERATED_PRIMES", 4)
    assert len(trace_candidates(factor_squarefree(5 * 7 * 11 * 13), 1)) == 16
    with pytest.raises(BudgetExceeded):
        trace_candidates(factor_squarefree(5 * 7 * 11 * 13 * 17), 1)
    # an idempotency failure is still reported first
    with pytest.raises(NotIdempotentDet):
        trace_candidates(factor_squarefree(5 * 7 * 11 * 13 * 17), 2)


def test_trace_candidates_checks_every_solution(monkeypatch, mod385):
    # t = 2d + (1 - 4d)*y is a root for every idempotent y; a lift slipped
    # in that is not idempotent, y = 2 at d = 210, gives t = 282, which is
    # not: 282^2 - 282 - 420 = 282 (mod 385)
    lifts = quadcong.idempotent_lifts
    monkeypatch.setattr(quadcong, "idempotent_lifts", lambda mod: [*lifts(mod), 2])
    with pytest.raises(InternalTheoremViolation, match=r"^282 fails t\^2 = t \+ 2\*210 \(mod 385\)$"):
        trace_candidates(mod385, 210)


def test_solver_equals_scan_small_moduli():
    for n in (105, 385, 455):
        mod = factor_squarefree(n)
        for d in enumerate_idempotents(mod):
            assert list(trace_candidates(mod, d)) == scan_trace_solutions(n, d)


def test_solver_equals_scan_sweep_1500():
    # every squarefree n <= 1500 with exactly three prime factors, and every
    # other squarefree n <= 500 (primes 2 and 3 included)
    for n in range(2, 1501):
        try:
            mod = factor_squarefree(n)
        except NotSquarefree:
            continue
        if mod.m != 3 and n > 500:
            continue
        for d in enumerate_idempotents(mod):
            assert list(trace_candidates(mod, d)) == scan_trace_solutions(n, d)


@pytest.mark.parametrize("primes", MANY_PRIMES, ids=lambda primes: f"m{len(primes)}-from{primes[0]}")
def test_solver_equals_the_naive_lift(primes):
    # the lift takes a crt per choice of roots {0, 1} or {2, -1} at each
    # prime, which at 3 are the one root 2
    mod = factor_squarefree(prod(primes))
    idems = enumerate_idempotents(mod)
    if len(primes) > 8:
        # five d at 12 primes and two at 16, where one lift is 65,536 crts
        idems = idems[1 :: len(idems) // (5 if len(primes) == 12 else 2)]
    for d in idems:
        roots = [{2, p - 1} if d % p else (0, 1) for p in primes]
        assert list(trace_candidates(mod, d)) == crt_lifts(roots, primes), d


def test_cardinality_eight_above_three(mod385, mod455):
    for mod in (mod385, mod455):
        for d in enumerate_idempotents(mod):
            assert len(trace_candidates(mod, d)) == 8


def test_cardinality_drops_with_prime_3(mod105):
    # d = 85 is 1 mod 3, so the double root halves the count twice over
    assert len(trace_candidates(mod105, 85)) == 4
    counts = [len(scan_prime_roots(p, 2 * 85)) for p in mod105.primes]
    assert counts == [1, 2, 2]


def test_basic_solutions_always_present(mod105, mod385, mod455):
    for mod in (mod105, mod385, mod455):
        n = mod.n
        for d in enumerate_idempotents(mod):
            sols = set(trace_candidates(mod, d))
            assert {2 * d % n, (d + 1) % n, -d % n, (1 - 2 * d) % n} <= sols


def test_closed_forms_all_in_solution_set(mod105, mod385, mod455):
    for mod in (mod105, mod385, mod455):
        for report in formula_discrepancy_survey(mod):
            assert len(report.entries) == 8
            assert report.discrepancies == []
            assert all(all(e.residue_is_root) for e in report.entries)


@pytest.mark.parametrize("primes", [(5, 7, 11), (5, 7, 13), (7, 11, 13), (5, 7, 10007)])
def test_printed_trace_forms_evaluate_to_their_values(primes):
    mod = Modulus(prod(primes), primes)
    entries = [e for report in formula_discrepancy_survey(mod) for e in report.entries]
    assert len(entries) == 48
    for e in entries:
        assert evaluate_closed_form(e.formula) % mod.n == e.value, e.formula


def _primes(lo, hi):
    return [p for p in range(lo, hi) if is_prime(p)]


def test_trace_catalogue_holds_for_every_prime_triple_from_5_to_200():
    triples = list(combinations(_primes(5, 201), 3))
    assert len(triples) == 13244
    for primes in triples:
        for report in formula_discrepancy_survey(Modulus(prod(primes), primes)):
            assert not report.discrepancies, report.to_text()
            assert len({e.value for e in report.entries}) == 8, (primes, report.det)


def test_trace_catalogue_with_2_and_3():
    # 2 and -1, the roots at an I prime, coincide mod 3 alone: the eight
    # values collapse to four exactly when d is 1 mod 3
    for primes in combinations(_primes(2, 60), 3):
        for report in formula_discrepancy_survey(Modulus(prod(primes), primes)):
            assert not report.discrepancies, report.to_text()
            collide = 3 in primes and report.det % 3 == 1
            assert len({e.value for e in report.entries}) == (4 if collide else 8), (primes, report.det)


def test_closed_form_examples_105(mod105):
    report = closed_form_trace_solutions(mod105, 36)
    assert report.pivot == "prime"
    values = {e.formula: e.value for e in report.entries}
    assert values["2*3^24"] == 72
    assert values["3^24 + 1"] == 37
    assert values["1 - 2*3^24"] == 34


def test_closed_form_pair_pivot(mod385):
    report = closed_form_trace_solutions(mod385, 210)
    assert report.pivot == "pair"
    assert report.congruence == "t^2 = t + 2*(5*7)^10 (mod 385)"
    assert set(e.value for e in report.entries) == set(report.solver_solutions)


def test_closed_form_rejects_trivial_det(mod385):
    with pytest.raises(ValueError):
        closed_form_trace_solutions(mod385, 0)
    with pytest.raises(ValueError):
        closed_form_trace_solutions(mod385, 1)


def test_closed_form_check_lives_in_znring(monkeypatch, mod385):
    # d's closed form is stated and checked once, by euler_closed_form: a
    # power function off by one there must stop every catalogue
    power = znring.mod_pow
    monkeypatch.setattr(znring, "mod_pow", lambda a, k, n: (power(a, k, n) + 1) % n)
    for d in znring.nontrivial_idempotents(mod385):
        with pytest.raises(InternalTheoremViolation):
            closed_form_trace_solutions(mod385, d)


def test_closed_form_wrong_prime_count():
    with pytest.raises(WrongPrimeCount):
        closed_form_trace_solutions(Modulus(35, (5, 7)), 15)


def test_report_serialization(mod385):
    report = closed_form_trace_solutions(mod385, 155)
    doc = report.to_dict()
    assert doc["discrepancy_count"] == 0
    assert len(doc["entries"]) == 8
    text = report.to_text()
    assert "discrepancies: 0" in text
