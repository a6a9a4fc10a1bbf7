import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import scan_prime_roots, scan_trace_solutions

from idemring.errors import NotIdempotentDet, NotSquarefree, WrongPrimeCount
from idemring.modarith import Modulus, factor_squarefree, is_prime
from idemring.quadcong import (
    closed_form_trace_solutions,
    formula_discrepancy_survey,
    prime_quadratic_roots,
    trace_candidates,
)
from idemring.znring import enumerate_idempotents


def test_prime_roots_examples():
    assert prime_quadratic_roots(5, 2) == (2, 4)
    assert prime_quadratic_roots(7, 0) == (0, 1)
    assert prime_quadratic_roots(11, 2) == (2, 10)


def test_prime_roots_double_root_at_3():
    # x^2 = x + 2 has the single root 2 mod 3 (2 and -1 coincide)
    assert prime_quadratic_roots(3, 2) == (2,)


def test_prime_roots_equal_scan_below_300():
    for p in filter(is_prime, range(300)):
        for c in range(p):
            assert prime_quadratic_roots(p, c) == scan_prime_roots(p, c), (p, c)


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 13, 17, 97, 193, 257, 641, 7681, 12289]),
    c=st.integers(min_value=-(10**30), max_value=10**30),
)
def test_prime_roots_large_c(p, c):
    assert prime_quadratic_roots(p, c) == scan_prime_roots(p, c)


@pytest.mark.parametrize("p", [65537, 998244353, 10000000019])
def test_prime_roots_match_sympy_large_p(p):
    # 2^16 | 65536 and 2^23 | 998244352 exercise the Tonelli-Shanks loop;
    # c = -1/4 makes the discriminant 0, a double root
    sqrt_mod = pytest.importorskip("sympy.ntheory").sqrt_mod
    inv2 = (p + 1) // 2
    for c in (0, 1, 2, 3, p - 1, p // 2, pow(-4, -1, p), 12345, 10**9 + 7, 2**40 + 3):
        disc = (1 + 4 * c) % p
        expect = tuple(sorted({(1 + r) * inv2 % p for r in sqrt_mod(disc, p, all_roots=True)}))
        assert prime_quadratic_roots(p, c) == expect, (p, c)


def test_trace_candidates_105(mod105):
    assert trace_candidates(mod105, 36).solutions == (9, 27, 34, 37, 69, 72, 79, 97)


def test_trace_candidates_det0_gives_idempotents(mod385):
    assert trace_candidates(mod385, 0).solutions == enumerate_idempotents(mod385)


def test_trace_candidates_385_contains_expected(mod385):
    sols = trace_candidates(mod385, 210).solutions
    assert 35 in sols and 211 in sols
    assert len(sols) == 8


def test_trace_candidates_not_idempotent(mod105):
    with pytest.raises(NotIdempotentDet):
        trace_candidates(mod105, 37)


def test_solver_equals_scan_small_moduli():
    for n in (105, 385, 455):
        mod = factor_squarefree(n)
        for d in enumerate_idempotents(mod):
            assert list(trace_candidates(mod, d).solutions) == scan_trace_solutions(n, d)


def test_solver_equals_scan_sweep_1500():
    # every squarefree n <= 1500 with exactly three prime factors
    for n in range(2, 1501):
        try:
            mod = factor_squarefree(n)
        except NotSquarefree:
            continue
        if mod.m != 3:
            continue
        for d in enumerate_idempotents(mod):
            assert list(trace_candidates(mod, d).solutions) == scan_trace_solutions(n, d)


def test_cardinality_eight_above_three(mod385, mod455):
    for mod in (mod385, mod455):
        for d in enumerate_idempotents(mod):
            assert len(trace_candidates(mod, d).solutions) == 8


def test_cardinality_drops_with_prime_3(mod105):
    # d = 85 is 1 mod 3, so the double root halves the count twice over
    assert len(trace_candidates(mod105, 85).solutions) == 4
    counts = [len(prime_quadratic_roots(p, 2 * 85)) for p in mod105.primes]
    assert counts == [1, 2, 2]


def test_basic_solutions_always_present(mod105, mod385, mod455):
    for mod in (mod105, mod385, mod455):
        n = mod.n
        for d in enumerate_idempotents(mod):
            sols = set(trace_candidates(mod, d).solutions)
            assert {2 * d % n, (d + 1) % n, -d % n, (1 - 2 * d) % n} <= sols


def test_closed_forms_all_in_solution_set(mod105, mod385, mod455):
    for mod in (mod105, mod385, mod455):
        for report in formula_discrepancy_survey(mod):
            assert len(report.entries) == 8
            assert report.discrepancies == []
            assert all(all(e.residue_is_root) for e in report.entries)


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
