"""The invariant battery behind the ``verify`` verb.

``run_checks`` runs every check that applies to a modulus and returns
(name, ok, detail) rows; a check whose scan a given budget does not cover
is reported as skipped, not failed.
"""

from math import prod

from .classify import completeness_check, expected_trace_values
from .errors import BudgetExceeded, PrimesOutOfScope, WrongPrimeCount
from .families import DEFAULT_MATRIX_BUDGET
from .modarith import Modulus
from .quadcong import closed_form_trace_solutions, trace_candidates
from .znring import (
    DEFAULT_POLY_BUDGET,
    closed_form_cross_check,
    enumerate_idempotents,
    exponent_variant_check,
    nontrivial_idempotents,
    poly_idempotents_bruteforce,
)

# Largest n for which verify cross-checks by scanning all of [0, n); a
# given --budget must also cover each scan's states (n, and n * 2^m).
SCAN_LIMIT = 1_000_000


def _charge(states: int, budget: int | None) -> None:
    """Raise BudgetExceeded when a given --budget does not cover a scan of states."""
    if budget is not None and states > budget:
        raise BudgetExceeded(f"{states} scan states exceed budget {budget}")


def run_checks(mod: Modulus, budget: int | None) -> list[tuple[str, bool, str]]:
    """(name, ok, detail) of every check that applies to mod, in a fixed order."""
    matrix_budget = budget if budget is not None else DEFAULT_MATRIX_BUDGET
    poly_budget = budget if budget is not None else DEFAULT_POLY_BUDGET
    n = mod.n
    checks: list[tuple[str, bool, str]] = []
    idems = enumerate_idempotents(mod)
    checks.append(("factorization", prod(mod.primes) == n, str(mod)))
    members = set(idems)
    checks.append(
        ("idempotent-count", len(members) == 2**mod.m, f"{len(members)} = 2^{mod.m}")
    )
    defining = all((y * y - y) % n == 0 for y in idems)
    closed = all((1 - y) % n in members for y in idems)
    checks.append(
        ("idempotent-closure", defining and closed, "y^2 = y holds and 1-y stays inside")
    )
    if n <= SCAN_LIMIT:
        try:
            _charge(n, budget)
        except BudgetExceeded as exc:
            checks.append(("full-scan", True, f"skipped: {exc.code}: {exc}"))
        else:
            scan = tuple(y for y in range(n) if (y * y - y) % n == 0)
            checks.append(("full-scan", scan == idems, f"scan found {len(scan)} idempotents"))
    if mod.m == 3:
        ok = sorted(row[3] for row in closed_form_cross_check(mod)) == list(idems)
        variants = exponent_variant_check(mod)
        agree = sum(1 for r in variants if r.agrees)
        checks.append(
            ("closed-form-crt", ok, f"8 patterns match; exponent variants agree {agree}/2")
        )
    if n <= SCAN_LIMIT:
        try:
            _charge(len(idems) * n, budget)
        except BudgetExceeded as exc:
            checks.append(("trace-solver-scan", True, f"skipped: {exc.code}: {exc}"))
        else:
            solver_ok = True
            for d in idems:
                sols = set(trace_candidates(mod, d).solutions)
                scan = {t for t in range(n) if (t * t - t - 2 * d) % n == 0}
                solver_ok = solver_ok and sols == scan
            checks.append(("trace-solver-scan", solver_ok, f"{len(idems)} determinants checked"))
    if mod.m == 3:
        bad = 0
        for d in nontrivial_idempotents(mod):
            bad += len(closed_form_trace_solutions(mod, d).discrepancies)
        checks.append(
            ("trace-closed-forms", True, f"48 expressions evaluated, {bad} discrepancies")
        )
    degree = 0
    while n ** (degree + 2) <= poly_budget:
        degree += 1
    try:
        polys = poly_idempotents_bruteforce(mod, degree, budget=poly_budget)
    except BudgetExceeded as exc:
        checks.append(("poly-scan", True, f"skipped: {exc.code}: {exc}"))
    else:
        poly_ok = all(u.is_constant() for u in polys) and {
            u.const_value() for u in polys
        } == set(idems)
        checks.append(
            ("poly-scan", poly_ok, f"degree <= {degree}: {len(polys)} idempotents, all constant")
        )
    try:
        rep = completeness_check(mod, budget=matrix_budget)
        comp_ok = (
            not rep.unmatched
            and rep.det_support_ok(idems)
            and all(
                (d, t) not in rep.det_trace_histogram
                for d in nontrivial_idempotents(mod)
                for t in set(trace_candidates(mod, d).solutions) - expected_trace_values(mod, d)
            )
        )
        checks.append(
            (
                "matrix-completeness",
                comp_ok,
                f"{rep.total} matrices, {len(rep.unmatched)} unmatched, impossible traces absent",
            )
        )
    except (PrimesOutOfScope, WrongPrimeCount, BudgetExceeded) as exc:
        checks.append(("matrix-completeness", True, f"skipped: {exc.code}: {exc}"))
    return checks
