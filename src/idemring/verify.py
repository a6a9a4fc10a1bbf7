"""The invariant battery behind the ``verify`` verb.

``run_checks`` runs every check that applies to a modulus and returns
(name, ok, detail) rows; ok is None for a check that did not run, because
its scan exceeds the budget or the modulus is outside its scope.  Every
brute-force scan charges its states to the one budget: the pass over
[0, n) behind full-scan and trace-solver-scan n, the polynomial scan
n^(d+1) for the largest degree d that fits, the matrix sweep n^3.  At
degree 0 the polynomial scan's question, c*c = c over [0, n), is the one
the pass has answered, so its rows come from the pass.
"""

from math import prod

from .classify import completeness_check, expected_trace_values
from .errors import BudgetExceeded, PrimesOutOfScope, WrongPrimeCount, charge
from .modarith import Modulus
from .polyring import Poly
from .quadcong import closed_form_trace_solutions, trace_candidates
from .znring import (
    closed_form_cross_check,
    enumerate_idempotents,
    exponent_variant_check,
    nontrivial_idempotents,
    poly_idempotents_bruteforce,
)


def run_checks(mod: Modulus, budget: int) -> list[tuple[str, bool | None, str]]:
    """(name, ok, detail) of every check that applies to mod, in a fixed order."""
    n = mod.n
    checks: list[tuple[str, bool | None, str]] = []
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
    scanned = None
    try:
        charge(n, budget, f"{n} scan states")
    except BudgetExceeded as exc:
        full_scan = solver_scan = (None, f"{exc.code}: {exc}")
    else:
        # one pass over [0, n) serves both range checks: y*y - y = 0 picks the
        # idempotents and y*y - y = 2d the traces of det d; for even n the
        # idempotents d and d + n/2 have one 2d mod n and share a list
        hits = {2 * d % n: [] for d in (0, *idems)}
        for y in range(n):
            hit = hits.get((y * y - y) % n)
            if hit is not None:
                hit.append(y)
        full_scan = (tuple(hits[0]) == idems, f"scan found {len(hits[0])} idempotents")
        scanned = hits[0]
        solver_ok = all(
            set(trace_candidates(mod, d)) == set(hits[2 * d % n]) for d in idems
        )
        solver_scan = (solver_ok, f"{len(idems)} determinants checked")
    checks.append(("full-scan", *full_scan))
    if mod.m == 3:
        ok = sorted(row[3] for row in closed_form_cross_check(mod)) == list(idems)
        variants = exponent_variant_check(mod)
        agree = sum(1 for r in variants if r.agrees)
        checks.append(
            ("closed-form-crt", ok, f"8 patterns match; exponent variants agree {agree}/2")
        )
    checks.append(("trace-solver-scan", *solver_scan))
    if mod.m == 3:
        bad = 0
        for d in nontrivial_idempotents(mod):
            bad += len(closed_form_trace_solutions(mod, d).discrepancies)
        checks.append(
            ("trace-closed-forms", bad == 0, f"48 expressions evaluated, {bad} discrepancies")
        )
    degree = 0
    while n ** (degree + 2) <= budget:
        degree += 1
    try:
        if degree == 0 and scanned is not None:
            # the pass's idempotents, with the scan's exact check on each;
            # without a pass n exceeds the budget and the scan says so
            polys = [u for u in (Poly(n, (c,)) for c in scanned) if u * u == u]
        else:
            polys = poly_idempotents_bruteforce(mod, degree, budget=budget)
    except BudgetExceeded as exc:
        checks.append(("poly-scan", None, f"{exc.code}: {exc}"))
    else:
        poly_ok = all(u.is_constant() for u in polys) and {
            u.const_value() for u in polys
        } == set(idems)
        checks.append(
            ("poly-scan", poly_ok, f"degree <= {degree}: {len(polys)} idempotents, all constant")
        )
    try:
        rep = completeness_check(mod, budget=budget)
    except (PrimesOutOfScope, WrongPrimeCount, BudgetExceeded) as exc:
        checks.append(("matrix-completeness", None, f"{exc.code}: {exc}"))
    else:
        comp_ok = (
            not rep.unmatched
            and rep.det_support_ok(idems)
            and all(
                (d, t) not in rep.det_trace_histogram
                for d in nontrivial_idempotents(mod)
                for t in set(trace_candidates(mod, d)) - expected_trace_values(mod, d)
            )
        )
        detail = f"{rep.total} matrices, {len(rep.unmatched)} unmatched, impossible traces absent"
        checks.append(("matrix-completeness", comp_ok, detail))
    return checks
