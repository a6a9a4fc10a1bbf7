"""Trace congruences t^2 = t + 2d (mod n) and their closed-form solution lists."""

from collections import namedtuple

from .errors import InternalTheoremViolation, WrongPrimeCount
from .modarith import Modulus, crt_basis
from .znring import euler_closed_form, nontrivial_idempotents, pattern_of, power_form, require_enumerable


TraceCandidateSet = namedtuple("TraceCandidateSet", "modulus det solutions")


def trace_candidates(mod: Modulus, d: int) -> TraceCandidateSet:
    """All t in [0, n) with t^2 = t + 2d (mod n) for an idempotent d.

    An idempotent d is 0 or 1 mod each prime p, so t^2 - t - 2d factors
    mod p as t(t - 1) or (t - 2)(t + 1): the roots are 0, 1 or 2, -1, read
    off d's bit at p (pattern_of, which raises NotIdempotentDet for any
    other d) in O(1).  The 2**m choices of one root per prime are lifted
    by _solve from modarith's crt_basis, and every solution is checked.
    The lifts are reduced mod n and collected in a set, so the roots need
    no reduction mod p: 2, -1 are 0, 1 mod 2, and mod 3 they coincide (a
    double root).  More than MAX_ENUMERATED_PRIMES primes raise
    BudgetExceeded before the 2**m lifts start.
    """
    d %= mod.n
    return _solve(mod, d, pattern_of(mod, d))


def _solve(mod: Modulus, d: int, pattern) -> TraceCandidateSet:
    """trace_candidates for a d in [0, n) whose per-prime bits are pattern.

    2d is the lift of root 2 at each 1-bit prime and root 0 at each 0-bit
    prime.  p's CRT basis element e_p is 1 mod p and 0 mod the other
    primes, so adding e_p times the step to p's other root (-3 from 2 to
    -1, +1 from 0 to 1) moves p's root alone.  The lifts are built by
    doubling: each prime adds its step to every lift so far, 2**m - 1
    additions in all.
    """
    n = mod.n
    require_enumerable(mod)
    lifts = [2 * d]
    for bit, e in zip(pattern, crt_basis(mod)):
        step = -3 * e if bit else e
        lifts += [t + step for t in lifts]
    sols = {t % n for t in lifts}
    out = TraceCandidateSet(n, d, tuple(sorted(sols)))
    for t in out.solutions:
        if (t * t - t - 2 * d) % n:
            raise InternalTheoremViolation(f"{t} fails t^2 = t + 2*{d} (mod {n})")
    return out


FormulaEntry = namedtuple(
    "FormulaEntry", "formula value residues residue_is_root in_solution_set"
)


class FormulaReport(
    namedtuple(
        "FormulaReport", "modulus primes det pivot congruence solver_solutions entries"
    )
):
    """Cross-check of a printed closed-form solution list against the solver."""

    __slots__ = ()

    @property
    def discrepancies(self) -> list[FormulaEntry]:
        return [e for e in self.entries if not e.in_solution_set]

    def to_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "primes": list(self.primes),
            "det": self.det,
            "pivot": self.pivot,
            "congruence": self.congruence,
            "solver_solutions": list(self.solver_solutions),
            "entries": [
                {
                    "formula": e.formula,
                    "value": e.value,
                    "residues": e.residues,
                    "residue_is_root": e.residue_is_root,
                    "in_solution_set": e.in_solution_set,
                }
                for e in self.entries
            ],
            "discrepancy_count": len(self.discrepancies),
        }

    def to_text(self) -> str:
        lines = [
            f"congruence: {self.congruence}   [det {self.det}, pivot {self.pivot}]",
            "solver solutions ({}): {}".format(
                len(self.solver_solutions), " ".join(str(t) for t in self.solver_solutions)
            ),
        ]
        for e in self.entries:
            mark = "ok " if e.in_solution_set else "BAD"
            res = ", ".join(
                f"{v} mod {p}" + ("" if r else " (not a root)")
                for v, p, r in zip(e.residues, self.primes, e.residue_is_root)
            )
            lines.append(f"  {mark} {e.formula} = {e.value}   [{res}]")
        lines.append(f"discrepancies: {len(self.discrepancies)}")
        return "\n".join(lines)


def closed_form_trace_solutions(mod: Modulus, d: int) -> FormulaReport:
    """Evaluate the catalogue of eight closed-form solutions of t^2 = t + 2d.

    d must be one of the six nontrivial idempotents.  When d is a single
    prime power z^((a-1)(b-1)) the "prime"-pivot catalogue applies; when d
    is a pair power (a*b)^(c-1) the "pair"-pivot catalogue applies.  d's
    value and text come from euler_closed_form, which checks the form.
    Every expression is evaluated exactly and compared with the solver;
    mismatches are reported entry by entry, never repaired.
    """
    if mod.m != 3:
        raise WrongPrimeCount(f"need exactly 3 prime factors, got {mod.m}")
    n = mod.n
    pat = pattern_of(mod, d)
    if sum(pat) not in (1, 2):
        raise ValueError("no closed-form catalogue for the trivial idempotents 0 and 1")
    # d is the CRT combination of pat, and so is the value euler_closed_form checks
    d, dt = euler_closed_form(mod, pat)
    ones, zeros = [], []
    for p, bit in zip(mod.primes, pat):
        (ones if bit else zeros).append(p)
    exprs = [(f"2*{dt}", 2 * d), (f"{dt} + 1", d + 1), (f"-{dt}", -d), (f"1 - 2*{dt}", 1 - 2 * d)]
    if len(ones) == 2:
        pivot = "prime"
        z = zeros[0]
        a, b = ones
        for u, v in ((a, b), (b, a)):
            s, st = power_form((z,), u - 1, n)
            q, qt = power_form((z, u), v - 1, n)
            exprs.append((f"(-1 - 2*{st})*{qt} + 2*{st}", (-1 - 2 * s) * q + 2 * s))
            exprs.append((f"(-2 - {st})*{qt} + {st} + 1", (-2 - s) * q + s + 1))
    else:
        pivot = "pair"
        # the pair catalogue lists -d before d + 1
        exprs[1], exprs[2] = exprs[2], exprs[1]
        a, b = zeros
        for u, v in ((a, b), (b, a)):
            w, wt = power_form((u,), v - 1, n)
            exprs.append((f"(2 - {wt})*{dt} + {wt}", (2 - w) * d + w))
            exprs.append((f"(-1 - {wt})*{dt} + {wt}", (-1 - w) * d + w))
    congruence = f"t^2 = t + 2*{dt} (mod {n})"
    cands = _solve(mod, d, pat)
    sol_set = set(cands.solutions)
    # three primes, so each entry's residues and root flags are spelled out:
    # v mod p is a root exactly when p divides v^2 - v - 2d
    p1, p2, p3 = mod.primes
    entries = []
    for text, raw in exprs:
        v = raw % n
        w = v * v - v - 2 * d
        residues = (v % p1, v % p2, v % p3)
        flags = (w % p1 == 0, w % p2 == 0, w % p3 == 0)
        entries.append(FormulaEntry(text, v, residues, flags, v in sol_set))
    return FormulaReport(n, mod.primes, d, pivot, congruence, cands.solutions, entries)


def formula_discrepancy_survey(mod: Modulus) -> list[FormulaReport]:
    """Closed-form check reports for all six nontrivial idempotent determinants."""
    return [closed_form_trace_solutions(mod, d) for d in nontrivial_idempotents(mod)]
