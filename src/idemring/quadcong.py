"""Trace congruences t^2 = t + 2d (mod n) and their closed-form solution lists."""

from collections import namedtuple
from itertools import repeat

from .errors import InternalTheoremViolation, NotIdempotentDet, WrongPrimeCount
from .modarith import Modulus
from .znring import euler_closed_form, idempotent_lifts, nontrivial_idempotents, pattern_of, power_form


def trace_candidates(mod: Modulus, d: int) -> tuple[int, ...]:
    """All t in [0, n) with t^2 = t + 2d (mod n) for an idempotent d, ascending.

    d*d = d (mod n) says d is 0 or 1 mod each prime p (any other d raises
    NotIdempotentDet), so t^2 - t - 2d factors mod p as t(t - 1) where
    d = 0 and as (t - 2)(t + 1) where d = 1.  Over an idempotent y, which
    is 0 or 1 mod p, t = 2d + (1 - 4d)*y is y mod p where d = 0 and
    2 - 3y mod p where d = 1: one root of each factor per choice of y
    mod p.  So the solutions are exactly those t over the 2**m idempotents
    y, by CRT.  Mod 3 the roots 2, -1 coincide (a double root), and the
    set absorbs the repeat.  More than MAX_ENUMERATED_PRIMES primes raise
    BudgetExceeded before any y is made, and every solution is checked.
    """
    n = mod.n
    d %= n
    if (d * d - d) % n:  # before the enumeration limit
        raise NotIdempotentDet(f"{d} is not idempotent mod {n}")
    two_d, step = 2 * d, 1 - 4 * d
    sols = tuple(sorted({(two_d + step * y) % n for y in idempotent_lifts(mod)}))
    for t in sols:
        if (t * t - t - two_d) % n:
            raise InternalTheoremViolation(f"{t} fails t^2 = t + 2*{d} (mod {n})")
    return sols


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
            "primes": self.primes,
            "det": self.det,
            "pivot": self.pivot,
            "congruence": self.congruence,
            "solver_solutions": self.solver_solutions,
            "entries": [
                {
                    "formula": formula,
                    "value": value,
                    "residues": residues,
                    "residue_is_root": is_root,
                    "in_solution_set": in_set,
                }
                for formula, value, residues, is_root, in_set in self.entries
            ],
            "discrepancy_count": sum(1 for e in self.entries if not e.in_solution_set),
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
    count = sum(pat)
    if count not in (1, 2):
        raise ValueError("no closed-form catalogue for the trivial idempotents 0 and 1")
    # d is the CRT combination of pat, and so is the value euler_closed_form checks
    d, dt = euler_closed_form(mod, pat)
    two_d = 2 * d
    exprs = [(f"2*{dt}", two_d), (f"{dt} + 1", d + 1), (f"-{dt}", -d), (f"1 - 2*{dt}", 1 - two_d)]
    # the prime whose bit is alone in pat: the 0 of a prime pivot, the 1 of
    # a pair pivot; a and b are the other two, ascending
    primes = mod.primes
    i = pat.index(2 - count)
    a, b = primes[:i] + primes[i + 1 :]
    if count == 2:
        pivot = "prime"
        z = primes[i]
        for u, v in ((a, b), (b, a)):
            s, st = power_form((z,), u - 1, n)
            q, qt = power_form((z, u), v - 1, n)
            exprs.append((f"(-1 - 2*{st})*{qt} + 2*{st}", (-1 - 2 * s) * q + 2 * s))
            exprs.append((f"(-2 - {st})*{qt} + {st} + 1", (-2 - s) * q + s + 1))
    else:
        pivot = "pair"
        # the pair catalogue lists -d before d + 1
        exprs[1], exprs[2] = exprs[2], exprs[1]
        for u, v in ((a, b), (b, a)):
            w, wt = power_form((u,), v - 1, n)
            exprs.append((f"(2 - {wt})*{dt} + {wt}", (2 - w) * d + w))
            exprs.append((f"(-1 - {wt})*{dt} + {wt}", (-1 - w) * d + w))
    solutions = trace_candidates(mod, d)
    sol_set = set(solutions)
    # three primes, so each entry's residues and root flags are spelled out:
    # v mod p is a root exactly when p divides v^2 - v - 2d
    p1, p2, p3 = primes
    rows = []
    for text, raw in exprs:
        v = raw % n
        w = v * v - v - two_d
        rows.append((text, v, (v % p1, v % p2, v % p3), (w % p1 == 0, w % p2 == 0, w % p3 == 0), v in sol_set))
    # tuple.__new__ is all FormulaEntry's constructor runs; map calls it without a Python frame
    entries = list(map(tuple.__new__, repeat(FormulaEntry), rows))
    return FormulaReport(n, primes, d, pivot, f"t^2 = t + 2*{dt} (mod {n})", solutions, entries)


def formula_discrepancy_survey(mod: Modulus) -> list[FormulaReport]:
    """Closed-form check reports for all six nontrivial idempotent determinants."""
    return [closed_form_trace_solutions(mod, d) for d in nontrivial_idempotents(mod)]
