"""Command-line front end.

Verbs: idempotents, solve-trace, classify, generate, oracle, verify.
Exit codes: 0 success, 1 domain error (printed on stderr as
``error: <CODE>: <message>``), 2 usage error.  All numeric output is
decimal, space separated and ascending; ``--json`` mirrors the same data.
When argv[0] is a verb, its arguments are parsed by that verb's subparser
alone; the top-level parser runs only otherwise (see ``parse_args``).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import cache
from itertools import product
from json.encoder import encode_basestring_ascii
from math import prod

from .classify import (
    DEFAULT_MATRIX_BUDGET,
    DET0_GENERAL,
    DET0_SCALED,
    DETPAIR_MIXED,
    FAMILIES,
    classify,
    completeness_check,
    expected_trace_values,
    generate,
    iter_constant_idempotent_entries,
    make_label,
    require_matrix_budget,
)
from .errors import (
    BudgetExceeded,
    IdemringError,
    InternalTheoremViolation,
    MatrixFormatError,
    PolyParseError,
    PrimesOutOfScope,
    UnsatisfiableParams,
    WrongPrimeCount,
)
from .mat2 import load_matrix, matrix_to_document, read_matrix, save_matrix
from .modarith import Modulus, crt_combine, factor_squarefree
from .polyring import Poly, parse_poly
from .quadcong import closed_form_trace_solutions, formula_discrepancy_survey, trace_candidates
from .znring import (
    DEFAULT_POLY_BUDGET,
    enumerate_idempotents,
    euler_closed_form,
    exponent_variant_check,
    nontrivial_idempotents,
    poly_idempotents_bruteforce,
)


# Largest n for which verify cross-checks by scanning all of [0, n).
SCAN_LIMIT = 1_000_000


def _header(mod: Modulus) -> str:
    return f"n = {mod}"


def _witness_json(wit: dict) -> dict:
    out = {}
    for key, value in wit.items():
        out[key] = list(value.coeffs) if isinstance(value, Poly) else value
    return out


def _label_json(label) -> dict:
    return {k: v for k, v in label._asdict().items() if k != "modulus" and v is not None}


# Exact type -> JSON text of the scalars a document may hold.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _dumps(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), byte for byte.

    doc is a dict, list or tuple built from dicts with str keys, lists,
    tuples and scalars of exact type str, int, bool or None; anything else
    raises TypeError.
    """
    parts: list[str] = []
    _encode(doc, "\n", parts.append)
    return "".join(parts)


def _encode(value, nl: str, put) -> None:
    """Append the container value to put; nl is the newline and indent of its line.

    Scalars are encoded in the loops, so only containers recurse.  Dicts and
    lists keep separate loops: one loop over (key prefix, item) pairs for
    both took about 1.5x as long on solve-trace documents.
    """
    inner = nl + "  "
    comma = "," + inner
    if isinstance(value, dict):
        if not value:
            put("{}")
            return
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            head = sep + encode_basestring_ascii(key) + ": "
            sep = comma
            enc = _SCALARS.get(type(item))
            if enc is not None:
                put(head + enc(item))
            elif isinstance(item, (dict, list, tuple)):
                put(head)
                _encode(item, inner, put)
            else:
                raise TypeError(f"Object of type {type(item).__name__} is not JSON serializable")
        put(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        sep = "[" + inner
        for item in value:
            enc = _SCALARS.get(type(item))
            if enc is not None:
                put(sep + enc(item))
            elif isinstance(item, (dict, list, tuple)):
                put(sep)
                _encode(item, inner, put)
            else:
                raise TypeError(f"Object of type {type(item).__name__} is not JSON serializable")
            sep = comma
        put(nl + "]")
    else:
        raise TypeError(f"a document is a dict, list or tuple, not {type(value).__name__}")


def report_files(mod: Modulus, completeness) -> dict[str, str]:
    """Archived report file name -> content for mod.

    The closed-form trace survey is always included; completeness, a
    CompletenessReport for mod or None, adds its text and JSON tallies.
    """
    surveys = formula_discrepancy_survey(mod)
    files = {
        f"trace-formulas-{mod.n}.txt": "\n\n".join(r.to_text() for r in surveys) + "\n",
        f"trace-formulas-{mod.n}.json": _dumps([r.to_dict() for r in surveys]) + "\n",
    }
    if completeness is not None:
        files[f"completeness-{mod.n}.txt"] = completeness.to_text() + "\n"
        files[f"completeness-{mod.n}.json"] = _dumps(completeness.to_dict()) + "\n"
    return files


def _closed_form_cross_check(mod: Modulus) -> list[tuple]:
    """(pattern, CRT value, formula text, formula value, agree) for the 8 patterns."""
    rows = []
    for pat in product((0, 1), repeat=3):
        value, text = euler_closed_form(mod, pat)
        via_crt = crt_combine(list(zip(pat, mod.primes)))
        rows.append((pat, via_crt, text, value, value == via_crt))
    return rows


def _cmd_idempotents(args) -> int:
    mod = factor_squarefree(args.n)
    idems = enumerate_idempotents(mod)
    cross = []
    variants = []
    if mod.m == 3:
        cross = _closed_form_cross_check(mod)
        variants = exponent_variant_check(mod)
    if args.json:
        doc = {
            "n": mod.n,
            "primes": list(mod.primes),
            "idempotents": list(idems),
            "cross_check": [
                {"pattern": list(p), "crt": c, "formula": f, "value": v, "match": ok}
                for p, c, f, v, ok in cross
            ],
            "exponent_variants": [
                {
                    "pattern": list(r.pattern),
                    "formula": r.formula,
                    "value": r.value,
                    "variant_formula": r.variant_formula,
                    "variant_value": r.variant_value,
                    "agrees": r.agrees,
                }
                for r in variants
            ],
        }
        print(_dumps(doc))
        return 0
    print(_header(mod))
    print(f"idempotents ({len(idems)}): " + " ".join(str(y) for y in idems))
    if cross:
        print("closed-form cross-check:")
        for pat, via_crt, text, value, ok in cross:
            mark = "ok " if ok else "BAD"
            print(f"  {mark} pattern {pat}: crt {via_crt}  formula {text} = {value}")
        print("exponent-variant check:")
        for r in variants:
            verdict = "agrees" if r.agrees else "DIFFERS"
            print(
                f"  pattern {r.pattern}: {r.formula} = {r.value}, "
                f"largest-prime variant {r.variant_formula} = {r.variant_value} ({verdict})"
            )
    return 0


def _cmd_solve_trace(args) -> int:
    mod = factor_squarefree(args.n)
    d = args.d % mod.n
    if mod.m == 3 and d not in (0, 1):
        report = closed_form_trace_solutions(mod, d)
        solutions = report.solver_solutions
    else:
        report = None
        solutions = trace_candidates(mod, d).solutions
    if args.json:
        doc = {
            "n": mod.n,
            "primes": list(mod.primes),
            "det": d,
            "solutions": list(solutions),
            "closed_forms": report.to_dict() if report else None,
        }
        print(_dumps(doc))
        return 0
    print(_header(mod))
    print(f"congruence: t^2 = t + 2*{d} (mod {mod.n})")
    print(f"solutions ({len(solutions)}): " + " ".join(str(t) for t in solutions))
    if report is not None:
        print(report.to_text())
    else:
        print("closed-form catalogue applies only to the six nontrivial determinants")
    return 0


def _read_matrix(path):
    if path == "-":
        return read_matrix(sys.stdin)
    try:
        return load_matrix(path)
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc}") from exc


def _cmd_classify(args) -> int:
    G = _read_matrix(args.file)
    mod = factor_squarefree(G.n)
    rep = classify(G, mod)
    if args.json:
        doc = {
            "n": mod.n,
            "primes": list(mod.primes),
            "matrix": matrix_to_document(G),
            "idempotent": rep.idempotent,
            "trivial": rep.trivial,
            "det": rep.det,
            "trace": rep.trace,
            "matches": [_label_json(l) for l in rep.matches],
            "witnesses": [_witness_json(w) for w in rep.witnesses],
            "notes": rep.notes,
        }
        print(_dumps(doc))
        return 0
    print(_header(mod))
    print(f"matrix: {G.render()}")
    print(f"idempotent: {'yes' if rep.idempotent else 'no'}")
    if not rep.idempotent:
        return 0
    print(f"trivial: {'yes' if rep.trivial else 'no'}")
    print(f"det = {rep.det}, trace = {rep.trace}")
    print(f"matches ({len(rep.matches)}):")
    for label, wit in zip(rep.matches, rep.witnesses):
        print(f"  - {label}")
        for key in sorted(wit):
            value = wit[key]
            text = value.render() if isinstance(value, Poly) else str(value)
            print(f"      {key} = {text}")
    for note in rep.notes:
        print(f"note: {note}")
    return 0


def _cmd_generate(args) -> int:
    mod = factor_squarefree(args.n)
    label = make_label(
        mod,
        args.family,
        det=args.det,
        scale=args.scale,
        swap_mixed_roles=args.swap_roles,
    )
    for flag, given, read in (
        ("--det", args.det is not None, args.family not in (DET0_GENERAL, DET0_SCALED)),
        ("--scale", args.scale is not None, args.family == DET0_SCALED),
        ("--swap-roles", args.swap_roles, args.family == DETPAIR_MIXED),
    ):
        if given and not read:
            raise UnsatisfiableParams(f"{args.family} does not read {flag}")
    params = {}
    for name in ("e", "f", "g"):
        text = getattr(args, name)
        if text is not None:
            params[name] = parse_poly(mod.n, text)
    G = generate(mod, label, seed=args.seed, max_degree=args.degree, **params)
    doc = matrix_to_document(G)
    if args.out:
        save_matrix(G, args.out)
        print(_header(mod))
        print(f"label: {label}")
        print(f"matrix: {G.render()}")
        print(f"wrote {args.out}")
    else:
        print(json.dumps(doc, sort_keys=True))
    return 0


def _cmd_oracle(args) -> int:
    mod = factor_squarefree(args.n)
    require_matrix_budget(mod, args.budget)
    n = mod.n
    det_hist = Counter((e * h - f * g) % n for e, f, g, h in iter_constant_idempotent_entries(mod))
    count = sum(det_hist.values())
    if args.json:
        doc = {
            "n": n,
            "primes": list(mod.primes),
            "count": count,
            "det_histogram": [{"det": d, "count": c} for d, c in sorted(det_hist.items())],
        }
        print(_dumps(doc))
        return 0
    print(_header(mod))
    print(f"constant idempotent matrices: {count}")
    print("det histogram: " + " ".join(f"{d}:{c}" for d, c in sorted(det_hist.items())))
    return 0


def _verify_checks(mod: Modulus, budget: int | None) -> list[tuple[str, bool, str]]:
    matrix_budget = budget if budget is not None else DEFAULT_MATRIX_BUDGET
    poly_budget = budget if budget is not None else DEFAULT_POLY_BUDGET
    n = mod.n
    checks: list[tuple[str, bool, str]] = []
    idems = enumerate_idempotents(mod)
    checks.append(("factorization", prod(mod.primes) == n, str(mod)))
    checks.append(
        ("idempotent-count", len(idems) == 2**mod.m, f"{len(idems)} = 2^{mod.m}")
    )
    defining = all((y * y - y) % n == 0 for y in idems)
    members = set(idems)
    closed = all((1 - y) % n in members for y in idems)
    checks.append(
        ("idempotent-closure", defining and closed, "y^2 = y holds and 1-y stays inside")
    )
    if n <= SCAN_LIMIT:
        scan = tuple(y for y in range(n) if (y * y - y) % n == 0)
        checks.append(("full-scan", scan == idems, f"scan found {len(scan)} idempotents"))
    if mod.m == 3:
        ok = all(row[-1] for row in _closed_form_cross_check(mod))
        variants = exponent_variant_check(mod)
        agree = sum(1 for r in variants if r.agrees)
        checks.append(
            ("closed-form-crt", ok, f"8 patterns match; exponent variants agree {agree}/2")
        )
    if n <= SCAN_LIMIT:
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


def _cmd_verify(args) -> int:
    mod = factor_squarefree(args.n)
    checks = _verify_checks(mod, args.budget)
    passed = sum(1 for _, ok, _ in checks if ok)
    if args.json:
        doc = {
            "n": mod.n,
            "primes": list(mod.primes),
            "checks": [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in checks],
            "passed": passed,
            "total": len(checks),
        }
        print(_dumps(doc))
        return 0 if passed == len(checks) else 1
    print(_header(mod))
    for name, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"verify: {passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 1


def _budget(text: str) -> int:
    """--budget's type: an int, and a negative one is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    return _parser_tree()[0]


@cache
def _parser_tree() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the map from each verb to its subparser."""
    parser = argparse.ArgumentParser(
        prog="idemring",
        description="Idempotents of Z_n, Z_n[x] and the 2x2 matrix ring over Z_n[x].",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("idempotents", help="enumerate the idempotents of Z_n")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_idempotents)

    p = sub.add_parser("solve-trace", help="solve t^2 = t + 2d (mod n)")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_solve_trace)

    p = sub.add_parser("classify", help="classify a matrix from a file ('-' for stdin)")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("generate", help="generate an idempotent matrix in a class")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--det", type=int, default=None)
    p.add_argument("--scale", type=int, default=None, help="scale I for det0-scaled")
    p.add_argument("--swap-roles", action="store_true", help="swap the zero-pattern roles of detpair-mixed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degree", type=int, default=2, help="max degree of random parameters")
    p.add_argument("--e", default=None, help="polynomial, e.g. '3 + 2*x + x^2'")
    p.add_argument("--f", default=None)
    p.add_argument("--g", default=None)
    p.add_argument("--out", default=None, help="write the matrix document here")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("oracle", help="enumerate all constant idempotent matrices")
    p.add_argument("n", type=int)
    p.add_argument(
        "--budget", type=_budget, default=DEFAULT_MATRIX_BUDGET, help="cap on brute-force states (n^3)"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="run the invariant suite for a modulus")
    p.add_argument("n", type=int)
    p.add_argument("--budget", type=_budget, default=None, help="cap on brute-force states")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser, sub.choices


def parse_args(argv=None) -> argparse.Namespace:
    """build_parser().parse_args(argv): the same Namespace, exits, help and usage text.

    When argv[0] is exactly a verb, that verb's subparser parses argv[1:]
    alone, instead of after a top-level scan of all of argv.  The top-level
    parser runs for any other argv[0] and when the subparser leaves
    arguments over, so every error is still written by the parser that
    wrote it before.
    """
    parser, verbs = _parser_tree()
    if argv is None:
        argv = sys.argv[1:]
    sub = verbs.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            args.verb = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        rc = args.func(args)
    except InternalTheoremViolation:
        raise
    except PolyParseError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 2
    except IdemringError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    return 0 if rc is None else rc


if __name__ == "__main__":
    sys.exit(main())
