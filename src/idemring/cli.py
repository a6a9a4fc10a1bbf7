"""Command-line front end.

Verbs: idempotents, solve-trace, classify, generate, oracle, verify.
Exit codes: 0 success, 1 domain error (printed on stderr as
``error: <CODE>: <message>``), 2 usage error.  All numeric output is
decimal, space separated and ascending; ``--json`` mirrors the same data.
Every verb's arguments are written down once, in the table ``_GRAMMAR``.
An argv that is plainly well formed (argv[0] a verb, then exact option
names, their values and the positionals, each value valid) is read straight
off that table, and argparse is never imported.  Any other argv (help,
``--``, an abbreviation, a negative number, a bad value) imports argparse,
whose parsers are built from the same table, and it parses the whole argv,
so every help text and usage error is argparse's own (see ``parse_args``).
Importing this module loads only errors, families, modarith, znring and
quadcong: each verb's handler imports the classifier, the matrix and
polynomial rings or the verify battery when it runs, so idempotents and
solve-trace never load them.  ``--json`` output is written by ``_dumps``
through two mutually recursive writers, ``_object`` and ``_array``, with
the C string encoder that json.encoder uses taken straight from ``_json``,
so it does not load json either.
"""

import os
import sys
from collections import Counter
from functools import cache
from types import SimpleNamespace

try:
    from _json import encode_basestring_ascii  # the C encoder json.encoder itself uses
except ImportError:  # an interpreter without json's accelerator module
    from json.encoder import encode_basestring_ascii

from .errors import (
    IdemringError,
    InternalTheoremViolation,
    MatrixFormatError,
    PolyParseError,
    UnsatisfiableParams,
)
from .families import DEFAULT_BUDGET, DET0_GENERAL, DET0_SCALED, DETPAIR_MIXED, FAMILIES
from .modarith import Modulus, factor_squarefree
from .quadcong import closed_form_trace_solutions, formula_discrepancy_survey, trace_candidates
from .znring import closed_form_cross_check, enumerate_idempotents, exponent_variant_check


def _header(mod: Modulus) -> str:
    return f"n = {mod}"


def _witness_json(wit: dict) -> dict:
    from .polyring import Poly

    out = {}
    for key, value in wit.items():
        out[key] = list(value.coeffs) if isinstance(value, Poly) else value
    return out


def _label_json(label) -> dict:
    return {k: v for k, v in label._asdict().items() if k != "modulus" and v is not None}


def _dumps(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), byte for byte.

    doc is a dict, list or tuple built from dicts with str keys, lists,
    tuples and scalars of exact type str, int, bool or None; anything else
    raises TypeError, except a str-subclass key in an object of a shape
    already written (see _object).  Instances of dict, list and tuple
    subclasses (a namedtuple) are written as the containers they extend.
    """
    parts: list[str] = []
    if isinstance(doc, dict):
        _object(doc, 0, parts.append)
    elif isinstance(doc, (list, tuple)):
        _array(doc, 0, parts.append)
    else:
        raise TypeError(f"a document is a dict, list or tuple, not {type(doc).__name__}")
    return "".join(parts)


def _separators(depth: int) -> tuple[str, str, str, str, str]:
    """The object and array openings, the item separator and the object and
    array closings of a container nested depth deep."""
    nl = "\n" + "  " * depth
    inner = nl + "  "
    return "{" + inner, "[" + inner, "," + inner, nl + "}", nl + "]"


# depths 0-7; the documents this module writes nest 5 deep at most, and a
# deeper container builds its separators when it is written
_SEPARATORS = tuple(map(_separators, range(8)))


# (depth, *keys) of an object -> its members and closing, from _members.  The
# table stops growing at _MAX_SHAPES shapes and keeps no object of more than
# _MAX_KEYS keys, so no caller can grow it without limit; the documents the
# CLI and report_files write have about two dozen shapes of at most 10 keys
_MEMBERS: dict[tuple, tuple[tuple[tuple[str, str], ...], str]] = {}
_MAX_SHAPES = 256
_MAX_KEYS = 64


def _members(value: dict, depth: int) -> tuple[tuple[tuple[str, str], ...], str]:
    """(members, closing) of the object value, nested depth deep.

    members lists (key, prefix) in sorted key order; prefix is the text
    written before the key's value: the separator, the encoded key and
    ': '.  Raises TypeError when a key is not exactly a str.
    """
    sep, _, comma, close, _ = _SEPARATORS[depth] if depth < 8 else _separators(depth)
    members = []
    for key in sorted(value):
        if type(key) is not str:
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        members.append((key, f"{sep}{encode_basestring_ascii(key)}: "))
        sep = comma
    return tuple(members), close


def _object(value: dict, depth: int, put) -> None:
    """Append the object value, nested depth deep, to put.

    The object looks its separators up in _SEPARATORS and its members in
    _MEMBERS: the first object of each shape (its depth and its keys, in
    order) sorts the keys, tests that each is exactly a str and encodes
    them, and every later one writes each member's prefix and value.  A key
    that only equals a str of a shape already written (an instance of a str
    subclass) finds that shape and is written as the str it equals, as
    json.dumps writes it.  Each value's exact type is tested inline, ints
    (the most common) first; a bool, an IntEnum member or a str subclass is
    neither an int nor a str here, so only True, False and None are written
    as the rest.  A child container goes straight to _object or _array:
    by its exact type, tested after int and str, or, for an instance of a
    dict, list or tuple subclass (a namedtuple), by isinstance, tested last.
    """
    if not value:
        put("{}")
        return
    shape = (depth, *value)
    entry = _MEMBERS.get(shape)
    if entry is None:
        entry = _members(value, depth)
        if len(_MEMBERS) < _MAX_SHAPES and len(value) <= _MAX_KEYS:
            _MEMBERS[shape] = entry
    members, close = entry
    depth += 1
    for key, prefix in members:
        item = value[key]
        kind = type(item)
        if kind is int:
            put(f"{prefix}{item}")
        elif kind is str:
            put(prefix + encode_basestring_ascii(item))
        elif kind is dict:
            put(prefix)
            _object(item, depth, put)
        elif kind is list or kind is tuple:
            put(prefix)
            _array(item, depth, put)
        elif item is True:
            put(prefix + "true")
        elif item is False:
            put(prefix + "false")
        elif item is None:
            put(prefix + "null")
        elif isinstance(item, dict):
            put(prefix)
            _object(item, depth, put)
        elif isinstance(item, (list, tuple)):
            put(prefix)
            _array(item, depth, put)
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    put(close)


def _array(value, depth: int, put) -> None:
    """Append the list or tuple value, nested depth deep, to put.

    Its items are tested and written as _object writes an object's values.
    Objects and arrays keep separate loops: one loop over (key prefix, item)
    pairs for both took about 1.5x as long on solve-trace documents.
    """
    if not value:
        put("[]")
        return
    _, sep, comma, _, close = _SEPARATORS[depth] if depth < 8 else _separators(depth)
    depth += 1
    for item in value:
        kind = type(item)
        if kind is int:
            put(f"{sep}{item}")
        elif kind is str:
            put(sep + encode_basestring_ascii(item))
        elif kind is dict:
            put(sep)
            _object(item, depth, put)
        elif kind is list or kind is tuple:
            put(sep)
            _array(item, depth, put)
        elif item is True:
            put(sep + "true")
        elif item is False:
            put(sep + "false")
        elif item is None:
            put(sep + "null")
        elif isinstance(item, dict):
            put(sep)
            _object(item, depth, put)
        elif isinstance(item, (list, tuple)):
            put(sep)
            _array(item, depth, put)
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        sep = comma
    put(close)


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


def _cmd_idempotents(args) -> int:
    mod = factor_squarefree(args.n)
    idems = enumerate_idempotents(mod)
    cross = []
    variants = []
    if mod.m == 3:
        cross = closed_form_cross_check(mod)
        variants = exponent_variant_check(mod)
    if args.json:
        doc = {
            "n": mod.n,
            "primes": list(mod.primes),
            "idempotents": list(idems),
            "cross_check": [
                {"pattern": list(p), "crt": c, "formula": f, "value": v}
                for p, c, f, v in cross
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
        for pat, via_crt, text, value in cross:
            print(f"  pattern {pat}: crt {via_crt}  formula {text} = {value}")
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
        solutions = trace_candidates(mod, d)
    if args.json:
        doc = {
            "n": mod.n,
            "primes": mod.primes,
            "det": d,
            "solutions": solutions,
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
    from .mat2 import load_matrix, read_matrix

    if path == "-":
        return read_matrix(sys.stdin)
    try:
        return load_matrix(path)
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc}") from exc


def _cmd_classify(args) -> int:
    from .classify import classify
    from .mat2 import matrix_to_document
    from .polyring import Poly

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
    return 0


def _cmd_generate(args) -> int:
    from .classify import generate, make_label
    from .mat2 import matrix_to_document, save_matrix
    from .polyring import parse_poly

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
        import json

        print(json.dumps(doc, sort_keys=True))
    return 0


def _cmd_oracle(args) -> int:
    from .classify import iter_constant_idempotent_entries, require_matrix_budget

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


def _cmd_verify(args) -> int:
    from . import verify

    mod = factor_squarefree(args.n)
    checks = verify.run_checks(mod, args.budget)
    ran = [ok for _, ok, _ in checks if ok is not None]
    passed = ran.count(True)
    skipped = len(checks) - len(ran)
    if args.json:
        doc = {
            "n": mod.n,
            "primes": list(mod.primes),
            "checks": [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in checks],
            "passed": passed,
            "total": len(ran),
            "skipped": skipped,
        }
        print(_dumps(doc))
    else:
        print(_header(mod))
        for name, ok, detail in checks:
            print(f"{'skip' if ok is None else 'ok  ' if ok else 'FAIL'} {name}: {detail}")
        print(f"verify: {passed}/{len(ran)} checks passed" + (f", {skipped} skipped" if skipped else ""))
    return 0 if passed == len(ran) else 1


def _budget(text: str) -> int:
    """--budget's type: an int, and a negative one is a usage error."""
    try:
        value = int(text)
    except ValueError:
        message = f"invalid int value: {text!r}"
    else:
        if value >= 0:
            return value
        message = f"must be >= 0, got {value}"
    import argparse

    raise argparse.ArgumentTypeError(message)


_FLAG = {"action": "store_true"}
_BUDGET = ("--budget", {"type": _budget, "default": DEFAULT_BUDGET, "help": "cap on brute-force states"})

# verb -> (help, handler, arguments).  An argument is its name ("n" is a
# positional, "--json" an option) and the keywords of argparse's
# add_argument.  build_parser builds argparse's parsers from this table and
# _recognize reads it directly, so the grammar is written down once.
_GRAMMAR = {
    "idempotents": (
        "enumerate the idempotents of Z_n",
        _cmd_idempotents,
        (("n", {"type": int}), ("--json", _FLAG)),
    ),
    "solve-trace": (
        "solve t^2 = t + 2d (mod n)",
        _cmd_solve_trace,
        (("n", {"type": int}), ("d", {"type": int}), ("--json", _FLAG)),
    ),
    "classify": (
        "classify a matrix from a file ('-' for stdin)",
        _cmd_classify,
        (("file", {}), ("--json", _FLAG)),
    ),
    "generate": (
        "generate an idempotent matrix in a class",
        _cmd_generate,
        (
            ("family", {"choices": FAMILIES}),
            ("--n", {"type": int, "required": True}),
            ("--det", {"type": int}),
            ("--scale", {"type": int, "help": "scale I for det0-scaled"}),
            ("--swap-roles", {**_FLAG, "help": "swap the zero-pattern roles of detpair-mixed"}),
            ("--seed", {"type": int, "default": 0}),
            ("--degree", {"type": int, "default": 2, "help": "max degree of random parameters"}),
            ("--e", {"help": "polynomial, e.g. '3 + 2*x + x^2'"}),
            ("--f", {}),
            ("--g", {}),
            ("--out", {"help": "write the matrix document here"}),
        ),
    ),
    "oracle": (
        "enumerate all constant idempotent matrices",
        _cmd_oracle,
        (("n", {"type": int}), _BUDGET, ("--json", _FLAG)),
    ),
    "verify": (
        "run the invariant suite for a modulus",
        _cmd_verify,
        (("n", {"type": int}), _BUDGET, ("--json", _FLAG)),
    ),
}


@cache
def build_parser():
    """The argparse parser behind parse_args, built on the first call.

    It has one subparser per verb of _GRAMMAR.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None):
            # argparse's own drops the write's OSError and exits 0, so a
            # closed stdout pipe would pass for help given; main sees it
            (file or sys.stdout).write(self.format_help())

    parser = Parser(
        prog="idemring",
        description="Idempotents of Z_n, Z_n[x] and the 2x2 matrix ring over Z_n[x].",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (text, handler, arguments) in _GRAMMAR.items():
        p = sub.add_parser(verb, help=text)
        for name, spec in arguments:
            p.add_argument(name, **spec)
        p.set_defaults(func=handler)
    return parser


@cache
def _syntax(verb: str) -> tuple[list, dict, dict, frozenset]:
    """(positionals, options, defaults, required) of verb, read off _GRAMMAR.

    positionals lists (dest, spec) in order and options maps each option
    name to (dest, spec); defaults holds verb, func and every dest's
    default, and required the dests that must be given.  A dest is
    argparse's: the name without its leading dashes, '-' read as '_'.
    """
    _, handler, arguments = _GRAMMAR[verb]
    positionals, options = [], {}
    defaults = {"verb": verb, "func": handler}
    required = set()
    for name, spec in arguments:
        dest = name.lstrip("-").replace("-", "_")
        defaults[dest] = False if spec.get("action") == "store_true" else spec.get("default")
        if name.startswith("-"):
            options[name] = (dest, spec)
            if spec.get("required"):
                required.add(dest)
        else:
            positionals.append((dest, spec))
            required.add(dest)
    return positionals, options, defaults, frozenset(required)


def _recognize(argv):
    """What build_parser().parse_args(argv) returns, when argv is plainly well formed; else None.

    argv[0] must be a verb, and each later token one of that verb's option
    names, a value option's value (the next token, which must not start
    with '-', or the text after '=' in '--name=value') or the next
    positional.  Every value must convert with its type and lie in its
    choices, and every positional and required option must be given.  Any
    other argv (help, '--', an abbreviation, a negative number, a lone '-',
    a bad value, a missing or extra argument) returns None.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    positionals, options, defaults, required = _syntax(argv[0])
    values = dict(defaults)
    given = set()
    waiting = iter(positionals)
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            name, eq, text = token.partition("=")
            if name not in options:
                return None
            dest, spec = options[name]
            if spec.get("action") == "store_true":
                if eq:
                    return None
                values[dest] = True
                continue
            if not eq:
                text = next(tokens, None)
                if text is None or text.startswith("-"):
                    return None
        else:
            dest, spec = next(waiting, (None, None))
            if dest is None:
                return None
            text = token
        convert = spec.get("type")
        try:
            value = text if convert is None else convert(text)
        except Exception:  # argparse converts it again and reports the failure
            return None
        choices = spec.get("choices")
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        given.add(dest)
    if not required <= given:
        return None
    return SimpleNamespace(**values)


def parse_args(argv=None):
    """build_parser().parse_args(argv): the same attributes, exits, help and usage text.

    A plainly well-formed argv is read by _recognize from the grammar table,
    without argparse.  Any other argv is parsed by argparse, imported then,
    so every help text and usage error is argparse's own.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _recognize(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    return args


def main(argv=None) -> int:
    try:
        try:
            args = parse_args(argv)
        finally:
            # help exits from parse_args; a closed pipe shows in this flush
            sys.stdout.flush()
        rc = args.func(args)
        # a reader that closed stdout shows here, not in the flush at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the signal module docs' recipe: with fd 1 on devnull the flush at
        # exit neither raises nor prints "Exception ignored"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
