#!/usr/bin/env python3
"""Compare the command line's output of two checkouts, argv by argv.

    python3 scripts/compare_outputs.py PARENT CHANGE [--max-n N]

For each checkout one child interpreter imports idemring from the
checkout's src/ and calls `idemring.cli.main` in process over a fixed argv
list, writing each call's stdout, stderr and exit code as one JSON line
to a temporary file; the two files are then compared line by line.  The
list covers every verb, in text and with --json where the verb has it;
help; a set of usage and coded errors; generate with explicit --e, --f
and --g (an f that meets the side condition, one that does not, a g that
is not a unit constant mod the side; both scalar families too), at
--degree 20, and at --degree 1000 for det0-general and the two shift and
the mixed families over 385 and 5*7*999999999989, each --out file
classified back in text and --json; generate --out files classified
back; verify with checks skipped over its --budget; classify, text and
--json, on a fixed set of malformed matrix documents (MALFORMED_DOCUMENTS)
and of well-formed ones (WELL_FORMED_DOCUMENTS: zero, identity,
non-idempotents, a constant idempotent of each family); `idempotents n
--json` and `solve-trace n d`, text and --json, for each idempotent d of
a fixed list of large moduli (LARGE_MODULI); `idempotents n --json` and
`solve-trace n d`, text and --json, for the first, a middle and the last
idempotent d of moduli of 6 to 16 primes (MANY_PRIME_MODULI);
`idempotents n` and `solve-trace n d`, text and --json, over the 17
primes from 5 (OVER_LIMIT_PRIMES), one past the enumeration limit,
with d = 1, which raises BudgetExceeded, and d = 2, which raises
NotIdempotentDet first; and `idempotents n` and `solve-trace n d` for
each squarefree n <= N (default 3000) and each idempotent d of Z_n.
For each such n that is p*q*r with primes > 3 (61 of them up to 3000) it
also runs generate for every template: each nontrivial idempotent as
--det of each family that reads it, also with --swap-roles for
detpair-mixed, and as --scale of det0-scaled, each --out file classified
back in text and --json.

Every argv whose stdout, stderr or exit code differs is printed with the
parts that differ, and under it the first differing line of each such
part, the parent's and then the change's; the exit code is 1 when any
differs, else 0.  Each child runs with -B, COLUMNS=80 (argparse wraps
help to the terminal width) and its own temporary working directory,
where generate writes its files, so nothing is written into either
checkout; the matrix documents are written there too.  Standard
library only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from itertools import compress, product, zip_longest
from math import prod
from pathlib import Path

# generate's families, written out: this script imports neither checkout
FAMILIES = (
    "det0-general",
    "det0-scaled",
    "detpair-scalar",
    "detpair-shift",
    "detpair-mixed",
    "detsingle-scalar",
    "detsingle-shift",
)

CHILD = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, sys.argv[1])
from idemring.cli import main

with open(sys.argv[2]) as fp:
    argvs = json.load(fp)
for argv in argvs:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    print(json.dumps((out.getvalue(), err.getvalue(), repr(code))))
"""

PARTS = ("stdout", "stderr", "exit")

# Moduli past the sweep, as their primes: trace-largeprime's 5*7*p, p in
# [2*10**4, 6*10**4); two primes above the factorizer's table of the
# primes below 1000; and a prime cofactor near 10**12, which keeps trial
# division going to 10**6
LARGE_MODULI = ((5, 7, 20011), (5, 7, 40009), (5, 7, 59999), (5, 1009, 1013), (5, 7, 999999999989))

# Moduli of m = 6 to 16 primes, the first m from 2 and the first m from 5:
# the 2**m idempotents and trace solutions up to MAX_ENUMERATED_PRIMES
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)
MANY_PRIME_MODULI = tuple(_PRIMES[k : k + m] for k in (0, 2) for m in range(6, 17))

# The 17 primes from 5, one past MAX_ENUMERATED_PRIMES: the solver's checks
# in order, a d that is not idempotent before the enumeration limit
OVER_LIMIT_PRIMES = _PRIMES[2:]


# Matrix documents the decoder rejects, one per message and precedence
# rule: matrix_from_document checks the entries in reading order, each
# coefficient's type before its range
MALFORMED_DOCUMENTS = (
    b"{not json",
    b"\xff\xfe",
    b"[" * 100_000,
    b'{"n": 385, "entries": [[[' + b"1" * 5000 + b'], []], [[], []]]}',
    b"[]",
    b'{"n": 385}',
    b'{"n": 1, "entries": [[[], []], [[], []]]}',
    b'{"n": true, "entries": [[[], []], [[], []]]}',
    b'{"n": 385, "entries": "[]"}',
    b'{"n": 385, "entries": [[[], []], [[]]]}',
    b'{"n": 385, "entries": [[[], []], [[], [], []]]}',
    b'{"n": 385, "entries": [[[1], 2], [[], []]]}',
    b'{"n": 385, "entries": [[[], []], [[], [' + b"1, " * 2001 + b'1]]]}',
    b'{"n": 385, "entries": [[[385], []], [[], []]]}',
    b'{"n": 385, "entries": [[[-1], []], [[], []]]}',
    b'{"n": 385, "entries": [[["1"], []], [[], []]]}',
    b'{"n": 385, "entries": [[[385, "1"], []], [[], []]]}',
    b'{"n": 385, "entries": [[["1", 385], []], [[], []]]}',
    b'{"n": 385, "entries": [[[true], []], [[], []]]}',
    b'{"n": 385, "entries": [[[1.0], []], [[], []]]}',
    b'{"n": 385, "entries": [[[0, 1, 0], []], [[], []]]}',
    b'{"n": 385, "entries": [[[1, 0], ["1"]], [[], []]]}',
    b'{"n": 385, "entries": [[[1], [2]], [[385], ["1"]]]}',
)

# Matrix documents classify reads, one per branch of its report: the zero
# matrix, the identity, a det-1 matrix that is not idempotent, a constant
# and a non-constant non-idempotent, and one constant idempotent of each
# family, in FAMILIES order
WELL_FORMED_DOCUMENTS = (
    b'{"n": 385, "entries": [[[], []], [[], []]]}',
    b'{"n": 385, "entries": [[[1], []], [[], [1]]]}',
    b'{"n": 385, "entries": [[[1], [1]], [[], [1]]]}',
    b'{"n": 385, "entries": [[[2], [3]], [[5], [7]]]}',
    b'{"n": 385, "entries": [[[0, 1], []], [[], [1]]]}',
    b'{"n": 385, "entries": [[[216], [305]], [[3], [170]]]}',
    b'{"n": 385, "entries": [[[315], [35]], [[210], [280]]]}',
    b'{"n": 385, "entries": [[[210], []], [[], [210]]]}',
    b'{"n": 385, "entries": [[[67], [286]], [[33], [144]]]}',
    b'{"n": 385, "entries": [[[375], [165]], [[165], [375]]]}',
    b'{"n": 385, "entries": [[[155], []], [[], [155]]]}',
    b'{"n": 385, "entries": [[[78], [154]], [[231], [78]]]}',
)


def crt_idempotents(primes: tuple[int, ...]) -> list[int]:
    """The idempotents of Z_n, n the product of primes, ascending: the CRT
    combinations of a 0 or 1 at every prime."""
    n = prod(primes)
    basis = [n // p * pow(n // p, -1, p) for p in primes]
    return sorted(sum(compress(basis, bits)) % n for bits in product((0, 1), repeat=len(primes)))


def squarefree_idempotents(max_n: int):
    """(n, idempotents of Z_n) for each squarefree n in [2, max_n], by scan."""
    for n in range(2, max_n + 1):
        if any(n % (k * k) == 0 for k in range(2, int(n**0.5) + 1)):
            continue
        yield n, [y for y in range(n) if (y * y - y) % n == 0]


def template_argvs(n: int, dets: list[int]) -> list[list[str]]:
    """generate over n = p*q*r (primes > 3) with each of its nontrivial
    idempotents as --det or --scale, each --out file classified back."""
    runs = [["det0-general"], ["det0-scaled"]]
    for d in map(str, dets):
        runs.append(["det0-scaled", "--scale", d])
        runs += [[family, "--det", d] for family in FAMILIES if not family.startswith("det0-")]
        runs.append(["detpair-mixed", "--det", d, "--swap-roles"])
    out = []
    for k, (family, *params) in enumerate(runs):
        path = f"template-{n}-{k}.json"
        out += [
            ["generate", family, "--n", str(n), *params, "--out", path],
            ["classify", path],
            ["classify", path, "--json"],
        ]
    return out


def argv_list(max_n: int) -> list[list[str]]:
    verbs = ("idempotents", "solve-trace", "classify", "generate", "oracle", "verify")
    out = [["--help"], [], ["nope"]]
    out += [[verb, "--help"] for verb in verbs]
    out += [
        # usage errors: argparse's own exit 2
        ["idempotents"],
        ["idempotents", "105", "extra"],
        ["idempotents", "x"],
        ["idempotents", "105", "--jsn"],
        ["solve-trace", "105"],
        ["solve-trace", "105", "1.5"],
        ["classify"],
        ["generate", "det0-general"],
        ["generate", "no-such-family", "--n", "385"],
        ["oracle", "35", "--budget", "-1"],
        ["verify", "105", "--budget", "x"],
        # coded errors: exit 1, or 2 for a polynomial that does not parse
        ["idempotents", "12"],
        ["idempotents", "1"],
        ["solve-trace", "105", "2"],
        ["oracle", "385", "--budget", "1000"],
        ["verify", "385", "--budget", "1000"],
        ["classify", "missing.json"],
        ["generate", "det0-general", "--n", "35"],
        ["generate", "det0-general", "--n", "385", "--e", "x^"],
        ["generate", "det0-general", "--n", "385", "--det", "210"],
        ["generate", "detpair-scalar", "--n", "385", "--det", "1"],
        # past the factorizer's trial bound, and a square past its prime table
        ["idempotents", str(1000003 * 1000033)],
        ["solve-trace", str(1000003 * 1000033), "0", "--json"],
        ["idempotents", str(5 * 1009**2)],
        ["solve-trace", str(5 * 1009**2), "0", "--json"],
    ]
    for n in ("30", "35", "105", "385", "455"):
        out += [["idempotents", n], ["idempotents", n, "--json"]]
    out += [["solve-trace", "385", "210"], ["solve-trace", "385", "595", "--json"], ["solve-trace", "35", "15"]]
    for n in ("35", "105"):
        out += [["oracle", n], ["oracle", n, "--json"], ["verify", n], ["verify", n, "--json"]]
    # verify's skipped checks: every scan over the budget, the matrix sweep
    # alone, and the range scans of a modulus above 10^6
    out += [
        ["verify", "385", "--budget", "0"],
        ["verify", "385", "--budget", "0", "--json"],
        ["verify", "930930", "--budget", "200000"],
        ["verify", "35000105", "--budget", "1000"],
    ]
    for family in FAMILIES:
        for n, seed in (("385", "0"), ("385", "1"), ("455", "2")):
            path = f"{family}-{n}-{seed}.json"
            out += [
                ["generate", family, "--n", n, "--seed", seed],
                ["generate", family, "--n", n, "--seed", seed, "--degree", "0", "--out", path],
                ["classify", path],
                ["classify", path, "--json"],
            ]
    # explicit parameters at 385 with e = x: the f that meets the side
    # condition, f plus a multiple of the side, an f that does not, and a g
    # that is not a unit constant mod the side
    for family, params, f, side in (
        ("det0-general", [], "x - x^2", 385),
        ("det0-scaled", ["--scale", "210"], "x - x^2", 11),
        ("detpair-shift", [], "19*x + 34*x^2", 35),
        ("detsingle-shift", [], "2*x + 4*x^2", 5),
        ("detpair-mixed", [], "1 + 5*x + 6*x^2", 7),
        ("detpair-scalar", [], "x", 1),
        ("detsingle-scalar", [], "x", 1),
    ):
        run = ["generate", family, "--n", "385", *params, "--e", "x"]
        out += [
            [*run, "--g", "1", "--f", f],
            [*run, "--g", "1", "--f", f"{f} + {side}*x^3"],
            [*run, "--g", "1", "--f", f"{f} + 1"],
            [*run, "--g", "5"],
            [*run, "--g", "1 + x"],
        ]
    for family in FAMILIES:
        path = f"{family}-degree-20.json"
        out += [
            ["generate", family, "--n", "385", "--seed", "4", "--degree", "20"],
            ["generate", family, "--n", "385", "--seed", "4", "--degree", "20", "--out", path],
            ["classify", path, "--json"],
        ]
    for k in range(len(MALFORMED_DOCUMENTS)):
        out += [["classify", f"malformed-{k}.json"], ["classify", f"malformed-{k}.json", "--json"]]
    for k in range(len(WELL_FORMED_DOCUMENTS)):
        out += [["classify", f"well-formed-{k}.json"], ["classify", f"well-formed-{k}.json", "--json"]]
    # at generate's degree limit, where products take the packed path, in
    # generate and in classify's witnesses of the shift and mixed families
    degree_1000 = ("det0-general", "detpair-shift", "detsingle-shift", "detpair-mixed")
    for family, n in product(degree_1000, ("385", str(5 * 7 * 999999999989))):
        path = f"{family}-{n}-degree-1000.json"
        out += [
            ["generate", family, "--n", n, "--degree", "1000", "--out", path],
            ["classify", path],
            ["classify", path, "--json"],
        ]
    out += [
        ["generate", "det0-general", "--n", "385", "--e", "3 + 2*x + x^2", "--g", "1"],
        ["generate", "detpair-mixed", "--n", "385", "--swap-roles", "--seed", "5"],
        ["generate", "det0-scaled", "--n", "455", "--scale", "91", "--degree", "1"],
    ]
    for primes in LARGE_MODULI:
        n = str(prod(primes))
        out.append(["idempotents", n, "--json"])
        for d in map(str, crt_idempotents(primes)):
            out += [["solve-trace", n, d], ["solve-trace", n, d, "--json"]]
    for primes in MANY_PRIME_MODULI:
        n = str(prod(primes))
        idems = crt_idempotents(primes)
        out.append(["idempotents", n, "--json"])
        for d in map(str, (idems[0], idems[len(idems) // 2], idems[-1])):
            out += [["solve-trace", n, d], ["solve-trace", n, d, "--json"]]
    n = str(prod(OVER_LIMIT_PRIMES))
    for argv in (["idempotents", n], ["solve-trace", n, "1"], ["solve-trace", n, "2"]):
        out += [argv, [*argv, "--json"]]
    for n, idems in squarefree_idempotents(max_n):
        out += [["idempotents", str(n)], ["idempotents", str(n), "--json"]]
        for d in idems:
            out += [["solve-trace", str(n), str(d)], ["solve-trace", str(n), str(d), "--json"]]
        # 8 idempotents: three primes; all of them > 3 when 2 and 3 do not divide n
        if len(idems) == 8 and n % 2 and n % 3:
            out += template_argvs(n, idems[2:])
    return out


def first_difference(a: str, b: str) -> tuple[int, str, str]:
    """1-based number of the first line where a and b differ, and that line
    of each; a text that ends before it shows "(no line)"."""
    k, pair = next(
        (k, pair) for k, pair in enumerate(zip_longest(a.split("\n"), b.split("\n")), 1) if pair[0] != pair[1]
    )
    return k, *("(no line)" if line is None else line for line in pair)


def outputs(checkout: Path, argvs: list[list[str]], out: Path) -> None:
    """Write to out one JSON line (stdout, stderr, repr of the exit code) per
    argv, from a child interpreter that runs the CLI on checkout's src/."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp, out.open("w") as fp:
        # the argv list goes through a file: it is too long for a command line
        listing = Path(tmp) / "argv.json"
        listing.write_text(json.dumps(argvs))
        for k, text in enumerate(MALFORMED_DOCUMENTS):
            (Path(tmp) / f"malformed-{k}.json").write_bytes(text)
        for k, text in enumerate(WELL_FORMED_DOCUMENTS):
            (Path(tmp) / f"well-formed-{k}.json").write_bytes(text)
        proc = subprocess.run(
            [sys.executable, "-B", "-c", CHILD, str(checkout.resolve() / "src"), str(listing)],
            env=env, cwd=tmp, stdout=fp, stderr=subprocess.PIPE, text=True,
        )
    if proc.returncode != 0:
        sys.exit(f"error: {checkout}: the child exited {proc.returncode}:\n{proc.stderr}")


def compare(argvs: list[list[str]], parent: Path, change: Path) -> int:
    """Print each argv whose line differs between the outputs files parent
    and change (as written by outputs), with the parts that differ and the
    first differing line of each, then the summary line; return the number
    of argv that differ."""
    differ = 0
    with parent.open() as old_lines, change.open() as new_lines:
        for argv, p, c in zip(argvs, map(json.loads, old_lines), map(json.loads, new_lines)):
            parts = [(name, a, b) for name, a, b in zip(PARTS, p, c) if a != b]
            if parts:
                differ += 1
                print(f"differs ({', '.join(name for name, _, _ in parts)}): {' '.join(argv)}")
                for name, a, b in parts:
                    line, old, new = first_difference(a, b)
                    print(f"  {name} line {line}:\n    parent: {old}\n    change: {new}")
    print(f"compared {len(argvs)} argv: {differ} differ")
    return differ


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--max-n", type=int, default=3000, help="largest n of the idempotents/solve-trace sweep")
    args = ap.parse_args()
    argvs = argv_list(args.max_n)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        files = Path(tmp) / "parent.jsonl", Path(tmp) / "change.jsonl"
        for checkout, out in zip((args.parent, args.change), files):
            outputs(checkout, argvs, out)
        differ = compare(argvs, *files)
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
