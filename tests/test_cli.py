import ast
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter, OrderedDict, namedtuple
from contextlib import redirect_stderr, redirect_stdout
from enum import IntEnum
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idemring
from idemring import cli, verify, znring
from idemring.classify import CompletenessReport
from idemring.cli import _dumps, build_parser, main, parse_args
from idemring.errors import InternalTheoremViolation
from idemring.mat2 import Mat2Poly, matrix_from_document
from idemring.modarith import is_prime

# 5 * 7 * 10000000019: the prime cofactor is too large for any scan of Z_p
BIG_N = 350000000665


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_fresh(*argv, timeout=60):
    """Run the CLI in a new interpreter; returns (rc, stdout, stderr, wall seconds)."""
    src = str(Path(idemring.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "idemring", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def test_idempotents_105(capsys):
    rc, out, err = run(capsys, "idempotents", "105")
    assert rc == 0 and err == ""
    assert out.startswith("n = 105 = 3 * 5 * 7\n")
    assert "idempotents (8): 0 1 15 21 36 70 85 91" in out
    assert "closed-form cross-check:" in out


def test_idempotents_prime(capsys):
    rc, out, _ = run(capsys, "idempotents", "7")
    assert rc == 0
    assert "idempotents (2): 0 1" in out
    assert "cross-check" not in out


def test_idempotents_json(capsys):
    rc, out, _ = run(capsys, "idempotents", "105", "--json")
    doc = json.loads(out)
    assert doc["idempotents"] == [0, 1, 15, 21, 36, 70, 85, 91]
    # each row shows the CRT value beside the formula's, and no verdict:
    # a formula that misses its CRT value raises before any row is printed
    assert len(doc["cross_check"]) == 8
    for row in doc["cross_check"]:
        assert set(row) == {"crt", "formula", "pattern", "value"}
        assert row["crt"] == row["value"]


@pytest.mark.parametrize(
    "argv",
    [["idempotents", "385"], ["idempotents", "385", "--json"], ["verify", "385", "--budget", "0"]],
    ids=["text", "json", "verify"],
)
def test_a_wrong_closed_form_raises_out_of_the_cli(monkeypatch, argv):
    # a power function off by one makes every closed form miss its CRT value
    power = znring.mod_pow
    monkeypatch.setattr(znring, "mod_pow", lambda a, k, n: (power(a, k, n) + 1) % n)
    with pytest.raises(InternalTheoremViolation):
        main(argv)


def test_domain_error_exit_code(capsys):
    rc, out, err = run(capsys, "idempotents", "4")
    assert rc == 1
    assert err.startswith("error: NotSquarefree:")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-verb"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_solve_trace(capsys):
    rc, out, _ = run(capsys, "solve-trace", "105", "36")
    assert rc == 0
    assert "solutions (8): 9 27 34 37 69 72 79 97" in out
    assert "discrepancies: 0" in out


def test_solve_trace_trivial_det(capsys):
    rc, out, _ = run(capsys, "solve-trace", "105", "0")
    assert rc == 0
    assert "0 1 15 21 36 70 85 91" in out
    assert "catalogue applies only" in out


def test_solve_trace_rejects_non_idempotent(capsys):
    rc, _, err = run(capsys, "solve-trace", "105", "37")
    assert rc == 1
    assert err.startswith("error: NotIdempotentDet:")


def test_oracle_counts(capsys, monkeypatch):
    # oracle tallies dets from the entry tuples; every Mat2Poly is refused
    def refuse(*args):
        raise AssertionError("oracle built a Mat2Poly")

    monkeypatch.setattr(Mat2Poly, "from_ints", refuse)
    monkeypatch.setattr(Mat2Poly, "__init__", refuse)
    rc, out, _ = run(capsys, "oracle", "5")
    assert rc == 0
    assert "constant idempotent matrices: 32" in out
    rc, out, _ = run(capsys, "oracle", "2")
    assert "constant idempotent matrices: 8" in out


def test_oracle_budget(capsys):
    rc, _, err = run(capsys, "oracle", "1001", "--budget", "1000")
    assert rc == 1
    assert err.startswith("error: BudgetExceeded:")


@pytest.mark.parametrize("verb", ["oracle", "verify"])
def test_negative_budget_is_usage_error(capsys, verb):
    # a negative budget used to make verify skip every scan and report a pass
    with pytest.raises(SystemExit) as exc:
        main([verb, "385", "--budget", "-5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"idemring {verb}: error: argument --budget: must be >= 0, got -5\n")
    with pytest.raises(SystemExit) as exc:
        main([verb, "385", "--budget", "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --budget: invalid int value: 'x'\n")


def test_generate_writes_document(capsys, tmp_path):
    out_path = tmp_path / "mat.json"
    rc, out, _ = run(
        capsys, "generate", "det0-general", "--n", "385", "--e", "x", "--out", str(out_path)
    )
    assert rc == 0
    assert f"wrote {out_path}" in out
    doc = json.loads(out_path.read_text())
    assert doc == {"n": 385, "entries": [[[0, 1], [0, 1, 384]], [[1], [1, 384]]]}


def test_generate_stdout_and_classify_round_trip(capsys, tmp_path):
    rc, out, _ = run(capsys, "generate", "detpair-mixed", "--n", "385", "--seed", "5")
    assert rc == 0
    doc = json.loads(out)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "classify", str(path))
    assert rc == 0
    assert "idempotent: yes" in out
    assert "detpair-mixed" in out


def test_generate_deterministic_for_seed(capsys):
    rc1, out1, _ = run(capsys, "generate", "detpair-shift", "--n", "455", "--seed", "9")
    rc2, out2, _ = run(capsys, "generate", "detpair-shift", "--n", "455", "--seed", "9")
    assert rc1 == rc2 == 0
    assert out1 == out2
    rc3, out3, _ = run(capsys, "generate", "detpair-shift", "--n", "455", "--seed", "10")
    assert out3 != out1


def test_generate_bad_poly_is_usage_error(capsys):
    rc, _, err = run(capsys, "generate", "det0-general", "--n", "385", "--e", "x^")
    assert rc == 2
    assert err.startswith("error: PolyParseError:")
    # an integer past the int digit limit
    rc, out, err = run(capsys, "generate", "det0-general", "--n", "385", "--e", "7" * 5000)
    assert rc == 2 and out == ""
    assert err.startswith("error: PolyParseError: bad term of 5000 characters: ")


@pytest.mark.parametrize(
    "family, pin",
    [
        ("det0-general", ["--det", "5"]),
        ("det0-general", ["--det", "0"]),
        ("det0-scaled", ["--det", "0"]),
        *((family, ["--scale", "155"]) for family in (
            "det0-general", "detpair-scalar", "detpair-shift", "detpair-mixed",
            "detsingle-scalar", "detsingle-shift",
        )),
        *((family, ["--swap-roles"]) for family in (
            "det0-general", "det0-scaled", "detpair-scalar", "detpair-shift",
            "detsingle-scalar", "detsingle-shift",
        )),
    ],
)
def test_generate_rejects_a_pin_its_family_does_not_read(capsys, family, pin):
    rc, out, err = run(capsys, "generate", family, "--n", "385", *pin)
    assert rc == 1 and out == ""
    assert err.startswith(f"error: UnsatisfiableParams: {family} does not read {pin[0]}")


def test_generate_pins_reach_the_label(capsys, tmp_path):
    path = tmp_path / "m.json"
    rc, out, _ = run(capsys, "generate", "det0-scaled", "--n", "385", "--scale", "155", "--out", str(path))
    assert rc == 0
    assert "label: det0-scaled roles (5, 7, 11) det 0 trace 155 scale 155 annihilator 77" in out
    rc, out, _ = run(
        capsys, "generate", "detpair-mixed", "--n", "385", "--det", "210", "--swap-roles", "--out", str(path)
    )
    assert rc == 0
    assert "label: detpair-mixed roles (7, 5, 11) det 210 trace 266 offset 56" in out
    rc, out, _ = run(capsys, "classify", str(path))
    assert rc == 0 and "detpair-mixed roles (7, 5, 11)" in out


def test_classify_out_of_scope(capsys, tmp_path):
    path = tmp_path / "m105.json"
    path.write_text(json.dumps({"n": 105, "entries": [[[1], []], [[], [1]]]}))
    rc, _, err = run(capsys, "classify", str(path))
    assert rc == 1
    assert err.startswith("error: PrimesOutOfScope:")


def test_classify_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    rc, _, err = run(capsys, "classify", str(path))
    assert rc == 1
    assert err.startswith("error: MatrixFormatError:")
    rc, _, err = run(capsys, "classify", str(tmp_path / "missing.json"))
    assert rc == 1
    assert err.startswith("error: MatrixFormatError:")


# documents the JSON decoder rejects with RecursionError, ValueError (the
# int digit limit) and UnicodeDecodeError
UNDECODABLE = {
    "deep-nesting": b"[" * 100000,
    "long-integer": b'{"n": ' + b"7" * 5000 + b', "entries": []}',
    "not-utf8": b'{"n": 385, "entries": "\xff"}',
}


@pytest.mark.parametrize("source", ["stdin", "file"])
@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_classify_undecodable_input_is_coded_error(capsys, monkeypatch, tmp_path, name, source):
    data = UNDECODABLE[name]
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        path = "-"
    else:
        path = tmp_path / "m.json"
        path.write_bytes(data)
    rc, out, err = run(capsys, "classify", str(path))
    assert rc == 1 and out == ""
    assert err.startswith("error: MatrixFormatError: not valid JSON: ")
    assert "Traceback" not in err


def test_classify_json_output(capsys, tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps({"n": 385, "entries": [[[155], []], [[], [155]]]}))
    rc, out, _ = run(capsys, "classify", str(path), "--json")
    doc = json.loads(out)
    assert doc["det"] == 155
    assert doc["matches"][0]["family"] == "detsingle-scalar"


def test_verify_small_budget(capsys):
    # a small budget skips the heavy matrix scan but all light checks pass
    rc, out, _ = run(capsys, "verify", "385", "--budget", "200000")
    assert rc == 0
    assert "FAIL" not in out
    lines = out.splitlines()
    assert "skip matrix-completeness: BudgetExceeded: 385^3 states exceed budget 200000" in lines
    assert lines[-1] == "verify: 8/8 checks passed, 1 skipped"


_SKIPPED_AT_ZERO = ["full-scan", "trace-solver-scan", "poly-scan", "matrix-completeness"]


def test_verify_counts_a_skip_apart_from_a_pass(capsys):
    # at budget 0 four of 385's nine checks do not run: they are neither passed nor failed
    rc, out, err = run(capsys, "verify", "385", "--budget", "0")
    assert rc == 0 and err == ""
    lines = out.splitlines()
    skips = [l.split(":")[0] for l in lines if l.startswith("skip ")]
    assert skips == [f"skip {name}" for name in _SKIPPED_AT_ZERO]
    assert "skip poly-scan: BudgetExceeded: 385 candidate vectors exceed budget 0" in lines
    assert lines[-1] == "verify: 5/5 checks passed, 4 skipped"
    rc, out, err = run(capsys, "verify", "385", "--budget", "0", "--json")
    doc = json.loads(out)
    assert rc == 0 and err == ""
    assert [c["name"] for c in doc["checks"] if c["ok"] is None] == _SKIPPED_AT_ZERO
    assert all(c["ok"] is True for c in doc["checks"] if c["name"] not in _SKIPPED_AT_ZERO)
    assert (doc["passed"], doc["total"], doc["skipped"]) == (5, 5, 4)


def test_verify_trace_closed_forms_can_fail(monkeypatch, capsys, mod385):
    # one closed-form expression outside the solver's set makes the row fail
    solve = verify.closed_form_trace_solutions

    def one_discrepancy(mod, d):
        report = solve(mod, d)
        if d != verify.nontrivial_idempotents(mod)[0]:
            return report
        first, *rest = report.entries
        return report._replace(entries=[first._replace(in_solution_set=False), *rest])

    monkeypatch.setattr(verify, "closed_form_trace_solutions", one_discrepancy)
    checks = {name: (ok, detail) for name, ok, detail in verify.run_checks(mod385, 0)}
    assert checks["trace-closed-forms"] == (False, "48 expressions evaluated, 1 discrepancies")
    rc, out, _ = run(capsys, "verify", "385", "--budget", "0")
    assert rc == 1
    assert "FAIL trace-closed-forms: 48 expressions evaluated, 1 discrepancies" in out.splitlines()
    assert out.splitlines()[-1] == "verify: 4/5 checks passed, 4 skipped"


@pytest.mark.parametrize("n, det", [(385, 210), (30, 15), (30, 0)])
def test_verify_solver_scan_catches_a_missing_trace(monkeypatch, capsys, n, det):
    # the one pass over [0, n) checks every det's solutions; at the even n = 30
    # the idempotents 0 and 15 share 2d = 0, so both read one list of the scan
    rc, out, _ = run(capsys, "verify", str(n), "--budget", str(n))
    assert rc == 0
    assert "ok   trace-solver-scan: 8 determinants checked" in out.splitlines()
    solve = verify.trace_candidates

    def one_short(mod, d):
        cands = solve(mod, d)
        return cands[1:] if d == det else cands

    monkeypatch.setattr(verify, "trace_candidates", one_short)
    rc, out, _ = run(capsys, "verify", str(n), "--budget", str(n))
    assert rc == 1
    assert "FAIL trace-solver-scan: 8 determinants checked" in out.splitlines()


def test_verify_poly_scan_at_degree_zero_reads_the_pass(monkeypatch, mod385):
    # at degree 0 the scan would test c*c = c over [0, n) again: the pass's
    # idempotents give the row, and the scan runs only from degree 1 or to
    # report that n exceeds the budget
    scan = verify.poly_idempotents_bruteforce
    degrees = []

    def counted(mod, degree, budget):
        degrees.append(degree)
        return scan(mod, degree, budget=budget)

    monkeypatch.setattr(verify, "poly_idempotents_bruteforce", counted)
    rows = {budget: {name: (ok, detail) for name, ok, detail in verify.run_checks(mod385, budget)}
            for budget in (385, 385**2, 384)}
    assert degrees == [1, 0]
    assert rows[385]["poly-scan"] == (True, "degree <= 0: 8 idempotents, all constant")
    assert rows[385**2]["poly-scan"] == (True, "degree <= 1: 8 idempotents, all constant")
    assert rows[384]["poly-scan"] == (
        None, "BudgetExceeded: 385 candidate vectors exceed budget 384"
    )


def test_verify_counts_distinct_idempotents(monkeypatch, mod385):
    # one sum per 0/1 pattern is 2^m sums even when two of them collide
    idems = verify.enumerate_idempotents(mod385)
    monkeypatch.setattr(verify, "enumerate_idempotents", lambda mod: (idems[0], *idems[:-1]))
    checks = {name: (ok, detail) for name, ok, detail in verify.run_checks(mod385, 0)}
    assert checks["idempotent-count"] == (False, "7 = 2^3")


def test_verify_closure_fails_when_1_minus_y_is_missing(monkeypatch, capsys, mod385):
    # without 1, 1 - 0 leaves the enumeration while every y^2 = y still holds
    idems = verify.enumerate_idempotents(mod385)
    monkeypatch.setattr(verify, "enumerate_idempotents", lambda mod: tuple(y for y in idems if y != 1))
    rc, out, _ = run(capsys, "verify", "385", "--budget", "0")
    assert rc == 1
    assert "FAIL idempotent-closure: y^2 = y holds and 1-y stays inside" in out.splitlines()


def test_verify_completeness_fails_on_a_det_that_is_not_idempotent(monkeypatch, capsys):
    # a report whose det histogram holds 2, with nothing unmatched and no
    # impossible trace: only the det support check can fail the row
    def two(mod, budget):
        return CompletenessReport(
            modulus=mod.n, primes=mod.primes, total=1, trivial=0, family_counts=Counter(),
            det_histogram=Counter({2: 1}), det_trace_histogram=Counter(), unmatched=[],
            match_multiplicity=Counter(), mixed_offsets={}, elapsed_seconds=0.0,
        )

    monkeypatch.setattr(verify, "completeness_check", two)
    rc, out, _ = run(capsys, "verify", "385")
    assert rc == 1
    assert "FAIL matrix-completeness: 1 matrices, 0 unmatched, impossible traces absent" in out.splitlines()
    assert sum(line.startswith("FAIL ") for line in out.splitlines()) == 1


def test_verify_non_matrix_modulus(capsys):
    rc, out, _ = run(capsys, "verify", "15")
    assert rc == 0
    assert "FAIL" not in out


def test_verify_json(capsys):
    rc, out, _ = run(capsys, "verify", "105", "--budget", "2000000")
    assert rc == 0
    rc, out, _ = run(capsys, "verify", "105", "--budget", "2000000", "--json")
    doc = json.loads(out)
    assert doc["passed"] == doc["total"]


@pytest.mark.parametrize(
    "argv",
    [
        ["idempotents", "1"],
        ["idempotents", "0"],
        ["idempotents", "-7"],
        ["solve-trace", "0", "0"],
        ["oracle", "-3"],
        ["verify", "1"],
        ["generate", "det0-general", "--n", "-385"],
    ],
)
def test_modulus_below_two_is_coded_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err.startswith("error: ModulusTooSmall:")


def test_negative_degree_is_coded_error(capsys):
    rc, out, err = run(capsys, "generate", "det0-general", "--n", "385", "--degree", "-5")
    assert rc == 1 and out == ""
    assert err.startswith("error: UnsatisfiableParams:")


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "det0-general", "--n", "385", "--degree", "100000"],
        ["generate", "det0-general", "--n", "385", "--e", "x^100000"],
        ["generate", "detpair-scalar", "--n", "385", "--degree", "1001"],
        ["generate", "det0-scaled", "--n", "385", "--f", "1", "--g", "x^1001"],
        # parse_poly checks the degree before it builds the dense list
        ["generate", "det0-general", "--n", "385", "--e", "x^10000000000"],
    ],
)
def test_generate_degree_over_limit_is_coded_error(argv):
    rc, out, err, wall = run_fresh(*argv, timeout=10)
    assert rc == 1 and out == "" and wall < 2.0
    assert err.startswith("error: UnsatisfiableParams:") and "exceeds the limit 1000" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "det0-general", "--n", "385", "--degree", "1000"],
        # dense e of degree 1000, so f = e(1-e) has degree 2000
        ["generate", "det0-scaled", "--n", "385", "--e", " + ".join(f"{k % 384 + 1}*x^{k}" for k in range(1001))],
    ],
)
def test_generate_at_degree_limit_answers_in_time(argv):
    rc, out, err, wall = run_fresh(*argv, timeout=10)
    assert rc == 0 and err == "" and wall < 2.0
    assert matrix_from_document(json.loads(out)).is_idempotent()


def test_classify_rejects_an_entry_above_the_degree_limit(tmp_path):
    # degree 10^5, about 600 KB: the decoder refuses it before any product
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"n": 385, "entries": [[[7] * 100_001, [1]], [[], [1]]]}))
    rc, out, err, wall = run_fresh("classify", str(path), timeout=10)
    assert rc == 1 and out == "" and wall < 2.0
    assert err.startswith("error: MatrixFormatError:") and "exceeds the limit 2000" in err


def test_generate_at_degree_limit_classifies(tmp_path):
    path = tmp_path / "top.json"
    e = " + ".join(f"{k % 384 + 1}*x^{k}" for k in range(1001))
    rc, _, err, _ = run_fresh("generate", "det0-scaled", "--n", "385", "--e", e, "--out", str(path))
    assert rc == 0 and err == ""
    assert max(len(cs) for row in json.loads(path.read_text())["entries"] for cs in row) == 2001
    rc, out, err, _ = run_fresh("classify", str(path))
    assert rc == 0 and err == ""
    assert "idempotent: yes" in out and "det0-scaled" in out


def _assert_big_solutions(sols, d):
    assert len(sols) == 8 == len(set(sols))
    assert all(0 <= t < BIG_N and (t * t - t - 2 * d) % BIG_N == 0 for t in sols)


def test_solve_trace_large_prime_factor():
    rc, out, err, wall = run_fresh("solve-trace", str(BIG_N), "0", timeout=10)
    assert rc == 0 and err == "" and wall < 2.0
    line = next(l for l in out.splitlines() if l.startswith("solutions (8): "))
    _assert_big_solutions([int(t) for t in line.split(": ")[1].split()], 0)


def test_solve_trace_large_prime_factor_json():
    d = 250000000475
    rc, out, err, wall = run_fresh("solve-trace", str(BIG_N), str(d), "--json", timeout=10)
    assert rc == 0 and err == "" and wall < 2.0
    doc = json.loads(out)
    _assert_big_solutions(doc["solutions"], d)
    assert doc["closed_forms"]["discrepancy_count"] == 0


@pytest.mark.parametrize(
    "entry",
    [["-m", "idemring"], ["-c", "import sys; from idemring.cli import main; sys.exit(main())"]],
    ids=["python-m", "console-script"],
)
@pytest.mark.parametrize(
    "argv, read",
    [
        # 2^16 idempotents of the primes 5 to 61, about 1.5 MB: the reader
        # takes 100 bytes and closes while the child still writes
        (["idempotents", "19548063559901161830545"], 100),
        # a few KB, held in stdout's buffer: the reader is gone before the
        # child writes at all
        (["solve-trace", "700385", "80045", "--json"], 0),
        # argparse's help, whose own write drops the error and exits 0
        (["--help"], 0),
        (["solve-trace", "--help"], 0),
    ],
    ids=["large-output", "buffered-output", "help", "verb-help"],
)
def test_a_closed_stdout_pipe_exits_1_without_a_traceback(entry, argv, read):
    src = str(Path(idemring.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    r, w = os.pipe()
    if not read:
        os.close(r)
    with subprocess.Popen([sys.executable, *entry, *argv], stdout=w, stderr=subprocess.PIPE, env=env) as proc:
        os.close(w)
        if read:
            head = b""
            while len(head) < read and (chunk := os.read(r, read - len(head))):
                head += chunk
            os.close(r)
            assert head.startswith(b"n = 19548063559901161830545 = 5 * 7 * ")
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_verify_large_prime_factor_is_bounded():
    rc, out, err, wall = run_fresh("verify", str(BIG_N), "--budget", "1000", timeout=10)
    assert rc == 0 and err == "" and wall < 2.0
    lines = out.splitlines()
    assert any(l.startswith("skip poly-scan: BudgetExceeded: ") for l in lines)
    assert lines[-1] == "verify: 5/5 checks passed, 4 skipped"


def _first_primes_above_3(count):
    primes, k = [], 5
    while len(primes) < count:
        if is_prime(k):
            primes.append(k)
        k += 1
    return primes


# 5 * 7 * ... * 181: 2^40 idempotents, and trial division factors it at once
FORTY_PRIMES_N = prod(_first_primes_above_3(40))


@pytest.mark.parametrize(
    "argv",
    [["idempotents", str(FORTY_PRIMES_N)], ["verify", str(FORTY_PRIMES_N)], ["solve-trace", str(FORTY_PRIMES_N), "1"]],
)
def test_many_primes_exceed_the_enumeration_limit(capsys, argv):
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert rc == 1 and out == ""
    assert err == "error: BudgetExceeded: 2^40 CRT combinations over 40 primes exceed the limit 2^16\n"


def test_verify_budget_covers_the_range_scans(capsys):
    # full-scan and trace-solver-scan share one pass over [0, n), charged n
    # states; the scans once ignored the budget: 13.7 s
    start = time.perf_counter()
    rc, out, err = run(capsys, "verify", "510510", "--budget", "0")
    assert time.perf_counter() - start < 1.0
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert "skip full-scan: BudgetExceeded: 510510 scan states exceed budget 0" in lines
    assert "skip trace-solver-scan: BudgetExceeded: 510510 scan states exceed budget 0" in lines


def test_verify_reports_the_range_scans_above_a_million(capsys):
    # 5 * 7 * 1000003: no size limit drops the rows, only the budget skips them
    rc, out, err = run(capsys, "verify", "35000105", "--budget", "1000")
    assert rc == 0 and err == ""
    lines = out.splitlines()
    for name in ("full-scan", "trace-solver-scan"):
        assert f"skip {name}: BudgetExceeded: 35000105 scan states exceed budget 1000" in lines


def test_default_verify_scans_the_range_once():
    # 2^7 idempotents: the two range checks once scanned [0, n) 129 times (about 19 s)
    rc, out, err, wall = run_fresh("verify", "930930")
    assert rc == 0 and err == "" and wall < 2.0
    lines = out.splitlines()
    assert "ok   full-scan: scan found 128 idempotents" in lines
    assert "ok   trace-solver-scan: 128 determinants checked" in lines


def test_verify_at_fourteen_primes_answers_in_time(capsys):
    # the complement-closure check looks each 1 - y up in a set, not the 2^14-tuple
    start = time.perf_counter()
    rc, out, err = run(capsys, "verify", str(prod(_first_primes_above_3(14))))
    assert time.perf_counter() - start < 1.5
    assert rc == 0 and err == ""
    assert "ok   idempotent-closure: y^2 = y holds and 1-y stays inside" in out.splitlines()


def _parse_outcome(parse, argv):
    """(the parsed attributes or ("exit", code), stdout, stderr) of one parse of argv.

    Attributes are compared as vars(), which is what argparse's
    Namespace.__eq__ compares, so a result of another type can match.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _assert_parses_like_argparse(argv):
    assert _parse_outcome(parse_args, argv) == _parse_outcome(build_parser().parse_args, argv)


_VERBS = ["idempotents", "solve-trace", "classify", "generate", "oracle", "verify"]
_EDGE_ARGV = [
    [],
    ["-h"],
    ["--he"],
    ["--json=1"],
    ["--", "solve-trace", "105", "36"],
    ["solve"],
    ["bogus", "105"],
    ["solve-trace", "105", "36"],
    ["solve-trace", "105", "36", "extra"],
    ["solve-trace", "105", "36", "--he"],
    ["solve-trace", "-h", "105"],
    ["solve-trace", "105", "-36"],
    ["solve-trace", "105"],
    ["solve-trace", "105", "x"],
    ["solve-trace", "105", "36", "--js"],
    ["solve-trace", "105", "36", "--json=1"],
    ["solve-trace", "--json", "105", "36"],
    ["solve-trace", "105", "--", "36"],
    ["solve-trace", "105", "36", "--", "--json"],
    ["solve-trace", "105", "36", "-x"],
    ["idempotents", "105", "--json", "--json"],
    ["idempotents"],
    ["classify", "-", "--json"],
    ["generate", "det0-general", "--n", "385", "--e", "-x"],
    ["generate", "det0-general", "--n", "385", "--e=-x"],
    ["generate", "det0-general", "--n", "385", "--s", "5"],
    ["generate", "bogus", "--n", "385"],
    ["generate", "det0-general"],
    ["oracle", "385", "--budget", "-5"],
    ["oracle", "385", "--b", "10", "--json"],
    ["verify", "385", "--budget"],
    ["verify", "385", "--budget", "x", "--n", "3"],
    ["oracle", "385", "--budget=5"],
    ["verify", "385", "--budget", "00"],
    ["generate", "det0-general", "--n=385", "--swap-roles=1"],
    ["generate", "det0-general", "--n", "385", "--n", "455"],
    ["generate", "det0-general", "--n", "385", "--det", "-5"],
    ["solve-trace", " 105", "36"],
    ["solve-trace", "1_05", "36"],
    ["solve-trace", "105", "36", "--json", "--json"],
    ["idempotents", "-105"],
]
_TOKEN = st.sampled_from(
    [
        *_VERBS, "solve", "bogus", "--", "-", "", "-h", "--he", "--json", "--js", "--json=1",
        "--budget", "--budget=5", "--n", "--n=385", "--det", "--swap-roles", "--e", "--e=-x", "-x",
        "det0-general", "word",
    ]
) | st.integers(-40, 400).map(str)


@pytest.mark.parametrize("argv", _EDGE_ARGV, ids=" ".join)
def test_parse_args_matches_argparse_on_edge_argv(argv):
    _assert_parses_like_argparse(argv)


@settings(max_examples=300)
@given(
    st.lists(_TOKEN, max_size=6)
    | st.builds(lambda verb, rest: [verb, *rest], st.sampled_from(_VERBS), st.lists(_TOKEN, max_size=5))
)
def test_parse_args_matches_argparse(argv):
    # the same Namespace (verb included), or the same exit code, stdout and stderr
    _assert_parses_like_argparse(argv)


# one well-formed argv per verb
_PLAIN_ARGV = [
    ["idempotents", "105", "--json"],
    ["solve-trace", "105", "36"],
    ["classify", "m.json", "--json"],
    ["generate", "detpair-mixed", "--n=385", "--seed", "5", "--swap-roles", "--e", "x"],
    ["oracle", "5", "--budget=1000"],
    ["verify", "--json", "105", "--budget", "100000"],
]


def test_a_verb_argv_skips_the_top_level_parser(monkeypatch):
    expected = [vars(build_parser().parse_args(argv)) for argv in _PLAIN_ARGV]

    def refuse():
        raise AssertionError("a well-formed argv reached argparse")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert [vars(parse_args(argv)) for argv in _PLAIN_ARGV] == expected


_COLD_START = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

import idemring, idemring.cli
from idemring.cli import main

argv_list, bad = json.loads(sys.argv[1])
codes = []
with redirect_stdout(io.StringIO()):
    for argv in argv_list:
        codes.append(main(argv))
loaded = sorted(m for m in ("argparse", "gettext") if m in sys.modules)
exits = []
for argv in (["-h"], bad):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as exc:
            exits.append([exc.code, out.getvalue(), err.getvalue()])
print(json.dumps([codes, loaded, exits]))
"""


def test_well_formed_argv_never_imports_argparse(monkeypatch, tmp_path):
    # a fresh interpreter runs one plain argv per verb without loading
    # argparse (or the gettext it imports); help and usage errors still
    # come from argparse, with its exit code and text
    monkeypatch.setenv("COLUMNS", "80")
    (tmp_path / "m.json").write_text(json.dumps({"n": 385, "entries": [[[155], []], [[], [155]]]}))
    bad = ["solve-trace", "105"]
    src = str(Path(idemring.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, json.dumps([_PLAIN_ARGV, bad])],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60, check=True,
    )
    codes, loaded, exits = json.loads(proc.stdout)
    assert codes == [0] * len(_PLAIN_ARGV)
    assert loaded == []
    want = [_parse_outcome(build_parser().parse_args, argv) for argv in (["-h"], bad)]
    assert [[code, out, err] for (_, code), out, err in want] == exits
    assert [code for code, _, _ in exits] == [0, 2]


_LAZY_LOADS = """
import io, sys
from contextlib import redirect_stdout

sys.path.insert(0, sys.argv[1])

def heavy():
    names = ("idemring.classify", "idemring.mat2", "idemring.polyring", "idemring.verify", "json")
    return [m for m in names if m in sys.modules]

import idemring, idemring.cli
from idemring.cli import main

seen = [heavy()]
with redirect_stdout(io.StringIO()):
    for argv in (["solve-trace", "105", "36"], ["solve-trace", "105", "36", "--json"], ["idempotents", "105"]):
        seen.append([main(argv), heavy()])
    codes = [main(argv) for argv in PLAIN_ARGV]
print(repr([seen, codes]))
"""


def test_plain_calls_load_only_the_modules_they_run(tmp_path):
    # a fresh interpreter: importing the package and the CLI, solve-trace and
    # idempotents load no classifier, matrix, polynomial, verify or json
    # module; afterwards one plain argv per verb still exits 0
    (tmp_path / "m.json").write_text(json.dumps({"n": 385, "entries": [[[155], []], [[], [155]]]}))
    src = str(Path(idemring.__file__).resolve().parents[1])
    code = f"PLAIN_ARGV = {_PLAIN_ARGV!r}\n{_LAZY_LOADS}"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, src],
        capture_output=True, text=True, cwd=tmp_path, timeout=60, check=True,
    )
    seen, codes = ast.literal_eval(proc.stdout)
    assert seen == [[], [0, []], [0, []], [0, []]]
    assert codes == [0] * len(_PLAIN_ARGV)


def test_parser_reuse_matches_fresh_interpreter(capsys, tmp_path):
    # main builds its parser once; a usage error must leave no state behind
    doc = json.dumps({"n": 385, "entries": [[[155], []], [[], [155]]]})
    path = tmp_path / "scalar.json"
    path.write_text(doc)
    with pytest.raises(SystemExit) as exc:
        main(["solve-trace", "385"])
    assert exc.value.code == 2
    capsys.readouterr()
    for argv in (["solve-trace", "385", "210"], ["classify", str(path)]):
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == run_fresh(*argv)[:3]


# strings that exercise every escape: quotes, backslashes, control
# characters, DEL, non-ASCII and astral code points
_TEXT = st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f e\xe9\u20ac\U0001f600') | st.characters(), max_size=6
)
_SCALARS = st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | _TEXT
_CONTAINERS = st.recursive(
    st.lists(_SCALARS, max_size=4) | st.dictionaries(_TEXT, _SCALARS, max_size=4),
    lambda inner: st.lists(inner | _SCALARS, max_size=4)
    | st.lists(inner | _SCALARS, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner | _SCALARS, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150)
@given(_CONTAINERS)
def test_dumps_is_stdlib_indent_2_sort_keys(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_dumps_nested_40_deep_then_shallow():
    # past _SEPARATORS' depths a container builds its separators; a deep
    # document must leave nothing behind for the shallow one written after it
    deep = "leaf"
    for k in range(40):
        deep = {"k": [deep, k], "a": {}} if k % 2 else (deep, [], {"z": None})
    for doc in (deep, {"b": [1, {"a": [True]}]}):
        assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_dumps_keeps_bools_apart_from_the_ints_1_and_0():
    # scalars are told apart by exact type: True and False are not written
    # as 1 and 0, in a list or as a dict value
    assert _dumps([True, 1, False, 0]) == "[\n  true,\n  1,\n  false,\n  0\n]"
    assert _dumps({"a": True, "b": 1, "c": False, "d": 0}) == (
        '{\n  "a": true,\n  "b": 1,\n  "c": false,\n  "d": 0\n}'
    )


class _Level(IntEnum):
    ONE = 1


class _Text(str):
    pass


@pytest.mark.parametrize("scalar", [_Level.ONE, _Text("x")], ids=["IntEnum", "str-subclass"])
@pytest.mark.parametrize("wrap", [lambda x: [x], lambda x: {"k": x}], ids=["list-item", "dict-value"])
def test_dumps_rejects_subclasses_of_int_and_str(scalar, wrap):
    # json.dumps would write them; the writer accepts exact types only
    with pytest.raises(TypeError, match="is not JSON serializable"):
        _dumps(wrap(scalar))


class _Items(list):
    pass


_Pair = namedtuple("_Pair", "first second")


@pytest.mark.parametrize(
    "child",
    [_Pair(1, [True, None]), _Items(["x", {"k": 2}]), OrderedDict(b=[3], a={"c": _Items()})],
    ids=["namedtuple", "list-subclass", "dict-subclass"],
)
@pytest.mark.parametrize(
    "wrap", [lambda x: x, lambda x: {"k": x, "j": 0}, lambda x: [0, x]], ids=["document", "object-value", "array-item"]
)
def test_dumps_writes_container_subclasses_as_json_dumps(child, wrap):
    # a container that is not exactly a dict, list or tuple is still written
    # as one, wherever it sits
    doc = wrap(child)
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "doc",
    [
        {"a": 1.5},
        [[{1, 2}]],
        {1: "x"},
        {"a": {2: 3}},
        [{"a": 1.5}],
        {"a": [1.5]},
        ({"a": {1, 2}},),
        1.5,
        "top-level",
    ],
)
def test_dumps_rejects_other_types(doc):
    with pytest.raises(TypeError):
        _dumps(doc)


def test_dumps_one_key_set_at_two_depths_in_two_orders(monkeypatch):
    # a shape is its depth and its keys in insertion order: the keys a and b
    # at depths 0-3, in both orders, make five shapes, written from a cold
    # table and again from the warm one
    monkeypatch.setattr(cli, "_MEMBERS", {})
    doc = {
        "b": {"a": 1, "b": [2, "x"]},
        "a": {"b": None, "a": {"a": True, "b": {"b": False, "a": -3}}},
    }
    expected = json.dumps(doc, indent=2, sort_keys=True)
    assert _dumps(doc) == expected
    assert sorted((shape[0], shape[1:]) for shape in cli._MEMBERS) == [
        (0, ("b", "a")), (1, ("a", "b")), (1, ("b", "a")), (2, ("a", "b")), (3, ("b", "a")),
    ]
    assert _dumps(doc) == expected
    assert len(cli._MEMBERS) == 5


def test_dumps_tests_the_keys_of_a_shape_not_seen_before(monkeypatch):
    # a key is tested when its shape is first written: a bytes key or a str
    # subclass key in a new shape raises TypeError, and nothing is kept for
    # that shape; the object holding it was kept before it was reached
    monkeypatch.setattr(cli, "_MEMBERS", {})
    for doc, kind in (({b"k": 1}, "bytes"), ({_Text("k"): 1}, "_Text"), ({"a": {2: 3}}, "int")):
        for _ in range(2):
            with pytest.raises(TypeError, match=f"^keys must be str, not {kind}$"):
                _dumps(doc)
    assert list(cli._MEMBERS) == [(0, "a")]
    # once {"k": ...} is a known shape, a str subclass key equal to "k"
    # finds it and is written as the str it equals, as json.dumps writes it
    assert _dumps({"k": 1}) == '{\n  "k": 1\n}'
    assert _dumps({_Text("k"): 2}) == json.dumps({_Text("k"): 2}, indent=2, sort_keys=True)


def test_dumps_keeps_writing_new_shapes_once_its_table_is_full(monkeypatch):
    monkeypatch.setattr(cli, "_MEMBERS", {})
    shapes = [{f"k{i}": i, "z": [i]} for i in range(cli._MAX_SHAPES)]
    for doc in shapes:
        _dumps(doc)
    assert len(cli._MEMBERS) == cli._MAX_SHAPES
    full = dict(cli._MEMBERS)
    for doc in ({"new": {"shape": 1}}, {"x": 1, "w": "2"}, shapes[0]):
        assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)
    assert cli._MEMBERS == full
    # nor is an object of more than _MAX_KEYS keys kept
    monkeypatch.setattr(cli, "_MEMBERS", {})
    wide = {f"k{i:03}": i for i in range(cli._MAX_KEYS + 1)}
    assert _dumps(wide) == json.dumps(wide, indent=2, sort_keys=True)
    assert cli._MEMBERS == {}
