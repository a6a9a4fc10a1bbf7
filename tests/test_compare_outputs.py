import importlib.util
import shutil
from math import prod
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def _tree(root: Path) -> dict:
    return {p: p.stat().st_mtime_ns for p in root.rglob("*")}


# the argv list of `compare_outputs.py PARENT CHANGE --max-n 40`
ARGVS = compare_outputs.argv_list(40)


@pytest.fixture(scope="module")
def repo_outputs(tmp_path_factory) -> Path:
    """The repo's outputs over ARGVS, written once: the parent side of every
    comparison below."""
    out = tmp_path_factory.mktemp("compare-outputs") / "parent.jsonl"
    compare_outputs.outputs(ROOT, ARGVS, out)
    return out


def _compare(parent_outputs: Path, change: Path, tmp_path: Path, capsys) -> SimpleNamespace:
    """What the script run on the repo and change prints and exits with,
    the repo's side read from parent_outputs."""
    out = tmp_path / "change.jsonl"
    compare_outputs.outputs(change, ARGVS, out)
    capsys.readouterr()
    differ = compare_outputs.compare(ARGVS, parent_outputs, out)
    captured = capsys.readouterr()
    return SimpleNamespace(returncode=1 if differ else 0, stdout=captured.out, stderr=captured.err)


def _report(stdout: str) -> tuple[dict, str]:
    """{each `differs` line: the detail lines under it} and the summary line."""
    *body, summary = stdout.splitlines()
    report = {}
    for line in body:
        if line.startswith("differs "):
            report[line] = details = []
        else:
            details.append(line)
    return report, summary


def test_first_difference_numbers_lines_from_one_and_marks_a_missing_line():
    first_difference = compare_outputs.first_difference
    assert first_difference("a\nb\n", "a\nc\n") == (2, "b", "c")
    assert first_difference("a\n", "a\nb\n") == (2, "", "b")
    assert first_difference("a", "a\n") == (2, "(no line)", "")


def test_the_repo_against_itself(repo_outputs, tmp_path, capsys):
    before = _tree(ROOT / "src")
    proc = _compare(repo_outputs, ROOT, tmp_path, capsys)
    assert proc.returncode == 0, proc.stderr
    [summary] = proc.stdout.splitlines()
    assert summary.startswith("compared ") and summary.endswith(" argv: 0 differ")
    # children run with -B in a temporary directory: src/ is untouched
    assert _tree(ROOT / "src") == before


def test_a_changed_line_of_text_output_is_reported(repo_outputs, tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    quadcong = tmp_path / "src" / "idemring" / "quadcong.py"
    text = quadcong.read_text()
    assert 'f"discrepancies: {' in text
    quadcong.write_text(text.replace('f"discrepancies: {', 'f"discrepancy count: {'))
    proc = _compare(repo_outputs, tmp_path, tmp_path, capsys)
    assert proc.returncode == 1, proc.stderr
    report, summary = _report(proc.stdout)
    differ = list(report)
    assert summary.endswith(f" argv: {len(differ)} differ")
    # only the text report of the closed-form catalogue prints that line,
    # and the report shows it as the parent and the change print it
    for argv in ("solve-trace 385 210", "solve-trace 30 6"):
        [where, parent, change] = report[f"differs (stdout): {argv}"]
        assert where.startswith("  stdout line ") and where.endswith(":")
        assert (parent, change) == ("    parent: discrepancies: 0", "    change: discrepancy count: 0")
    # the large moduli past --max-n run too: trace-largeprime's 5*7*p, two
    # primes above 1000, and a prime cofactor near 10**12
    for n in (35 * 20011, 35 * 40009, 35 * 59999, 5 * 1009 * 1013, 35 * 999999999989):
        assert sum(line.startswith(f"differs (stdout): solve-trace {n} ") for line in differ) == 6, n
    for line in differ:
        assert line.startswith("differs (stdout): solve-trace ") and not line.endswith("--json")


def test_a_reworded_decoder_message_is_reported(repo_outputs, tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    mat2 = tmp_path / "src" / "idemring" / "mat2.py"
    text = mat2.read_text()
    assert text.count('"trailing zero coefficients are forbidden"') == 1
    mat2.write_text(text.replace('"trailing zero coefficients are forbidden"', '"trailing zeros are forbidden"'))
    proc = _compare(repo_outputs, tmp_path, tmp_path, capsys)
    assert proc.returncode == 1, proc.stderr
    report, summary = _report(proc.stdout)
    assert summary.endswith(" argv: 4 differ")
    # two malformed documents fail on a trailing zero, one of them before
    # its next entry's string coefficient is read; classify prints the
    # message on stderr, in text and with --json
    assert sorted(report) == sorted(
        f"differs (stderr): classify malformed-{k}.json{flag}" for k in (20, 21) for flag in ("", " --json")
    )
    for where, parent, change in report.values():
        assert where == "  stderr line 1:"
        assert parent.startswith("    parent: error: ") and parent.endswith("trailing zero coefficients are forbidden")
        assert change.startswith("    change: error: ") and change.endswith("trailing zeros are forbidden")


def test_the_list_runs_moduli_of_6_to_16_primes():
    argvs = compare_outputs.argv_list(40)
    moduli = compare_outputs.MANY_PRIME_MODULI
    assert sorted(len(primes) for primes in moduli) == sorted(2 * list(range(6, 17)))
    assert {primes[0] for primes in moduli} == {2, 5}
    for primes in moduli:
        n = str(prod(primes))
        idems = compare_outputs.crt_idempotents(primes)
        assert ["idempotents", n, "--json"] in argvs
        # the first, a middle and the last idempotent, text and --json
        dets = {argv[2] for argv in argvs if argv[:2] == ["solve-trace", n]}
        assert dets == {str(idems[0]), str(idems[len(idems) // 2]), str(idems[-1])}
        assert sum(argv[:2] == ["solve-trace", n] for argv in argvs) == 6


def test_the_list_runs_a_modulus_one_prime_past_the_enumeration_limit():
    argvs = compare_outputs.argv_list(40)
    primes = compare_outputs.OVER_LIMIT_PRIMES
    assert len(primes) == 17 and primes[0] == 5
    n = str(prod(primes))
    runs = [argv for argv in argvs if n in argv]
    # idempotents and d = 1 exceed the limit; d = 2 is not idempotent
    assert runs == [
        [*argv, *flag]
        for argv in (["idempotents", n], ["solve-trace", n, "1"], ["solve-trace", n, "2"])
        for flag in ((), ("--json",))
    ]
