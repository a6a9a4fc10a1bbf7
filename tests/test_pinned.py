"""Behaviour pinned across refactors of the template code.

The label set and the validate_label verdicts are derived from make_label
alone; the CLI digests were recorded before the template table existed
and must not move: classify text and --json output (witnesses included)
and the generator's seeded draws are all part of the stable interface.
Only dropping a printed field that could not vary moved some: det0-scaled's
zero witness k and the idempotents cross-check's always-true `match`.
The --json digests of solve-trace, idempotents, oracle and verify were
recorded while the CLI serialized through json.dumps, so they pin that
cli._dumps writes the same bytes; the oracle digests at 385 and 455 were
recorded while oracle read each det off a Mat2Poly.
The last test pins that validate_label accepts exactly the table's
labels, so a label carrying a field its family does not use is rejected.
"""

import hashlib
import io
import sys
from contextlib import redirect_stdout
from itertools import permutations

import pytest

from idemring import cli, verify
from idemring.classify import (
    DET0_GENERAL,
    DET0_SCALED,
    DETPAIR_MIXED,
    FAMILIES,
    make_label,
    template_table,
    validate_label,
)
from idemring.cli import main
from idemring.errors import UnsatisfiableParams
from idemring.modarith import factor_squarefree
from idemring.znring import nontrivial_idempotents

FIELDS = ("family", "det", "trace", "prime_roles", "scale", "annihilator", "mixed_offset")


def all_labels(mod):
    """Every label make_label can build over mod: 25 for three primes > 3."""
    labels = {make_label(mod, DET0_GENERAL)}
    for d in nontrivial_idempotents(mod):
        labels.add(make_label(mod, DET0_SCALED, scale=d))
        for family in FAMILIES[2:]:
            for swap in (False, True):
                try:
                    labels.add(make_label(mod, family, det=d, swap_mixed_roles=swap))
                except UnsatisfiableParams:
                    pass
    return labels


def mutants(mod, labels, label, fields):
    """label with one field replaced by every other value that field takes
    across labels, or by a value no label uses."""
    junk = {"family": "bogus", "prime_roles": tuple(reversed(mod.primes))}
    for name in fields:
        values = {getattr(l, name) for l in labels} | {junk.get(name, 2)}
        if name == "prime_roles":
            values |= set(permutations(mod.primes))
        if name in ("scale", "annihilator", "mixed_offset"):
            values.add(None)
        for value in values - {getattr(label, name)}:
            yield label._replace(**{name: value})


def verdict(mod, label):
    try:
        validate_label(mod, label)
    except UnsatisfiableParams:
        return False
    return True


@pytest.mark.parametrize("n", [385, 455])
def test_validate_label_accepts_exactly_the_templates(n):
    mod = factor_squarefree(n)
    labels = all_labels(mod)
    assert len(labels) == 25
    assert len({(l.det, l.trace) for l in labels}) == 25
    checked = 0
    for label in labels:
        assert verdict(mod, label)
        # the fields each family constrains; roles of det0-general are fixed
        fields = ["family", "det", "trace"]
        if label.family != DET0_GENERAL:
            fields.append("prime_roles")
        if label.family == DET0_SCALED:
            fields += ["scale", "annihilator"]
        if label.family == DETPAIR_MIXED:
            fields.append("mixed_offset")
        for mutant in mutants(mod, labels, label, fields):
            assert verdict(mod, mutant) == (mutant in labels), mutant
            checked += 1
    assert checked > 1000


# sha256 prefixes of `generate <family> --n N --seed 0 --degree 3` stdout,
# then `classify - --json` and `classify -` stdout on that document; the
# det0-scaled classify digests were re-recorded when its witness dropped
# the side quotient k, which is zero on every idempotent
DIGESTS = {
    ("det0-general", 385): ("8566d59af8a491dd", "a1bf35e9b269bca5", "a24354178ec2a37c"),
    ("det0-scaled", 385): ("52fc31bbebc4adbe", "48c2a7f4b8e80d9b", "063472260e7a670d"),
    ("detpair-scalar", 385): ("91fe7b50b39d50ac", "3bfc14116d4c5f0c", "9e33cda9ba82a27f"),
    ("detpair-shift", 385): ("eaa0f0f34340ffe6", "e378069a79538534", "b89b406477bad3d0"),
    ("detpair-mixed", 385): ("7f5bb3d8d960073b", "5f704f4219434444", "1340be8b28b8efdb"),
    ("detsingle-scalar", 385): ("98fe9828e236545f", "b77a46fb3795c295", "dfb3733e16134617"),
    ("detsingle-shift", 385): ("80a803941e486283", "d101b1ec61177f57", "140a6638341f2c03"),
    ("det0-general", 455): ("7fc91a594ba33c78", "fa240e4df5f6f517", "3fdc46b40669b501"),
    ("det0-scaled", 455): ("bb5bc915d447552a", "4e3badd629140cf0", "593a7608bbe04b3b"),
    ("detpair-scalar", 455): ("6c4cbf3553303b38", "b445e94d4a20f7b4", "feff60756e4343bc"),
    ("detpair-shift", 455): ("f631b5640dc29b2c", "db0c907b67616d73", "58911568c17f688b"),
    ("detpair-mixed", 455): ("3ebec51220ec5eb8", "03b727f5a42d288e", "72ed3f1bcdf2870f"),
    ("detsingle-scalar", 455): ("74fb728540d915f5", "c1fe92dfd9e0f7ba", "e158b17f6e757570"),
    ("detsingle-shift", 455): ("0e7b840d8136efb2", "8f779046cd2e5f99", "dc5fd399fabbe358"),
}


def stdout_of(monkeypatch, argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("family, n", sorted(DIGESTS))
def test_cli_output_digests(monkeypatch, family, n):
    doc = stdout_of(monkeypatch, ["generate", family, "--n", str(n), "--seed", "0", "--degree", "3"])
    as_json = stdout_of(monkeypatch, ["classify", "-", "--json"], doc)
    as_text = stdout_of(monkeypatch, ["classify", "-"], doc)
    assert tuple(map(digest, (doc, as_json, as_text))) == DIGESTS[family, n]


# sha256 prefixes of `--json` stdout, recorded while the CLI still wrote
# through json.dumps(doc, indent=2, sort_keys=True); idempotents' was
# re-recorded when its cross_check rows dropped the constant `match` field
SOLVE_TRACE_JSON_DIGESTS = {
    385: {
        0: "da595ab6a97214c3", 1: "1c472d649d0a6e6e", 56: "9c972d9374318ba1",
        155: "41489e727b25140f", 176: "2612c24d67b53aa6", 210: "30ce0e0556520a20",
        231: "aa9fc5d7447f0d32", 330: "52495ab8e6b66fe1",
    },
    455: {
        0: "3bd4003834f28e3b", 1: "9c2a9ffca69d4e9e", 91: "b00705c800b65cde",
        105: "801acb4eaf756b4d", 196: "3fc25513df1bba6e", 260: "4d831f725aa1c5b4",
        351: "39e90eaf1c6c5a83", 365: "7d01185eb1067a86",
    },
    35 * 20011: {
        0: "34378e01f1e6fe64", 1: "7dc8328e343b5171", 80045: "5507fd6f178f806b",
        200110: "bb455b49259aa317", 280155: "c140d4c0e4765d69", 420231: "8956f3d7967faa1b",
        500276: "6e95b02f0ff9e8e3", 620341: "024415580f4c8649",
    },
    # recorded while the solver still took Tonelli-Shanks square roots per
    # prime: primes 2 and 3 (a double root at 3), and a 12-digit prime
    30: {
        0: "07134dd19f922b20", 1: "9fab8d5132d95dc6", 6: "fabb921ffb90491d",
        10: "0f90cdf1dd605ea5", 15: "73dd4ebaf42571b3", 16: "e743ac3d24645323",
        21: "790923e960d0186f", 25: "c3ad3f07bd8430c9",
    },
    70: {
        0: "6ee8572008ed48d4", 1: "134a895e2c3a70b8", 15: "628abd5cd17bc653",
        21: "2d7fbafdcb5d27db", 35: "5a117e7e815232da", 36: "dfdc7b46071242df",
        50: "156252b7233c776c", 56: "b3d6eb58aa228ca7",
    },
    105: {
        0: "a577e2844ba78fb3", 1: "0e2450bb980c0990", 15: "0329e3b71754d33d",
        21: "15429919338ffb1a", 36: "a03bb8554fc8576f", 70: "8d858bcd11ea448f",
        85: "79ed50a5c2f9bb5f", 91: "d6d099378a6c6aba",
    },
    35 * 999999999989: {
        0: "c24b42bc9d6f351b", 1: "37890ed0453261d1", 4999999999946: "4bf46370c857ddbd",
    },
}
JSON_DIGESTS = {
    **{
        ("solve-trace", str(n), str(d), "--json"): prefix
        for n, prefixes in SOLVE_TRACE_JSON_DIGESTS.items()
        for d, prefix in prefixes.items()
    },
    ("idempotents", "385", "--json"): "3008f40158ab7cef",
    ("oracle", "35", "--json"): "7d4546e914088225",
    # re-recorded when a skipped check became "ok": null and the poly scan
    # took the one default budget (degree 2 -> 3)
    ("verify", "105", "--json"): "248f35002bbfbe7b",
}


@pytest.mark.parametrize("argv", sorted(JSON_DIGESTS))
def test_cli_json_digests(monkeypatch, argv):
    assert digest(stdout_of(monkeypatch, list(argv))) == JSON_DIGESTS[argv]


# sha256 prefixes of oracle stdout, recorded while oracle still built a
# Mat2Poly for every constant idempotent to read its det
ORACLE_DIGESTS = {
    ("oracle", "385"): "fdf2ebe8eb517599",
    ("oracle", "385", "--json"): "588573e1aaba0756",
    ("oracle", "455", "--json"): "f4bed16a164da844",
}


@pytest.mark.parametrize("argv", sorted(ORACLE_DIGESTS))
def test_oracle_digests(monkeypatch, argv):
    assert digest(stdout_of(monkeypatch, list(argv))) == ORACLE_DIGESTS[argv]


def test_idempotents_text(monkeypatch):
    out = stdout_of(monkeypatch, ["idempotents", "385"])
    assert "\n  pattern (0, 0, 1): crt 210  formula (5*7)^10 = 210\n" in out
    assert digest(out) == "b05e7f769916845b"


def test_verify_json_digest(monkeypatch, completeness385):
    # the completeness sweep is the session fixture's; verify prints no timing.
    # Re-recorded when the poly scan took the one default budget (degree 1 -> 2)
    # and the document gained "skipped"
    monkeypatch.setattr(verify, "completeness_check", lambda mod, budget: completeness385)
    assert digest(stdout_of(monkeypatch, ["verify", "385", "--json"])) == "cad4f1039ae3401d"


@pytest.mark.parametrize("n", [385, 455, 1001, 5 * 7 * 10007])
def test_template_table_holds_every_label(n):
    mod = factor_squarefree(n)
    table = template_table(mod)
    assert {tpl.label for tpl in table.values()} == all_labels(mod)
    assert all(tpl.stride * tpl.side == n for tpl in table.values())


@pytest.mark.parametrize("n", [385, 455])
def test_validate_label_is_table_membership(n):
    mod = factor_squarefree(n)
    labels = all_labels(mod)
    for label in labels:
        for mutant in mutants(mod, labels, label, FIELDS):
            assert verdict(mod, mutant) == (mutant in labels), mutant
