"""The result records: immutable tuples, cheap to import.

Every record the library returns is a namedtuple, so a CLI process does
not import dataclasses (and the inspect/ast/dis chain behind it) or
typing.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import idemring
from idemring.classify import DET0_GENERAL, classify, make_label, template_table
from idemring.mat2 import Mat2Poly
from idemring.modarith import factor_squarefree
from idemring.quadcong import closed_form_trace_solutions, trace_candidates
from idemring.znring import exponent_variant_check


def test_cli_import_skips_dataclasses_and_typing():
    src = str(Path(idemring.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import idemring.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def records(mod385, completeness385):
    report = closed_form_trace_solutions(mod385, 210)
    return [
        mod385,
        exponent_variant_check(mod385)[0],
        report.entries[0],
        report,
        make_label(mod385, DET0_GENERAL),
        template_table(mod385)[0, 1],
        classify(Mat2Poly.identity(385), mod385),
        completeness385,
    ]


def test_records_are_immutable(mod385, completeness385):
    recs = records(mod385, completeness385)
    assert len({type(r).__name__ for r in recs}) == 8
    # the trace solver returns a plain tuple, no record
    assert type(trace_candidates(mod385, 210)) is tuple
    for rec in recs:
        for name in rec._fields:
            # assigning the value it already holds: a failure mutates nothing
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            rec.extra = None


def test_modulus_repr_and_str():
    mod = factor_squarefree(385)
    assert repr(mod) == "Modulus(n=385, primes=(5, 7, 11))"
    assert str(mod) == "385 = 5 * 7 * 11"
    assert mod.m == 3


def test_classification_reports_do_not_share_notes(mod385):
    G = Mat2Poly.from_ints(385, 2, 0, 0, 0)  # not idempotent
    a, b = classify(G, mod385), classify(G, mod385)
    assert a.notes == b.notes == []
    assert a.notes is not b.notes
