"""The package surface: `import idemring` loads no submodule, and every
exported name resolves on first use to the object its submodule defines."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import idemring

# every name the package exports, by the submodule that defined it when
# the package imported all of them eagerly
EXPORTS = {
    "classify": [
        "DET0_GENERAL", "DET0_SCALED", "DETPAIR_MIXED", "DETPAIR_SCALAR", "DETPAIR_SHIFT",
        "DETSINGLE_SCALAR", "DETSINGLE_SHIFT", "DEFAULT_BUDGET", "FAMILIES",
        "ClassificationReport", "ClassLabel", "CompletenessReport", "classify", "completeness_check",
        "expected_trace_values", "generate", "iter_constant_idempotent_entries", "make_label",
        "validate_label",
    ],
    "mat2": [
        "Mat2Poly", "idempotency_equations_hold", "load_matrix", "matrix_from_document",
        "matrix_to_document", "read_matrix", "save_matrix",
    ],
    "modarith": ["Modulus", "factor_squarefree", "is_prime", "mod_inverse", "mod_pow"],
    "polyring": ["Poly", "divide_coeffs", "parse_poly"],
    "quadcong": [
        "FormulaEntry", "FormulaReport", "TraceCandidateSet", "closed_form_trace_solutions",
        "formula_discrepancy_survey", "trace_candidates",
    ],
    "znring": [
        "MAX_ENUMERATED_PRIMES", "ExponentVariantRow", "enumerate_idempotents", "euler_closed_form",
        "exponent_variant_check", "nontrivial_idempotents", "pattern_of", "poly_idempotents_bruteforce",
    ],
}

# In a fresh interpreter: import the package (after its submodules, or
# before them), then check each submodule reached as an attribute, and each
# export, by `from idemring import X` and by attribute, against the
# submodule's own object.  Prints the submodules the bare package import
# loaded and every mismatch.
_SURFACE = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
exports, order = json.loads(sys.argv[2])
if order == "submodules first":
    for home in [*exports, "errors"]:
        importlib.import_module("idemring." + home)
import idemring
loaded = sorted(m for m in sys.modules if m.startswith("idemring."))
bad = []
for sub in ("errors", "mat2", "modarith", "polyring", "quadcong", "znring"):
    if getattr(idemring, sub) is not importlib.import_module("idemring." + sub):
        bad.append([order, sub])
def check():
    for home, names in [*exports.items(), ("", ["errors"])]:
        for name in names:
            ns = {}
            exec(f"from idemring import {name} as value", ns)
            module = importlib.import_module("idemring." + (home or name))
            want = module if not home else getattr(module, name)
            if ns["value"] is not want or getattr(idemring, name) is not want:
                bad.append([order, name])
check()
import idemring.classify
from idemring import classify
if classify is not sys.modules["idemring.classify"].classify or idemring.classify is not classify:
    bad.append([order, "classify after import idemring.classify"])
check()
print(json.dumps([loaded, sorted(idemring.__all__), bad]))
"""


@pytest.mark.parametrize("order", ["submodules first", "package first"])
def test_every_export_resolves_to_its_submodules_object(order):
    src = str(Path(idemring.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _SURFACE, src, json.dumps([EXPORTS, order])],
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded, exported, bad = json.loads(proc.stdout)
    if order == "package first":
        assert loaded == []
    assert exported == sorted(["errors", *(name for names in EXPORTS.values() for name in names)])
    assert bad == []


def test_unknown_names_raise_attribute_error():
    assert not hasattr(idemring, "no_such_name")
    with pytest.raises(ImportError):
        exec("from idemring import no_such_name", {})
    assert {"errors", "classify", "Poly"} <= set(dir(idemring))
