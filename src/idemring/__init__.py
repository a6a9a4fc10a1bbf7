"""Idempotents of Z_n, Z_n[x], and the 2x2 matrix ring over Z_n[x].

For squarefree n the idempotents of Z_n are the 2**m CRT combinations of
0/1 choices at the prime factors, the polynomial ring contributes nothing
new, and for n = p*q*r with primes above 3 every non-trivial idempotent
2x2 matrix over Z_n[x] falls into one of seven template families keyed by
its determinant and trace.  This package computes, generates and
brute-force verifies all of that.

Importing the package loads none of its submodules: each name below is
looked up in the submodule that defines it on first use (PEP 562), so a
command that never classifies a matrix never loads the classifier.
"""

import sys
from types import ModuleType

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(
        (
            "DET0_GENERAL",
            "DET0_SCALED",
            "DETPAIR_MIXED",
            "DETPAIR_SCALAR",
            "DETPAIR_SHIFT",
            "DETSINGLE_SCALAR",
            "DETSINGLE_SHIFT",
            "DEFAULT_BUDGET",
            "FAMILIES",
        ),
        "families",
    ),
    **dict.fromkeys(
        (
            "ClassificationReport",
            "ClassLabel",
            "CompletenessReport",
            "classify",
            "completeness_check",
            "expected_trace_values",
            "generate",
            "iter_constant_idempotent_entries",
            "make_label",
            "validate_label",
        ),
        "classify",
    ),
    **dict.fromkeys(
        (
            "Mat2Poly",
            "idempotency_equations_hold",
            "load_matrix",
            "matrix_from_document",
            "matrix_to_document",
            "read_matrix",
            "save_matrix",
        ),
        "mat2",
    ),
    **dict.fromkeys(
        ("Modulus", "factor_squarefree", "is_prime", "mod_inverse", "mod_pow"),
        "modarith",
    ),
    **dict.fromkeys(("Poly", "divide_coeffs", "parse_poly"), "polyring"),
    **dict.fromkeys(
        (
            "FormulaEntry",
            "FormulaReport",
            "TraceCandidateSet",
            "closed_form_trace_solutions",
            "formula_discrepancy_survey",
            "trace_candidates",
        ),
        "quadcong",
    ),
    **dict.fromkeys(
        (
            "MAX_ENUMERATED_PRIMES",
            "ExponentVariantRow",
            "enumerate_idempotents",
            "euler_closed_form",
            "exponent_variant_check",
            "nontrivial_idempotents",
            "pattern_of",
            "poly_idempotents_bruteforce",
        ),
        "znring",
    ),
}

# Submodules reachable as attributes of the package; of these only errors
# is exported by name.
_SUBMODULES = ("errors", "mat2", "modarith", "polyring", "quadcong", "znring")

__all__ = ["errors", *_HOME]


def __getattr__(name):
    if name in _HOME:
        value = getattr(_submodule(_HOME[name]), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


def _submodule(name):
    from importlib import import_module

    return import_module(f"{__name__}.{name}")


class _Package(ModuleType):
    """The package's module type: the import system binds each submodule it
    loads onto the package, and a name the package exports from that
    submodule (classify) keeps the exported object, not the module."""

    def __setattr__(self, name, value):
        if name in _HOME and isinstance(value, ModuleType):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
