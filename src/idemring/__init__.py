"""Idempotents of Z_n, Z_n[x], and the 2x2 matrix ring over Z_n[x].

For squarefree n the idempotents of Z_n are the 2**m CRT combinations of
0/1 choices at the prime factors, the polynomial ring contributes nothing
new, and for n = p*q*r with primes above 3 every non-trivial idempotent
2x2 matrix over Z_n[x] falls into one of seven template families keyed by
its determinant and trace.  This package computes, generates and
brute-force verifies all of that.
"""

from . import errors
from .classify import (
    DET0_GENERAL,
    DET0_SCALED,
    DETPAIR_MIXED,
    DETPAIR_SCALAR,
    DETPAIR_SHIFT,
    DETSINGLE_SCALAR,
    DETSINGLE_SHIFT,
    DEFAULT_MATRIX_BUDGET,
    FAMILIES,
    ClassificationReport,
    ClassLabel,
    CompletenessReport,
    classify,
    completeness_check,
    expected_trace_values,
    generate,
    iter_constant_idempotent_entries,
    make_label,
    validate_label,
)
from .mat2 import (
    Mat2Poly,
    idempotency_equations_hold,
    load_matrix,
    matrix_from_document,
    matrix_to_document,
    read_matrix,
    save_matrix,
)
from .modarith import (
    Modulus,
    crt_combine,
    factor_squarefree,
    is_prime,
    mod_inverse,
    mod_pow,
)
from .polyring import Poly, coeffs_divisible, divide_coeffs, parse_poly
from .quadcong import (
    FormulaEntry,
    FormulaReport,
    TraceCandidateSet,
    closed_form_trace_solutions,
    formula_discrepancy_survey,
    trace_candidates,
)
from .znring import (
    DEFAULT_POLY_BUDGET,
    MAX_ENUMERATED_PRIMES,
    ExponentVariantRow,
    enumerate_idempotents,
    euler_closed_form,
    exponent_variant_check,
    nontrivial_idempotents,
    pattern_of,
    poly_idempotents_bruteforce,
)

__version__ = "0.1.0"
