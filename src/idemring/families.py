"""The seven template family names and the default budget of a matrix sweep.

``classify`` reads them from here, and so does the command line's grammar
(``generate``'s choices, ``oracle``'s ``--budget`` default), which can then
offer them without loading the classifier.
"""

DET0_GENERAL = "det0-general"
DET0_SCALED = "det0-scaled"
DETPAIR_SCALAR = "detpair-scalar"
DETPAIR_SHIFT = "detpair-shift"
DETPAIR_MIXED = "detpair-mixed"
DETSINGLE_SCALAR = "detsingle-scalar"
DETSINGLE_SHIFT = "detsingle-shift"

FAMILIES = (
    DET0_GENERAL,
    DET0_SCALED,
    DETPAIR_SCALAR,
    DETPAIR_SHIFT,
    DETPAIR_MIXED,
    DETSINGLE_SCALAR,
    DETSINGLE_SHIFT,
)

DEFAULT_MATRIX_BUDGET = 125_000_000  # n**3 states, i.e. n <= 500
