"""The seven template family names and the default brute-force state budget.

``classify`` reads them from here, and so does the command line's grammar
(``generate``'s choices, the ``--budget`` default of ``oracle`` and
``verify``), which can then offer them without loading the classifier.
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

DEFAULT_BUDGET = 125_000_000  # states of any brute-force scan; a matrix sweep's n**3 fits for n <= 500
