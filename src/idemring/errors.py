"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` (the class name);
the CLI prints it on stderr as ``error: <CODE>: <message>`` and exits 1.
"""


class IdemringError(Exception):
    """Base class for domain errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class ModulusTooSmall(IdemringError):
    """A modulus below 2 was requested."""


class NotSquarefree(IdemringError):
    """A prime divides the modulus more than once."""


class NotFactorable(IdemringError):
    """Trial division left an unresolved cofactor beyond the bound."""


class NotCoprime(IdemringError):
    """Inverse requested for an element sharing a factor with the modulus."""


class WrongPrimeCount(IdemringError):
    """Operation requires a modulus with exactly three prime factors."""


class BudgetExceeded(IdemringError):
    """A brute-force scan would exceed the configured state budget."""


def charge(states: int, budget: int, what: str) -> None:
    """Raise BudgetExceeded, naming the states as what, when states exceed budget."""
    if states > budget:
        raise BudgetExceeded(f"{what} exceed budget {budget}")


class ModulusMismatch(IdemringError):
    """Operands live over different moduli."""


class NotConstant(IdemringError):
    """A constant value was requested from a non-constant polynomial."""


class NotIdempotentDet(IdemringError):
    """The supplied value is not an idempotent of Z_n."""


class PrimesOutOfScope(IdemringError):
    """Classification needs three distinct primes, all greater than 3."""


class UnsatisfiableParams(IdemringError):
    """Requested generator parameters cannot satisfy the side condition."""


class PolyParseError(IdemringError):
    """Polynomial text does not match the accepted grammar."""


class MatrixFormatError(IdemringError):
    """Matrix document violates the canonical wire format."""


class InternalTheoremViolation(IdemringError):
    """An internal consistency check failed; indicates a bug and is never swallowed."""
