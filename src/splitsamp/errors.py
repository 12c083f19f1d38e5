"""Exception types shared across the package."""


class SplitsampError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(SplitsampError, ValueError):
    """An input violates a documented precondition."""


class InvalidSizeError(InvalidInputError):
    """A requested sample size is outside the valid range."""


class PopulationFileError(SplitsampError, ValueError):
    """A population file cannot be parsed or fails validation."""


class ContractViolationError(SplitsampError, RuntimeError):
    """An internal probability contract failed at run time.

    Raised when step probabilities that must sum to one do not, when a
    candidate set violates the splitting constraints, or when an
    intermediate state leaves its admissible range.  These conditions
    indicate an implementation or capping bug, not bad user input.
    """


class RepresentationError(SplitsampError, ValueError):
    """A distribution cannot back the requested representation."""


class EnumerationBudgetError(SplitsampError, RuntimeError):
    """Exact enumeration would exceed the configured branch budget."""


class NotApplicableError(SplitsampError, ValueError):
    """The applicability condition of an operation is not met."""
