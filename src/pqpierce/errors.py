"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: MalformedInputError, EmptySetError
and CatalogError are 2, BudgetExhaustedError and SearchLimitError are
3, and any other exception is 4. Property and hypothesis failures are
not exceptions, they are ordinary report results (exit 1 at the CLI
layer).
"""


class PqPierceError(Exception):
    """Base class for package errors."""


class MalformedInputError(PqPierceError, ValueError):
    """An input value, shape, or file violates a documented precondition."""


class EmptySetError(PqPierceError):
    """An operation that needs a nonempty set received an empty one."""


class CatalogError(PqPierceError):
    """A catalog lookup required an exact entry that is not available."""


class SearchLimitError(PqPierceError):
    """A combinatorial search hit its caller-supplied limit."""


class BudgetExhaustedError(PqPierceError):
    """The LP-call budget for this run is spent."""
