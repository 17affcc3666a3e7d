"""Exception hierarchy shared across the package."""


class SuperSchurError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(SuperSchurError):
    """Operands refer to different local dimensions or site counts."""


class SizeGuardError(SuperSchurError):
    """A requested dense object would exceed the configured size limit."""


class ChannelSpecError(SuperSchurError):
    """A channel description file is malformed or incomplete."""


class ChannelInvariantError(SuperSchurError):
    """Channel data violates a structural requirement (closure,
    orthogonality, hermiticity, ...)."""


class BasisLayoutError(SuperSchurError, ValueError):
    """A dense basis matrix is not block diagonal over the letter-content
    classes of its column labels.  ``row`` and ``column`` locate the
    offending entry or column when there is one, and are None otherwise."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class BlockStructureError(SuperSchurError):
    """A matrix does not have the block structure an operation requires."""


class InternalConsistencyError(SuperSchurError):
    """A self-check inside the library failed; indicates a bug, not bad input."""
