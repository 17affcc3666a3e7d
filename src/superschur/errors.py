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
    """Column labels break the layout of a built adapted basis: each shape
    a partition of n with at most d*d rows and its labels contiguous,
    tableau indices in range, at most ``weyl_dimension(shape, d*d)``
    columns per tableau index, and ``weight_index`` counting up from 0.
    ``column`` is the index of the first label at fault."""

    def __init__(self, message: str, column: int):
        super().__init__(message)
        self.column = column


class BlockStructureError(SuperSchurError):
    """A matrix does not have the block structure an operation requires."""


class InternalConsistencyError(SuperSchurError):
    """A self-check inside the library failed; indicates a bug, not bad input."""
