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
    tracelessness, hermiticity, ...)."""


class BlockStructureError(SuperSchurError):
    """A matrix does not have the block structure an operation requires."""


class InternalConsistencyError(SuperSchurError):
    """A self-check inside the library failed; indicates a bug, not bad input."""
