"""Exception types shared across the package."""


class IetError(Exception):
    """Base class for all errors raised by this package."""


class ContextMismatchError(IetError):
    """Two scalars from incompatible quadratic contexts met in one expression."""


class ParseError(IetError):
    """Malformed textual input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PreconditionError(IetError):
    """An operation was called with arguments outside its domain."""


class SearchCapError(IetError):
    """A bounded search exhausted its cap, or an input exceeded a size cap."""


class InvariantError(IetError):
    """An internal invariant failed; indicates a bug, not bad input."""
