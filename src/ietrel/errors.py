"""Exception types shared across the package, and `shown`, the one way a
message quotes input."""

# The most characters of a value's repr that a message quotes: input can be
# as long as a file, and a message that echoed it whole would be as long.
SHOWN_CHARS = 40


def shown(value) -> str:
    """repr(value), or, past SHOWN_CHARS characters, its first SHOWN_CHARS
    and the value's length."""
    text = repr(value)
    if len(text) <= SHOWN_CHARS:
        return text
    return f"{text[:SHOWN_CHARS]}... (length {len(value)})"


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
