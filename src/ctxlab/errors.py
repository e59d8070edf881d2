"""Exception types shared across the package."""

# Longest text of an offending value that a refusal shows whole.
SHOWN_CHARS = 200


class ToolError(Exception):
    """Base class for all errors raised by ctxlab operations."""


class InputError(ToolError):
    """Malformed input: wrong shapes, unreadable files, bad parameters."""


class DomainError(ToolError):
    """Structurally valid input outside an operation's domain."""


class MixedObservableError(DomainError):
    """Correlation requested between a carrier function and a matrix observable."""


class CapExceeded(ToolError):
    """A configured size cap would be exceeded; carries a size report.

    ``size`` is the size asked for: an int, shown in full up to
    ``SHOWN_CHARS`` digits and past them by the power of two below it, or
    the text of a size too large to form, such as ``more than 10**4300``.
    """

    def __init__(self, message: str, size: int | str, cap: int):
        shown = size if isinstance(size, str) or size < 10**SHOWN_CHARS else f"at least 2**{size.bit_length() - 1}"
        super().__init__(f"{message} (size {shown} exceeds cap {cap})")
        self.size = size
        self.cap = cap
