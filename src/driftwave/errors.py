"""Exception types shared across the package."""


class DriftwaveError(Exception):
    """Base class for all library errors."""


class NonPowerOfTwo(DriftwaveError):
    """Transform length must be 2**k with k >= 1."""


class LengthMismatch(DriftwaveError):
    """Vector length does not match the transform size."""


class TooShort(DriftwaveError):
    """Input series has too few observations."""


class DomainError(DriftwaveError):
    """Parameters leave the formula's domain (e.g. log of a non-positive value)."""


class NonDyadicLength(DriftwaveError):
    """Ground-truth vector length must be a power of two."""


class BadWindow(DriftwaveError):
    """Window size outside [1, len(series)]."""


class EmptyPanel(DriftwaveError):
    """Loss panel contains no series."""


class RaggedPanel(DriftwaveError):
    """Loss series in one panel have unequal lengths."""


class ParseError(DriftwaveError):
    """Malformed input file."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NonFiniteValue(DriftwaveError):
    """NaN or infinite value where a finite number is required.

    ``line`` is the input-file line for parsers, None for library calls.
    """

    def __init__(self, message: str, *, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
