"""Exception types shared across the library."""

__all__ = ["AccuracyError", "DegenerateDenominatorError", "UnsupportedConfigError"]


class UnsupportedConfigError(ValueError):
    """Raised when a (d, n) configuration falls outside the supported regime."""


class AccuracyError(RuntimeError):
    """Raised when a numerical evaluation cannot meet its accuracy contract.

    For failed quadrature refinement, carries the last two estimates so
    callers can inspect how far apart they were.
    """

    def __init__(self, message: str, last_two: tuple | None = None):
        if last_two is not None:
            message = f"{message} (last two values: {last_two[0]!r}, {last_two[1]!r})"
        super().__init__(message)
        self.last_two = last_two


class DegenerateDenominatorError(ZeroDivisionError):
    """Raised when a frequency denominator is too small to divide by."""
