"""Exception types shared across the package.

Plain ``ValueError`` is used for bad numeric inputs (non-finite values,
shape mismatches, violated preconditions). The classes below exist where
callers need to distinguish failure modes, e.g. the CLI maps ConfigError
to exit code 2 and everything else to 1.
"""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


def check_count(name: str, value) -> None:
    """Refuse ``value`` unless it is an int >= 0 (a bool is not an int)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{name} must be an int >= 0, not {value!r}")


class DataFormatError(ValueError):
    """Malformed data file. Carries a line number when one is known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ProtocolError(RuntimeError):
    """A training/evaluation protocol rule was violated (e.g. overlapping
    meta-train and meta-test domains)."""


class NumericsError(ArithmeticError):
    """A numeric computation produced non-finite values."""
