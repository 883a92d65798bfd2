"""Exception hierarchy and config field checks shared across the package.

The split matters for the CLI: ``DataError`` subclasses map to exit code 2,
``NumericError`` and ``TrainingError`` to exit code 3.
"""


class AnnodistError(Exception):
    """Base class for all package errors."""


class DataError(AnnodistError):
    """Invalid or unusable input data."""


class DomainError(DataError, ValueError):
    """Argument outside a function's mathematical domain."""


class InsufficientDataError(DataError):
    """Too few samples, annotators, or subjects to proceed."""


class SchemaError(DataError):
    """Malformed input file; message carries file and line context."""


class EmptyDatasetError(DataError):
    """A join or filter produced an empty dataset."""


class NumericError(AnnodistError, ArithmeticError):
    """An iterative routine failed to converge.

    ``bracket`` holds the last (lo, hi) search interval when applicable.
    """

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        super().__init__(message)
        self.bracket = bracket


class TrainingError(AnnodistError):
    """Model training aborted (non-finite gradients, empty split, ...)."""


# Field rules: ``(test, text)`` pairs; ``test(value)`` is true for a valid
# value, and ``text`` completes "<field> must be ...".  NaN fails every rule.
POSITIVE = (lambda v: v > 0, "positive")
DISTINCT = (lambda v: len(set(v)) == len(v), "free of repeats")


def at_least(lo):
    return (lambda v: v >= lo), f">= {lo}"


def one_of(options: tuple):
    return (lambda v: v in options), f"one of {options}"


def subset_of(options: tuple):
    return (lambda v: set(v) <= set(options)), f"drawn from {options}"


def check(owner: str, name: str, value, rule) -> None:
    """Raise :class:`DomainError` naming ``name`` and ``value`` unless the
    value passes ``rule``."""
    test, text = rule
    if not test(value):
        raise DomainError(f"{owner}: {name} must be {text}, got {value!r}")


def check_fields(obj, **rules) -> None:
    """:func:`check` each named field of ``obj`` against its rule, in order."""
    for name, rule in rules.items():
        check(type(obj).__name__, name, getattr(obj, name), rule)
