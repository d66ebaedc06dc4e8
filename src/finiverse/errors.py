"""Exception family shared by every module.

Each exception carries a short machine-readable ``code`` string so the
command-line layer can map failures onto stable JSON error objects
without parsing messages.
"""

from __future__ import annotations

import functools
import math
from numbers import Real

__all__ = [
    "FiniverseError",
    "NotPrimeError",
    "NotAFieldError",
    "SpecMismatchError",
    "DimMismatchError",
    "DivisionByZeroError",
    "SizeLimitError",
    "RangeLimitError",
    "CapacityOverflowError",
    "InvalidInputError",
    "MalformedTableError",
    "MalformedStructureError",
    "TooFewPointsError",
    "CurvatureUnsupportedError",
    "NonPositiveScaleFactorError",
    "StepTooLargeError",
    "UsageError",
]


class FiniverseError(Exception):
    """Base class; ``code`` identifies the failure kind."""

    code = "Error"


class NotPrimeError(FiniverseError, ValueError):
    """A characteristic argument was not a prime number."""

    code = "NotPrime"


class NotAFieldError(FiniverseError, ValueError):
    """The requested construction is only a ring, not a field.

    ``witness`` holds a pair of nonzero elements whose product is zero
    (or a single element without a multiplicative inverse) proving the
    failure; ``witness`` may be None when no certificate was computed.
    """

    code = "NotAField"

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class SpecMismatchError(FiniverseError, ValueError):
    """Operands belong to two different algebraic structures."""

    code = "SpecMismatch"


class DimMismatchError(FiniverseError, ValueError):
    """Operands have different numbers of coordinates."""

    code = "DimMismatch"


class DivisionByZeroError(FiniverseError, ZeroDivisionError):
    """Multiplicative inverse of the zero element was requested."""

    code = "DivisionByZero"


class SizeLimitError(FiniverseError, ValueError):
    """An exhaustive enumeration would exceed the configured cap.

    ``witness`` is ``{"requested": n, "cap": cap}``: the size asked for
    and the largest size allowed.
    """

    code = "SizeLimit"

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class RangeLimitError(FiniverseError, ValueError):
    """An index lies outside the supported table range."""

    code = "RangeLimit"


class CapacityOverflowError(FiniverseError, OverflowError):
    """An exact integer result would be too large to materialize."""

    code = "Overflow"


class InvalidInputError(FiniverseError, ValueError):
    """An argument fails basic domain validation."""

    code = "InvalidInput"


class MalformedTableError(FiniverseError, ValueError):
    """A distance table is missing entries or holds non-numeric data."""

    code = "MalformedTable"


class MalformedStructureError(FiniverseError, ValueError):
    """An incidence structure references unknown points or tiny lines."""

    code = "MalformedStructure"


class TooFewPointsError(FiniverseError, ValueError):
    """A configuration search needs more input points."""

    code = "TooFewPoints"


class CurvatureUnsupportedError(FiniverseError, ValueError):
    """A closed-form expression only holds for flat spatial sections."""

    code = "CurvatureUnsupported"


class NonPositiveScaleFactorError(FiniverseError, ValueError):
    """The integrated scale factor left the physical region a > 0."""

    code = "NonPositiveScaleFactor"


class StepTooLargeError(FiniverseError, ValueError):
    """Halving the integrator step moved the endpoint beyond tolerance."""

    code = "StepTooLarge"


class UsageError(FiniverseError, ValueError):
    """Malformed command line (unknown action, bad flag, missing value)."""

    code = "Usage"


# -- argument validation ------------------------------------------------------
# Every library boundary checks numeric arguments through these two, so the
# rules (no bool, no non-number, no NaN or infinity) and the message agree.


def _real(value, what: str, low=None, *, above: bool = False):
    """``value`` unchanged when it is a finite real number (not a bool)
    no less than ``low``, or greater than ``low`` when ``above``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or not -math.inf < value < math.inf  # false for NaN; exact for huge ints
        or (low is not None and (value <= low if above else value < low))
    ):
        bound = "" if low is None else f" {'>' if above else '>='} {low}"
        raise InvalidInputError(f"{what} must be a finite real number{bound}, got {value!r}")
    return value


def _integer(value, what: str, low: int, high: int | None = None) -> int:
    """``value`` unchanged when it is an int (not a bool) in low..high."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < low
        or (high is not None and value > high)
    ):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise InvalidInputError(f"{what} must be an integer {bound}, got {value!r}")
    return value


def _finite(what: str, low=None, *, above: bool = False):
    """Decorate a float formula so that a float overflow (``**`` and ``exp``
    raise, ``*`` gives inf), a division by an underflowed zero, or a result
    ``_real`` rejects is InvalidInput; typed errors pass through unchanged."""

    def decorate(formula):
        @functools.wraps(formula)
        def checked(*args, **kwargs):
            try:
                value = formula(*args, **kwargs)
            except FiniverseError:
                raise
            except (OverflowError, ZeroDivisionError):
                raise InvalidInputError(f"{what} is outside the float range") from None
            return _real(value, what, low, above=above)

        return checked

    return decorate
