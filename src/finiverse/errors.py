"""Exception family shared by every module.

Each exception carries a short machine-readable ``code`` string so the
command-line layer can map failures onto stable JSON error objects
without parsing messages.
"""

from __future__ import annotations

import functools
import math
import re
import sys
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
    """Base class; ``code`` identifies the failure kind, and ``witness``,
    when not None, is machine-readable evidence of the failure."""

    code = "Error"

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


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


class SpecMismatchError(FiniverseError, ValueError):
    """Operands belong to two different algebraic structures."""

    code = "SpecMismatch"


class DimMismatchError(FiniverseError, ValueError):
    """Operands have different numbers of coordinates.

    ``witness`` is ``{"expected": n, "got": m}``: the count the field, the
    space or the first operand fixes, and the count given.
    """

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


class RangeLimitError(FiniverseError, ValueError):
    """An index lies outside the supported table range."""

    code = "RangeLimit"


class CapacityOverflowError(FiniverseError, OverflowError):
    """An exact integer result would be too large to materialize.

    ``witness`` is ``{"requested": bits, "cap": CAPACITY_BITS}``, both in
    bits: the estimated size of the result and the largest size allowed.
    """

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
    """Halving the integrator step moved the endpoint beyond tolerance.

    ``witness`` is ``{"relative_difference": r, "tolerance": tol, "step":
    h}``: the endpoint's relative change on halving, the largest change
    allowed, and the step that was too large.
    """

    code = "StepTooLarge"


class UsageError(FiniverseError, ValueError):
    """Malformed command line (unknown action, bad flag, missing value)."""

    code = "Usage"


# -- argument validation ------------------------------------------------------
# Each argument rule has one check, which names a refused value through
# ``_printable`` (a long int by its bit length, a long str by a prefix): a
# number, ``_real`` or ``_integer`` (no bool, non-number, NaN or infinity;
# ``_finite`` for a float formula's result); a size, ``_at_most``; a result's
# bit size, ``_within_capacity``; a rational coordinate's text,
# ``_read_rational`` (malformed is InvalidInput whatever its exponent), and an
# integer's text, ``_integer_digits``, both on the one pattern ``_RATIONAL``; a
# prime, ``fields._prime``; a dimension and coordinate count, ``fields._Space``;
# a Bernoulli index, ``regularization.bernoulli``.

#: bit-size guard for exact integer results
CAPACITY_BITS = 4_000_000


def _real(value, what: str, low=None, *, above: bool = False):
    """``value`` unchanged when it is a finite real number (not a bool)
    no less than ``low``, or greater than ``low`` when ``above``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or not -math.inf < value < math.inf  # false for NaN; exact for huge ints
        or (low is not None and (value <= low if above else value < low))
    ):
        value, low = _printable(value), _printable(low)
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
        raise InvalidInputError(f"{what} must be an integer {bound}, got {_printable(value)!r}")
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


#: the most decimal digits ``str`` converts, 0 for no limit (as before 3.10.7)
_str_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _str_digits(value) -> int:
    """The decimal digit count of an int too long for ``str``, else 0."""
    cap = _str_limit()
    if type(value) is not int or not cap or abs(value).bit_length() <= 3 * cap:  # < 8**cap
        return 0
    digits = int(math.log10(abs(value)))  # the count, or one below it
    digits += abs(value) >= 10**digits
    return digits if digits > cap else 0


#: the text CPython 3.11's ``Fraction`` reads, kept on every version so that
#: what is accepted does not depend on the interpreter (3.12 also reads
#: whitespace next to "/"): a sign, integers with single underscores, then a
#: denominator or a decimal part and an exponent, whitespace around it all
_RATIONAL = re.compile(r"""\s* [-+]? (?=\.?\d) (?P<num> (?:\d+(?:_\d+)*)? )
    (?: / (?P<den> \d+(?:_\d+)* )
      | (?: \. (?P<dec> (?:\d+(?:_\d+)*)? ) )? (?: [eE] (?P<exp> [-+]?\d+(?:_\d+)* ) )?
    ) \s*""", re.VERBOSE)


def _read_rational(text: str) -> tuple[int, int] | None:
    """For text ``Fraction`` reads, the digits of its longest integer (no
    underscores) and its mantissa characters plus |exponent|, a bound on its
    decimal digits (0 for an exponent past the str() limit); else None."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        return None
    num, den, dec, exp = m.group("num", "den", "dec", "exp")
    longest = max(len(s) - s.count("_") for s in (num, den, dec, exp and exp.lstrip("+-")) if s)
    try:
        return longest, (m.start("exp") - 1 if exp else len(text)) + abs(int(exp or 0))
    except ValueError:
        return longest, 0


def _integer_digits(text: str) -> int | None:
    """For text ``_RATIONAL`` reads as an integer, the digits int() counts in
    it (underscores not counted); else None."""
    m = _RATIONAL.fullmatch(text)
    if m is None or m.group("den", "dec", "exp") != (None, None, None):
        return None
    return len(m["num"]) - m["num"].count("_")


def _printable(value):
    """``value``, or ``"<b-bit integer>"`` for an int too long for ``str``, or
    for a str of n > 64 characters its first 64 and ``"...<n characters>"``;
    a tuple or list label the same, item by item at any depth."""
    if type(value) in (tuple, list):
        return type(value)(map(_printable, value))
    if isinstance(value, str) and len(value) > 64:
        return f"{value[:64]}...<{len(value)} characters>"
    return f"<{value.bit_length()}-bit integer>" if _str_digits(value) else value


def _at_most(n: int, cap: int, message: str, error=SizeLimitError, **details) -> None:
    """``error`` (SizeLimitError by default) when ``n > cap``, with witness
    ``{"requested": n, "cap": cap}``.  ``message`` is a template over ``n``,
    ``cap`` and ``details``, formatted only on refusal, each value through
    ``_printable``; the witness keeps ``n`` exact."""
    if n > cap:
        shown = {key: _printable(v) for key, v in dict(details, n=n, cap=cap).items()}
        raise error(message.format(**shown), witness={"requested": n, "cap": cap})


def _within_capacity(bits: int, what: str, **details) -> None:
    """CapacityOverflowError, through ``_at_most``, when an exact result of
    ``bits`` bits would exceed CAPACITY_BITS."""
    message = what + " would exceed {cap} bits"
    _at_most(bits, CAPACITY_BITS, message, CapacityOverflowError, **details)
