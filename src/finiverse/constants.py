"""Physical constants (SI, CODATA 2018) and unit helpers."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import _real

__all__ = ["Constants", "CODATA2018", "GIGAYEAR"]

#: seconds per Julian year (365.25 days)
JULIAN_YEAR = 3.15576e7

#: seconds per gigayear
GIGAYEAR = 1e9 * JULIAN_YEAR


@dataclass(frozen=True)
class Constants:
    """Bundle of physical constants used by the energy and cosmology code.

    All values are SI. ``l_planck`` and ``l_strong`` are reference length
    scales: the Planck length and the rough reach of the strong force.
    """

    hbar: float = 1.054571817e-34  # J s
    c: float = 2.99792458e8  # m / s
    G: float = 6.67430e-11  # m^3 / (kg s^2)
    l_planck: float = 1.616255e-35  # m
    l_strong: float = 1.0e-15  # m

    def __post_init__(self):
        for name in ("hbar", "c", "G", "l_planck", "l_strong"):
            _real(getattr(self, name), f"constant {name}", 0, above=True)


#: default constant set
CODATA2018 = Constants()
