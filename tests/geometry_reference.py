"""Reference double scan for degenerate point pairs.

The library's ``find_degenerate_pair`` scans only pairs that start at
the origin; this exhaustive scan over all ordered pairs is the oracle
it must agree with (small spaces only).
"""

from typing import Optional

from finiverse.fields import FieldVector
from finiverse.geometry import AffineSpace, squared_distance


def find_degenerate_pair_naive(space: AffineSpace) -> Optional[tuple[FieldVector, FieldVector]]:
    """Reference double scan over all ordered pairs (small spaces only)."""
    points = space.points()
    for i, x in enumerate(points):
        for y in points[i + 1 :]:
            if squared_distance(x, y).is_zero:
                return (x, y)
    return None
