"""Element-level reference scans for the geometry and Hilbert kernels.

The library computes degenerate pairs, lines, the third-point property,
ordinary lines and isotropy on element and point indices.  These are the
direct element-level versions those kernels replaced, kept as the oracles
the library must agree with exactly (small inputs only):

* ``find_degenerate_pair_naive`` scans all ordered point pairs, where the
  library scans only pairs that start at the origin;
* ``enumerate_lines_naive`` adds ``base + t*direction`` as field vectors;
* ``check_hesse_property_naive`` intersects the line sets of every pair;
* ``find_ordinary_line_naive`` tests all n points against every pair,
  O(n^3);
* ``is_isotropic_naive`` sums ``conjugate(c) * c`` with element ``+``.

``euclidean_distance_table`` gives ``check_metric_axioms`` a table that is
a metric by construction.
"""

import math
from typing import Optional, Sequence

from finiverse.fields import FieldElement, FieldVector, element_index, enumerate_elements
from finiverse.geometry import (
    COLLINEAR,
    ORDINARY,
    LINE_CAP,
    AffineSpace,
    HesseCheck,
    IncidenceStructure,
    Line,
    OrdinaryLineResult,
    RationalPoint,
    squared_distance,
)
from finiverse.errors import InvalidInputError, SizeLimitError, TooFewPointsError
from finiverse.hilbert import norm_squared


def _index_key(point: FieldVector) -> tuple[int, ...]:
    """The coordinate indices of a point: its sort key in enumeration order."""
    return tuple(map(element_index, point))


def _canonical_directions(points: list[FieldVector]) -> list[FieldVector]:
    """One representative per parallel class: first nonzero coord is 1."""
    return [pt for pt in points if next((n for n in _index_key(pt) if n), 0) == 1]


def _point_id(coords: Sequence[FieldElement], q: int) -> int:
    """Position of a point in ``AffineSpace.points`` order: its coordinate
    indices as base-q digits, first coordinate most significant."""
    n = 0
    for c in coords:
        n = n * q + element_index(c)
    return n


def _cross(o: RationalPoint, a: RationalPoint, b: RationalPoint):
    """Twice the signed area of the triangle o, a, b: zero iff collinear."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def find_degenerate_pair_naive(space: AffineSpace) -> Optional[tuple[FieldVector, FieldVector]]:
    """Reference double scan over all ordered pairs (small spaces only)."""
    points = space.points()
    for i, x in enumerate(points):
        for y in points[i + 1 :]:
            if squared_distance(x, y).is_zero:
                return (x, y)
    return None


def enumerate_lines_naive(space: AffineSpace) -> list[Line]:
    """Every affine line, grouped by parallel class.

    For each canonical direction the space is partitioned into cosets
    of that direction's span, giving q^(dim-1) parallel lines per class
    and q^(dim-1) * (q^dim - 1)/(q - 1) lines in total.
    """
    if space.point_count > LINE_CAP:
        raise SizeLimitError(
            f"{space.point_count} points exceed the line-enumeration cap {LINE_CAP}"
        )
    points = space.points()
    elems = enumerate_elements(space.spec)
    q = len(elems)
    lines: list[Line] = []
    for direction in _canonical_directions(points):
        assigned = bytearray(len(points))
        for i, base in enumerate(points):
            if assigned[i]:
                continue
            members = [base + FieldVector(t * c for c in direction) for t in elems]
            for m in members:
                assigned[_point_id(m.coords, q)] = 1
            members.sort(key=_index_key)
            lines.append(Line(points=tuple(members)))
    return lines


def check_hesse_property_naive(structure: IncidenceStructure) -> HesseCheck:
    """Does every point pair lie on a line with at least three points?"""
    membership = {p: set() for p in structure.points}
    for li, ln in enumerate(structure.lines):
        for p in ln:
            membership[p].add(li)
    pts = structure.points
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            common = membership[x] & membership[y]
            if not common:
                return HesseCheck(False, (x, y), "no line through the pair")
            if all(len(structure.lines[li]) < 3 for li in common):
                return HesseCheck(False, (x, y), "every common line has only two points")
    return HesseCheck(True)


def find_ordinary_line_naive(points: Sequence[RationalPoint]) -> OrdinaryLineResult:
    """Find a line through exactly two of the given points.

    Exact arithmetic throughout; every pair is scanned and membership
    of all n points tested against it (O(n^3) worst case).  For a
    non-collinear set an ordinary line always exists, so the scan
    cannot come back empty.
    """
    pts = list(points)
    if len(pts) < 3:
        raise TooFewPointsError(f"need at least 3 points, got {len(pts)}")
    if len(set(pts)) != len(pts):
        raise InvalidInputError("points must be pairwise distinct")
    if all(_cross(pts[0], pts[1], r).numerator == 0 for r in pts[2:]):
        return OrdinaryLineResult(status=COLLINEAR)
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            on_line = sum(1 for k in range(n) if _cross(pts[i], pts[j], pts[k]) == 0)
            if on_line == 2:
                a = pts[j].y - pts[i].y
                b = pts[i].x - pts[j].x
                c = -(a * pts[i].x + b * pts[i].y)
                return OrdinaryLineResult(status=ORDINARY, pair=(i, j), line=(a, b, c))
    raise AssertionError("non-collinear rational set without an ordinary line")


def is_isotropic_naive(v: FieldVector) -> bool:
    """True for a nonzero vector whose norm-square vanishes."""
    return any(not c.is_zero for c in v.coords) and norm_squared(v).is_zero


def euclidean_distance_table(points: Sequence[RationalPoint]) -> tuple[list[int], dict]:
    """Float Euclidean distances between exact rational plane points."""
    labels = list(range(len(points)))
    table = {}
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            table[(i, j)] = math.hypot(float(a.x - b.x), float(a.y - b.y))
    return labels, table
