"""Affine geometry over finite fields, plus exact rational-plane tools.

The central quantity is the squared distance between coordinate tuples,
a field element computed without square roots.  Over many finite fields
the squared distance degenerates: distinct points at squared distance
zero.  This module finds such pairs, enumerates full line sets and
incidence structures, tests the every-line-through-two-points-has-a-third
property, searches exact rational point sets for ordinary (two-point)
lines, and runs metric-axiom checks on arbitrary distance tables.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Hashable, Mapping, Optional, Sequence

from .errors import (
    CapacityOverflowError,
    DimMismatchError,
    InvalidInputError,
    MalformedStructureError,
    MalformedTableError,
    SizeLimitError,
    TooFewPointsError,
    _finite,
    _integer,
    _real,
)
from .fields import AxiomCheck, FieldElement, FieldSpec, FieldVector, element_index

__all__ = [
    "LINE_CAP",
    "CAPACITY_BITS",
    "AffineSpace",
    "Line",
    "IncidenceStructure",
    "HesseCheck",
    "RationalPoint",
    "OrdinaryLineResult",
    "MetricReport",
    "COLLINEAR",
    "ORDINARY",
    "squared_distance",
    "find_degenerate_pair",
    "enumerate_lines",
    "incidence_structure",
    "check_hesse_property",
    "find_ordinary_line",
    "check_metric_axioms",
    "squared_distance_table",
    "euclidean_distance_table",
    "pointset_cardinality",
    "subspace_diameter",
]

#: largest point count for which full line enumeration is attempted
LINE_CAP = 2**16

#: bit-size guard for exact integer powers
CAPACITY_BITS = 4_000_000


@dataclass(frozen=True)
class AffineSpace:
    """The coordinate space of dim-tuples over a finite field."""

    spec: FieldSpec
    dim: int

    def __post_init__(self):
        _integer(self.dim, "dimension", 1)

    @property
    def point_count(self) -> int:
        return self.spec.order**self.dim

    def points(self) -> list[FieldVector]:
        """All points; first coordinate varies slowest, so the origin
        comes first and orderings agree with coordinate index keys."""
        if self.point_count > LINE_CAP:
            raise SizeLimitError(
                f"{self.point_count} points exceed the enumeration cap {LINE_CAP}"
            )
        elems = self.spec.elements()
        return [FieldVector(c) for c in product(elems, repeat=self.dim)]

    def point(self, values: Sequence) -> FieldVector:
        if len(values) != self.dim:
            raise DimMismatchError(f"expected {self.dim} coordinates, got {len(values)}")
        return FieldVector(tuple(self.spec.element(v) for v in values))

    def __str__(self):
        return f"AG({self.dim},{self.spec.order})"


def squared_distance(a: FieldVector, b: FieldVector) -> FieldElement:
    """Sum of squared coordinate differences, an exact field element.

    No square root is taken: over a finite field the squared form is
    the only well-defined separation quantity.
    """
    if not isinstance(a, FieldVector) or not isinstance(b, FieldVector):
        raise InvalidInputError("squared_distance expects two points")
    a._check(b)
    diff = (x - y for x, y in zip(a.coords, b.coords))
    total = a.spec.zero
    for d in diff:
        total = total + d * d
    return total


def find_degenerate_pair(space: AffineSpace) -> Optional[tuple[FieldVector, FieldVector]]:
    """First pair of distinct points at squared distance zero, or None.

    Translating a pair (x, y) by -x preserves the squared distance, so a
    degenerate pair exists iff one with first member at the origin does;
    the origin is also the first point the naive double scan would try.
    Scanning only (origin, y) therefore returns exactly the naive scan's
    first hit in O(N) evaluations instead of O(N^2).
    """
    points = space.points()
    origin = points[0]
    for y in points[1:]:
        if squared_distance(origin, y).is_zero:
            return (origin, y)
    return None


@dataclass(frozen=True, eq=False)
class Line:
    """An affine line: base point, canonical direction, and its points.

    The direction is normalized so its first nonzero coordinate is one,
    and the base is the enumeration-smallest point on the line.  Lines
    compare equal iff they contain the same point set.
    """

    base: FieldVector
    direction: FieldVector
    points: tuple[FieldVector, ...]

    def __eq__(self, other):
        if not isinstance(other, Line):
            return NotImplemented
        return frozenset(self.points) == frozenset(other.points)

    def __hash__(self):
        return hash(frozenset(self.points))

    def __contains__(self, point: FieldVector) -> bool:
        return point in self.points

    def __len__(self):
        return len(self.points)

    def __str__(self):
        return f"line {self.base} + t*{self.direction}"


def _canonical_directions(points: list[FieldVector]) -> list[FieldVector]:
    """One representative per parallel class: first nonzero coord is 1."""
    return [pt for pt in points if next((n for n in pt.index_key() if n), 0) == 1]


def _point_id(pt: FieldVector, q: int) -> int:
    """Position of a point in ``AffineSpace.points`` order: its coordinate
    indices as base-q digits, first coordinate most significant."""
    n = 0
    for c in pt.coords:
        n = n * q + c._index
    return n


def enumerate_lines(space: AffineSpace) -> list[Line]:
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
    elems = space.spec.elements()
    q = len(elems)
    lines: list[Line] = []
    for direction in _canonical_directions(points):
        assigned = bytearray(len(points))
        for i, base in enumerate(points):
            if assigned[i]:
                continue
            members = [base + direction.scale(t) for t in elems]
            for m in members:
                assigned[_point_id(m, q)] = 1
            members.sort(key=FieldVector.index_key)
            lines.append(Line(base=members[0], direction=direction, points=tuple(members)))
    return lines


@dataclass(frozen=True)
class IncidenceStructure:
    """Points (arbitrary hashable ids) with lines as id sets."""

    points: tuple
    lines: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        lns = tuple(frozenset(l) for l in self.lines)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "lines", lns)
        seen = set(pts)
        if len(seen) != len(pts):
            raise MalformedStructureError("duplicate point identifiers")
        for ln in lns:
            if len(ln) < 2:
                raise MalformedStructureError(f"line {sorted(ln)} has fewer than two points")
            if not ln <= seen:
                raise MalformedStructureError(
                    f"line references unknown points {sorted(ln - seen)}"
                )

    def lines_through(self, point) -> list[frozenset]:
        return [ln for ln in self.lines if point in ln]

    def point_degrees(self) -> dict:
        return {p: len(self.lines_through(p)) for p in self.points}


def incidence_structure(space: AffineSpace) -> IncidenceStructure:
    """Abstract incidence data of a space: integer point ids in
    enumeration order, each line a frozenset of ids."""
    q = space.spec.order
    lines = tuple(frozenset(_point_id(pt, q) for pt in ln.points) for ln in enumerate_lines(space))
    return IncidenceStructure(points=tuple(range(space.point_count)), lines=lines)


@dataclass(frozen=True)
class HesseCheck:
    """Result of the third-point property test.

    ``holds`` is True when every line through two distinct points
    contains at least a third; otherwise ``witness`` is an offending
    point pair and ``detail`` says what went wrong.
    """

    holds: bool
    witness: Optional[tuple] = None
    detail: str = ""


def check_hesse_property(structure: IncidenceStructure) -> HesseCheck:
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


# ---------------------------------------------------------------------------
# exact rational plane
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalPoint:
    """Plane point with exact rational coordinates (floats rejected)."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        for name in ("x", "y"):
            v = getattr(self, name)
            if isinstance(v, float):
                raise InvalidInputError("exact rational coordinates required, not float")
            object.__setattr__(self, name, Fraction(v))

    def __str__(self):
        return f"({self.x}, {self.y})"


COLLINEAR = "collinear"
ORDINARY = "ordinary"


@dataclass(frozen=True)
class OrdinaryLineResult:
    """Outcome of the ordinary-line search on a rational point set.

    status is COLLINEAR when all points lie on one line, else ORDINARY
    with ``pair`` the indices spanning a two-point line and ``line`` the
    exact coefficients (a, b, c) of a*x + b*y + c = 0 through them.
    """

    status: str
    pair: Optional[tuple[int, int]] = None
    line: Optional[tuple[Fraction, Fraction, Fraction]] = None


def _cross(o: RationalPoint, a: RationalPoint, b: RationalPoint) -> Fraction:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def find_ordinary_line(points: Sequence[RationalPoint]) -> OrdinaryLineResult:
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


# ---------------------------------------------------------------------------
# metric axiom battery on explicit tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricReport:
    """M1..M4 outcomes for a distance table: non-negativity, symmetry,
    zero distance only for identical points, triangle inequality."""

    checks: dict

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def failing(self) -> list[str]:
        return [name for name, c in self.checks.items() if not c.passed]


def check_metric_axioms(labels: Sequence[Hashable], table: Mapping) -> MetricReport:
    """Check the four metric axioms on an explicit distance table.

    ``table`` maps ordered label pairs to real values; every ordered
    pair must be present.  ``math.inf`` is a legal saturating distance.
    Exact inputs (int, Fraction) are compared exactly; no tolerance is
    applied anywhere.
    """
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise MalformedTableError("duplicate labels")

    def d(x, y):
        try:
            v = table[(x, y)]
        except (KeyError, TypeError):
            raise MalformedTableError(f"missing entry for pair ({x}, {y})") from None
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise MalformedTableError(f"non-numeric distance {v!r} for ({x}, {y})")
        if isinstance(v, float) and math.isnan(v):
            raise MalformedTableError(f"NaN distance for ({x}, {y})")
        return v

    checks: dict[str, AxiomCheck] = {}

    witness = None
    for x in labels:
        for y in labels:
            if d(x, y) < 0:
                witness = (x, y)
                break
        if witness:
            break
    checks["M1"] = AxiomCheck(witness is None, witness)

    witness = None
    for i, x in enumerate(labels):
        for y in labels[i + 1 :]:
            if d(x, y) != d(y, x):
                witness = (x, y)
                break
        if witness:
            break
    checks["M2"] = AxiomCheck(witness is None, witness)

    witness = None
    for x in labels:
        if d(x, x) != 0:
            witness = (x, x)
            break
    if witness is None:
        for i, x in enumerate(labels):
            for y in labels[i + 1 :]:
                if d(x, y) == 0:
                    witness = (x, y)
                    break
            if witness:
                break
    checks["M3"] = AxiomCheck(witness is None, witness)

    witness = None
    for x in labels:
        for y in labels:
            for z in labels:
                if d(x, z) > d(x, y) + d(y, z):
                    witness = (x, y, z)
                    break
            if witness:
                break
        if witness:
            break
    checks["M4"] = AxiomCheck(witness is None, witness)

    return MetricReport(checks=checks)


def squared_distance_table(space: AffineSpace) -> tuple[list[int], dict]:
    """Integer-labeled squared-distance table for a whole space.

    Labels are point indices; values are the enumeration indices of the
    squared-distance field elements, so value 0 means squared distance
    zero in the field.
    """
    points = space.points()
    labels = list(range(len(points)))
    table = {}
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            table[(i, j)] = element_index(squared_distance(a, b))
    return labels, table


def euclidean_distance_table(points: Sequence[RationalPoint]) -> tuple[list[int], dict]:
    """Float Euclidean distances between exact rational plane points."""
    labels = list(range(len(points)))
    table = {}
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            table[(i, j)] = math.hypot(float(a.x - b.x), float(a.y - b.y))
    return labels, table


# ---------------------------------------------------------------------------
# cardinality and diameter laws
# ---------------------------------------------------------------------------


def pointset_cardinality(order: int, dim: int) -> int:
    """Number of dim-tuples over a set of the given order: order**dim."""
    _integer(order, "order", 2)
    _integer(dim, "dimension", 1)
    if dim * order.bit_length() > CAPACITY_BITS:
        raise CapacityOverflowError(
            f"{order}**{dim} would exceed {CAPACITY_BITS} bits"
        )
    return order**dim


@_finite("diameter")
def subspace_diameter(step: float, order: int):
    """Largest separation reachable in a discrete segment of the given
    order when adjacent points sit one step apart: step * (order - 1)."""
    _integer(order, "order", 2)
    _real(step, "step", 0, above=True)
    return step * (order - 1)
