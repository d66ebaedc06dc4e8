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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import Hashable, Mapping, Optional, Sequence

from .errors import (
    InvalidInputError,
    MalformedStructureError,
    MalformedTableError,
    TooFewPointsError,
    _at_most,
    _finite,
    _integer,
    _printable,
    _real,
    _within_capacity,
)
from .fields import (
    AxiomCheck,
    AxiomReport,
    FieldElement,
    FieldVector,
    _Space,
    _digitwise,
    _is_zero_sum,
    _spread,
    _vectors,
    element_index,
)

__all__ = [
    "LINE_CAP",
    "INCIDENCE_CAP",
    "AffineSpace",
    "Line",
    "IncidenceStructure",
    "HesseCheck",
    "RationalPoint",
    "OrdinaryLineResult",
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
    "pointset_cardinality",
    "subspace_diameter",
]

#: largest point count for which full line enumeration is attempted
LINE_CAP = 2**16

#: largest number of point-line incidences (q times the line count) that
#: enumerate_lines will build; its time and memory grow with this number
INCIDENCE_CAP = 2**19


class AffineSpace(_Space):
    """The coordinate space of dim-tuples over a finite field."""

    @property
    def point_count(self) -> int:
        return pointset_cardinality(self.spec.order, self.dim)

    def points(self) -> list[FieldVector]:
        """All points; first coordinate varies slowest, so the origin
        comes first and orderings agree with coordinate index keys."""
        _at_most(self.point_count, LINE_CAP, "{n} points exceed the enumeration cap {cap}")
        return _vectors(self.spec, self.dim)

    def point(self, values: Sequence) -> FieldVector:
        return self._coordinates(values)

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
    diff = (x - y for x, y in zip(a, b))
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

    The form is diagonal, so the squared distance of y from the origin
    is the sum, over y's coordinates, of the squared distance of the
    axis point (y_c, 0, ..., 0) from the origin.  Those q values are
    taken from ``squared_distance`` once, as spread element indices
    (``fields._spread``), and each y is scanned as the builtin ``sum`` of
    them over its coordinate indices.  The pair returned is two members
    of ``space.points()``.
    """
    points = space.points()
    spec = space.spec
    q, dim = spec.order, space.dim
    origin = points[0]
    axis = q ** (dim - 1)  # (e_i, 0, ..., 0) is points[i * axis]
    p, k = spec.p, spec.k
    term = [_spread(squared_distance(origin, points[i * axis])._index, p, k)
            for i in range(q)].__getitem__
    coords = product(range(q), repeat=dim)
    next(coords)  # the origin itself
    for n, y in enumerate(coords, 1):
        if _is_zero_sum(sum(map(term, y)), p):
            return (origin, points[n])
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

    #: sorted point ids of ``points``, set by enumerate_lines (not a dataclass field)
    _ids = None

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


def enumerate_lines(space: AffineSpace) -> list[Line]:
    """Every affine line, grouped by parallel class.

    For each canonical direction the space is partitioned into cosets
    of that direction's span, giving q^(dim-1) parallel lines per class
    and q^(dim-1) * (q^dim - 1)/(q - 1) lines in total.  A space whose
    lines hold more than ``INCIDENCE_CAP`` points in all (q times the
    line count) is refused before anything is built.

    Everything is built on point ids.  A point's id is its position in
    ``space.points()``: its coordinate indices as base-q digits, first
    coordinate most significant.  Read as k*dim base-p digits instead,
    ids add digit-wise like the points.  A direction d is canonical when
    its first nonzero coordinate, its pivot c, is one: the ids from
    q^(dim-1-c) to 2q^(dim-1-c) - 1, taken in ascending id order over all
    pivots.  Along a line the coordinates before c are fixed and
    coordinate c takes every value once, so the points whose coordinate
    c is zero meet every line once, each as its enumeration-smallest
    point.  They are the bases, in id order.  The q offsets t*d are one
    ``_Tables.mul`` of every t against d's coordinate indices, read back
    as ids, and a line's members are its base plus each offset,
    digit-wise, sorted into enumeration order: one numpy array per class.
    The lines hold the points of ``space.points()`` and keep their
    sorted ids.
    """
    count = space.point_count
    _at_most(count, LINE_CAP, "{n} points exceed the line-enumeration cap {cap}")
    spec, dim = space.spec, space.dim
    q = spec.order
    incidences = count * (count - 1) // (q - 1)
    _at_most(incidences, INCIDENCE_CAP, "{lines} lines of {q} points hold {n} incidences, "
             "more than the line-enumeration cap {cap}", lines=incidences // q, q=q)
    points = space.points()
    import numpy as np

    mul = spec._tabled().mul
    p, digits = spec.p, spec.k * dim
    places = q ** np.arange(dim - 1, -1, -1)  # the id of each unit vector
    scalars = np.arange(q)[:, None]
    lines: list[Line] = []
    for pivot in reversed(range(dim)):
        first = q ** (dim - 1 - pivot)
        # the ids whose coordinate `pivot` is index 0, ascending
        bases = (np.arange(q**pivot)[:, None] * (q * first) + np.arange(first)).ravel()
        for d in range(first, 2 * first):
            offsets = mul(scalars, d // places % q) @ places
            members = np.sort(_digitwise(bases[:, None], offsets[None, :], 1, p, digits), axis=1)
            for ids in map(tuple, members.tolist()):
                line = Line(base=points[ids[0]], direction=points[d],
                            points=itemgetter(*ids)(points))
                object.__setattr__(line, "_ids", ids)
                lines.append(line)
    return lines


def _labels(labels) -> str:
    """Caller labels for a message, in input order, each through ``_printable``."""
    return ", ".join(repr(_printable(x)) for x in labels)


@dataclass(frozen=True)
class IncidenceStructure:
    """Points (arbitrary hashable ids) with lines as id sets."""

    points: tuple
    lines: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        given = tuple(self.lines)
        lns = tuple(map(frozenset, given))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "lines", lns)
        seen = set(pts)
        if len(seen) != len(pts):
            raise MalformedStructureError("duplicate point identifiers")
        for line, ln in zip(given, lns):
            if len(ln) < 2:
                raise MalformedStructureError(f"line [{_labels(line)}] has fewer than two points")
            if not ln <= seen:
                unknown = _labels(p for p in line if p not in seen)
                raise MalformedStructureError(f"line references unknown points [{unknown}]")

    def point_degrees(self) -> dict:
        degrees = dict.fromkeys(self.points, 0)
        for ln in self.lines:
            for p in ln:
                degrees[p] += 1
        return degrees


def incidence_structure(space: AffineSpace) -> IncidenceStructure:
    """Abstract incidence data of a space: integer point ids in
    enumeration order, each line a frozenset of ids.  The ids are those
    ``enumerate_lines`` keeps on each line, so no point is mapped back."""
    lines = tuple(frozenset(ln._ids) for ln in enumerate_lines(space))
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
    """Does every point pair lie on a line with at least three points?

    Pairs are taken in ``points`` order, and the witness is the first
    failing pair.  For each point x, the positions that share a line of
    three or more points with x are collected; only when some later
    point is missing are the pairs (x, y), y after x, scanned for it.
    That is O(n + sum of |L|^2) time over the lines L and O(n + sum |L|)
    memory, with no table of all pairs.
    """
    pts = structure.points
    n = len(pts)
    position = {p: i for i, p in enumerate(pts)}
    through: list[list[list[int]]] = [[] for _ in pts]
    for ln in structure.lines:
        members = [position[p] for p in ln]
        for i in members:
            through[i].append(members)
    for i, x in enumerate(pts):
        rich: set[int] = set()
        for members in through[i]:
            if len(members) >= 3:
                rich.update(members)
        if len(rich) == n or sum(j > i for j in rich) == n - 1 - i:
            continue
        shared = {j for members in through[i] for j in members}
        for j in range(i + 1, n):
            if j not in shared:
                return HesseCheck(False, (x, pts[j]), "no line through the pair")
            if j not in rich:
                return HesseCheck(False, (x, pts[j]), "every common line has only two points")
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

    Exact arithmetic throughout.  From each point i in turn, the other
    points are bucketed by their exact direction from i (a rational
    slope, or vertical); the line through i and j carries no third point
    iff j is alone in its bucket.  The first such pair (i, j), j > i, is
    returned: O(n^2) in the worst case.  For a non-collinear set an
    ordinary line always exists, so the scan cannot come back empty.
    """
    pts = list(points)
    if len(pts) < 3:
        raise TooFewPointsError(f"need at least 3 points, got {len(pts)}")
    if len(set(pts)) != len(pts):
        raise InvalidInputError("points must be pairwise distinct")
    if all(_cross(pts[0], pts[1], r).numerator == 0 for r in pts[2:]):
        return OrdinaryLineResult(status=COLLINEAR)
    n = len(pts)
    for i, o in enumerate(pts):
        slopes = [(r.y - o.y) / (r.x - o.x) if r.x != o.x else None for r in pts]
        bucket = Counter(slopes)
        bucket[None] -= 1  # point i itself, filed as vertical
        for j in range(i + 1, n):
            if bucket[slopes[j]] == 1:
                a = pts[j].y - pts[i].y
                b = pts[i].x - pts[j].x
                c = -(a * pts[i].x + b * pts[i].y)
                return OrdinaryLineResult(status=ORDINARY, pair=(i, j), line=(a, b, c))
    raise AssertionError("non-collinear rational set without an ordinary line")


# ---------------------------------------------------------------------------
# metric axiom battery on explicit tables
# ---------------------------------------------------------------------------


def check_metric_axioms(labels: Sequence[Hashable], table: Mapping) -> AxiomReport:
    """Check the four metric axioms on an explicit distance table: M1
    non-negativity, M2 symmetry, M3 zero distance only for identical
    points, M4 the triangle inequality.

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
            raise MalformedTableError(f"missing entry for pair ({_labels((x, y))})") from None
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise MalformedTableError(f"non-numeric distance {v!r} for ({_labels((x, y))})")
        if isinstance(v, float) and math.isnan(v):
            raise MalformedTableError(f"NaN distance for ({_labels((x, y))})")
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

    return AxiomReport(description="metric axioms", order=len(labels), checks=checks)


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


# ---------------------------------------------------------------------------
# cardinality and diameter laws
# ---------------------------------------------------------------------------


def pointset_cardinality(order: int, dim: int) -> int:
    """Number of dim-tuples over a set of the given order: order**dim."""
    _integer(order, "order", 2)
    _integer(dim, "dimension", 1)
    _within_capacity(dim * order.bit_length(), "{order}**{dim}", order=order, dim=dim)
    return order**dim


@_finite("diameter")
def subspace_diameter(step: float, order: int):
    """Largest separation reachable in a discrete segment of the given
    order when adjacent points sit one step apart: step * (order - 1)."""
    _integer(order, "order", 2)
    _real(step, "step", 0, above=True)
    return step * (order - 1)
