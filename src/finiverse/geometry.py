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
from decimal import Decimal
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
    _read_rational,
    _real,
    _str_convertible,
    _within_capacity,
)
from .fields import (
    AxiomCheck,
    AxiomReport,
    FieldElement,
    FieldVector,
    _Space,
    _digitwise,
    _products,
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
    The squared distance from the origin is the form Q(y) = sum y_c^2,
    and Q(ly) = l^2 Q(y), so every nonzero multiple of a hit is a hit.
    Among the multiples of y, the one first in id order has the element
    one (index 1) as its first nonzero coordinate.  So only those
    vectors are scanned, in id order: the ids [q^f, 2q^f) for f = 0, 1,
    ..., dim - 1 free coordinates after the leading one.  That is
    (q^dim - 1)/(q - 1) sums, and the first hit is exactly the naive
    scan's.

    The form is diagonal, so Q(y) is the sum, over y's coordinates, of
    the squared distance of the axis point (y_c, 0, ..., 0) from the
    origin.  Those q values are taken from ``squared_distance`` once,
    packed by ``spec._sums``, whose wide slots add without carry, and
    each y is scanned as the builtin ``sum`` of them over its coordinate
    indices.  The pair returned is two members of ``space.points()``.
    """
    points = space.points()
    spec = space.spec
    q, dim = spec.order, space.dim
    origin = points[0]
    axis = q ** (dim - 1)  # (e_i, 0, ..., 0) is points[i * axis]
    pack, is_zero = spec._sums.pack, spec._sums.is_zero
    term = [pack(squared_distance(origin, points[i * axis])._index)
            for i in range(q)].__getitem__
    lead = term(1)  # the leading one
    for f in range(dim):
        for n, y in enumerate(product(range(q), repeat=f), q**f):
            if is_zero(sum(map(term, y), lead)):
                return (origin, points[n])
    return None


@dataclass(frozen=True, eq=False)
class Line:
    """An affine line: its points, in enumeration order, so the first is
    the enumeration-smallest and the difference of the first two is the
    line's direction with first nonzero coordinate one.  Lines compare
    equal iff they contain the same point set.
    """

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
        return f"line through {self.points[0]} and {self.points[1]}"


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
    point.  They are the bases, in id order.  The offsets t*d of a whole
    class are one ``fields._products`` of every t against the coordinate
    indices of all its directions, read back as ids, and a line's members
    are its base plus each offset, digit-wise, sorted into enumeration
    order: one numpy array per class, built by ``_line_ids``, which
    ``incidence_structure`` reads too.  Each line holds the points at
    those ids, its base first and base + d second.
    """
    ids, points = _line_ids(space), space.points()  # the line caps first
    return [Line(itemgetter(*line)(points)) for line in ids]


def _line_ids(space: AffineSpace) -> list[list[int]]:
    """The sorted point ids of every line, in ``enumerate_lines`` order."""
    count = space.point_count
    _at_most(count, LINE_CAP, "{n} points exceed the line-enumeration cap {cap}")
    spec, dim = space.spec, space.dim
    q = spec.order
    incidences = count * (count - 1) // (q - 1)
    _at_most(incidences, INCIDENCE_CAP, "{lines} lines of {q} points hold {n} incidences, "
             "more than the line-enumeration cap {cap}", lines=incidences // q, q=q)
    import numpy as np

    p, digits = spec.p, spec.k * dim
    places = q ** np.arange(dim - 1, -1, -1)  # the id of each unit vector
    scalars = np.arange(q)
    lines: list[list[int]] = []
    for pivot in reversed(range(dim)):
        first = q ** (dim - 1 - pivot)
        # the ids whose coordinate `pivot` is index 0, ascending
        bases = (np.arange(q**pivot)[:, None] * (q * first) + np.arange(first)).ravel()
        # offsets[j, t] is the id of t times the direction of id first + j
        coords = (np.arange(first, 2 * first)[:, None] // places % q).ravel()
        offsets = (_products(spec, scalars, coords).reshape(q, first, dim) @ places).T
        members = _digitwise(bases[None, :, None], offsets[:, None, :], 1, p, digits)
        lines += np.sort(members, axis=2).reshape(-1, q).tolist()
    return lines


def _labels(labels) -> str:
    """Caller labels for a message, in input order, each through ``_printable``."""
    return ", ".join(repr(_printable(x)) for x in labels)


def _label_set(labels, error, kind=set):
    """``kind(labels)``, or ``error`` naming ``labels`` if it is not
    iterable, or else the first label that cannot be hashed, in place of
    the TypeError."""
    try:
        return kind(labels)
    except TypeError:
        try:
            labels = iter(labels)
        except TypeError:
            raise error(f"{_printable(labels)!r} is not iterable") from None
        for x in labels:
            try:
                hash(x)
            except TypeError:
                raise error(f"label {_printable(x)!r} is not hashable") from None
        raise


@dataclass(frozen=True)
class IncidenceStructure:
    """Points (arbitrary hashable ids) with lines as id sets."""

    points: tuple
    lines: tuple

    def __post_init__(self):
        pts = _label_set(self.points, MalformedStructureError, tuple)
        given = _label_set(self.lines, MalformedStructureError, tuple)
        seen = _label_set(pts, MalformedStructureError)
        lns = tuple(_label_set(line, MalformedStructureError, frozenset) for line in given)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "lines", lns)
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
    enumeration order, each line a frozenset of ids.  The lines come from
    the id builder of ``enumerate_lines``, in its order; no point is built."""
    lines = tuple(map(frozenset, _line_ids(space)))
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
    failing pair.  Each point x keeps two n-bit int masks over the point
    positions (the big-int-as-vector idiom of ``fields._Packed``):
    ``rich[x]``, the OR of the masks of the lines of three or more points
    through x, and ``poor[x]``, the same for the two-point lines.  The
    first failing partner of the point at position i is the lowest set
    bit of ``~rich[x]`` above i; the pair shares a two-point line when
    that bit is set in ``poor[x]``, and no line at all otherwise.  That
    is O(sum of |L|) ORs of n-bit masks over the lines L, with no table of
    all pairs.  Until a point meets its second line of a kind, its mask
    is the first line's mask object, so one wide line holds one mask.
    """
    pts = structure.points
    n = len(pts)
    position = {p: i for i, p in enumerate(pts)}
    rich, poor = dict.fromkeys(pts, 0), dict.fromkeys(pts, 0)
    for ln in structure.lines:
        mask = 0
        for p in ln:
            mask |= 1 << position[p]
        masks = rich if len(ln) >= 3 else poor
        for p in ln:
            masks[p] = masks[p] | mask if masks[p] else mask
    for i, x in enumerate(pts):
        missing = ~rich[x] >> (i + 1)
        j = i + (missing & -missing).bit_length()  # n or more when none is missing
        if j < n:
            detail = ("every common line has only two points" if poor[x] >> j & 1
                      else "no line through the pair")
            return HesseCheck(False, (x, pts[j]), detail)
    return HesseCheck(True)


# ---------------------------------------------------------------------------
# exact rational plane
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalPoint:
    """Plane point with exact rational coordinates (floats rejected); a
    coordinate of type ``Fraction`` is kept as given.  The text of a str or
    Decimal is read by ``_read_rational``, on CPython 3.11's ``Fraction``
    grammar on every version (so "8/ 9", which 3.12's reads, is refused
    everywhere, and "1_000", which 3.10's refuses, is 1000 everywhere):
    malformed is InvalidInputError, beyond CAPACITY_BITS is refused before
    ``Fraction`` builds it, and a str integer longer than the str() digit
    limit is a SizeLimitError."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        for name in ("x", "y"):
            v = getattr(self, name)
            if type(v) is Fraction:
                continue
            if isinstance(v, float):
                raise InvalidInputError("exact rational coordinates required, not float")
            sizes = _read_rational(str(v)) if isinstance(v, (str, Decimal)) else ()
            if sizes:
                longest, digits = sizes
                bits = digits * 33219281 // 10**7 + 1  # log2(10) < 3.3219281
                _within_capacity(bits, "coordinate {name} of {n} bits", name=name)
                if isinstance(v, str):
                    _str_convertible(longest, "coordinate {name} has an integer of {n} "
                                     "digits", name=name)
            try:
                if sizes is None:
                    raise ValueError("malformed text")
                # still refuses a zero denominator; without its underscores,
                # accepted text reads as on 3.11 before 3.11 too
                v = Fraction(v.replace("_", "") if isinstance(v, str) else v)
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise InvalidInputError(
                    f"coordinate {name} = {_printable(v)!r} is not an exact rational") from None
            object.__setattr__(self, name, v)

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


def _directions(o: tuple, points: list) -> list:
    """The direction from ``o`` to each of ``points``, all given as (X, Y, D)
    with x = X/D and y = Y/D: the primitive integer pair (dx, dy) with
    dx > 0, or dx = 0 and dy > 0, and None for ``o`` itself.  Two points lie
    on one line through ``o`` iff their directions are equal."""
    xo, yo, do = o
    out = []
    for x, y, d in points:
        dx, dy = x * do - xo * d, y * do - yo * d
        g = math.gcd(dx, dy)
        if dx < 0 or not dx and dy < 0:
            g = -g
        out.append((dx // g, dy // g) if g else None)
    return out


def find_ordinary_line(points: Sequence[RationalPoint]) -> OrdinaryLineResult:
    """Find a line through exactly two of the given points.

    Exact arithmetic throughout.  Each point is written once in integers
    as (X, Y, D), D the lcm of its two denominators, so every product
    below is of one point's size; equal points give equal triples, which
    the distinctness check compares.  From each point i in turn, the other
    points are bucketed by their primitive integer direction from i,
    normalised in sign; the line through i and j carries no third point
    iff j is alone in its bucket.  The first such pair (i, j), j > i, is
    returned: O(n^2) in the worst case.  The points are distinct, so they are
    collinear iff the n - 1 others share a bucket of point 0.  For a non-collinear
    set an ordinary line always exists, so the scan cannot come back empty.
    """
    pts = _label_set(points, InvalidInputError, list)
    if len(pts) < 3:
        raise TooFewPointsError(f"need at least 3 points, got {len(pts)}")
    whole = []  # (X, Y, D) in lowest terms, so equal points give equal triples
    for r in pts:
        u, v = r.x.denominator, r.y.denominator
        g = math.gcd(u, v)
        whole.append((r.x.numerator * (v // g), r.y.numerator * (u // g), u // g * v))
    n = len(whole)
    if len(set(whole)) != n:
        raise InvalidInputError("points must be pairwise distinct")
    for i, o in enumerate(whole):
        directions = _directions(o, whole)
        bucket = Counter(directions)
        if i == 0 and bucket[directions[1]] == n - 1:
            return OrdinaryLineResult(status=COLLINEAR)
        for j in range(i + 1, n):
            if bucket[directions[j]] == 1:
                a = pts[j].y - pts[i].y
                b = pts[i].x - pts[j].x
                c = -(a * pts[i].x + b * pts[i].y)
                return OrdinaryLineResult(status=ORDINARY, pair=(i, j), line=(a, b, c))
    raise AssertionError("non-collinear rational set without an ordinary line")


# ---------------------------------------------------------------------------
# metric axiom battery on explicit tables
# ---------------------------------------------------------------------------


def _total(a, b):
    """``a + b`` for exact values and infinite floats: an infinity beside an
    exact value is the sum, so no int too large for a float meets one."""
    if isinstance(a, float) is isinstance(b, float):
        return a + b
    return a if isinstance(a, float) else b


def check_metric_axioms(labels: Sequence[Hashable], table: Mapping) -> AxiomReport:
    """Check the four metric axioms on an explicit distance table: M1
    non-negativity, M2 symmetry, M3 zero distance only for identical
    points, M4 the triangle inequality.

    ``table`` maps ordered label pairs to real values; every ordered
    pair must be present, and all are validated, in row-major label
    order, before any axiom is checked, so a malformed entry is
    MalformedTableError whatever the axioms find.  Each check then scans
    in its own order and its witness is the first failing tuple.
    ``math.inf`` is a legal saturating distance, above every finite one.
    Integers (numpy ones too) are read as ``int``, other reals by their
    ``as_integer_ratio`` (a numpy ``longdouble`` too) or, lacking it, as
    ``float``; every finite value is compared and summed exactly as the
    rational it is, with no tolerance anywhere.
    """
    labels = _label_set(labels, MalformedTableError, list)
    if len(_label_set(labels, MalformedTableError)) != len(labels):
        raise MalformedTableError("duplicate labels")

    def d(x, y):
        try:
            v = table[(x, y)]
        except (KeyError, TypeError):
            raise MalformedTableError(f"missing entry for pair ({_labels((x, y))})") from None
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise MalformedTableError(f"non-numeric distance {v!r} for ({_labels((x, y))})")
        if isinstance(v, numbers.Rational):
            return int(v) if isinstance(v, numbers.Integral) else v  # numpy ints too
        v = v if hasattr(v, "as_integer_ratio") else float(v)  # as sympy's Float
        if v != v:
            raise MalformedTableError(f"NaN distance for ({_labels((x, y))})")
        # a finite real as the rational it is, so that sums stay exact
        return Fraction(*v.as_integer_ratio()) if -math.inf < v < math.inf else float(v)

    dist = [[d(x, y) for y in labels] for x in labels]
    ix = range(len(labels))
    found = {
        "M1": next(((i, j) for i in ix for j in ix if dist[i][j] < 0), None),
        "M2": next(((i, j) for i in ix for j in ix[i + 1:] if dist[i][j] != dist[j][i]), None),
        "M3": next(((i, i) for i in ix if dist[i][i] != 0), None)
        or next(((i, j) for i in ix for j in ix[i + 1:] if dist[i][j] == 0), None),
        "M4": next(((i, j, k) for i in ix for j in ix for k in ix
                    if dist[i][k] > _total(dist[i][j], dist[j][k])), None),
    }
    checks = {name: AxiomCheck(w is None, w and tuple(labels[i] for i in w))
              for name, w in found.items()}
    return AxiomReport(order=len(labels), checks=checks)


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
