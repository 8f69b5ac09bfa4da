"""Pieces, boards, and primitive attack geometry.

A piece is a set of basic moves: coprime, pairwise non-parallel integer
vectors.  A board is a bounded convex polygon with rational data given by
boundary inequalities ``a*x + b*y <= beta``; the playable cells at size
parameter ``n`` are the integer points strictly inside the ``(n+1)``-fold
dilate, and at n < 0 those of the closed (-n-1)-fold dilate (see
``region_at``).  Only this module turns a size into a dilate.

Everything is exact: plain integers for moves, lattice points, attack
tests and a board's inequalities (primitive integer rows), and
``fractions.Fraction`` only for vertex coordinates and areas.  All values
are immutable.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import BoardError, MoveSetError, Record
from .linalg import scan_vertices

Point = tuple[int, int]


class Move(Record, frozen=True):
    """A basic move vector ``(c, d)``, in lowest terms; a frozen value."""

    __slots__ = ("c", "d")

    def __init__(self, c: int, d: int):
        if c == 0 and d == 0:
            raise MoveSetError("move (0, 0) is not allowed")
        if gcd(abs(c), abs(d)) != 1:
            raise MoveSetError(f"move ({c}, {d}) is not in lowest terms")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def perp(self) -> Point:
        """The normal ``(d, -c)`` of the move line."""
        return (self.d, -self.c)

    @property
    def slope_label(self) -> str:
        """Slope written ``d/c``, the conventional hyperplane label."""
        return f"{self.d}/{self.c}"


class MoveSet(Record, frozen=True):
    """An ordered set of basic moves with pairwise distinct slopes; a frozen value."""

    __slots__ = ("moves", "name")

    def __init__(self, moves: tuple[Move, ...], name: str | None = None):
        if not moves:
            raise MoveSetError("a piece needs at least one move")
        seen = set()
        for m in moves:
            rep = _canonical_direction(m.c, m.d)
            if rep in seen:
                raise MoveSetError(f"parallel moves: duplicate slope {m.slope_label}")
            seen.add(rep)
        object.__setattr__(self, "moves", moves)
        object.__setattr__(self, "name", name)

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)

    @property
    def label(self) -> str:
        return self.name or ";".join(f"{m.c},{m.d}" for m in self.moves)


def _canonical_direction(c: int, d: int) -> Point:
    """Flip signs so c > 0, or c = 0 and d > 0."""
    if c < 0 or (c == 0 and d < 0):
        return (-c, -d)
    return (c, d)


def validate_move_set(raw: Iterable[Sequence[int]], name: str | None = None) -> MoveSet:
    """Build a MoveSet from raw integer pairs.

    Each pair is normalized to the canonical representative of its slope
    (sign flipped so that c > 0, or c = 0 and d > 0).  Rejects the zero
    vector, non-coprime coordinates, and repeated slopes.
    """
    pairs = list(raw)
    if not pairs:
        raise MoveSetError("empty move list")
    moves = []
    for pair in pairs:
        c, d = int(pair[0]), int(pair[1])
        moves.append(Move(*_canonical_direction(c, d)))
    return MoveSet(tuple(moves), name=name)


PRESET_MOVES = {
    "queen": [(1, 0), (1, 1), (0, 1), (1, -1)],
    "rook": [(1, 0), (0, 1)],
    "bishop": [(1, 1), (1, -1)],
    "nightrider": [(2, 1), (1, 2), (2, -1), (1, -2)],
    "semiqueen": [(1, 0), (0, 1), (1, 1)],
}


def piece_from_text(text: str) -> MoveSet:
    """Parse a preset name (``queen``) or a move list (``c1,d1;c2,d2;...``)."""
    name = text.strip().lower()
    if name in PRESET_MOVES:
        return validate_move_set(PRESET_MOVES[name], name=name)
    moves = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            c, d = map(int, chunk.split(","))
        except ValueError:
            raise MoveSetError(f"bad move syntax: {chunk!r}") from None
        moves.append((c, d))
    return validate_move_set(moves)


class BoardPolygon:
    """A bounded, full-dimensional convex polygon with rational data.

    Constructed from boundary inequalities ``a*x + b*y <= beta``, kept in
    ``rows`` as primitive integer rows ``(A, B, C)``, ``A*x + B*y <= C``,
    equal at any positive scale; the vertices come from the integer vertex
    scan (``linalg.scan_vertices``).  Repeated and redundant inequalities
    are rejected so that every row supports a facet.
    """

    __slots__ = ("rows", "vertices", "_text", "_extremes")

    def __init__(self, inequalities, text: str | None = None):
        rows = []
        for a, b, beta in inequalities:
            a, b, beta = Fraction(a), Fraction(b), Fraction(beta)
            if a == 0 and b == 0:
                raise BoardError("inequality with zero normal")
            scale = lcm(a.denominator, b.denominator, beta.denominator)
            row = (int(a * scale), int(b * scale), int(beta * scale))
            g = gcd(*row)
            row = tuple(x // g for x in row)
            if row in rows:
                raise BoardError("inequality {}*x + {}*y <= {} is repeated"
                                 .format(*_inequality(row)))
            rows.append(row)
        self.rows = tuple(rows)
        self.vertices = self._compute_vertices()
        self._text = text
        xs = [x for x, _ in self.vertices]
        ys = [y for _, y in self.vertices]
        # (numerator, denominator) of min x, max x, min y, max y
        self._extremes = tuple((v.numerator, v.denominator)
                               for v in (min(xs), max(xs), min(ys), max(ys)))

    def _compute_vertices(self):
        rows = self.rows
        if len(rows) < 3:
            raise BoardError("a bounded polygon needs at least 3 inequalities")
        self._check_bounded()

        def feasible(point) -> bool:
            d, (x, y) = point
            return all(a * x + b * y <= c * d for a, b, c in rows)

        scan = scan_vertices([], [((a, b), c) for a, b, c in rows], 2, feasible)
        points = {(Fraction(x, d), Fraction(y, d)) for d, (x, y) in scan}
        hull = _convex_hull(sorted(points))
        if len(hull) < 3 or _shoelace(hull) == 0:
            raise BoardError("polygon is not full-dimensional")
        for a, b, c in rows:
            tight = sum(1 for x, y in hull if a * x + b * y == c)
            if tight < 2:
                raise BoardError(
                    "inequality {}*x + {}*y <= {} does not support a facet "
                    "(redundant or degenerate)".format(*_inequality((a, b, c))))
        return tuple(hull)

    def _check_bounded(self):
        # The recession cone {dir : a*dx + b*dy <= 0 for all rows} must be
        # trivial; any nontrivial cone contains a direction perpendicular
        # to some normal, or the negation of a normal.
        candidates = []
        for a, b, _ in self.rows:
            candidates.extend([(-b, a), (b, -a), (-a, -b)])
        for dx, dy in candidates:
            if (dx, dy) == (0, 0):
                continue
            if all(a * dx + b * dy <= 0 for a, b, _ in self.rows):
                raise BoardError("polygon is unbounded")

    @property
    def area(self) -> Fraction:
        """Exact area via the shoelace formula on the hull vertices."""
        return _shoelace(self.vertices) / 2

    @property
    def denominator(self) -> int:
        """lcm of the denominators of all vertex coordinates."""
        return lcm(*[v.denominator for point in self.vertices for v in point])

    def as_text(self) -> str:
        if self._text:
            return self._text
        return "poly:" + ";".join(
            ",".join(map(str, _inequality(row))) for row in self.rows)

    def __eq__(self, other):
        return isinstance(other, BoardPolygon) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"BoardPolygon({self.as_text()!r})"

    @classmethod
    def square(cls) -> "BoardPolygon":
        return cls([(-1, 0, 0), (0, -1, 0), (1, 0, 1), (0, 1, 1)], text="square")

    @classmethod
    def rect(cls, a, b) -> "BoardPolygon":
        a, b = Fraction(a), Fraction(b)
        if a <= 0 or b <= 0:
            raise BoardError("rectangle sides must be positive")
        return cls([(-1, 0, 0), (0, -1, 0), (1, 0, a), (0, 1, b)],
                   text=f"rect:{a},{b}")


def board_from_text(text: str) -> BoardPolygon:
    """Parse ``square``, ``rect:a,b``, or ``poly:a1,b1,beta1;...``."""
    spec = text.strip()
    if spec == "square":
        return BoardPolygon.square()
    if spec.startswith("rect:"):
        parts = spec[5:].split(",")
        if len(parts) != 2:
            raise BoardError(f"bad rectangle syntax: {text!r}")
        return BoardPolygon.rect(*map(_parse_fraction, parts))
    if spec.startswith("poly:"):
        ineqs = []
        for chunk in spec[5:].split(";"):
            parts = chunk.split(",")
            if len(parts) != 3:
                raise BoardError(f"bad inequality syntax: {chunk!r}")
            ineqs.append(tuple(map(_parse_fraction, parts)))
        return BoardPolygon(ineqs, text=spec)
    raise BoardError(f"unknown board syntax: {text!r}")


# Longest numeral accepted in a board.  Fraction would expand an exponent
# or an over-long numeral into a huge integer before any check.
_MAX_NUMERAL_LENGTH = 40


def _parse_fraction(text: str) -> Fraction:
    if len(text.strip()) > _MAX_NUMERAL_LENGTH or "e" in text.lower():
        raise BoardError(f"bad rational number: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise BoardError(f"bad rational number: {text!r}") from None


def _inequality(row) -> tuple[int, int, Fraction]:
    """(a, b, beta) with a, b coprime: the row ``a*x + b*y <= beta`` as written."""
    a, b, c = row
    g = gcd(a, b)
    return a // g, b // g, Fraction(c, g)


def _convex_hull(points):
    """Monotone-chain hull, counterclockwise, exact arithmetic."""
    if len(points) <= 2:
        return list(points)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in points:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(points):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _shoelace(vertices) -> Fraction:
    total = Fraction(0)
    for i, (x1, y1) in enumerate(vertices):
        x2, y2 = vertices[(i + 1) % len(vertices)]
        total += x1 * y2 - x2 * y1
    return abs(total)


def region_at(board: BoardPolygon, n: int):
    """(box, rows) of the cells at size n.

    The cells at size n are the integer points strictly inside the
    (n+1)-fold dilate, or, for n < 0, those of the closed (-n-1)-fold
    dilate (the 0-fold dilate is the origin alone), whose counts give the
    quasipolynomials' values at n by Ehrhart-Macdonald reciprocity.
    ``box`` is the dilate's integer bounding box (x_lo, x_hi, y_lo, y_hi),
    the extent of a walk over the cells; ``rows`` are the board's rows at
    size n, each as ``a*x + b*y <= bound``.
    """
    t = abs(n + 1)
    (xa, xb), (xc, xd), (ya, yb), (yc, yd) = board._extremes
    box = -(-t * xa // xb), t * xc // xd, -(-t * ya // yb), t * yc // yd
    # a*x + b*y < t*c inside the dilate, or <= t*c in the closed one
    return box, [(a, b, t * c - (n >= 0)) for a, b, c in board.rows]


def _columns(board: BoardPolygon, n: int):
    """Yield (x, y_lo, y_hi) per column of the cells at size n.

    A column with no points may come as y_lo > y_hi.
    """
    (x_lo, x_hi, y_lo, y_hi), rows = region_at(board, n)
    for x in range(x_lo, x_hi + 1):
        # Each row bounds y in column x: b * y <= c - a * x.
        lo, hi = y_lo, y_hi
        for a, b, c in rows:
            rest = c - a * x
            if b > 0:
                hi = min(hi, rest // b)
            elif b < 0:
                lo = max(lo, -(rest // -b))
            elif rest < 0:
                break
        else:
            yield x, lo, hi


def _cells(board: BoardPolygon, n: int) -> list[Point]:
    return [(x, y) for x, lo, hi in _columns(board, n)
            for y in range(lo, hi + 1)]


def interior_lattice_points(board: BoardPolygon, t: int) -> list[Point]:
    """Integer points strictly inside the t-fold dilate, in lexicographic
    order: the cells at size t - 1."""
    if t < 1:
        raise ValueError("dilation factor must be a positive integer")
    return _cells(board, t - 1)


def cells_at(board: BoardPolygon, n: int) -> list[Point]:
    """The cells at size n (see ``region_at``), in lexicographic order."""
    # Through the lister that perfbench/trace_job.py spans.
    if n >= 0:
        return interior_lattice_points(board, n + 1)
    return _cells(board, n)


def cell_count(board: BoardPolygon, n: int) -> int:
    """How many points ``cells_at`` returns, from its column ranges alone:
    one pass over the columns, none over the points."""
    return sum(max(0, hi - lo + 1) for _, lo, hi in _columns(board, n))


def attacks(zi: Point, zj: Point, ms: MoveSet) -> bool:
    """Whether pieces at zi and zj attack each other (coincidence counts)."""
    if zi == zj:
        return True
    dx = zj[0] - zi[0]
    dy = zj[1] - zi[1]
    for m in ms:
        if m.d * dx - m.c * dy == 0:
            return True
    return False


def reachable_by_two_moves(m1: Move, m2: Move, delta: Sequence[int]) -> bool:
    """Whether a sequence of m1/m2 moves translates a piece by ``delta``.

    Possible exactly when both components of delta are divisible by
    det(m1, m2).
    """
    det = m1.c * m2.d - m1.d * m2.c
    if det == 0:
        raise MoveSetError("moves are parallel")
    det = abs(det)
    return delta[0] % det == 0 and delta[1] % det == 0


class Configuration(Record, frozen=True):
    """Positions of q pieces, in piece order.

    A frozen value; ``counting.labelled_type_of`` reads a type off one.
    """

    __slots__ = ("positions",)

    def __init__(self, positions: tuple[Point, ...]):
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.positions)
