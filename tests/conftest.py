from math import gcd, lcm

import pytest
from hypothesis import strategies as st

from riderpoly import arrangement, geometry, lattice
from riderpoly.errors import BoardError
from riderpoly.geometry import BoardPolygon, piece_from_text
from riderpoly.linalg import insert_row, scan_vertices


@pytest.fixture(scope="session")
def square():
    return BoardPolygon.square()


@pytest.fixture(scope="session")
def queen():
    return piece_from_text("queen")


@pytest.fixture(scope="session")
def rook():
    return piece_from_text("rook")


@pytest.fixture(scope="session")
def bishop():
    return piece_from_text("bishop")


@pytest.fixture(scope="session")
def nightrider():
    return piece_from_text("nightrider")


@pytest.fixture(scope="session")
def semiqueen():
    return piece_from_text("semiqueen")


@pytest.fixture
def no_cell_listing(monkeypatch):
    """Make listing any cell fail, so a test can require its budget refusal
    to come first: both listers, of the interior and of the closed dilates."""
    def unreachable(*args):
        raise AssertionError("cells listed before the budget checks")

    monkeypatch.setattr(geometry, "interior_lattice_points", unreachable)
    monkeypatch.setattr(geometry, "_cells", unreachable)


# The five presets and the benchmark's seeded piece.
PIECES = ("queen", "rook", "bishop", "nightrider", "semiqueen",
          "-1,2;-2,1;1,1")


def row_keyed_semilattice(ms, q):
    """The closure keyed by canonical rows, as the exhaustive reference.

    Every (flat, hyperplane outside its mask) pair is eliminated with
    ``insert_row`` and keyed by its sorted echelon, the canonical rows; a
    new key gets its mask by testing each remaining hyperplane against
    that echelon.  Flats, ids and order are built as the library builds
    them from rows and masks, and ``lattice.classify`` sets Mobius
    values and iso classes, so a mismatch with ``intersection_semilattice``
    is a closure fault (the double-elimination reference in
    ``test_arrangement`` checks the classes independently).
    """
    hyps = arrangement.build_move_arrangement(ms, q)
    hrows = [arrangement.hyperplane_row(h, ms, q) for h in hyps]
    by_key = {(): 0}
    masks = [0]
    work = [(0, [])]
    while work:
        fid, echelon = work.pop()
        covered = masks[fid]
        for hid, hrow in enumerate(hrows):
            if covered >> hid & 1:
                continue
            extended = insert_row(hrow, 0, echelon)
            key = tuple(tuple(erow) for _, erow, _ in sorted(extended))
            new = by_key.get(key)
            if new is None:
                mask = masks[fid] | 1 << hid
                for other in range(hid + 1, len(hrows)):
                    if (not covered >> other & 1
                            and insert_row(hrows[other], 0, extended) is None):
                        mask |= 1 << other
                new = by_key[key] = len(masks)
                masks.append(mask)
                work.append((new, extended))
            covered |= masks[new]
    flats = []
    for fid, rows in enumerate(sorted(by_key, key=lambda r: (len(r), r))):
        mask = masks[by_key[rows]]
        involved = sorted({c // 2 for row in rows
                           for c, x in enumerate(row) if x != 0})
        flats.append(arrangement.Flat(
            fid, rows, mask, tuple(involved),
            tuple(h for hid, h in enumerate(hyps) if mask >> hid & 1)))
    sl = arrangement.Semilattice(ms, q, hyps, flats)
    lattice.classify(sl)
    return sl


# Move directions with entries in [-2, 2], one per line through the origin:
# any subset, with any signs, is a valid piece (coprime, pairwise
# non-parallel).
DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1))

# Boards for random pieces: the square, two triangles and a rectangle with a
# rational side.
RANDOM_BOARDS = ("square", "poly:-1,0,0;0,-1,0;1,1,1", "rect:3/2,1",
                 "poly:-1,0,0;0,-1,0;2,1,3")


@st.composite
def random_pieces(draw):
    """A piece of 1-4 moves from DIRECTIONS, each with a random sign."""
    dirs = draw(st.lists(st.sampled_from(DIRECTIONS), min_size=1, max_size=4,
                         unique=True))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(dirs),
                          max_size=len(dirs)))
    return piece_from_text(";".join(f"{s * c},{s * d}"
                                    for (c, d), s in zip(dirs, signs)))


# Board data: rationals in [-2, 2] with denominators up to 3.
RATIONALS = st.fractions(min_value=-2, max_value=2, max_denominator=3)
POINTS = st.tuples(RATIONALS, RATIONALS)


def _rectangle(xs, ys):
    (x0, x1), (y0, y1) = sorted(xs), sorted(ys)
    return [(-1, 0, -x0), (1, 0, x1), (0, -1, -y0), (0, 1, y1)]


def _triangle(p0, p1, p2):
    # One row per edge, normal (dy, -dx) of a counterclockwise walk.
    if (p1[0] - p0[0]) * (p2[1] - p0[1]) < (p1[1] - p0[1]) * (p2[0] - p0[0]):
        p1, p2 = p2, p1
    return [(q[1] - p[1], p[0] - q[0], q[1] * p[0] - q[0] * p[1])
            for p, q in ((p0, p1), (p1, p2), (p2, p0))]


def _clipped(rectangle, a, b, share):
    # A cut with normal (a, b) between the centre and the farthest corner.
    (_, _, x0), (_, _, x1), (_, _, y0), (_, _, y1) = rectangle
    x0, y0 = -x0, -y0
    far = max(a * x + b * y for x in (x0, x1) for y in (y0, y1))
    centre = (a * (x0 + x1) + b * (y0 + y1)) / 2
    return rectangle + [(a, b, centre + share * (far - centre))]


def _valid(inequalities) -> bool:
    try:
        BoardPolygon(inequalities)
    except BoardError:
        return False
    return True


SIDE_PAIRS = st.lists(RATIONALS, min_size=2, max_size=2, unique=True)
RECTANGLES = st.builds(_rectangle, SIDE_PAIRS, SIDE_PAIRS)
NONZERO = st.sampled_from((-2, -1, 1, 2))

# Inequality lists (a, b, beta) of rational boards: rectangles, triangles
# and rectangles with one corner cut off, kept if BoardPolygon accepts them.
RATIONAL_BOARDS = st.one_of(
    RECTANGLES,
    st.builds(_triangle, POINTS, POINTS, POINTS),
    st.builds(_clipped, RECTANGLES, NONZERO, NONZERO,
              st.fractions(min_value=0, max_value=1, max_denominator=4)),
).filter(_valid)


def board_vertex_denominator(forced, optional, board, k: int) -> int:
    """lcm of coordinate denominators over the feasible vertices of a scan.

    The exhaustive reference for ``bounds.flat_polytope_denominator``:
    scans every nonsingular system of ``forced`` and ``optional`` (row,
    rhs) pairs over the 2k coordinates of k pieces, with no basis skipped,
    and keeps the points inside the closed polytope board^k, tested in
    integers as a*x + b*y <= c*d per piece.  Scanned over a flat's
    equations and ``bounds.board_rows``, or over the whole
    ``bounds.grand_matrix``, it is what the per-flat scans in the flat's
    own coordinates are tested against.
    """
    ineqs = board.rows

    def feasible(point) -> bool:
        d, nums = point
        return all(a * nums[i] + b * nums[i + 1] <= c * d
                   for i in range(0, 2 * k, 2) for a, b, c in ineqs)

    result = 1
    for d, nums in scan_vertices(forced, optional, 2 * k, feasible):
        result = lcm(result, d // gcd(d, *nums))
    return result
