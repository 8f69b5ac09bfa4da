from math import gcd, lcm

import pytest
from hypothesis import strategies as st

from riderpoly.bounds import scan_vertices
from riderpoly.geometry import BoardPolygon, piece_from_text


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
    ineqs = board.scaled_strict_rows(1)

    def feasible(point) -> bool:
        d, nums = point
        return all(a * nums[i] + b * nums[i + 1] <= c * d
                   for i in range(0, 2 * k, 2) for a, b, c in ineqs)

    result = 1
    for d, nums in scan_vertices(forced, optional, 2 * k, feasible):
        result = lcm(result, d // gcd(d, *nums))
    return result
