from fractions import Fraction
from math import ceil, floor, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import RATIONAL_BOARDS
from riderpoly.errors import BoardError, MoveSetError, RiderPolyError
from riderpoly.geometry import (
    BoardPolygon,
    Move,
    attacks,
    board_from_text,
    cell_count,
    cells_at,
    interior_lattice_points,
    piece_from_text,
    reachable_by_two_moves,
    region_at,
    validate_move_set,
)


class TestValidateMoveSet:
    def test_queen_preset(self):
        ms = validate_move_set([(1, 0), (0, 1), (1, 1), (1, -1)])
        assert len(ms) == 4

    def test_nightrider_preset(self):
        ms = validate_move_set([(2, 1), (1, 2), (2, -1), (1, -2)])
        assert len(ms) == 4

    def test_non_coprime_rejected(self):
        with pytest.raises(MoveSetError):
            validate_move_set([(2, 2)])

    def test_parallel_rejected(self):
        with pytest.raises(MoveSetError):
            validate_move_set([(1, 1), (-1, -1)])

    def test_zero_rejected(self):
        with pytest.raises(MoveSetError):
            validate_move_set([(0, 0)])

    def test_empty_rejected(self):
        with pytest.raises(MoveSetError):
            validate_move_set([])

    def test_normalization(self):
        ms = validate_move_set([(-1, 2), (0, -1)])
        assert [(m.c, m.d) for m in ms] == [(1, -2), (0, 1)]

    def test_idempotent(self):
        ms = validate_move_set([(-3, 1), (1, 1), (0, -1)])
        again = validate_move_set([(m.c, m.d) for m in ms])
        assert again.moves == ms.moves

    def test_piece_from_text(self):
        assert piece_from_text("queen").name == "queen"
        custom = piece_from_text("1,3;2,-1")
        assert [(m.c, m.d) for m in custom] == [(1, 3), (2, -1)]


class TestBoard:
    def test_square_vertices(self, square):
        assert square.area == 1
        assert square.denominator == 1
        assert len(square.vertices) == 4

    def test_rect_rational(self):
        board = board_from_text("rect:5/2,1")
        assert board.area == Fraction(5, 2)
        assert board.denominator == 2

    def test_poly_text_round_trip(self):
        board = board_from_text("poly:-1,0,0;0,-1,0;1,1,1")
        assert board.area == Fraction(1, 2)

    def test_redundant_inequality_rejected(self):
        with pytest.raises(BoardError):
            BoardPolygon([(-1, 0, 0), (0, -1, 0), (1, 0, 1), (0, 1, 1),
                          (1, 1, 5)])

    def test_unbounded_rejected(self):
        with pytest.raises(BoardError):
            BoardPolygon([(-1, 0, 0), (0, -1, 0)])

    def test_degenerate_rejected(self):
        with pytest.raises(BoardError):
            BoardPolygon([(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 1)])

    def test_vertices_tight_on_two_facets(self, square):
        for x, y in square.vertices:
            tight = sum(1 for a, b, c in square.rows
                        if a * x + b * y == c)
            assert tight >= 2

    def test_board_text_round_trip(self):
        for text in ("square", "rect:5/2,1", "poly:-1,0,0;0,-1,0;1,1,1"):
            board = board_from_text(text)
            assert board_from_text(board.as_text()) == board

    def test_piece_text_round_trip(self):
        for text in ("queen", "nightrider", "1,3;2,-1"):
            ms = piece_from_text(text)
            assert piece_from_text(ms.label).moves == ms.moves


def _cramer_vertices(rows):
    """Every pair of non-parallel rows solved by Cramer's rule in Fraction,
    kept if it satisfies all rows: the board's vertices."""
    points = set()
    for i, (a1, b1, c1) in enumerate(rows):
        for a2, b2, c2 in rows[i + 1:]:
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = Fraction(c1 * b2 - c2 * b1, det)
            y = Fraction(a1 * c2 - a2 * c1, det)
            if all(a * x + b * y <= c for a, b, c in rows):
                points.add((x, y))
    return points


def _facet_area(rows, vertices):
    """Half the sum over facets of c times the edge length over |(a, b)|:
    the area, with no vertex order needed."""
    total = Fraction(0)
    for a, b, c in rows:
        (px, py), (qx, qy) = [v for v in vertices
                              if a * v[0] + b * v[1] == c]
        total += c * abs((qy - py) / a if a else (qx - px) / -b)
    return total / 2


class TestRationalBoards:
    @settings(max_examples=60, deadline=None)
    @given(RATIONAL_BOARDS, st.lists(
        st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=6),
        min_size=5, max_size=5))
    def test_matches_fraction_reference(self, inequalities, scales):
        board = BoardPolygon(inequalities)
        reference = _cramer_vertices(board.rows)
        assert set(board.vertices) == reference
        assert len(board.vertices) == len(reference)
        assert board.denominator == lcm(
            *(v.denominator for point in reference for v in point))
        assert board.area == _facet_area(board.rows, reference)

        scaled = BoardPolygon([(k * a, k * b, k * beta) for (a, b, beta), k
                               in zip(inequalities, scales)])
        assert scaled == board and hash(scaled) == hash(board)
        assert BoardPolygon(board.rows) == board

        # Size n: inside the (n+1)-fold dilate, or the closed (-n-1)-fold.
        for n in range(-4, 4):
            t = n + 1 if n >= 0 else -1 - n
            xs = [t * x for x, _ in reference]
            ys = [t * y for _, y in reference]
            extent = (ceil(min(xs)), floor(max(xs)), ceil(min(ys)),
                      floor(max(ys)))
            box = [(x, y) for x in range(extent[0], extent[1] + 1)
                   for y in range(extent[2], extent[3] + 1)]
            if n >= 0:
                cells = [(x, y) for x, y in box
                         if all(a * x + b * y < t * beta
                                for a, b, beta in inequalities)]
                assert interior_lattice_points(board, t) == cells
            else:
                cells = [(x, y) for x, y in box
                         if all(a * x + b * y <= t * beta
                                for a, b, beta in inequalities)]
            assert cells_at(board, n) == cells
            assert cell_count(board, n) == len(cells)
            # The walk covers the box, and the rows cut the cells from it.
            walk_box, rows = region_at(board, n)
            assert walk_box == extent
            assert len(box) >= cell_count(board, n)
            assert cells == [(x, y) for x, y in box
                             if all(a * x + b * y <= bound
                                    for a, b, bound in rows)]


# Number-like fields, kept short: an exponent such as 1e9999999 is parsed
# by Fraction into an integer of that many digits.
NUMBER_TEXT = st.text(alphabet="0123456789-+/_.eE ", max_size=6)
BOARD_TEXT = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="0123456789-+/,;: rectpolysqua", max_size=30),
    st.builds("rect:{},{}".format, NUMBER_TEXT, NUMBER_TEXT),
    st.lists(st.tuples(NUMBER_TEXT, NUMBER_TEXT, NUMBER_TEXT), max_size=5).map(
        lambda rows: "poly:" + ";".join(",".join(row) for row in rows)))
PIECE_TEXT = st.one_of(
    st.text(max_size=30),
    st.lists(st.tuples(NUMBER_TEXT, NUMBER_TEXT), max_size=5).map(
        lambda moves: ";".join(",".join(move) for move in moves)))


class TestParserFuzz:
    # The CLI maps these two exception types to exit code 2.
    @settings(max_examples=300, deadline=None)
    @given(BOARD_TEXT)
    def test_board_text_raises_only_input_errors(self, text):
        try:
            board_from_text(text)
        except (RiderPolyError, ValueError):
            pass

    @settings(max_examples=300, deadline=None)
    @given(PIECE_TEXT)
    def test_piece_text_raises_only_input_errors(self, text):
        try:
            piece_from_text(text)
        except (RiderPolyError, ValueError):
            pass


class TestInteriorLatticePoints:
    def test_square_t4(self, square):
        points = interior_lattice_points(square, 4)
        assert points == [(x, y) for x in (1, 2, 3) for y in (1, 2, 3)]

    def test_square_t1_empty(self, square):
        assert interior_lattice_points(square, 1) == []

    @pytest.mark.parametrize("t", range(1, 12))
    def test_square_count(self, square, t):
        assert len(interior_lattice_points(square, t)) == (t - 1) ** 2

    def test_rectangle(self):
        board = board_from_text("rect:3,2")
        points = interior_lattice_points(board, 2)
        assert points == [(x, y) for x in range(1, 6) for y in range(1, 4)]
        assert len(points) == 15

    def test_all_box_points_classified(self, square):
        t = 5
        inside = set(interior_lattice_points(square, t))
        rows = [(a, b, t * c) for a, b, c in square.rows]
        for x in range(-1, t + 2):
            for y in range(-1, t + 2):
                strict = all(a * x + b * y < c for a, b, c in rows)
                assert ((x, y) in inside) == strict

    def test_lexicographic_order(self, square):
        points = interior_lattice_points(square, 6)
        assert points == sorted(points)


class TestClosedLatticePoints:
    # The cells at size n < 0 are those of the closed (-n-1)-fold dilate.
    @pytest.mark.parametrize("t", range(0, 8))
    def test_square_count(self, square, t):
        assert len(cells_at(square, -1 - t)) == (t + 1) ** 2
        assert cell_count(square, -1 - t) == (t + 1) ** 2

    def test_zero_dilate_is_origin(self):
        board = board_from_text("poly:-1,0,-1/3;0,-1,-1/3;1,1,1")
        assert cells_at(board, -1) == [(0, 0)]
        assert cells_at(board, -2) == []

    @pytest.mark.parametrize("board_text", [
        "square", "rect:3/2,1", "poly:-1,0,0;0,-1,0;2,1,3",
        "poly:-1,0,1/2;0,-1,2/3;3,1,5/2"])
    def test_boundary_points_added(self, board_text):
        board = board_from_text(board_text)
        for t in range(1, 7):
            rows = [(a, b, t * c) for a, b, c in board.rows]
            closed = cells_at(board, -1 - t)
            assert closed == sorted(closed)
            assert set(interior_lattice_points(board, t)) == {
                (x, y) for x, y in closed
                if all(a * x + b * y < c for a, b, c in rows)}
            assert all(any(a * x + b * y == c for a, b, c in rows)
                       for x, y in set(closed)
                       - set(interior_lattice_points(board, t)))

    @pytest.mark.parametrize("board_text", [
        "square", "rect:3/2,1", "poly:-1,0,0;0,-1,0;2,1,3",
        "poly:-1,0,1/2;0,-1,2/3;3,1,5/2"])
    def test_bounding_box_from_vertices(self, board_text):
        # The box comes from extremes stored once per board; it must equal
        # ceil/floor of the dilated Fraction vertices.
        board = board_from_text(board_text)
        for t in range(0, 15):
            xs = [t * x for x, _ in board.vertices]
            ys = [t * y for _, y in board.vertices]
            width = floor(max(xs)) - ceil(min(xs)) + 1
            height = floor(max(ys)) - ceil(min(ys)) + 1
            # The t-fold dilate's box, at size t - 1 and at size -1 - t.
            for n in {t - 1, -1 - t}:
                (x_lo, x_hi, y_lo, y_hi), _ = region_at(board, n)
                assert (x_hi - x_lo + 1) * (y_hi - y_lo + 1) == width * height


class TestAttacks:
    def test_queen_diagonal(self, queen):
        assert attacks((1, 1), (3, 3), queen)

    def test_queen_knight_offset(self, queen, nightrider):
        assert not attacks((1, 1), (2, 3), queen)
        assert attacks((1, 1), (2, 3), nightrider)

    def test_coincidence_attacks(self, queen, rook, bishop):
        for ms in (queen, rook, bishop):
            assert attacks((5, 7), (5, 7), ms)

    @given(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
           st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
           st.sampled_from(["queen", "rook", "bishop", "nightrider", "semiqueen"]))
    def test_symmetric(self, zi, zj, name):
        ms = piece_from_text(name)
        assert attacks(zi, zj, ms) == attacks(zj, zi, ms)


class TestReachableByTwoMoves:
    def test_bishop_two_step(self):
        m1, m2 = Move(1, 1), Move(1, -1)
        assert reachable_by_two_moves(m1, m2, (2, 0))
        assert not reachable_by_two_moves(m1, m2, (1, 0))

    def test_rook_reaches_everything(self):
        m1, m2 = Move(1, 0), Move(0, 1)
        for delta in [(3, -7), (0, 0), (1, 1), (-2, 5)]:
            assert reachable_by_two_moves(m1, m2, delta)

    def test_parallel_rejected(self):
        with pytest.raises(MoveSetError):
            reachable_by_two_moves(Move(1, 1), Move(1, 1), (1, 0))

    @given(st.integers(-12, 12), st.integers(-12, 12))
    def test_divisibility_contract(self, dx, dy):
        m1, m2 = Move(2, 1), Move(1, -1)
        det = abs(m1.c * m2.d - m1.d * m2.c)
        assert (reachable_by_two_moves(m1, m2, (dx, dy))
                == (dx % det == 0 and dy % det == 0))

    @given(st.integers(-12, 12), st.integers(-12, 12))
    def test_divisible_deltas_are_in_the_move_lattice(self, kx, ky):
        # one direction is a theorem: multiples of the determinant are
        # always reachable by integer combinations of the two moves
        m1, m2 = Move(1, 1), Move(1, -1)
        det = m1.c * m2.d - m1.d * m2.c
        dx, dy = kx * det, ky * det
        # solve k*m1 + l*m2 = delta by Cramer and check integrality
        kn = dx * m2.d - dy * m2.c
        ln = dy * m1.c - dx * m1.d
        assert kn % det == 0 and ln % det == 0
        assert reachable_by_two_moves(m1, m2, (dx, dy))
