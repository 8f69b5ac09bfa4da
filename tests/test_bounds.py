from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from math import comb, lcm

import pytest
from conftest import DIRECTIONS, board_vertex_denominator, random_pieces
from hypothesis import given, settings, strategies as st

from riderpoly import bounds, flatpolytope
from riderpoly.arrangement import (
    build_move_arrangement,
    hyperplane_row,
    intersection_semilattice,
)
from riderpoly.errors import CapacityError, MoveSetError
from riderpoly.geometry import board_from_text, piece_from_text
from riderpoly.linalg import bareiss_determinant


def eta_transpose(q: int) -> tuple[tuple[int, ...], ...]:
    """Transposed oriented incidence matrix of K_q: one row per pair i < j."""
    rows = []
    for i, j in combinations(range(q), 2):
        row = [0] * q
        row[i] = 1
        row[j] = -1
        rows.append(tuple(row))
    return tuple(rows)


def kron(a, b) -> tuple[tuple[int, ...], ...]:
    """Kronecker product of two integer matrices (row-major blocks)."""
    return tuple(tuple(x * y for x in arow for y in brow)
                 for arow in a for brow in b)


class TestGrandMatrix:
    def test_queen_q2_top_block(self, queen, square):
        rows = bounds.grand_matrix(queen, square, 2)
        assert len(bounds.attack_rows(queen, 2)) == 4
        # first move (1,0): perp (0,-1) at piece 0, negated at piece 1
        assert rows[0] == ((0, -1, 0, 1), 0)

    def test_bishop_q3_top_size(self, bishop, square):
        assert len(bounds.attack_rows(bishop, 3)) == 6
        assert len(bounds.grand_matrix(bishop, square, 3)) == 6 + 3 * 4

    def test_rect_bottom_rows_for_single_piece(self, rook):
        board = board_from_text("rect:3,2")
        rows = set(bounds.grand_matrix(rook, board, 1))
        assert rows == {((-1, 0), 0), ((0, -1), 0), ((1, 0), 3), ((0, 1), 2)}

    def test_square_bottom_is_signed_identity(self, queen, square):
        rows = bounds.grand_matrix(queen, square, 2)
        as_set = {row for row, _ in rows[len(bounds.attack_rows(queen, 2)):]}
        identity = set()
        for col in range(4):
            plus = [0] * 4
            plus[col] = 1
            minus = [0] * 4
            minus[col] = -1
            identity.add(tuple(plus))
            identity.add(tuple(minus))
        assert as_set == identity

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_kronecker_identity(self, q):
        for name in ("queen", "rook", "bishop", "nightrider", "semiqueen",
                     "-1,2;-2,1;1,1"):
            ms = piece_from_text(name)
            rows = bounds.attack_rows(ms, q)
            assert rows == kron(eta_transpose(q), bounds.moves_matrix(ms)), name
            # The move hyperplanes' rows, negated, in the same order.
            assert rows == tuple(tuple(-x for x in hyperplane_row(h, ms, q))
                                 for h in build_move_arrangement(ms, q)), name


class TestDenominator:
    @pytest.mark.parametrize("name,q,expected", [
        ("queen", 2, 1), ("queen", 3, 2),
        ("nightrider", 2, 2), ("nightrider", 3, 60),
        ("bishop", 2, 1), ("bishop", 3, 2), ("rook", 2, 1),
    ])
    def test_square_board_values(self, name, q, expected, square):
        ms = piece_from_text(name)
        assert bounds.denominator(ms, square, q) == expected

    def test_budget_abort(self, nightrider, square):
        with pytest.raises(CapacityError):
            bounds.denominator(nightrider, square, 4)

    def test_budget_checked_before_closure(self, nightrider, square,
                                           monkeypatch):
        def closure(*args, **kwargs):
            raise AssertionError("semilattice closure ran before the budget")

        monkeypatch.setattr(bounds, "intersection_semilattice", closure)
        with pytest.raises(CapacityError) as info:
            bounds.denominator(nightrider, square, 4)
        rows = bounds.grand_matrix(nightrider, square, 4)
        assert info.value.context == {
            "systems": comb(len(rows), 8),
            "budget": bounds.DEFAULT_SYSTEM_BUDGET}

    def test_vertices_feasible_and_exact(self, queen, square):
        rows = bounds.grand_matrix(queen, square, 2)

        seen = []

        def feasible(point):
            d, nums = point
            if not all(0 <= x <= d for x in nums):
                return False
            seen.append(point)
            return True

        for d, nums in bounds.scan_vertices([], rows, 4, feasible):
            assert d > 0
            assert all(0 <= F(x, d) <= 1 for x in nums)
        assert seen  # the scan visits actual vertices


def _cramer_vertices(forced, optional, ncols, board):
    """Solutions of every nonsingular system, by Cramer's rule, kept if
    inside the board (all of them when ``board`` is None)."""
    found = Counter()
    for chosen in combinations(optional, ncols - len(forced)):
        system = list(forced) + list(chosen)
        matrix = [list(row) for row, _ in system]
        det = bareiss_determinant(matrix)
        if not det:
            continue
        point = []
        for col in range(ncols):
            swapped = [row[:col] + [rhs] + row[col + 1:]
                       for row, (_, rhs) in zip(matrix, system)]
            point.append(F(bareiss_determinant(swapped), det))
        if board is None or _inside(point, board):
            found[tuple(point)] += 1
    return found


def _inside(point, board) -> bool:
    return all(a * point[i] + b * point[i + 1] <= c
               for i in range(0, len(point), 2)
               for a, b, c in board.rows)


@pytest.mark.parametrize("board_text", [
    "square", "poly:-1,0,0;0,-1,0;1,1,1", "rect:3/2,1"])
@settings(max_examples=25, deadline=None)
@given(moves=st.lists(st.sampled_from(DIRECTIONS), min_size=1, max_size=4,
                      unique=True),
       force_first=st.booleans())
def test_scan_matches_cramer_reference(board_text, moves, force_first):
    board = board_from_text(board_text)
    ms = piece_from_text(";".join(f"{c},{d}" for c, d in moves))
    rows = bounds.grand_matrix(ms, board, 2)
    forced, optional = (rows[:1], rows[1:]) if force_first else ([], rows)

    scanned = Counter(
        tuple(F(x, d) for x in nums)
        for d, nums in bounds.scan_vertices(
            forced, optional, 4,
            lambda p: _inside([F(x, p[0]) for x in p[1]], board)))
    reference = _cramer_vertices(forced, optional, 4, board)
    assert scanned == reference
    assert board_vertex_denominator(forced, optional, board, 2) == lcm(
        *(x.denominator for point in reference for x in point))


RECT = board_from_text("rect:3/2,1")


@pytest.mark.parametrize("forced,optional,ncols", [
    # rect:3/2,1's edges (2,0).x <= 3 and (-1,0).x <= 0: parallel rows of
    # different scale, one direction group.
    ([], [((-1, 0), 0), ((0, -1), 0), ((2, 0), 3), ((0, 1), 1), ((1, 1), 2)],
     2),
    # Zero rows are in no nonsingular system.
    ([], [((0, 0), 0), ((2, 0), 3), ((0, 0), 5), ((-1, 0), 0), ((0, 1), 1),
          ((0, -2), -1)], 2),
    # A forced row never pairs with the optional rows parallel to it.
    ([((2, 0), 3)], [((-1, 0), 0), ((0, -1), 0), ((-4, 0), -1), ((0, 1), 1),
                     ((1, 1), 2)], 2),
    # Two pieces: several groups of two with t columns, and a singleton.
    ([], bounds.board_rows(RECT, 2) + [((1, 0, -1, 0), 0)], 4),
], ids=["parallel-scales", "zero-rows", "forced-parallel", "two-pieces"])
def test_grouped_scan_matches_cramer_reference(forced, optional, ncols):
    # With every point feasible, the scan yields each nonsingular system's
    # solution exactly once, over its least common denominator.
    points = list(bounds.scan_vertices(forced, optional, ncols,
                                       lambda p: True))
    assert all(d == lcm(*(F(x, d).denominator for x in nums))
               for d, nums in points)
    every = Counter(tuple(F(x, d) for x in nums) for d, nums in points)
    assert every == _cramer_vertices(forced, optional, ncols, None)
    inside = Counter(
        tuple(F(x, d) for x in nums)
        for d, nums in bounds.scan_vertices(
            forced, optional, ncols,
            lambda p: _inside([F(x, p[0]) for x in p[1]], RECT)))
    assert inside == _cramer_vertices(forced, optional, ncols, RECT)


@pytest.mark.parametrize("board_text", [
    "square", "poly:-1,0,0;0,-1,0;1,1,1", "rect:3/2,1",
    "poly:-1,0,0;0,-1,0;2,1,3"])
@settings(max_examples=15, deadline=None)
@given(moves=st.lists(st.sampled_from(DIRECTIONS), min_size=1, max_size=4,
                      unique=True),
       q=st.integers(1, 3))
def test_flatwise_denominator_matches_full_scan(board_text, moves, q):
    board = board_from_text(board_text)
    ms = piece_from_text(";".join(f"{c},{d}" for c, d in moves))
    # Reference: every nonsingular 2q x 2q system of the grand matrix.
    full_scan = board_vertex_denominator(
        [], bounds.grand_matrix(ms, board, q), board, q)
    assert bounds.denominator(ms, board, q) == full_scan


@pytest.mark.parametrize("board_text", [
    "square", "poly:-1,0,0;0,-1,0;1,1,1", "rect:3/2,1",
    "poly:-1,0,0;0,-1,0;2,1,3"])
@settings(max_examples=10, deadline=None)
@given(moves=st.lists(st.sampled_from(DIRECTIONS), min_size=1, max_size=4,
                      unique=True),
       q=st.integers(2, 3))
def test_flat_denominator_matches_scan_in_all_coordinates(board_text, moves,
                                                          q):
    # alpha_qp fits each class with its own value as the period, so every
    # class must match, not only the lcm over the classes.
    board = board_from_text(board_text)
    ms = piece_from_text(";".join(f"{c},{d}" for c, d in moves))
    sl = intersection_semilattice(ms, q)
    for flat in sl.iso_classes:
        assert bounds.flat_polytope_denominator(flat, board) == \
            _exhaustive_flat_denominator(flat, board), flat


def _exhaustive_flat_denominator(flat, board):
    """Every nonsingular system of the flat's equations and the board rows
    of its pieces, in all 2 kappa coordinates, none skipped."""
    return board_vertex_denominator(
        [(row, 0) for row in flatpolytope.essential_rows(flat)],
        bounds.board_rows(board, flat.kappa), board, flat.kappa)


@pytest.mark.parametrize("name", ["rook", "bishop"])
def test_pruned_flat_denominator_matches_exhaustive_at_q4(name, square,
                                                           monkeypatch):
    # Where the per-set bound skips the most, every class must still match.
    solved = []
    solve = flatpolytope._solve

    def counted(*args):
        solved.append(args)
        return solve(*args)

    sl = intersection_semilattice(piece_from_text(name), 4)
    for flat in sl.iso_classes:
        expected = _exhaustive_flat_denominator(flat, square)
        with monkeypatch.context() as patched:
            patched.setattr(flatpolytope, "_solve", counted)
            assert bounds.flat_polytope_denominator(flat, square) == \
                expected, flat
    if name == "rook":
        assert not solved  # unimodular flats: every set is skipped


def lcmd_by_minors(matrix) -> int:
    """Reference lcmd: one Bareiss determinant per minor of every order."""
    rows = [tuple(row) for row in matrix]
    ncols = len(rows[0]) if rows else 0
    result = 1
    for size in range(1, min(len(rows), ncols) + 1):
        for rsel in combinations(range(len(rows)), size):
            for csel in combinations(range(ncols), size):
                det = bareiss_determinant([[rows[r][c] for c in csel]
                                           for r in rsel])
                if det:
                    result = lcm(result, abs(det))
    return result


# Integer matrices up to 6 x 6, about half of their entries zero.
SPARSE_MATRICES = st.integers(1, 6).flatmap(
    lambda ncols: st.lists(
        st.lists(st.one_of(st.just(0), st.integers(-6, 6)),
                 min_size=ncols, max_size=ncols),
        min_size=1, max_size=6))


class TestLcmd:
    @settings(max_examples=200, deadline=None)
    @given(matrix=SPARSE_MATRICES)
    def test_expansion_matches_minors(self, matrix):
        assert bounds.lcmd_direct(matrix) == lcmd_by_minors(matrix)

    @settings(max_examples=30, deadline=None)
    @given(ms=random_pieces(), q=st.sampled_from((2, 3)))
    def test_attack_rows_match_minors(self, ms, q):
        rows = bounds.attack_rows(ms, q)
        assert bounds.lcmd_direct(rows) == lcmd_by_minors(rows)

    def test_no_nonzero_minor_gives_one(self):
        assert bounds.lcmd_direct([]) == 1
        assert bounds.lcmd_direct([(0, 0, 0)] * 4) == 1

    def test_diagonal_matrix_takes_every_order(self):
        assert bounds.lcmd_direct([(2, 0), (0, 3)]) == 6
        # Order-1 minors alone give lcm(2, 4) = 4; the determinant is 8.
        assert bounds.lcmd_direct([(2, 0), (0, 4)]) == 8

    def test_move_matrix_nightrider(self, nightrider):
        assert bounds.lcmd_direct(bounds.moves_matrix(nightrider)) == 60

    @pytest.mark.parametrize("name,q,expected", [
        ("queen", 2, 2), ("queen", 3, 4),
        ("nightrider", 2, 60), ("nightrider", 3, 3600),
    ])
    def test_attack_block_values(self, name, q, expected):
        ms = piece_from_text(name)
        assert bounds.lcmd_direct(bounds.attack_rows(ms, q)) == expected

    def test_budget_abort(self, nightrider):
        with pytest.raises(CapacityError):
            bounds.lcmd_direct(bounds.attack_rows(nightrider, 4))


class TestClosedForm:
    def test_bishop_powers_of_two(self, bishop):
        values = [bounds.lcmd_closed_form_two_moves(bishop, q)
                  for q in range(2, 7)]
        assert values == [2, 4, 8, 16, 32]

    def test_rook_always_one(self, rook):
        assert all(bounds.lcmd_closed_form_two_moves(rook, q) == 1
                   for q in range(1, 8))

    def test_rejects_other_sizes(self, queen):
        with pytest.raises(MoveSetError):
            bounds.lcmd_closed_form_two_moves(queen, 3)

    def test_matches_direct_enumeration_for_bishop(self, bishop):
        for q in (2, 3):
            direct = bounds.lcmd_direct(bounds.attack_rows(bishop, q))
            assert bounds.lcmd_closed_form_two_moves(bishop, q) == direct == 2 ** (q - 1)


def test_stretch_nightrider_q4_lcmd(nightrider):
    value = bounds.lcmd_direct(bounds.attack_rows(nightrider, 4),
                               budget=11_000_000)
    assert value == 14290972303608000


class TestDivisibilityChain:
    @pytest.mark.parametrize("name,q,n_max", [
        ("bishop", 3, 16), ("queen", 3, 20), ("nightrider", 2, 20)])
    def test_period_divides_denominator_divides_lcmd(self, name, q, n_max,
                                                     square):
        from riderpoly.counting import count_series
        from riderpoly.quasipoly import detect_period

        ms = piece_from_text(name)
        denom = bounds.denominator(ms, square, q)
        lcmd_val = bounds.lcmd_direct(bounds.attack_rows(ms, q))
        table = count_series(ms, square, q, 1, n_max)
        period = detect_period(table, denom, denominator_bound=denom)
        assert denom % period == 0
        assert lcmd_val % denom == 0

    def test_report_shape(self, bishop, square):
        report = bounds.bounds_report(bishop, square, 3)
        assert report["denominator"] == 2
        assert report["lcmd"] == 4
        assert report["lcmd_closed_form"] == 4
        assert report["exhaustive"] is True
