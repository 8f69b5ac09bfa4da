from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

import pytest
from conftest import RANDOM_BOARDS, RATIONAL_BOARDS, random_pieces
from hypothesis import assume, given, settings, strategies as st

from riderpoly import counting, kernel
from riderpoly.counting import (
    ConfigType,
    CountTable,
    attack_keys,
    census_types,
    count_nonattacking,
    count_series,
    labelled_type_of,
)
from riderpoly.errors import AttackingConfigurationError, CapacityError
from riderpoly.geometry import (
    BoardPolygon,
    Configuration,
    attacks,
    board_from_text,
    interior_lattice_points,
)

# [1,2] x [0,1]: no two of its dilates' interiors nest, so every size
# starts a new run of count_series.
OFF_ORIGIN = "poly:-1,0,-1;1,0,2;0,-1,0;0,1,1"


class TestCountNonattacking:
    def test_two_queens_values(self, queen, square):
        # u_Q(2;n) = n^4/2 - 5n^3/3 + 3n^2/2 - n/3
        for n in range(1, 9):
            expected = (Fraction(n**4, 2) - Fraction(5 * n**3, 3)
                        + Fraction(3 * n**2, 2) - Fraction(n, 3))
            lab, unlab = count_nonattacking(queen, square, 2, n)
            assert unlab == expected
            assert lab == 2 * unlab

    def test_two_queens_named_points(self, queen, square):
        assert count_nonattacking(queen, square, 2, 3) == (16, 8)
        assert count_nonattacking(queen, square, 2, 4)[1] == 44

    def test_two_nightriders_tiny_board(self, nightrider, square):
        # no attacks fit on a 2x2 board, so all pairs count
        assert count_nonattacking(nightrider, square, 2, 2)[1] == 6

    def test_single_piece_counts_cells(self, semiqueen, square):
        for n in range(0, 7):
            cells = len(interior_lattice_points(square, n + 1))
            assert count_nonattacking(semiqueen, square, 1, n) == (cells, cells)

    def test_empty_placement(self, rook, square):
        assert count_nonattacking(rook, square, 0, 5) == (1, 1)

    def test_capacity_error(self, queen, square):
        with pytest.raises(CapacityError) as exc:
            count_nonattacking(queen, square, 3, 20, budget=10**3)
        assert exc.value.context["n"] == 20


class TestCountSeries:
    def test_two_queens_series(self, queen, square):
        table = count_series(queen, square, 2, 1, 6)
        assert [table.rows[n] for n in table.ns()] == [0, 0, 8, 44, 140, 340]

    def test_two_bishops_series(self, bishop, square):
        table = count_series(bishop, square, 2, 1, 3)
        assert [table.rows[n] for n in table.ns()] == [0, 4, 26]

    def test_rook_q0(self, rook, square):
        table = count_series(rook, square, 0, 1, 5)
        assert all(table.row(n) == (1, 1) for n in table.ns())

    def test_capacity_error_carries_n(self, queen, square, monkeypatch,
                                      no_cell_listing):
        # Every size is checked before any cell is listed or counted, and
        # the refusal names the first size over budget.
        def unreachable(*args):
            raise AssertionError("work started before the budget checks")

        monkeypatch.setattr(counting, "count_nonattacking_subsets", unreachable)
        with pytest.raises(CapacityError) as exc:
            count_series(queen, square, 3, 1, 25, budget=10**5)
        assert exc.value.context["n"] == 7
        assert str(exc.value) == (
            "search envelope 117649 exceeds budget 100000 at n=7")

    def test_search_envelope_bounds_the_kernel_past_q4(self, queen, square,
                                                       monkeypatch,
                                                       no_cell_listing):
        # The kernel steps through every nonattacking prefix of 1..q-1
        # cells, so past q = 4 the envelope charges sum C(N, k), k < q:
        # six queens on the 144 cells of n = 12 pass N**3 = 2985984 but
        # not the 498685188 prefixes.  Refused before any cell is listed.
        def unreachable(*args):
            raise AssertionError("work started before the budget checks")

        monkeypatch.setattr(counting, "count_nonattacking_subsets", unreachable)
        with pytest.raises(CapacityError) as exc:
            count_series(queen, square, 6, 12, 12, budget=3 * 10**6)
        envelope = sum(comb(144, k) for k in range(1, 6))
        assert envelope == 498685188
        assert exc.value.context == {"n": 12, "envelope": envelope,
                                     "budget": 3 * 10**6}
        assert str(exc.value) == (
            "search envelope 498685188 exceeds budget 3000000 at n=12")

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_search_envelope_through_q4_is_cells_to_min_q_3(self, square, q):
        # Up to q = 4 the prefixes never outnumber N**min(q, 3), so the
        # gate passes at exactly that budget and refuses one below it.
        for n in range(3, 12):
            envelope = (n * n) ** min(q, 3)
            assert counting.check_size(square, n, envelope, q,
                                       "count") == n * n
            with pytest.raises(CapacityError) as exc:
                counting.check_size(square, n, envelope - 1, q, "count")
            assert exc.value.context == {"n": n, "envelope": envelope,
                                         "budget": envelope - 1}

    def test_non_nesting_board_matches_square(self, queen, square):
        # A translate of the square: the same rows, one run per size.
        table = count_series(queen, board_from_text(OFF_ORIGIN), 2, 1, 6)
        assert [table.rows[n] for n in table.ns()] == [0, 0, 8, 44, 140, 340]
        assert table.rows == count_series(queen, square, 2, 1, 6).rows

    @pytest.mark.parametrize("board_text, n_from, runs, cells", [
        ("square", 1, 1, 64),
        ("square", 4, 1, 64),
        # Sizes 0 and 1 have no cells, and one run holds all.
        ("poly:-1,0,0;0,-1,0;1,1,1", 0, 1, 28),
        # Size 0 has no cells, so size 1 continues its run.
        (OFF_ORIGIN, 0, 8, sum(n * n for n in range(1, 9))),
        (OFF_ORIGIN, 4, 5, sum(n * n for n in range(4, 9))),
    ])
    def test_one_kernel_call_per_nested_run(self, queen, board_text, n_from,
                                            runs, cells, monkeypatch):
        # perfbench/trace_job.py wraps the kernel by name and reads
        # len(keys[0]): one call per run of nested sizes, on its cells.
        calls = []
        count = kernel.count_nonattacking_subsets

        def recorded(keys, q):
            calls.append(len(keys[0]))
            return count(keys, q)

        monkeypatch.setattr(counting, "count_nonattacking_subsets", recorded)
        count_series(queen, board_from_text(board_text), 2, n_from, 8)
        assert (len(calls), sum(calls)) == (runs, cells)

    @settings(max_examples=60, deadline=None)
    @given(ms=random_pieces(), inequalities=RATIONAL_BOARDS,
           q=st.integers(0, 3), n_from=st.integers(0, 4),
           length=st.integers(0, 3))
    def test_rows_match_counts_per_size(self, ms, inequalities, q, n_from,
                                        length):
        # Many of these boards miss the origin, so runs restart.
        board = BoardPolygon(inequalities)
        n_to = n_from + length
        table = count_series(ms, board, q, n_from, n_to)
        assert ({n: table.row(n) for n in table.ns()}
                == {n: count_nonattacking(ms, board, q, n)
                    for n in range(n_from, n_to + 1)})

    def test_csv_format(self, rook, square):
        table = count_series(rook, square, 2, 2, 3)
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "n,labelled,unlabelled,method"
        assert lines[1] == "2,4,2,brute_force"

    def test_json_big_integers_as_strings(self, rook, square):
        table = count_series(rook, square, 2, 3, 3)
        data = table.to_json_dict()
        # u_R(2;3) = 3^2 * 2^2 / 2 = 18
        assert data["rows"][0]["unlabelled"] == "18"

    def test_row_is_labelled_and_unlabelled(self, square):
        # The table keeps the unlabelled count; the labelled one is q! times it.
        table = CountTable(piece="rook", board=square, q=3, rows={4: 24})
        assert table.row(4) == (144, 24)


class TestLabelledTypes:
    def test_left_lists_match_sign_evaluation(self, queen):
        ct = labelled_type_of(Configuration(((1, 1), (2, 3))), queen)
        lists = ct.lists()
        # m = (1,0): perp (0,-1); (z2-z1).perp = -2 < 0, so 2 is not left of 1
        assert 1 not in lists[0][0]
        assert 0 in lists[1][0]

    def test_single_piece_type_trivial(self, queen):
        ct = labelled_type_of(Configuration(((3, 4),)), queen)
        assert ct.lists() == [[set(), set(), set(), set()]]

    def test_reflected_pair_differs(self, queen):
        a = labelled_type_of(Configuration(((1, 1), (2, 3))), queen)
        b = labelled_type_of(Configuration(((1, 3), (2, 1))), queen)
        assert a != b

    def test_attacking_rejected(self, queen):
        with pytest.raises(AttackingConfigurationError):
            labelled_type_of(Configuration(((1, 1), (3, 3))), queen)
        with pytest.raises(AttackingConfigurationError):
            labelled_type_of(Configuration(((2, 2), (2, 2))), queen)

    def test_relabelling_changes_type(self, queen):
        # each ordering of a nonattacking configuration is a distinct type
        positions = ((1, 1), (2, 3), (4, 2))
        seen = {labelled_type_of(Configuration(tuple(positions[i] for i in p)),
                                 queen)
                for p in permutations(range(3))}
        assert len(seen) == factorial(3)


def census_at(ms, board, q, n):
    return census_types(ms, board, q, n, n)[n]


class TestCensus:
    def test_two_piece_census_counts_moves(self, square, queen, nightrider,
                                           bishop, rook, semiqueen):
        # q = 2 realizes one unlabelled type per basic move
        from riderpoly.geometry import piece_from_text
        custom = piece_from_text("1,0;0,1;1,2;1,-2")
        for ms in (queen, nightrider, bishop, rook, semiqueen, custom):
            lab, unlab = census_at(ms, square, 2, 8)
            assert unlab == len(ms)
            assert lab == 2 * unlab

    def test_rook_three_pieces(self, rook, square):
        assert census_at(rook, square, 3, 10) == (36, 6)

    def test_queen_three_pieces_stabilizes(self, queen, square):
        assert census_at(queen, square, 3, 8) == (216, 36)

    def test_monotone_in_n(self, bishop, square):
        census = census_types(bishop, square, 2, 1, 6)
        values = [census[n][1] for n in range(1, 7)]
        assert values == sorted(values)

    def test_iterator_yields_sorted_nonattacking(self, queen, square):
        cells = interior_lattice_points(square, 4)
        combos = list(kernel.iter_nonattacking_subsets(
            attack_keys(queen, cells), 2))
        assert len(combos) == 8
        assert all(a < b for a, b in combos)

    def test_empty_placement(self, rook, square, no_cell_listing):
        # q = 0: the empty placement's one type, with no cell listed.
        assert census_types(rook, square, 0, 0, 3) == dict.fromkeys(range(4),
                                                                    (1, 1))

    def test_negative_size_refused(self, queen, square):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            census_types(queen, square, 2, -1, 1)

    def test_capacity_error_carries_n(self, queen, square, monkeypatch,
                                      no_cell_listing):
        # The whole range is checked before any cell is listed or
        # iterated, and the refusal names the first size over budget.
        def unreachable(*args):
            raise AssertionError("work started before the budget checks")

        monkeypatch.setattr(counting, "iter_nonattacking_subsets", unreachable)
        with pytest.raises(CapacityError) as exc:
            census_types(queen, square, 3, 4, 25, budget=10**5)
        assert exc.value.context["n"] == 7
        assert str(exc.value) == (
            "search envelope 117649 exceeds budget 100000 at n=7")

    def test_census_budget_counts_placements(self, queen, square,
                                             monkeypatch, no_cell_listing):
        # Four queens on the n**2 cells of sizes 8..12 pass the kernel's
        # envelope (at most 144**3 = 2985984), but the census visits every
        # placement, and C(100, 4) = 3921225 at n = 10 is the first size
        # over budget.  Refused before any cell is listed.
        def unreachable(*args):
            raise AssertionError("work started before the budget checks")

        monkeypatch.setattr(counting, "iter_nonattacking_subsets", unreachable)
        with pytest.raises(CapacityError) as exc:
            census_types(queen, square, 4, 8, 12, budget=3 * 10**6)
        assert exc.value.context == {"n": 10, "placements": comb(100, 4),
                                     "budget": 3 * 10**6}
        assert str(exc.value) == (
            "census of 3921225 placements exceeds budget 3000000 at n=10")

    @pytest.mark.parametrize("board_text, runs", [("square", 1),
                                                  (OFF_ORIGIN, 6)])
    def test_one_kernel_iteration_per_nested_run(self, queen, board_text,
                                                 runs, monkeypatch):
        # The square is one run; its translate, whose dilates never nest,
        # is one run per size, with the same census.
        calls = []
        iterate = kernel.iter_nonattacking_subsets

        def recorded(keys, q):
            calls.append(q)
            return iterate(keys, q)

        monkeypatch.setattr(counting, "iter_nonattacking_subsets", recorded)
        census = census_types(queen, board_from_text(board_text), 2, 1, 6)
        assert len(calls) == runs
        assert [census[n] for n in range(1, 7)] == [
            (0, 0), (0, 0), (8, 4), (8, 4), (8, 4), (8, 4)]


def reference_type(positions, ms):
    """The left masks read off the attack keys pair by pair, without a
    comparison signature."""
    keys = attack_keys(ms, positions)
    q = len(positions)
    for a, b in combinations(range(q), 2):
        if any(col[a] == col[b] for col in keys):
            raise AttackingConfigurationError(f"pieces {a} and {b} attack")
    return ConfigType(tuple(
        tuple(sum(1 << j for j in range(q) if col[j] > col[i]) for col in keys)
        for i in range(q)))


def reference_census(ms, board, q, n):
    """The census that types every ordering of the placements at size n.

    Placements are listed by ``itertools.combinations`` and
    ``geometry.attacks``; each ordering of a placement with a new type is
    typed by ``labelled_type_of``, and an unlabelled type is the set of its
    orderings' types.
    """
    cells = interior_lattice_points(board, n + 1)
    apart = {pair for pair in combinations(cells, 2) if not attacks(*pair, ms)}
    labelled, unlabelled = set(), set()
    for combo in combinations(cells, q):
        if not all(pair in apart for pair in combinations(combo, 2)):
            continue
        if labelled_type_of(Configuration(combo), ms) in labelled:
            continue
        orbit = frozenset(labelled_type_of(Configuration(order), ms)
                          for order in permutations(combo))
        labelled |= orbit
        unlabelled.add(orbit)
    return len(labelled), len(unlabelled)


# The most q-subsets of cells the reference lists at one size.
REFERENCE_SUBSETS = 20_000


def reference_sized(board, q, n) -> bool:
    return (comb(len(interior_lattice_points(board, n + 1)), q)
            <= REFERENCE_SUBSETS)


@pytest.mark.parametrize("board_text", RANDOM_BOARDS)
@settings(max_examples=15, deadline=None)
@given(ms=random_pieces(), q=st.integers(1, 4), data=st.data())
def test_census_matches_per_placement_reference(board_text, ms, q, data):
    board = board_from_text(board_text)
    n = data.draw(st.integers(1, 4 if q == 4 else 6), label="n")
    labelled, unlabelled = census_at(ms, board, q, n)
    assert (labelled, unlabelled) == reference_census(ms, board, q, n)
    # Every region orders the pieces totally along each move, so no
    # relabelling but the identity fixes a type.
    assert labelled == factorial(q) * unlabelled


@settings(max_examples=60, deadline=None)
@given(ms=random_pieces(), inequalities=RATIONAL_BOARDS, q=st.integers(1, 3),
       n_from=st.integers(2, 4), length=st.integers(0, 2))
def test_range_census_matches_per_size_reference(ms, inequalities, q, n_from,
                                                 length):
    # Every range starts past n = 1, and many of these boards miss the
    # origin, so runs restart.
    board = BoardPolygon(inequalities)
    assume(reference_sized(board, q, n_from))
    n_to = n_from
    while n_to < n_from + length and reference_sized(board, q, n_to + 1):
        n_to += 1
    assert census_types(ms, board, q, n_from, n_to) == {
        n: reference_census(ms, board, q, n) for n in range(n_from, n_to + 1)}


@pytest.mark.parametrize("board_text", RANDOM_BOARDS)
@settings(max_examples=25, deadline=None)
@given(ms=random_pieces(), data=st.data())
def test_labelled_type_matches_reference(board_text, ms, data):
    # Placements drawn with repeats and attacks: both must be refused.
    cells = interior_lattice_points(board_from_text(board_text), 5)
    positions = tuple(data.draw(st.lists(st.sampled_from(cells), min_size=1,
                                         max_size=4), label="positions"))
    try:
        expected = reference_type(positions, ms)
    except AttackingConfigurationError:
        with pytest.raises(AttackingConfigurationError):
            labelled_type_of(Configuration(positions), ms)
    else:
        assert labelled_type_of(Configuration(positions), ms) == expected
