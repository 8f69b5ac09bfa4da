"""The bitset enumeration core against an unpruned oracle and against
the free-cell search it replaced (``kernel_reference``)."""

from itertools import combinations
from math import comb

import kernel_reference
import pytest
from conftest import PIECES as PRESETS
from conftest import RANDOM_BOARDS, RATIONAL_BOARDS, random_pieces
from hypothesis import assume, given, settings, strategies as st

from riderpoly import kernel
from riderpoly.counting import (
    _nested_runs,
    _signature,
    attack_keys,
    count_nonattacking,
)
from riderpoly.geometry import (
    BoardPolygon,
    attacks,
    board_from_text,
    interior_lattice_points,
    piece_from_text,
)

PIECES = ["queen", "rook", "bishop", "nightrider"]
ALL_PIECES = PIECES + ["semiqueen", "-1,2;-2,1;1,1"]
TRIANGLE = "poly:-1,0,0;0,-1,0;1,1,1"
BOARDS = ["square", TRIANGLE]


def naive_cell_subsets(ms, cells, q):
    """Unoptimized oracle: test every q-subset of the cells, no pruning."""
    for combo in combinations(cells, q):
        if all(not attacks(a, b, ms) for a, b in combinations(combo, 2)):
            yield combo


def naive_subsets(ms, board, q, n):
    return naive_cell_subsets(ms, interior_lattice_points(board, n + 1), q)


def naive_count(ms, board, q, n):
    return sum(1 for _ in naive_subsets(ms, board, q, n))


@pytest.mark.parametrize("name", PIECES)
@pytest.mark.parametrize("q", [1, 2, 3])
def test_optimized_counter_matches_unpruned_oracle(name, q, square):
    ms = piece_from_text(name)
    for n in range(1, 9):
        _, unlab = count_nonattacking(ms, square, q, n)
        assert unlab == naive_count(ms, square, q, n), (name, q, n)


def check_kernel_against_oracle(name, board_text):
    ms = piece_from_text(name)
    board = board_from_text(board_text)
    for q, n in [(2, 9), (3, 7), (4, 5), (5, 4)]:
        keys = attack_keys(ms, interior_lattice_points(board, n + 1))
        assert (kernel.count_nonattacking_subsets(keys, q)[-1]
                == naive_count(ms, board, q, n)), (q, n)


@pytest.mark.parametrize("name", ALL_PIECES)
def test_pure_kernel_matches_selected_kernel(name):
    """The pure-Python bitset kernel, the only one selected, against the
    unpruned oracle on the square board."""
    check_kernel_against_oracle(name, "square")


@pytest.mark.parametrize("name", ALL_PIECES)
def test_kernel_matches_unpruned_oracle_on_triangle(name):
    check_kernel_against_oracle(name, TRIANGLE)


@pytest.mark.parametrize("board_text", RANDOM_BOARDS)
@settings(max_examples=25, deadline=None)
@given(ms=random_pieces(), q=st.integers(2, 4), data=st.data())
def test_kernel_matches_unpruned_oracle_on_random_pieces(board_text, ms, q,
                                                        data):
    """Every running count, one per prefix of the cells, against the oracle."""
    board = board_from_text(board_text)
    # The oracle tests every q-subset, so n stays small as q grows.
    n = data.draw(st.integers(1, {2: 6, 3: 4, 4: 3}[q]), label="n")
    cells = interior_lattice_points(board, n + 1)
    assert (kernel.count_nonattacking_subsets(attack_keys(ms, cells), q)
            == [sum(1 for _ in naive_cell_subsets(ms, cells[:k], q))
                for k in range(len(cells) + 1)])


@pytest.mark.parametrize("board_text", BOARDS)
@pytest.mark.parametrize("name", ALL_PIECES)
def test_iteration_matches_oracle_in_lexicographic_order(name, board_text):
    ms = piece_from_text(name)
    cells = interior_lattice_points(board_from_text(board_text), 6)
    keys = attack_keys(ms, cells)
    for q in (1, 2, 3):
        assert ([tuple(cells[i] for i in combo) for combo
                 in kernel_reference.iter_nonattacking_subsets(keys, q)]
                == list(naive_cell_subsets(ms, cells, q))), q


def test_trivial_cases():
    assert kernel.count_nonattacking_subsets([], 0) == [1]
    assert kernel.count_nonattacking_subsets([[1, 2, 3]], 0) == [1, 1, 1, 1]
    assert kernel.count_nonattacking_subsets([[1, 2, 3]], 1) == [0, 1, 2, 3]
    assert kernel.count_nonattacking_subsets([], 2) == [0]
    assert kernel.count_nonattacking_subsets([[1, 2, 3]], 2) == [0, 0, 1, 3]
    assert kernel.count_nonattacking_subsets([[1, 2, 3]], 4) == [0, 0, 0, 0]
    # three cells on one line: no nonattacking pair
    assert kernel.count_nonattacking_subsets([[7, 7, 7]], 2) == [0, 0, 0, 0]


@pytest.mark.parametrize("q", range(6))
def test_empty_and_one_cell_keys(q):
    for keys, npts in (([], 0), ([[]], 0), ([[5]], 1), ([[5], [7]], 1)):
        expected = [int(q == 0 or (q == 1 and k == 1)) for k in range(npts + 1)]
        assert kernel.count_nonattacking_subsets(keys, q) == expected
        assert kernel_reference.count_nonattacking_subsets(keys, q) == expected
        if q:
            assert kernel.first_signatures(keys, q) == (
                {0: (0,)} if npts and q == 1 else {})


PIECES_DRAWN = st.one_of(random_pieces(),
                         st.sampled_from(PRESETS).map(piece_from_text))
BOARDS_DRAWN = st.one_of(st.just(BoardPolygon.square()),
                         RATIONAL_BOARDS.map(BoardPolygon))
# The most subsets of a run's cells, C(N, q), a drawn example searches.
MAX_SUBSETS = 200_000


def drawn_runs(board, n_from, length, q):
    """The cells of each run of nested sizes, as ``count_series`` lists
    them, skipping runs too large for the reference to search."""
    runs = [cells for cells, _ in
            _nested_runs(board, range(n_from, n_from + length + 1))]
    return [cells for cells in runs if comb(len(cells), q) <= MAX_SUBSETS]


@settings(max_examples=80, deadline=None)
@given(ms=PIECES_DRAWN, board=BOARDS_DRAWN, q=st.integers(0, 5),
       n_from=st.integers(0, 5), length=st.integers(0, 3))
def test_running_totals_match_free_cell_search(ms, board, q, n_from, length):
    """Every running count, on each nested run of a range of sizes, equals
    the free-cell search's; on runs of at most 12 cells, also the count of
    q-subsets with no two cells attacking by ``geometry.attacks``."""
    runs = drawn_runs(board, n_from, length, q)
    assume(runs)
    for cells in runs:
        keys = attack_keys(ms, cells)
        totals = kernel.count_nonattacking_subsets(keys, q)
        assert totals == kernel_reference.count_nonattacking_subsets(keys, q)
        if len(cells) <= 12:
            assert totals == [sum(1 for _ in naive_cell_subsets(ms, cells[:k],
                                                                q))
                              for k in range(len(cells) + 1)]


@settings(max_examples=60, deadline=None)
@given(ms=PIECES_DRAWN, board=BOARDS_DRAWN, q=st.integers(1, 4),
       n_from=st.integers(0, 5), length=st.integers(0, 2))
def test_first_signatures_keep_one_earliest_subset_per_signature(
        ms, board, q, n_from, length):
    """Against every nonattacking subset the free-cell search lists: one
    subset is kept per comparison signature, and it has the least highest
    cell of the subsets with that signature."""
    runs = drawn_runs(board, n_from, length, q)
    assume(runs)
    for cells in runs:
        keys = attack_keys(ms, cells)
        cell_keys = list(zip(*keys))
        earliest = {}
        for combo in kernel_reference.iter_nonattacking_subsets(keys, q):
            sig = _signature([cell_keys[i] for i in combo])
            earliest[sig] = min(earliest.get(sig, combo[-1]), combo[-1])
        kept = kernel.first_signatures(keys, q).values()
        assert all(combo == tuple(sorted(combo)) and all(
            not attacks(cells[a], cells[b], ms)
            for a, b in combinations(combo, 2)) for combo in kept)
        assert {_signature([cell_keys[i] for i in combo]): combo[-1]
                for combo in kept} == earliest
        assert len(kept) == len(earliest)


def test_kernel_name_is_reported():
    assert kernel.implementation_name() == "pure-python"
