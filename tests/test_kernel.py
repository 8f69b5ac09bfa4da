"""The bitset enumeration core against an unpruned oracle."""

from itertools import combinations

import pytest
from conftest import RANDOM_BOARDS, random_pieces
from hypothesis import given, settings, strategies as st

from riderpoly import kernel
from riderpoly.counting import attack_keys, count_nonattacking
from riderpoly.geometry import (
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
        assert ([tuple(cells[i] for i in combo)
                 for combo in kernel.iter_nonattacking_subsets(keys, q)]
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


def test_kernel_name_is_reported():
    assert kernel.implementation_name() == "pure-python"
