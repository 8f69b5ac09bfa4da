"""Brute-force counting of nonattacking placements and configuration types.

This module is the ground-truth oracle for everything symbolic: it counts
placements and censuses their types by explicit enumeration of lattice
cells through the bitset core in ``kernel``.  Both take a range of board
sizes, check every size against the budget before any cell is listed,
and enumerate each run of nested sizes once.  Nothing returns a partial
answer (resource caps raise ``CapacityError`` instead).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from itertools import combinations, permutations
from math import comb, factorial

from . import kernel
from .errors import (
    DEFAULT_BUDGET,
    AttackingConfigurationError,
    CapacityError,
    Record,
)
from .geometry import (
    BoardPolygon,
    Configuration,
    MoveSet,
    bounding_box_cells,
    interior_lattice_count,
    interior_lattice_points,
)

METHOD_BRUTE_FORCE = "brute_force"
METHOD_RECONSTRUCTION = "reconstruction"


def attack_keys(ms: MoveSet, points) -> list[list[int]]:
    """Per-move attack keys: equal keys mark cells on a common move line."""
    return [[m.d * x - m.c * y for (x, y) in points] for m in ms]


def check_board_walk(board: BoardPolygon, n: int, budget: int) -> None:
    """Refuse the cell walk at size n if its bounding box exceeds the budget.

    The bounding box bounds the cells ``interior_lattice_points`` returns
    (it walks the box column by column, each row cutting the column's y
    range), so every caller that walks the board under a budget checks
    here first.  A negative n walks the closed (-n-1)-fold dilate instead
    of the interior of the (n+1)-fold one (see ``arrangement.alpha``).
    """
    cells = bounding_box_cells(board, n + 1 if n >= 0 else -1 - n)
    if cells > budget:
        raise CapacityError(
            f"board walk of {cells} cells exceeds budget {budget} at n={n}",
            n=n, cells=cells, budget=budget)


def check_range(n_from: int, n_to: int) -> None:
    """Refuse a reversed range of board sizes, and a negative n."""
    if n_from > n_to:
        raise ValueError("n_from must not exceed n_to")
    if n_from < 0:
        raise ValueError("n must be nonnegative")


def _gated_sizes(board: BoardPolygon, q: int, n_from: int, n_to: int,
                 budget: int, census: bool = False) -> range:
    """The sizes n_from..n_to, once the range and q are valid and every
    size's cell walk and search envelope fit the budget.

    The envelope N^min(q, 3), for N cells, bounds the counting kernel,
    whose last two levels are popcounts.  A census visits every placement,
    so with ``census`` each size's C(N, q) must fit the budget too.
    Nothing is listed before every check passes, so a refusal names the
    first n over budget (its walk checked before its envelope).  q = 0
    lists no cell, so it is not walked.
    """
    check_range(n_from, n_to)
    if q < 0:
        raise ValueError("q must be nonnegative")
    sizes = range(n_from, n_to + 1)
    if q == 0:
        return sizes
    for n in sizes:
        check_board_walk(board, n, budget)
        cells = interior_lattice_count(board, n + 1)
        envelope = cells ** min(q, 3)
        if envelope > budget:
            raise CapacityError(
                f"search envelope {envelope} exceeds budget {budget} at n={n}",
                n=n, envelope=envelope, budget=budget)
        placements = comb(cells, q) if census else 0
        if placements > budget:
            raise CapacityError(
                f"census of {placements} placements exceeds budget {budget} "
                f"at n={n}", n=n, placements=placements, budget=budget)
    return sizes


def count_nonattacking(ms: MoveSet, board: BoardPolygon, q: int, n: int,
                       budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """(labelled, unlabelled) counts of nonattacking placements of q pieces.

    Places pieces on the integer points strictly inside the (n+1)-fold
    dilate of the board.  q = 0 counts the empty placement once.  The
    one-row ``count_series``, so the kernel's last running count.
    """
    return count_series(ms, board, q, n, n, budget).rows[n]


class CountTable(Record):
    """Exact counts per board size, with provenance.

    ``rows`` maps n to (labelled, unlabelled); the labelled column always
    equals q! times the unlabelled one.  Each table without ``rows`` gets
    its own empty dict.  A mutable value, so unhashable.
    """

    __slots__ = ("piece", "board", "q", "rows", "method")

    def __init__(self, piece: str, board: BoardPolygon, q: int,
                 rows: dict[int, tuple[int, int]] | None = None,
                 method: str = METHOD_BRUTE_FORCE):
        rows = {} if rows is None else rows
        fq = factorial(q)
        for n, (lab, unlab) in rows.items():
            if lab != fq * unlab or unlab < 0:
                raise ValueError(f"inconsistent row at n={n}: {lab} != {q}!*{unlab}")
        self.piece = piece
        self.board = board
        self.q = q
        self.rows = rows
        self.method = method

    def ns(self) -> list[int]:
        return sorted(self.rows)

    def unlabelled(self, n: int) -> int:
        return self.rows[n][1]

    def column(self, name: str) -> dict[int, int]:
        idx = {"labelled": 0, "unlabelled": 1}[name]
        return {n: pair[idx] for n, pair in self.rows.items()}

    def to_csv(self) -> str:
        lines = ["n,labelled,unlabelled,method"]
        for n in self.ns():
            lab, unlab = self.rows[n]
            lines.append(f"{n},{lab},{unlab},{self.method}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "piece": self.piece,
            "board": self.board.as_text(),
            "q": self.q,
            "method": self.method,
            "rows": [
                {"n": n, "labelled": str(self.rows[n][0]),
                 "unlabelled": str(self.rows[n][1])}
                for n in self.ns()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def count_series(ms: MoveSet, board: BoardPolygon, q: int,
                 n_from: int, n_to: int,
                 budget: int = DEFAULT_BUDGET) -> CountTable:
    """One ``count_nonattacking`` row per n in [n_from, n_to].

    Every size is checked first (``_gated_sizes``), so a capacity error
    names the first n over budget with nothing counted.  Then one kernel
    call per run of nested sizes (see ``_nested_runs``; the board's
    dilates nest when it contains the origin) counts each placement once,
    at the size where its last cell appears: row n is the running count
    at the last cell of size n.
    """
    sizes = _gated_sizes(board, q, n_from, n_to, budget)
    if q == 0:
        return CountTable(ms.label, board, q, dict.fromkeys(sizes, (1, 1)))
    fq = factorial(q)
    rows = {}
    for cells, ends in _nested_runs(board, sizes):
        totals = kernel.count_nonattacking_subsets(attack_keys(ms, cells), q)
        rows.update((n, (fq * totals[k], totals[k])) for n, k in ends)
    return CountTable(ms.label, board, q, rows)


def _nested_runs(board: BoardPolygon, sizes):
    """Yield (cells, ends) per run of sizes whose cells each contain the
    previous size's.

    ``cells`` lists the run's cells in the order they first appear, and
    ``ends`` holds (n, the number of cells at size n) per size of the run.
    """
    cells, ends, previous = [], [], set()
    for n in sizes:
        points = interior_lattice_points(board, n + 1)
        current = set(points)
        if ends and not previous <= current:
            yield cells, ends
            cells, ends, previous = [], [], set()
        cells.extend(p for p in points if p not in previous)
        ends.append((n, len(cells)))
        previous = current
    yield cells, ends


class ConfigType(Record, frozen=True):
    """Combinatorial type of a labelled nonattacking configuration.

    ``left[i][r]`` is a bitmask over piece indices j with piece j strictly
    on the left side of the r-th move line through piece i.  A frozen
    value, read off a placement by ``labelled_type_of``; the type census
    compares the comparison signatures that determine it instead.
    """

    __slots__ = ("left",)

    def __init__(self, left: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "left", left)

    @property
    def q(self) -> int:
        return len(self.left)

    def lists(self) -> list[list[set[int]]]:
        """The left-side lists as explicit index sets."""
        return [[{j for j in range(self.q) if mask >> j & 1} for mask in row]
                for row in self.left]


def _signature(piece_keys) -> tuple:
    """The comparison signature of a placement: key_i < key_j per move,
    over the piece pairs i < j in order.

    ``piece_keys`` holds one tuple of per-move attack keys per piece.  A
    tie means two pieces share a move line, so it is refused.
    """
    sig = []
    for a, b in combinations(range(len(piece_keys)), 2):
        for x, y in zip(piece_keys[a], piece_keys[b]):
            if x == y:
                raise AttackingConfigurationError(
                    f"pieces {a} and {b} attack each other")
            sig.append(x < y)
    return tuple(sig)


def labelled_type_of(cfg: Configuration, ms: MoveSet) -> ConfigType:
    """The left-side list family of a nonattacking labelled configuration,
    as its comparison signature determines it.

    Rejects attacking input: equal configurations lie in no open region of
    the move arrangement.
    """
    q, nmoves = len(cfg.positions), len(ms)
    lower = iter(_signature(list(zip(*attack_keys(ms, cfg.positions)))))
    rows = [[0] * nmoves for _ in range(q)]
    for a, b in combinations(range(q), 2):
        for r in range(nmoves):
            # key_a < key_b puts b on the left of the line through a.
            if next(lower):
                rows[a][r] |= 1 << b
            else:
                rows[b][r] |= 1 << a
    return ConfigType(tuple(map(tuple, rows)))


def census_types(ms: MoveSet, board: BoardPolygon, q: int,
                 n_from: int, n_to: int,
                 budget: int = DEFAULT_BUDGET) -> dict[int, tuple[int, int]]:
    """(labelled_types, unlabelled_types) realized at each board size n in
    [n_from, n_to].

    The gate and the runs are ``count_series``', the gate with each size's
    C(N, q) placements checked too: every size is checked before any cell
    is listed, q = 0 realizes the empty placement's one type, and each run
    of nested sizes is enumerated once.  A placement realizes its types
    from the size where its last cell appears.  Its labelled types are the
    comparison signatures of its q! orderings, and the least of them names
    its unlabelled type.  Both counts are exact censuses of those
    signatures.
    """
    sizes = _gated_sizes(board, q, n_from, n_to, budget, census=True)
    if q == 0:
        return dict.fromkeys(sizes, (1, 1))
    census = {}
    for cells, ends in _nested_runs(board, sizes):
        keys = attack_keys(ms, cells)
        cell_keys = list(zip(*keys))
        stops = [end for _, end in ends]
        # Per size, the piece keys of one placement per signature found.
        found = [{} for _ in ends]
        for combo in kernel.iter_nonattacking_subsets(keys, q):
            piece_keys = [cell_keys[i] for i in combo]
            found[bisect_right(stops, combo[-1])].setdefault(
                _signature(piece_keys), piece_keys)
        labelled, unlabelled = set(), set()
        for (n, _), placements in zip(ends, found):
            for sig, piece_keys in placements.items():
                if sig not in labelled:
                    orbit = {_signature(order)
                             for order in permutations(piece_keys)}
                    labelled |= orbit
                    unlabelled.add(min(orbit))
            census[n] = (len(labelled), len(unlabelled))
    return census
