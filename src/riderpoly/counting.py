"""Brute-force counting of nonattacking placements and configuration types.

This module is the ground-truth oracle for everything symbolic: it counts
placements and censuses their types by explicit enumeration of lattice
cells through the bitset core in ``kernel``.  Both take a range of board
sizes, check every size before any cell is listed, and enumerate each
run of nested sizes once.  The check is ``check_size``, the one budget
gate of every route, the Mobius route's flat counts included.  Nothing
returns a partial answer (resource caps raise ``CapacityError``).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations, permutations
from math import comb, factorial

from .kernel import count_nonattacking_subsets, iter_nonattacking_subsets
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
    cell_count,
    cells_at,
    region_at,
)

METHOD_BRUTE_FORCE = "brute_force"
METHOD_RECONSTRUCTION = "reconstruction"


def attack_keys(ms: MoveSet, points) -> list[list[int]]:
    """Per-move attack keys: equal keys mark cells on a common move line."""
    return [[m.d * x - m.c * y for (x, y) in points] for m in ms]


def check_range(n_from: int, n_to: int) -> None:
    """Refuse a reversed range of board sizes, and a negative n."""
    if n_from > n_to:
        raise ValueError("n_from must not exceed n_to")
    if n_from < 0:
        raise ValueError("n must be nonnegative")


def check_walk(board: BoardPolygon, n: int, budget: int) -> None:
    """Refuse a walk over the bounding box at size n
    (``geometry.region_at``) that exceeds the budget."""
    (x_lo, x_hi, y_lo, y_hi), _ = region_at(board, n)
    walk = (x_hi - x_lo + 1) * (y_hi - y_lo + 1)
    if walk > budget:
        raise CapacityError(
            f"board walk of {walk} cells exceeds budget {budget} at n={n}",
            n=n, cells=walk, budget=budget)


def check_size(board: BoardPolygon, n: int, budget: int, q: int,
               route: str) -> int:
    """N, the number of cells at size n, once the work there fits the budget.

    Every route calls this gate for each size it will walk before it lists
    any cell, and it lists none (N comes from column ranges).  It refuses,
    in this order, the walk (``check_walk``, all the Mobius assembly
    checks at a size it only evaluates); for q >= 1 pieces the envelope,
    N^min(q, 3) for the ``"alpha"`` flat counts, and for the kernel
    (``"count"``, ``"census"``), whose last two levels are popcounts, at
    least the C(N, k) nonattacking prefixes of k = 1..q-1 cells it may
    step through; and for ``"census"``, which visits every placement,
    C(N, q).
    """
    check_walk(board, n, budget)
    cells = cell_count(board, n)
    if q == 0:
        return cells
    envelope = cells ** min(q, 3)
    if route != "alpha":
        envelope = max(envelope, sum(comb(cells, k) for k in range(1, q)))
    if envelope > budget:
        kind = "alpha" if route == "alpha" else "search"
        raise CapacityError(
            f"{kind} envelope {envelope} exceeds budget {budget} at n={n}",
            n=n, envelope=envelope, budget=budget)
    placements = comb(cells, q) if route == "census" else 0
    if placements > budget:
        raise CapacityError(
            f"census of {placements} placements exceeds budget {budget} "
            f"at n={n}", n=n, placements=placements, budget=budget)
    return cells


def _gated_sizes(board: BoardPolygon, q: int, n_from: int, n_to: int,
                 budget: int, route: str) -> range:
    """The sizes n_from..n_to, once the range and q are valid and every
    size passes ``check_size``, so a refusal names the first n over
    budget with nothing listed.  q = 0 lists no cell, so it is not walked.
    """
    check_range(n_from, n_to)
    if q < 0:
        raise ValueError("q must be nonnegative")
    sizes = range(n_from, n_to + 1)
    if q:
        for n in sizes:
            check_size(board, n, budget, q, route)
    return sizes


def count_nonattacking(ms: MoveSet, board: BoardPolygon, q: int, n: int,
                       budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """(labelled, unlabelled) counts of nonattacking placements of q pieces.

    Places pieces on the integer points strictly inside the (n+1)-fold
    dilate of the board.  q = 0 counts the empty placement once.  The
    one-row ``count_series``, so the kernel's last running count.
    """
    return count_series(ms, board, q, n, n, budget).row(n)


class CountTable(Record):
    """Exact counts per board size, with provenance.

    ``rows`` maps n to the unlabelled count, the placements of q identical
    pieces; ``row`` gives the labelled count with it.  Each table without
    ``rows`` gets its own empty dict.  A mutable value, so unhashable.
    """

    __slots__ = ("piece", "board", "q", "rows", "method")

    def __init__(self, piece: str, board: BoardPolygon, q: int,
                 rows: dict[int, int] | None = None,
                 method: str = METHOD_BRUTE_FORCE):
        self.piece = piece
        self.board = board
        self.q = q
        self.rows = {} if rows is None else rows
        self.method = method

    def ns(self) -> list[int]:
        return sorted(self.rows)

    def row(self, n: int) -> tuple[int, int]:
        """(labelled, unlabelled) at size n: each placement of identical
        pieces is q! placements of labelled ones."""
        unlabelled = self.rows[n]
        return factorial(self.q) * unlabelled, unlabelled

    def to_csv(self) -> str:
        lines = ["n,labelled,unlabelled,method"]
        for n in self.ns():
            lab, unlab = self.row(n)
            lines.append(f"{n},{lab},{unlab},{self.method}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "piece": self.piece,
            "board": self.board.as_text(),
            "q": self.q,
            "method": self.method,
            "rows": [
                {"n": n, "labelled": str(self.row(n)[0]),
                 "unlabelled": str(self.rows[n])}
                for n in self.ns()
            ],
        }


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
    sizes = _gated_sizes(board, q, n_from, n_to, budget, "count")
    if q == 0:
        return CountTable(ms.label, board, q, dict.fromkeys(sizes, 1))
    rows = {}
    for cells, ends in _nested_runs(board, sizes):
        totals = count_nonattacking_subsets(attack_keys(ms, cells), q)
        rows.update((n, totals[k]) for n, k in ends)
    return CountTable(ms.label, board, q, rows)


def _nested_runs(board: BoardPolygon, sizes):
    """Yield (cells, ends) per run of sizes whose cells each contain the
    previous size's.

    ``cells`` lists the run's cells in the order they first appear, and
    ``ends`` holds (n, the number of cells at size n) per size of the run.
    """
    cells, ends, previous = [], [], set()
    for n in sizes:
        points = cells_at(board, n)
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
    sizes = _gated_sizes(board, q, n_from, n_to, budget, "census")
    if q == 0:
        return dict.fromkeys(sizes, (1, 1))
    census = {}
    for cells, ends in _nested_runs(board, sizes):
        keys = attack_keys(ms, cells)
        cell_keys = list(zip(*keys))
        stops = [end for _, end in ends]
        # Per size, the piece keys of one placement per signature found.
        found = [{} for _ in ends]
        for combo in iter_nonattacking_subsets(keys, q):
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
