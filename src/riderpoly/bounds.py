"""Period bounds: inside-out vertex denominators and subdeterminant lcms.

Three tiers, each an upper bound for the one before: the observed period
of the fitted counting quasipolynomial divides the denominator (lcm of
vertex-coordinate denominators of the inside-out polytope), which divides
the lcm of subdeterminants of the attack-equation matrix.  Everything is
exact integer arithmetic: vertices come from fraction-free elimination.

The inside-out denominator is taken flat by flat: by Beck and Zaslavsky
(*Inside-out polytopes*, arXiv math/0309330) the vertices of the
inside-out polytope are the vertices of board^q cut by each flat of the
move arrangement, so one small scan per connected isomorphism class of
flats replaces a scan of every 2q x 2q system of the grand matrix.  Those
scans are ``flatpolytope.class_denominators``, which the Mobius route
also uses without compiling this module.  The grand matrix still sizes
the budget, checked first (criterion 9: the nightrider q = 4 denominator
is refused by default).

The subdeterminant lcm (``lcmd_direct``) computes no determinant one by
one: each row set's minors come from those of the row set below it by
Laplace expansion along the new top row, and a row set whose minors all
vanish prunes every row set built on it.  Its budget counts the minors
and is checked first too.
"""

from __future__ import annotations

from math import comb, lcm

from .arrangement import (
    build_move_arrangement,
    hyperplane_row,
    intersection_semilattice,
)
from .errors import (
    DEFAULT_MINOR_BUDGET,
    DEFAULT_SYSTEM_BUDGET,
    CapacityError,
    MoveSetError,
)
# flat_polytope_denominator stays importable here for the tests, and
# scan_vertices for perfbench/trace_job.py, which wraps it.
from .flatpolytope import class_denominators, flat_polytope_denominator  # noqa: F401
from .geometry import BoardPolygon, MoveSet
from .linalg import scan_vertices  # noqa: F401


def moves_matrix(ms: MoveSet) -> tuple[tuple[int, int], ...]:
    """One row (d, -c) per move: the normals of the move lines."""
    return tuple(m.perp for m in ms)


def attack_rows(ms: MoveSet, q: int) -> tuple[tuple[int, ...], ...]:
    """The top block of the grand matrix, K_q's transposed oriented
    incidence matrix kron ``moves_matrix``: move hyperplane rows, negated."""
    return tuple(tuple(-x for x in hyperplane_row(h, ms, q))
                 for h in build_move_arrangement(ms, q))


def board_rows(board: BoardPolygon, k: int) -> list[tuple[tuple[int, ...], int]]:
    """(row, rhs) per piece and board edge: the integer facets of board^k."""
    rows = []
    for piece in range(k):
        for a, b, c in board.rows:
            row = [0] * (2 * k)
            row[2 * piece], row[2 * piece + 1] = a, b
            rows.append((tuple(row), c))
    return rows


def grand_matrix(ms: MoveSet, board: BoardPolygon, q: int) -> list:
    """All equations that can pin an inside-out vertex, as (row, rhs) pairs.

    First one attack row per (pair, move), right-hand side zero: the move
    normal at piece i and its negation at piece j.  Then the board rows
    of every piece, from ``board_rows``.  Its 2q-row systems size the
    budget of ``denominator``; scanned in full, it is the reference the
    per-flat route is tested against.
    """
    if q < 1:
        raise ValueError("q must be positive")
    return [(row, 0) for row in attack_rows(ms, q)] + board_rows(board, q)


def denominator(ms: MoveSet, board: BoardPolygon, q: int,
                budget: int = DEFAULT_SYSTEM_BUDGET) -> int:
    """lcm of coordinate denominators over all inside-out vertices.

    Beck-Zaslavsky: the vertices are those of board^q cut by a flat U of
    the move arrangement.  That polytope is (board^kappa cut by U) times
    board^(q - kappa) over the pieces U does not involve, and the first
    factor is the product of those of U's connected components, so the
    lcm is that of ``board.denominator`` and ``flat_polytope_denominator``
    over the connected flats, one per iso class
    (``flatpolytope.class_denominators``).

    The budget counts the 2q-row systems of the grand matrix, as a full
    vertex scan would solve them, and is checked before the closure, so
    the nightrider q = 4 refusal of criterion 9 is unchanged.
    """
    systems = comb(len(grand_matrix(ms, board, q)), 2 * q)
    if systems > budget:
        raise CapacityError(
            f"{systems} candidate systems exceed budget {budget}",
            systems=systems, budget=budget)
    return class_denominators(intersection_semilattice(ms, q), board)[1]


def lcmd_direct(matrix, budget: int = DEFAULT_MINOR_BUDGET) -> int:
    """lcm of |m| over all nonzero minors m of the matrix, of every order.

    Row sets are built by putting a smaller row on top of one already
    done, so each is expanded once.  A row set R keeps its nonzero minors
    as a dict from column mask to minor; those of {r} | R, for r < min R,
    follow by Laplace expansion along row r: a[r][c] * m(C) with sign
    (-1)^#(C below c) goes to C | {c}.  Entries summing to zero are
    dropped, and an empty dict prunes the branch: every larger row set
    with R as its lower rows has only zero minors.  The budget counts
    every minor and is checked first.
    """
    rows = [tuple(row) for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    max_order = min(nrows, ncols)
    total = sum(comb(nrows, s) * comb(ncols, s) for s in range(1, max_order + 1))
    if total > budget:
        raise CapacityError(f"{total} minors exceed budget {budget}",
                            minors=total, budget=budget)
    # Per row and nonzero entry a in column c: the column's bit, the bits
    # of the columns below it, and a with each expansion sign.
    entries = [[(1 << c, (1 << c) - 1, a, -a) for c, a in enumerate(row) if a]
               for row in rows]
    result = 1

    def expand(top: int, minors: dict, size: int) -> None:
        nonlocal result
        for r in range(top):
            grown = {}
            get = grown.get
            for mask, m in minors.items():
                for bit, below, a, neg in entries[r]:
                    if not mask & bit:
                        key = mask | bit
                        sign = (mask & below).bit_count() & 1
                        grown[key] = get(key, 0) + (neg if sign else a) * m
            grown = {key: m for key, m in grown.items() if m}
            if grown:
                result = lcm(result, *grown.values())
                if size + 1 < max_order:
                    expand(r, grown, size + 1)

    if max_order > 0:
        expand(nrows, {0: 1}, 0)
    return result


def lcmd_closed_form_two_moves(ms: MoveSet, q: int) -> int:
    """Closed-form lcmd of the attack block for a two-move piece.

    lcm((lcmd M)^(q-1), LCM over p = 1..floor(q/2) of |det of the p-th
    power matrix|^floor(q/2p)), zero determinants skipped.  Evaluated
    literally; for the bishop this gives 2^(q-1).
    """
    if len(ms) != 2:
        raise MoveSetError("the closed form applies to two-move pieces only")
    (m1, m2) = ms.moves
    c1, d1 = m1.c, m1.d
    c2, d2 = m2.c, m2.d
    lcmd_m = 1
    for entry in (d1, -c1, d2, -c2, d1 * (-c2) - (-c1) * d2):
        if entry:
            lcmd_m = lcm(lcmd_m, abs(entry))
    result = lcmd_m ** (q - 1) if q > 1 else 1
    for p in range(1, q // 2 + 1):
        det_p = abs(d1**p * c2**p - c1**p * d2**p)
        if det_p:
            result = lcm(result, det_p ** (q // (2 * p)))
    return result


def bounds_report(ms: MoveSet, board: BoardPolygon, q: int,
                  system_budget: int = DEFAULT_SYSTEM_BUDGET,
                  minor_budget: int = DEFAULT_MINOR_BUDGET) -> dict:
    """Machine-readable bounds summary for one (piece, board, q).

    The period fields stay None; a caller that observes the period from
    a count table fills them in.
    """
    notes = []
    exhaustive = True
    try:
        denom = denominator(ms, board, q, budget=system_budget)
    except CapacityError as exc:
        denom = None
        exhaustive = False
        notes.append(f"denominator skipped: {exc}")
    try:
        lcmd_val = lcmd_direct(attack_rows(ms, q), budget=minor_budget)
    except CapacityError as exc:
        lcmd_val = None
        exhaustive = False
        notes.append(f"lcmd skipped: {exc}")
    closed_form = None
    if len(ms) == 2:
        closed_form = lcmd_closed_form_two_moves(ms, q)
        notes.append(
            "closed form evaluates the two-move formula literally "
            "(for the bishop that is 2^(q-1), matching the table; the "
            "source text's 2^q remark disagrees with both)")
    report = {
        "piece": ms.label,
        "board": board.as_text(),
        "q": q,
        "period_observed": None,
        "denominator": denom,
        "lcmd": lcmd_val,
        "lcmd_closed_form": closed_form,
        "method": {"denominator": "exact vertex enumeration",
                   "lcmd": "exact minor enumeration",
                   "period": None},
        "exhaustive": exhaustive,
        "notes": notes,
    }
    return report
