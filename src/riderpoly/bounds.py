"""Period bounds: inside-out vertex denominators and subdeterminant lcms.

Three tiers, each an upper bound for the one before: the observed period
of the fitted counting quasipolynomial divides the denominator (lcm of
vertex-coordinate denominators of the inside-out polytope), which divides
the lcm of subdeterminants of the attack-equation matrix.  Everything is
exact integer arithmetic: vertices come from fraction-free elimination.

The inside-out denominator is taken flat by flat: by Beck and Zaslavsky
(*Inside-out polytopes*, arXiv math/0309330) the vertices of the
inside-out polytope are the vertices of board^q cut by each flat of the
move arrangement, so one small scan per isomorphism class of flats
replaces a scan of every 2q x 2q system of the grand matrix.  The grand
matrix still sizes the system budget, which is checked before any work
(criterion 9: the nightrider q = 4 denominator is refused by default).
"""

from __future__ import annotations

from itertools import combinations
from math import comb, gcd, lcm

from .arrangement import (
    Flat,
    build_move_arrangement,
    hyperplane_row,
    intersection_semilattice,
)
from .errors import CapacityError, MoveSetError
from .geometry import BoardPolygon, MoveSet
from .linalg import bareiss_determinant, insert_row

DEFAULT_SYSTEM_BUDGET = 10**7
DEFAULT_MINOR_BUDGET = 10**6


def moves_matrix(ms: MoveSet) -> tuple[tuple[int, int], ...]:
    """One row (d, -c) per move: the normals of the move lines."""
    return tuple(m.perp for m in ms)


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
    out = []
    for arow in a:
        for brow in b:
            out.append(tuple(x * y for x in arow for y in brow))
    return tuple(out)


def attack_rows(ms: MoveSet, q: int) -> tuple[tuple[int, ...], ...]:
    """The top block of the grand matrix (equals eta_transpose(q) kron M):
    the move hyperplanes' rows, negated."""
    return tuple(tuple(-x for x in hyperplane_row(h, ms, q))
                 for h in build_move_arrangement(ms, q))


def board_rows(board: BoardPolygon, k: int) -> list[tuple[tuple[int, ...], int]]:
    """(row, rhs) per piece and board edge: the integer facets of board^k."""
    rows = []
    for piece in range(k):
        for a, b, c in board.scaled_strict_rows(1):
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


def scan_vertices(forced, optional, ncols: int, feasible):
    """Yield the solution of every nonsingular square system built from the rows.

    Rows are (integer row, integer rhs) pairs.  ``forced`` rows take part
    in every system; the scan extends them with independent choices from
    ``optional`` until the rank reaches ``ncols``, sharing elimination work
    along common prefixes.  Each row is added by ``linalg.insert_row``,
    the fraction-free Gauss-Jordan step.  A solution is the point
    (d, nums), d > 0, whose coordinate i is nums[i] / d; it is yielded if
    ``feasible(point)``.
    """

    base: list = []
    for row, rhs in forced:
        extended = insert_row(row, rhs, base)
        if extended is not None:
            base = extended

    def rec(start: int, echelon):
        need = ncols - len(echelon)
        if need == 0:
            # A list: lcm(*generator) parks resized tuples on the tuple
            # free list, about 0.2 MB of peak RSS per scan.
            d = lcm(*[erow[pivot_col] for pivot_col, erow, _ in echelon])
            nums = [0] * ncols
            for pivot_col, erow, erhs in echelon:
                nums[pivot_col] = erhs * (d // erow[pivot_col])
            point = (d, tuple(nums))
            if feasible(point):
                yield point
            return
        for idx in range(start, len(optional) - need + 1):
            row, rhs = optional[idx]
            extended = insert_row(row, rhs, echelon)
            if extended is not None:
                yield from rec(idx + 1, extended)

    yield from rec(0, base)


def board_vertex_denominator(forced, optional, board: BoardPolygon,
                             k: int) -> int:
    """lcm of coordinate denominators over the feasible vertices of a scan.

    Scans ``forced`` and ``optional`` (row, rhs) pairs over the 2k
    coordinates of k pieces and keeps the points inside the closed
    polytope board^k, tested in integers as a*x + b*y <= c*d per piece.
    Scanned over a flat's equations and ``board_rows``, or over the whole
    ``grand_matrix``, it is the reference that the per-flat scans in the
    flat's own coordinates are tested against.
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


def essential_rows(flat: Flat) -> list[tuple[int, ...]]:
    """The flat's equations restricted to its involved pieces' coordinates."""
    cols = []
    for piece in flat.involved:
        cols.extend((2 * piece, 2 * piece + 1))
    return [tuple(row[c] for c in cols) for row in flat.rows]


def flat_polytope_denominator(flat: Flat, board: BoardPolygon) -> int:
    """lcm of vertex-coordinate denominators of the flat's board polytope.

    The polytope is (board^kappa) cut by the flat's equations.  It is
    scanned in the flat's own coordinates: the free (non-pivot) columns
    of the flat's primitive RREF rows.  With L the lcm of the pivots,
    every one of the 2 kappa coordinates is an integer row over the free
    coordinates, divided by L.  Each piece's board rows are projected
    through those rows, made primitive and deduplicated (pieces the flat
    makes coincide share them), and every vertex is lifted back to all
    2 kappa coordinates for its denominator.  The alpha
    quasipolynomial's period divides this.
    """
    kappa = flat.kappa
    if kappa == 0:
        return 1
    pivots = {next(c for c, x in enumerate(row) if x): row
              for row in essential_rows(flat)}
    free = [c for c in range(2 * kappa) if c not in pivots]
    scale = lcm(*[row[p] for p, row in pivots.items()])
    lift = []
    for c in range(2 * kappa):
        row = pivots.get(c)
        if row is None:
            lift.append([scale if f == c else 0 for f in free])
        else:
            lift.append([-row[f] * (scale // row[c]) for f in free])

    projected = {}
    for k in range(kappa):
        for a, b, c in board.scaled_strict_rows(1):
            row = [a * x + b * y for x, y in zip(lift[2 * k], lift[2 * k + 1])]
            g = gcd(*row, c * scale)
            projected[tuple(x // g for x in row), c * scale // g] = None
    projected = list(projected)

    def feasible(point) -> bool:
        d, nums = point
        return all(sum(a * x for a, x in zip(row, nums)) <= rhs * d
                   for row, rhs in projected)

    result = 1
    for d, nums in scan_vertices([], projected, len(free), feasible):
        dl = d * scale
        result = lcm(result, dl // gcd(
            dl, *[sum(a * x for a, x in zip(row, nums)) for row in lift]))
    return result


def denominator(ms: MoveSet, board: BoardPolygon, q: int,
                budget: int = DEFAULT_SYSTEM_BUDGET) -> int:
    """lcm of coordinate denominators over all inside-out vertices.

    Beck-Zaslavsky: the vertices are those of board^q cut by a flat U of
    the move arrangement.  That polytope is (board^kappa cut by U) times
    board^(q - kappa) over the pieces U does not involve, so the lcm is
    that of ``board.denominator`` and ``flat_polytope_denominator`` over
    the flats; isomorphic flats differ by a relabelling of pieces, so one
    representative per class suffices.

    The budget counts the 2q-row systems of the grand matrix, as a full
    vertex scan would solve them, and is checked before the closure, so
    the nightrider q = 4 refusal of criterion 9 is unchanged.
    """
    systems = comb(len(grand_matrix(ms, board, q)), 2 * q)
    if systems > budget:
        raise CapacityError(
            f"{systems} candidate systems exceed budget {budget}",
            systems=systems, budget=budget)
    sl = intersection_semilattice(ms, q)
    return lcm(board.denominator, *[
        flat_polytope_denominator(sl.flats[cls.representative], board)
        for cls in sl.iso_classes])


def lcmd_direct(matrix, order: int | None = None,
                budget: int = DEFAULT_MINOR_BUDGET) -> int:
    """lcm of |m| over all nonzero minors m of orders 1..order."""
    rows = [tuple(row) for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    max_order = min(nrows, ncols) if order is None else min(order, nrows, ncols)
    total = sum(comb(nrows, s) * comb(ncols, s) for s in range(1, max_order + 1))
    if total > budget:
        raise CapacityError(f"{total} minors exceed budget {budget}",
                            minors=total, budget=budget)
    result = 1
    for size in range(1, max_order + 1):
        for rsel in combinations(range(nrows), size):
            sub = [rows[r] for r in rsel]
            for csel in combinations(range(ncols), size):
                det = bareiss_determinant([[row[c] for c in csel] for row in sub])
                if det:
                    result = lcm(result, abs(det))
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
