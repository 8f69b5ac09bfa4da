"""Flat polytope denominators: the per-flat vertex scans of the period chain.

A flat U of the move arrangement cuts board^kappa, kappa the pieces U
involves, in a polytope; the lcm of its vertex-coordinate denominators
bounds the period of U's lattice-point count (``alpha``), and over one
flat per connected iso class it gives the inside-out denominator
(``class_denominators``), which is both ``bounds.denominator`` and the
period of the Mobius assembly (``symbolic.count_qps``).  The Mobius route
needs only this from the period chain, so it lives apart from ``bounds``,
and that route does not compile the full-scan and minor machinery.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .arrangement import Flat, Semilattice, is_connected
from .geometry import BoardPolygon
from .linalg import _bases, _solve


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
    makes coincide share them).  Over each set of their directions from
    ``_bases`` the lifted coordinates are affine in the groups' integer
    t's over d L; ``denom`` of all their coefficients, a divisor of d L,
    bounds the set's vertex denominators, and a set whose d L or, failing
    that, whose bound divides the lcm so far is skipped.  The alpha
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
        for a, b, c in board.rows:
            row = [a * x + b * y for x, y in zip(lift[2 * k], lift[2 * k + 1])]
            g = gcd(*row, c * scale)
            projected[tuple(x // g for x in row), c * scale // g] = None
    projected = list(projected)

    def feasible(point) -> bool:
        d, nums = point
        return all(sum(a * x for a, x in zip(row, nums)) <= rhs * d
                   for row, rhs in projected)

    def denom(dl, vectors) -> int:
        return dl // gcd(dl, *[sum(map(mul, row, v))
                               for row in lift for v in vectors])

    result = 1
    for groups, d, affine in _bases([], projected, len(free)):
        if (result % (d * scale)
                and result % denom(d * scale, list(zip(*affine)))):
            for e, nums in _solve(groups, d, affine, feasible):
                result = lcm(result, denom(e * scale, [nums]))
    return result


def class_denominators(sl: Semilattice, board: BoardPolygon):
    """Each connected iso class's representative with its denominator,
    and the lcm of those and ``board.denominator``, the inside-out
    denominator: a disconnected flat's polytope is a product of connected
    ones', and the bottom's is board^0."""
    classes = [(rep, flat_polytope_denominator(rep, board))
               for rep in sl.iso_classes if is_connected(rep)]
    return classes, lcm(board.denominator, *[p for _, p in classes])
