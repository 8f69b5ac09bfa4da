"""Exact integer linear algebra for the geometry, arrangement and bounds modules.

All row reduction is one fraction-free Gauss-Jordan step, ``insert_row``:
rows stay integer, are combined by cross-multiplying and are divided by
their content.  The semilattice closure extends each flat's stored
echelon with it, the one vertex scan (``scan_vertices``: the board's
vertices and the inside-out denominators) solves its systems with it, and
``canonical_int_rows`` (the key of a row space, which the closure's keys
equal) and ``in_row_space`` are built on it; determinants use Bareiss.
There is no floating point and no ``Fraction`` here.
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm
from operator import mul


def divisors(n: int) -> list[int]:
    """Positive divisors of n, ascending."""
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def insert_row(row, rhs, echelon):
    """Add the equation row . x = rhs to an echelon; None if the rank stays.

    ``echelon`` is a list of (pivot_col, int row, int rhs), each row
    primitive together with its rhs, with a positive pivot and zeros in
    every other pivot column.  Returns a new list of that form with the
    reduced equation appended, or None when the row reduces to zero (it
    lies in the span; its rhs is then not checked).
    """
    r, b = list(row), rhs
    for pivot_col, erow, erhs in echelon:
        factor = r[pivot_col]
        if factor:
            e = erow[pivot_col]
            r = [e * x - factor * y for x, y in zip(r, erow)]
            b = e * b - factor * erhs
    pivot = next((idx for idx, x in enumerate(r) if x), None)
    if pivot is None:
        return None
    g = gcd(*r, b)
    if r[pivot] < 0:
        g = -g
    r = [x // g for x in r]
    b //= g
    e = r[pivot]
    updated = []
    for pivot_col, erow, erhs in echelon:
        factor = erow[pivot]
        if factor:
            erow = [e * x - factor * y for x, y in zip(erow, r)]
            erhs = e * erhs - factor * b
            g = gcd(*erow, erhs)
            erow = [x // g for x in erow]
            erhs //= g
        updated.append((pivot_col, erow, erhs))
    updated.append((pivot, r, b))
    return updated


def _bases(forced, optional, ncols: int):
    """Yield (groups, d, affine) per set of row directions completing the
    forced rows to rank ``ncols``, a group being a list of (row, rhs, t).

    Rows are grouped by primitive normal up to sign, and a system takes
    one member per group: row . x = rhs reads N . x = t, N the primitive
    normal times the lcm of the members' scales, t an integer.  Prefix-
    shared ``insert_row`` eliminates each set once, with 1 in column
    ncols + k for -t of the k-th larger group chosen, so every choice of
    members solves to x = affine . (1, t of each larger group) / d.
    """
    found: dict = {}
    for row, rhs in optional:
        g = gcd(*row)
        if g:  # a zero row is in no nonsingular system
            g = g if next(x for x in row if x) > 0 else -g
            found.setdefault(tuple(x // g for x in row), []).append((row, rhs, g))
    groups = []
    for normal, rows in found.items():
        scale = lcm(*[s for _, _, s in rows])
        groups.append(([scale * x for x in normal],
                       [(row, rhs, rhs * scale // s) for row, rhs, s in rows]))
    width = min(ncols, sum(len(m) > 1 for _, m in groups))
    zeros = [0] * width
    units = [zeros[:k] + [1] + zeros[k + 1:] for k in range(width)]
    base: list = []
    for row, rhs in forced:
        base = insert_row([*row, *zeros], rhs, base) or base

    def rec(start: int, echelon, chosen, nt: int):
        need = ncols - len(echelon)
        if need == 0:
            # A list: lcm(*generator) parks resized tuples on the tuple
            # free list, about 0.2 MB of peak RSS per scan.
            d = lcm(*[erow[p] for p, erow, _ in echelon])
            affine = [None] * ncols
            for p, erow, erhs in echelon:
                m = d // erow[p]
                affine[p] = [c * m for c in [erhs, *erow[ncols:ncols + nt]]]
            yield chosen, d, affine
            return
        for idx in range(start, len(groups) - need + 1):
            normal, members = groups[idx]
            several = len(members) > 1
            extended = insert_row(normal + (units[nt] if several else zeros),
                                  0 if several else members[0][2], echelon)
            # A pivot in a t column: the direction is dependent.
            if extended is not None and extended[-1][0] < ncols:
                yield from rec(idx + 1, extended, chosen + [members],
                               nt + several)

    yield from rec(0, base, [], 0)


def _solve(groups, d, affine, feasible):
    """Yield the feasible points of a ``_bases`` set, one per choice."""
    for choice in product(*[m for m in groups if len(m) > 1]):
        ts = [1] + [t for _, _, t in choice]
        nums = [sum(map(mul, coeffs, ts)) for coeffs in affine]
        g = gcd(d, *nums)
        point = (d // g, tuple(x // g for x in nums))
        if feasible(point):
            yield point


def scan_vertices(forced, optional, ncols: int, feasible):
    """Yield the solution of every nonsingular square system built from the rows.

    Rows are (row, rhs) integer pairs; ``forced`` rows are in every system,
    ``optional`` rows complete it as in ``_bases``.  A solution (d, nums),
    d > 0 least, coordinate i nums[i] / d, is yielded if ``feasible``.
    """
    for groups, d, affine in _bases(forced, optional, ncols):
        yield from _solve(groups, d, affine, feasible)


def canonical_int_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical key for a row space: RREF scaled to primitive integer rows.

    Two row sets get the same key exactly when they span the same space.
    """
    echelon: list = []
    for row in rows:
        extended = insert_row(row, 0, echelon)
        if extended is not None:
            echelon = extended
    return tuple(tuple(erow) for _, erow, _ in sorted(echelon))


def in_row_space(vec, key_rows) -> bool:
    """Whether ``vec`` lies in the span of a ``canonical_int_rows`` key."""
    echelon = [(next(i for i, x in enumerate(row) if x), row, 0)
               for row in key_rows]
    return insert_row(vec, 0, echelon) is None


def bareiss_determinant(rows) -> int:
    """Exact determinant of a square integer matrix (fraction-free)."""
    mat = [list(row) for row in rows]
    size = len(mat)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if mat[r][k] != 0), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[size - 1][size - 1]
