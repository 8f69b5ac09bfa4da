"""Exact integer linear algebra for the arrangement and bounds modules.

All row reduction is one fraction-free Gauss-Jordan step, ``insert_row``:
rows stay integer, are combined by cross-multiplying and are divided by
their content.  The semilattice closure extends each flat's stored
echelon with it, the inside-out vertex scans solve their systems with it,
and ``canonical_int_rows`` (the key of a row space, which the closure's
keys equal) and ``in_row_space`` are built on it; determinants use
Bareiss.  There is no floating point and no ``Fraction`` here.
"""

from __future__ import annotations

from math import gcd


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
