"""Exact rational linear algebra for the arrangement and bounds modules.

Everything works on plain Python ints and ``fractions.Fraction``; there is
deliberately no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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


def rref(rows) -> list[list[Fraction]]:
    """Reduced row echelon form over the rationals; zero rows dropped."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = mat[pivot_row][col]
        mat[pivot_row] = [x / inv for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return [row for row in mat[:pivot_row] if any(x != 0 for x in row)]


def canonical_int_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical key for a row space: RREF scaled to primitive integer rows.

    Two row sets get the same key exactly when they span the same space.
    """
    reduced = rref(rows)
    result = []
    for row in reduced:
        mult = 1
        for x in row:
            mult = lcm(mult, x.denominator)
        ints = [int(x * mult) for x in row]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        if g > 1:
            ints = [x // g for x in ints]
        lead = next(x for x in ints if x != 0)
        if lead < 0:
            ints = [-x for x in ints]
        result.append(tuple(ints))
    return tuple(result)


def in_row_space(vec, rref_rows) -> bool:
    """Whether ``vec`` lies in the span of rows already in echelon form."""
    residual = [Fraction(x) for x in vec]
    for row in rref_rows:
        lead_col = next(i for i, x in enumerate(row) if x != 0)
        if residual[lead_col] != 0:
            factor = Fraction(residual[lead_col], row[lead_col])
            residual = [a - factor * Fraction(b) for a, b in zip(residual, row)]
    return all(x == 0 for x in residual)


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
