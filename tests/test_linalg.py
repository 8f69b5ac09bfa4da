from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from riderpoly.linalg import canonical_int_rows, in_row_space, insert_row


def reference_rref(rows) -> list[list[Fraction]]:
    """Reduced row echelon form over the rationals; zero rows dropped."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivot_row = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(pivot_row, len(mat)) if mat[r][col]),
                     None)
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = mat[pivot_row][col]
        mat[pivot_row] = [x / inv for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
    return mat[:pivot_row]


def reference_key(rows) -> tuple[tuple[int, ...], ...]:
    """The reference RREF with each row scaled to primitive integers."""
    key = []
    for row in reference_rref(rows):
        mult = lcm(*(x.denominator for x in row))
        ints = [int(x * mult) for x in row]
        g = gcd(*ints)
        key.append(tuple(x // g for x in ints))
    return tuple(key)


def rank(rows) -> int:
    return len(reference_rref(rows))


entries = st.integers(-3, 3)
matrices = st.integers(1, 8).flatmap(lambda ncols: st.tuples(
    st.just(ncols),
    st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=6)))


def combination(data, rows, ncols):
    coeffs = data.draw(st.lists(entries, min_size=len(rows),
                                max_size=len(rows)))
    return [sum(c * row[i] for c, row in zip(coeffs, rows))
            for i in range(ncols)]


@settings(deadline=None)
@given(matrices)
def test_key_is_primitive_reference_rref(matrix):
    _, rows = matrix
    assert canonical_int_rows(rows) == reference_key(rows)


@settings(deadline=None)
@given(matrices, st.data())
def test_key_depends_only_on_row_space(matrix, data):
    ncols, rows = matrix
    key = canonical_int_rows(rows)
    shuffled = data.draw(st.permutations(rows))
    assert canonical_int_rows(shuffled) == key
    scales = data.draw(st.lists(entries.filter(bool), min_size=len(rows),
                                max_size=len(rows)))
    scaled = [[s * x for x in row] for s, row in zip(scales, rows)]
    assert canonical_int_rows(scaled) == key
    assert canonical_int_rows(rows + [combination(data, rows, ncols)]) == key


@settings(deadline=None)
@given(matrices, st.data())
def test_membership_matches_reference_rank(matrix, data):
    ncols, rows = matrix
    if data.draw(st.booleans()):
        vec = combination(data, rows, ncols)
    else:
        vec = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    expected = rank(rows + [vec]) == rank(rows)
    assert in_row_space(vec, canonical_int_rows(rows)) == expected


@settings(deadline=None)
@given(matrices, st.data())
def test_step_is_none_exactly_when_rank_stays(matrix, data):
    _, rows = matrix
    echelon: list = []
    kept = []
    for k, row in enumerate(rows):
        rhs = data.draw(entries)
        extended = insert_row(row, rhs, echelon)
        assert (extended is None) == (rank(rows[:k + 1]) == rank(rows[:k]))
        if extended is None:
            continue
        echelon = extended
        kept.append(row + [rhs])
        pivots = {pivot_col for pivot_col, _, _ in echelon}
        for pivot_col, erow, erhs in echelon:
            assert erow[pivot_col] > 0
            assert gcd(*erow, erhs) == 1
            assert all(erow[c] == 0 for c in pivots - {pivot_col})
    assert len(echelon) == rank(rows)
    # The same equations: equal augmented row spaces.
    assert reference_key([erow + [erhs] for _, erow, erhs in echelon]) \
        == reference_key(kept)
