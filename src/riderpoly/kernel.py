"""Bitset enumeration core: count nonattacking cell subsets, and find one
subset per comparison signature.

Cells are identified by their per-move attack keys: cells p and p' are
attacked along move r exactly when ``keys[r][p] == keys[r][p']``.  The
attack graph on the cells is sparse (a queen at n = 16 has about 30
earlier attackers against about 190 earlier free cells), so the count
walks each cell's attackers, not its free cells.  In any simple graph on
k vertices with m edges, degrees deg(v) and t triangles, the independent
3-sets number C(k, 3) - m (k - 2) + sum_v C(deg v, 2) - t.  Adding a cell
c updates all three sums from its earlier attackers A_c alone: m grows by
|A_c|, sum_v C(deg v, 2) by C(|A_c|, 2) + sum_{b in A_c} deg b, and t by
the edges among A_c.  So q = 3 counts every prefix of the cells in one
pass over the attack edges, and q = 2 is a popcount per cell.  A q = 4
count adds, per cell c, the formula on the graph of the earlier cells c
does not attack: the prefix's sums less what touches A_c, found from A_c
and the edges inside it (``_quadruples``).  Past q = 4 a count groups
the subsets by their highest cell c, whose rest is a (q-1)-subset of the
cells before c that c does not attack, and steps through the nonattacking
prefixes of free cells; the last level is the popcount of the candidates
left.

The type census (``first_signatures``) walks the subsets themselves, but
carries each one's comparison signature down the search: one small int
per pair of its cells, read from a per-cell row of codes built on first
use, so no leaf compares keys.  For q >= 3 it keeps the row of each cell
placed below a top, a list of N codes, so up to 8 N^2 bytes; a q = 2
census keeps no row past its top's subtree.
"""

from __future__ import annotations

from math import comb


def implementation_name() -> str:
    return "pure-python"


def _earlier_attackers(keys) -> list[int]:
    """Per cell i, the bitmask of cells j < i sharing an attack key with i."""
    npts = len(keys[0]) if keys else 0
    earlier = [0] * npts
    for col in keys:
        lines: dict[int, int] = {}
        for idx, key in enumerate(col):
            line = lines.get(key, 0)
            earlier[idx] |= line
            lines[key] = line | 1 << idx
    return earlier


def _attacked(earlier: list[int]) -> list[int]:
    """Per cell i, the bitmask of the other cells sharing an attack key
    with i."""
    attacked = earlier[:]
    for cell, attackers in enumerate(earlier):
        for b in _bits(attackers):
            attacked[b] |= 1 << cell
    return attacked


def _unattacked(earlier: list[int]) -> list[int]:
    """Per cell i, the bitmask of cells sharing no attack key with i."""
    full = (1 << len(earlier)) - 1
    return [full ^ mask for mask in _attacked(earlier)]


def _bits(mask: int):
    """The indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _add(planes: list[int], mask: int) -> None:
    """Add one to the bit-sliced counters at each cell of mask: plane j
    holds bit j of every cell's counter."""
    for j, plane in enumerate(planes):
        planes[j] = plane ^ mask
        mask &= plane
        if not mask:
            return
    planes.append(mask)


def _dot(xs: list[int], ys: list[int]) -> int:
    """Sum over the cells of the product of two bit-sliced counters
    (``[-1]`` is one at every cell)."""
    return sum((x & y).bit_count() << (j + k)
               for j, x in enumerate(xs) for k, y in enumerate(ys))


def _triples(earlier: list[int]) -> list[int]:
    """Running counts of the nonattacking 3-subsets, from the edges,
    cherries (paths on three cells) and triangles of each prefix's attack
    graph."""
    degree = [0] * len(earlier)
    edges = cherries = triangles = 0
    totals = [0]
    for cell, attackers in enumerate(earlier):
        a = attackers.bit_count()
        cherries += a * (a - 1) // 2
        for b in _bits(attackers):
            cherries += degree[b]
            degree[b] += 1
            triangles += (attackers & earlier[b]).bit_count()
        degree[cell] = a
        edges += a
        k = cell + 1
        totals.append(comb(k, 3) - edges * (k - 2) + cherries - triangles)
    return totals


def _quadruples(earlier: list[int]) -> list[int]:
    """Running counts of the nonattacking 4-subsets: a cell c adds the
    nonattacking 3-subsets of F, the earlier cells it does not attack.

    The formula runs on the graph of F: the prefix's sums less what
    touches A_c, c's earlier attackers.  Edges touching A_c are
    sum_{b in A_c} deg b less the edges inside A_c; a cell v of F loses
    x_v, its neighbours in A_c, from its degree, and so
    C(deg v, 2) - C(deg v - x_v, 2) = x_v deg v - C(x_v + 1, 2) cherries;
    and the triangles meeting A_c are, by inclusion-exclusion,
    sum_{b in A_c} tri b less the common neighbours of each edge inside
    A_c plus the triangles inside A_c.  Degrees and the x_v are
    bit-sliced counters, so each of their sums is a few popcounts.
    """
    attacked = _attacked(earlier)
    degree: list[int] = []      # bit planes of the degrees in the prefix
    tri = [0] * len(earlier)    # per cell, the prefix's triangles on it
    edges = cherries = triangles = 0
    totals = [0]
    for cell, attackers in enumerate(earlier):
        prefix = (1 << cell) - 1
        free = prefix ^ attackers
        lost: list[int] = []        # bit planes of the x_v
        inner = lost_triangles = 0
        for b in _bits(attackers):
            around = attacked[b] & prefix
            _add(lost, around & free)
            lost_triangles += tri[b]
            below = attackers & earlier[b]
            inner += below.bit_count()
            for u in _bits(below):
                lost_triangles += (
                    (attackers & earlier[u] & earlier[b]).bit_count()
                    - (attacked[u] & around).bit_count())
                tri[u] += 1
            tri[b] += below.bit_count()
        tri[cell] = inner
        a = attackers.bit_count()
        mine = [attackers & plane for plane in degree]
        touch = _dot(mine, [-1])
        f = cell - a
        f_cherries = (cherries - (_dot(mine, degree) - touch) // 2
                      - _dot(lost, degree)
                      + (_dot(lost, lost) + _dot(lost, [-1])) // 2)
        totals.append(totals[-1] + comb(f, 3)
                      - (edges - touch + inner) * (f - 2)
                      + f_cherries - (triangles - lost_triangles))
        _add(degree, attackers)
        for j in range(a.bit_length()):
            if j == len(degree):
                degree.append(0)
            degree[j] |= (a >> j & 1) << cell
        cherries += a * (a - 1) // 2 + touch
        edges += a
        triangles += inner
    return totals


def count_nonattacking_subsets(keys, q: int) -> list[int]:
    """Running counts of the q-subsets of cells with no two cells sharing
    any attack key: entry k counts those among the first k cells.

    ``keys`` is a list with one sequence of integer keys per move, all of
    the same length (the number of cells); the last entry counts them all.
    """
    npts = len(keys[0]) if keys else 0
    if q < 2:
        return [1] * (npts + 1) if q == 0 else list(range(npts + 1))
    earlier = _earlier_attackers(keys)
    totals = [0]
    if q == 2:
        for cell, attackers in enumerate(earlier):
            totals.append(totals[-1] + cell - attackers.bit_count())
        return totals
    if q == 3:
        return _triples(earlier)
    if q == 4:
        return _quadruples(earlier)
    free = _unattacked(earlier)

    def extend(cand: int, left: int) -> int:
        """Nonattacking left-subsets of the cells in cand, left >= 2."""
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            # cand now holds only cells after low.
            rest = cand & free[low.bit_length() - 1]
            total += rest.bit_count() if left == 2 else extend(rest, left - 1)
        return total

    for cell, attackers in enumerate(earlier):
        cand = ((1 << cell) - 1) ^ attackers
        totals.append(totals[-1] + extend(cand, q - 1))
    return totals


def first_signatures(keys, q: int) -> dict[int, tuple[int, ...]]:
    """One nonattacking q-subset per comparison signature, as an ascending
    index tuple, keyed by the signature.

    The code of cells (u, v) packs, per move r, whether u's key is below
    v's, and a subset's signature packs the codes of its pairs in a fixed
    order of their places in the search, so equal signatures mean equal
    comparisons.  Subsets are taken in order of
    their highest cell, so each one kept has the least highest cell of
    any subset with its signature.  ``q`` must be positive.
    """
    npts = len(keys[0]) if keys else 0
    if q == 1:
        return {0: (0,)} if npts else {}
    earlier = _earlier_attackers(keys)
    free = _unattacked(earlier)
    width = len(keys)
    rows: list = [None] * npts
    found: dict[int, tuple[int, ...]] = {}

    def code_row(u: int) -> list[int]:
        """Per cell v, the bits r with key_r(u) < key_r(v)."""
        row = rows[u]
        if row is None:
            row = [0] * npts
            for r, col in enumerate(keys):
                x, bit = col[u], 1 << r
                row = [acc | bit if x < y else acc for acc, y in zip(row, col)]
            # A top's row is read again only once it lies below a later top.
            if q > 2:
                rows[u] = row
        return row

    def extend(cand: int, chosen: tuple, codes: tuple, sig: int, left: int):
        # chosen: the top, then the cells below it so far; codes: their
        # code rows.
        while cand:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1
            s = sig
            for row in codes:
                s = s << width | row[u]
            if left == 1:
                if s not in found:
                    found[s] = chosen + (u,)
            else:
                extend(cand & free[u], chosen + (u,), codes + (code_row(u),),
                       s, left - 1)

    for top, attackers in enumerate(earlier):
        cand = ((1 << top) - 1) ^ attackers
        if cand.bit_count() >= q - 1:
            extend(cand, (top,), (code_row(top),), 0, q - 1)
    return {sig: chosen[1:] + chosen[:1] for sig, chosen in found.items()}
