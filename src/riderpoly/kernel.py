"""Bitset enumeration core: count and iterate nonattacking cell subsets.

Cells are identified by their per-move attack keys: cells p and p' are
attacked along move r exactly when ``keys[r][p] == keys[r][p']``.  Each
cell i gets one int bitmask of the cells that share no key with it, so
choosing a cell is one AND with the candidate mask.  A count groups the
subsets by their highest cell c, whose rest is a (q-1)-subset of the
cells before c that c does not attack, so one pass counts every prefix of
the cells.  No call is made for the last two levels: the last is the
popcount of the candidates left, at q = 2 that of c's earlier cells.
"""

from __future__ import annotations


def implementation_name() -> str:
    return "pure-python"


def _unattacked(keys) -> list[int]:
    """Per cell i, the bitmask of cells j sharing no attack key with i."""
    npts = len(keys[0]) if keys else 0
    attacked = [0] * npts
    for col in keys:
        lines: dict[int, int] = {}
        for idx, key in enumerate(col):
            lines[key] = lines.get(key, 0) | 1 << idx
        for idx, key in enumerate(col):
            attacked[idx] |= lines[key]
    full = (1 << npts) - 1
    return [full ^ mask for mask in attacked]


def count_nonattacking_subsets(keys, q: int) -> list[int]:
    """Running counts of the q-subsets of cells with no two cells sharing
    any attack key: entry k counts those among the first k cells.

    ``keys`` is a list with one sequence of integer keys per move, all of
    the same length (the number of cells); the last entry counts them all.
    """
    npts = len(keys[0]) if keys else 0
    if q < 2:
        return [1] * (npts + 1) if q == 0 else list(range(npts + 1))
    masks = _unattacked(keys)

    def extend(cand: int, left: int) -> int:
        """Nonattacking left-subsets of the cells in cand, left >= 2."""
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            # cand now holds only cells after low.
            rest = cand & masks[low.bit_length() - 1]
            total += rest.bit_count() if left == 2 else extend(rest, left - 1)
        return total

    totals = [0]
    for cell, mask in enumerate(masks):
        earlier = mask & ((1 << cell) - 1)
        totals.append(totals[-1] + (earlier.bit_count() if q == 2
                                    else extend(earlier, q - 1)))
    return totals


def iter_nonattacking_subsets(keys, q: int):
    """Yield every nonattacking q-subset as an ascending index tuple.

    Tuples come in lexicographic order; ``q`` must be positive.
    """
    masks = _unattacked(keys)

    def extend(cand: int, chosen: tuple, left: int):
        while cand:
            low = cand & -cand
            cand ^= low
            idx = low.bit_length() - 1
            if left == 1:
                yield chosen + (idx,)
            else:
                yield from extend(cand & masks[idx], chosen + (idx,), left - 1)

    yield from extend((1 << len(masks)) - 1, (), q)
