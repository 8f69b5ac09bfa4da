"""Bitset enumeration core: count and iterate nonattacking cell subsets.

Cells are identified by their per-move attack keys: cells p and p' are
attacked along move r exactly when ``keys[r][p] == keys[r][p']``.  Each
cell i gets one int bitmask of the cells after it that share no key with
it, so choosing a cell is one AND with the candidate mask.  The count
makes no call for its last two levels: the last is the popcount of the
candidates left, and at q = 2 the whole count is the sum of the masks'
popcounts.
"""

from __future__ import annotations


def implementation_name() -> str:
    return "pure-python"


def _later_unattacked(keys) -> list[int]:
    """Per cell i, the bitmask of cells j > i sharing no attack key with i."""
    npts = len(keys[0])
    attacked = [0] * npts
    for col in keys:
        lines: dict[int, int] = {}
        for idx, key in enumerate(col):
            lines[key] = lines.get(key, 0) | 1 << idx
        for idx, key in enumerate(col):
            attacked[idx] |= lines[key]
    full = (1 << npts) - 1
    return [full >> (idx + 1) << (idx + 1) & ~attacked[idx]
            for idx in range(npts)]


def count_nonattacking_subsets(keys, q: int) -> int:
    """Number of q-subsets of cells with no two cells sharing any attack key.

    ``keys`` is a list with one sequence of integer keys per move, all of
    the same length (the number of cells).
    """
    if q == 0:
        return 1
    npts = len(keys[0]) if keys else 0
    if q == 1:
        return npts
    if npts < q:
        return 0
    masks = _later_unattacked(keys)
    if q == 2:
        return sum(mask.bit_count() for mask in masks)

    def extend(cand: int, left: int) -> int:
        """Nonattacking left-subsets of the cells in cand, left >= 2."""
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            rest = cand & masks[low.bit_length() - 1]
            total += rest.bit_count() if left == 2 else extend(rest, left - 1)
        return total

    # masks[i] holds the candidates for the cells after a first cell i.
    return sum(extend(mask, q - 1) for mask in masks)


def iter_nonattacking_subsets(keys, q: int):
    """Yield every nonattacking q-subset as an ascending index tuple.

    Tuples come in lexicographic order; ``q`` must be positive.
    """
    masks = _later_unattacked(keys)

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
