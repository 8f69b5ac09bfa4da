"""The free-cell search, kept as the reference for the kernel and census.

Each cell gets the bitmask of the cells that share no key with it, and a
search steps through every nonattacking prefix of free cells, so its work
grows with the free cells where the library's kernel walks attackers.
``census_types`` is the census that typed each placement's comparison
signature at its leaf, on the library's gate, runs and ``_signature``.
"""

from bisect import bisect_right
from itertools import permutations

from riderpoly.counting import (
    _gated_sizes,
    _nested_runs,
    _signature,
    attack_keys,
)
from riderpoly.errors import DEFAULT_BUDGET


def unattacked(keys) -> list[int]:
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
    """Running counts of the nonattacking q-subsets, one per prefix of the
    cells, by a search over each highest cell's earlier free cells."""
    npts = len(keys[0]) if keys else 0
    if q < 2:
        return [1] * (npts + 1) if q == 0 else list(range(npts + 1))
    masks = unattacked(keys)

    def extend(cand: int, left: int) -> int:
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
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
    """Every nonattacking q-subset as an ascending index tuple, in
    lexicographic order; ``q`` must be positive."""
    masks = unattacked(keys)

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


def census_types(ms, board, q, n_from, n_to, budget=DEFAULT_BUDGET):
    """(labelled, unlabelled) types per size, each placement's signature
    built from its cells' keys at its leaf."""
    sizes = _gated_sizes(board, q, n_from, n_to, budget, "census")
    if q == 0:
        return dict.fromkeys(sizes, (1, 1))
    census = {}
    for cells, ends in _nested_runs(board, sizes):
        keys = attack_keys(ms, cells)
        cell_keys = list(zip(*keys))
        stops = [end for _, end in ends]
        found = [{} for _ in ends]
        for combo in iter_nonattacking_subsets(keys, q):
            piece_keys = [cell_keys[i] for i in combo]
            found[bisect_right(stops, combo[-1])].setdefault(
                _signature(piece_keys), piece_keys)
        labelled, unlabelled = set(), set()
        for (n, _), placements in zip(ends, found):
            for sig, piece_keys in placements.items():
                if sig not in labelled:
                    orbit = {_signature(order)
                             for order in permutations(piece_keys)}
                    labelled |= orbit
                    unlabelled.add(min(orbit))
            census[n] = (len(labelled), len(unlabelled))
    return census
