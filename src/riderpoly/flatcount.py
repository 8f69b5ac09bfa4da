"""Lattice-point counts of flats: the alpha values of the Mobius route.

A flat's count at size n is the number of tuples of cells, one per piece
the flat involves, that satisfy its line equations.  Pieces forced to
coincide collapse into groups; each connected component of the groups'
slope graph is counted on its own, a tree by a sum-product over line
buckets and any other component by placing groups one at a time, with
the last two groups of a cycle counted in closed form.  The cells at a
size, the closed dilate's at n < 0, come from ``geometry.cells_at``; the
work is checked against the budget by the caller before a count starts,
so nothing here refuses.
"""

from __future__ import annotations

from functools import lru_cache

from .counting import attack_keys
from .geometry import BoardPolygon, MoveSet, cells_at, region_at


@lru_cache(maxsize=128)
class _PointGeometry:
    """The cells at size n (see ``geometry.region_at``) plus per-move line
    buckets, built once per piece, board and size.

    ``bounds`` are the cells' rows as a*x + b*y <= bound.
    """

    __slots__ = ("points", "index", "keys", "buckets", "bounds")

    def __init__(self, ms: MoveSet, board: BoardPolygon, n: int):
        self.points = cells_at(board, n)
        _, self.bounds = region_at(board, n)
        self.index = {p: pid for pid, p in enumerate(self.points)}
        self.keys = attack_keys(ms, self.points)
        self.buckets = []
        for col in self.keys:
            buckets: dict[int, list[int]] = {}
            for pid, key in enumerate(col):
                buckets.setdefault(key, []).append(pid)
            self.buckets.append(buckets)


def count_flat(ms: MoveSet, flat, board: BoardPolygon, n: int,
               plan=None) -> int:
    """Unsigned count of the flat's cell tuples at size n, the size's work
    already checked against the budget by the caller.  ``plan`` is the
    flat's ``count_plan``, made here if not given."""
    if flat.kappa == 0:
        return 1
    geo = _PointGeometry(ms, board, n)
    if not geo.points:
        return 0
    result = 1
    for tree, steps in plan or count_plan(flat):
        if tree:
            result *= _count_tree(geo, steps)
        else:
            result *= _count_generic(ms, geo, *steps)
        if result == 0:
            return 0
    return result


def count_plan(flat) -> tuple:
    """How ``count_flat`` counts the flat at any size: per component of
    its slope graph, (True, tree steps) or (False, (constraints, fibre)).

    It depends on the flat alone, so a caller counting one flat at many
    sizes makes it once.
    """
    return tuple((True, _tree_steps(nodes, adjacency))
                 if len(edges) == len(nodes) - 1
                 else (False, _generic_plan(nodes, adjacency))
                 for nodes, edges, adjacency in slope_components(flat))


def slope_components(flat) -> list:
    """The connected components of the flat's slope graph, on groups.

    Pieces forced to coincide (two distinct slopes through one pair)
    form one group.  A closed flat lists every move hyperplane it lies
    in, so coincidence is transitive and a group is named by its least
    local piece index.  Returns one (groups, edges, adjacency) triple per
    component: the groups in the order a depth-first search reaches them,
    so each group but the first follows a neighbour; ``edges`` maps a pair
    of groups to its move, and ``adjacency``, shared by all components,
    maps a group to its (neighbour, move) pairs.
    """
    local = {piece: a for a, piece in enumerate(flat.involved)}
    pair_slopes: dict[tuple[int, int], set[int]] = {}
    for i, j, r in flat.edges:
        pair_slopes.setdefault((local[i], local[j]), set()).add(r)
    group = list(range(flat.kappa))
    for (a, b), slopes in pair_slopes.items():
        if len(slopes) >= 2:
            group[b] = min(group[b], a)

    group_edges: dict[tuple[int, int], int] = {}
    for (a, b), slopes in pair_slopes.items():
        ga, gb = group[a], group[b]
        if ga == gb:
            continue
        key = (min(ga, gb), max(ga, gb))
        move = next(iter(slopes))
        prev = group_edges.get(key)
        if prev is not None and prev != move:
            raise RuntimeError("closure invariant violated: multi-slope pair "
                               "between non-coincident groups")
        group_edges[key] = move

    adjacency = {g: [] for g in sorted(set(group))}
    for (ga, gb), move in group_edges.items():
        adjacency[ga].append((gb, move))
        adjacency[gb].append((ga, move))

    seen: set[int] = set()
    components = []
    for start in adjacency:
        if start in seen:
            continue
        comp = []
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            comp.append(v)
            stack.extend(u for u, _ in adjacency[v] if u not in seen)
        comp_edges = {key: move for key, move in group_edges.items()
                      if key[0] in comp}
        components.append((comp, comp_edges, adjacency))
    return components


def _tree_steps(nodes, adjacency) -> list:
    """(group, [(child, move), ...]) per group of a tree, children first.

    ``nodes`` are in search order, so a group's parent is its one
    neighbour listed before it."""
    pos = {v: k for k, v in enumerate(nodes)}
    return [(v, [(u, move) for u, move in adjacency[v] if pos[u] > pos[v]])
            for v in reversed(nodes)]


def _count_tree(geo: _PointGeometry, steps) -> int:
    """Sum-product over a tree of line constraints, O(edges * cells).

    value[v][p] = number of ways to place v's subtree with v at cell p;
    passing to the parent only needs per-line sums of that array.
    """
    value = {}
    for v, children in steps:
        arr = None
        for u, move in children:
            sums = {key: sum(value[u][pid] for pid in pids)
                    for key, pids in geo.buckets[move].items()}
            col = geo.keys[move]
            if arr is None:
                arr = [sums[key] for key in col]
            else:
                arr = [a * sums[key] for a, key in zip(arr, col)]
        value[v] = arr if arr is not None else [1] * len(geo.points)
    return sum(value[v])        # the root comes last


def _generic_plan(nodes, neighbors):
    """The placing order's constraints and the closed-form fibre, if any.

    Groups are placed one at a time, each next the one with the most
    placed neighbours; a group's constraints are its (earlier slot, move)
    pairs.  When the second-to-last group runs along one line and the last
    group is fixed by two, the fibre lists the last group's two defining
    lines first, then the rest, for ``_count_fibre``.
    """
    order = [max(nodes, key=lambda v: len(neighbors[v]))]
    placed = {order[0]}
    while len(order) < len(nodes):
        nxt = max((v for v in nodes if v not in placed),
                  key=lambda v: sum(1 for u, _ in neighbors[v] if u in placed))
        order.append(nxt)
        placed.add(nxt)
    constraints = []
    pos_in_order = {v: k for k, v in enumerate(order)}
    for v in order:
        constraints.append([(pos_in_order[u], move)
                            for u, move in neighbors[v]
                            if pos_in_order[u] < pos_in_order[v]])

    last = len(order) - 1
    fibre = None
    if (last >= 2 and len({move for _, move in constraints[last - 1]}) == 1
            and len({move for _, move in constraints[last]}) >= 2):
        cons = constraints[last]
        j = next(i for i, (_, move) in enumerate(cons) if move != cons[0][1])
        fibre = [cons[0], cons[j]] + [c for i, c in enumerate(cons)
                                      if i not in (0, j)]
    return constraints, fibre


def _count_generic(ms, geo: _PointGeometry, constraints, fibre) -> int:
    """Place groups one at a time; a group on two known lines is determined.

    The second-to-last group and the last are counted together in closed
    form (``_count_fibre``) when the plan has a fibre.
    """
    last = len(constraints) - 1
    npts = len(geo.points)
    keys = geo.keys
    buckets = geo.buckets
    index = geo.index
    moves = ms.moves
    placement = [0] * len(constraints)

    def extend(k: int) -> int:
        if k == len(constraints):
            return 1
        cons = constraints[k]
        total = 0
        if not cons:
            for pid in range(npts):
                placement[k] = pid
                total += extend(k + 1)
            return total
        s1, r1 = cons[0]
        k1 = keys[r1][placement[s1]]
        second = None
        for slot, move in cons[1:]:
            if move == r1:
                if keys[move][placement[slot]] != k1:
                    return 0  # two parallel but distinct lines
            elif second is None:
                second = (slot, move)
        if second is None:
            # every constraint is the same line through the placed pieces
            if fibre is not None and k == last - 1:
                bucket = buckets[r1].get(k1)
                if not bucket:
                    return 0
                return _count_fibre(moves, geo, bucket, r1, k, fibre,
                                    placement)
            for pid in buckets[r1].get(k1, ()):
                placement[k] = pid
                total += extend(k + 1)
            return total
        s2, r2 = second
        m1, m2 = moves[r1], moves[r2]
        k2 = keys[r2][placement[s2]]
        det = m1.d * m2.c - m2.d * m1.c
        xn = m2.c * k1 - m1.c * k2
        yn = m2.d * k1 - m1.d * k2
        if xn % det or yn % det:
            return 0
        pid = index.get((xn // det, yn // det))
        if pid is None:
            return 0
        for slot, move in cons:
            if keys[move][pid] != keys[move][placement[slot]]:
                return 0
        placement[k] = pid
        return extend(k + 1)

    return extend(0)


def _count_fibre(moves, geo: _PointGeometry, bucket, r1: int, slot: int,
                 cons, placement) -> int:
    """Placements of the last two groups, the first along one line.

    That group runs over its bucket, P(s) = P0 + s*(c, d) for s in
    range(len(bucket)) with (c, d) the line's move.  The last group is
    then fixed by its two lines ``cons[0]`` and ``cons[1]`` at
    X(s) = (xn(s), yn(s)) / det, with xn and yn affine in s.  X(s) is a
    cell exactly when it is integral (residues of s mod det) and inside
    the dilate (an interval in s); every further line of ``cons`` is an
    affine equality in s.
    """
    c1, d1 = moves[r1].c, moves[r1].d
    x0, y0 = geo.points[bucket[0]]
    keys = geo.keys
    lines = []              # each line's key (k0, k1): k0 + k1*s
    for other, move in cons:
        m = moves[move]
        if other == slot:
            lines.append((m.d * x0 - m.c * y0, m.d * c1 - m.c * d1))
        else:
            lines.append((keys[move][placement[other]], 0))
    ma, mb = moves[cons[0][1]], moves[cons[1][1]]
    (ka0, ka1), (kb0, kb1) = lines[0], lines[1]
    det = ma.d * mb.c - mb.d * ma.c
    sign = 1 if det > 0 else -1
    det *= sign
    xn0 = sign * (mb.c * ka0 - ma.c * kb0)
    xn1 = sign * (mb.c * ka1 - ma.c * kb1)
    yn0 = sign * (mb.d * ka0 - ma.d * kb0)
    yn1 = sign * (mb.d * ka1 - ma.d * kb1)

    lo, hi = 0, len(bucket) - 1
    for (_, move), (t0, t1) in zip(cons[2:], lines[2:]):
        m = moves[move]
        u0 = m.d * xn0 - m.c * yn0 - det * t0
        u1 = m.d * xn1 - m.c * yn1 - det * t1
        if u1 == 0:
            if u0:
                return 0
        elif u0 % u1:
            return 0
        else:
            lo = max(lo, -u0 // u1)
            hi = min(hi, -u0 // u1)
    for a, b, bound in geo.bounds:
        # a*xn(s) + b*yn(s) <= bound*det, as slope*s <= room
        slope = a * xn1 + b * yn1
        room = bound * det - a * xn0 - b * yn0
        if slope > 0:
            hi = min(hi, room // slope)
        elif slope < 0:
            lo = max(lo, -(room // -slope))
        elif room < 0:
            return 0
    if lo > hi:
        return 0
    if det == 1:
        return hi - lo + 1
    return sum((hi - r) // det - (lo - 1 - r) // det for r in range(det)
               if (xn0 + r * xn1) % det == 0 and (yn0 + r * yn1) % det == 0)
