"""Lattice-point counts of flats: the alpha values of the Mobius route.

A flat's count at size n is the number of tuples of cells, one per piece
the flat involves, that satisfy its line equations.  Pieces forced to
coincide collapse into groups; each connected component of the groups'
slope graph is counted on its own, a tree by a sum-product over line
buckets and any other component by placing groups one at a time, with
the last two groups of a cycle counted in closed form.  For n < 0 the
cells are those of the closed (-n-1)-fold dilate (see
``arrangement.alpha``).
"""

from __future__ import annotations

from functools import lru_cache

from .counting import attack_keys, check_board_walk
from .errors import CapacityError
from .geometry import (
    BoardPolygon,
    MoveSet,
    closed_lattice_points,
    interior_lattice_points,
)


class _PointGeometry:
    """Lattice points of one dilate plus per-move line buckets.

    The points lie strictly inside the t-fold dilate, or in the closed one
    when ``closed``; ``bounds`` are its rows as a*x + b*y <= bound.
    """

    __slots__ = ("points", "index", "keys", "buckets", "bounds")

    def __init__(self, ms: MoveSet, board: BoardPolygon, t: int, closed: bool):
        if closed:
            self.points = closed_lattice_points(board, t)
        else:
            self.points = interior_lattice_points(board, t)
        self.bounds = [(a, b, t * c - (not closed)) for a, b, c in board.rows]
        self.index = {p: pid for pid, p in enumerate(self.points)}
        self.keys = attack_keys(ms, self.points)
        self.buckets = []
        for col in self.keys:
            buckets: dict[int, list[int]] = {}
            for pid, key in enumerate(col):
                buckets.setdefault(key, []).append(pid)
            self.buckets.append(buckets)


@lru_cache(maxsize=128)
def _point_geometry(ms: MoveSet, board: BoardPolygon, t: int,
                    closed: bool) -> _PointGeometry:
    return _PointGeometry(ms, board, t, closed)


def geometry_at(ms: MoveSet, board: BoardPolygon, n: int) -> _PointGeometry:
    """The cells at size n: inside the (n+1)-fold dilate, or for n < 0 the
    closed (-n-1)-fold dilate, whose counts give the quasipolynomials'
    values at n by Ehrhart-Macdonald reciprocity."""
    if n >= 0:
        return _point_geometry(ms, board, n + 1, False)
    return _point_geometry(ms, board, -1 - n, True)


def count_flat(ms: MoveSet, flat, board: BoardPolygon, n: int,
               budget: int) -> int:
    """Unsigned count of the flat's cell tuples at size n (see ``geometry_at``)."""
    kappa = flat.kappa
    if kappa == 0:
        return 1
    check_board_walk(board, n, budget)
    geo = geometry_at(ms, board, n)
    npts = len(geo.points)
    if npts == 0:
        return 0
    envelope = npts ** min(kappa, 3)
    if envelope > budget:
        raise CapacityError(
            f"alpha envelope {envelope} exceeds budget {budget}",
            n=n, envelope=envelope, budget=budget)

    result = 1
    for nodes, edges, adjacency in slope_components(flat):
        if len(edges) == len(nodes) - 1:
            result *= _count_tree(geo, nodes, adjacency)
        else:
            result *= _count_generic(ms, geo, nodes, adjacency)
        if result == 0:
            return 0
    return result


def slope_components(flat) -> list:
    """The connected components of the flat's slope graph, on groups.

    Pieces forced to coincide (two distinct slopes through one pair)
    form one group.  A closed flat lists every move hyperplane it lies
    in, so coincidence is transitive and a group is named by its least
    local piece index.  Returns one (groups, edges, adjacency) triple per
    component: ``edges`` maps a pair of groups to its move, and
    ``adjacency``, shared by all components, maps a group to its
    (neighbour, move) pairs.
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


def _count_tree(geo: _PointGeometry, nodes, adjacency) -> int:
    """Sum-product over a tree of line constraints, O(edges * cells).

    value[v][p] = number of ways to place v's subtree with v at cell p;
    passing to the parent only needs per-line sums of that array.
    """
    npts = len(geo.points)
    root = nodes[0]
    order = []
    parent_of = {root: None}
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for u, move in adjacency[v]:
            if u not in parent_of:
                parent_of[u] = (v, move)
                stack.append(u)
    value = {v: None for v in order}
    for v in reversed(order):
        arr = None
        for u, move in adjacency[v]:
            if u == (parent_of[v][0] if parent_of[v] else None):
                continue
            sums = {key: sum(value[u][pid] for pid in pids)
                    for key, pids in geo.buckets[move].items()}
            col = geo.keys[move]
            if arr is None:
                arr = [sums[col[p]] for p in range(npts)]
            else:
                arr = [arr[p] * sums[col[p]] for p in range(npts)]
        value[v] = arr if arr is not None else [1] * npts
    return sum(value[root])


def _count_generic(ms, geo: _PointGeometry, nodes, neighbors) -> int:
    """Place groups one at a time; a group on two known lines is determined.

    When the second-to-last group runs along one line and the last group
    is fixed by two, the two are counted together in closed form
    (``_count_fibre``) instead of cell by cell.
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
        # the last group's two defining lines first, then the rest
        cons = constraints[last]
        j = next(i for i, (_, move) in enumerate(cons) if move != cons[0][1])
        fibre = [cons[0], cons[j]] + [c for i, c in enumerate(cons)
                                      if i not in (0, j)]

    npts = len(geo.points)
    keys = geo.keys
    buckets = geo.buckets
    index = geo.index
    points = geo.points
    moves = ms.moves
    placement = [0] * len(order)

    def extend(k: int) -> int:
        if k == len(order):
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
