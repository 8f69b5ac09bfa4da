"""Move hyperplane arrangements and their intersection semilattices.

For q pieces with move set M there is one hyperplane per (pair of pieces,
move): the configurations where that pair lies on a common move line.
Intersecting hyperplanes in all combinations yields the semilattice of
flats; each flat carries its defining equations (canonical primitive
integer row basis), its hyperplane mask, Mobius value, and slope graph.
The closure eliminates each candidate once: a flat's stored echelon is
extended by one ``linalg.insert_row`` per hyperplane outside the
hyperplanes already covered, and the members of a new flat come from
its mask, not from a second pass over every hyperplane.  The
inclusion-exclusion sum of Mobius-weighted lattice-point counts over all
flats reconstructs the nonattacking count, independently of the
brute-force enumerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from .counting import DEFAULT_BUDGET, attack_keys, check_board_walk
from .errors import CapacityError
from .geometry import BoardPolygon, MoveSet, interior_lattice_points
from .linalg import canonical_int_rows, insert_row


@dataclass(frozen=True)
class Hyperplane:
    """Pieces i < j lie on a common line of the move with this index."""

    i: int
    j: int
    move_index: int


def build_move_arrangement(ms: MoveSet, q: int) -> list[Hyperplane]:
    """All C(q,2)*|M| move hyperplanes, pair-major in lexicographic order."""
    if q < 1:
        raise ValueError("an arrangement needs at least one piece")
    return [Hyperplane(i, j, r)
            for i, j in combinations(range(q), 2)
            for r in range(len(ms))]


def hyperplane_row(h: Hyperplane, ms: MoveSet, q: int) -> tuple[int, ...]:
    """Coefficients of (z_j - z_i) . (d, -c) = 0 in R^{2q}."""
    m = ms.moves[h.move_index]
    row = [0] * (2 * q)
    row[2 * h.i] = -m.d
    row[2 * h.i + 1] = m.c
    row[2 * h.j] = m.d
    row[2 * h.j + 1] = -m.c
    return tuple(row)


class Flat:
    """An intersection subspace: equations, membership, slope graph."""

    __slots__ = ("id", "rows", "codim", "mask", "hyperplanes", "involved",
                 "edges", "mobius", "iso_key", "aut_order", "iso_class")

    def __init__(self, fid, rows, mask, hyperplanes, involved, edges):
        self.id = fid
        self.rows = rows                  # canonical integer row basis
        self.codim = len(rows)
        self.mask = mask                  # bitmask over hyperplane indices
        self.hyperplanes = hyperplanes    # tuple of member hyperplane indices
        self.involved = involved          # tuple of involved piece indices
        self.edges = edges                # tuple of (i, j, move_index)
        self.mobius = None
        self.iso_key = None
        self.aut_order = None
        self.iso_class = None

    @property
    def kappa(self) -> int:
        return len(self.involved)

    def __repr__(self):
        return (f"Flat(id={self.id}, codim={self.codim}, kappa={self.kappa}, "
                f"mobius={self.mobius})")


@dataclass(frozen=True)
class IsoClass:
    """Flats sharing a slope graph up to label-preserving isomorphism."""

    id: int
    key: tuple
    kappa: int
    codim: int
    mobius: int
    aut_order: int
    representative: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


class Semilattice:
    """The intersection semilattice of a move arrangement.

    Flat 0 is the bottom element (all of R^{2q}).  The structure is
    immutable once built; the alpha cache is the only internal mutable
    state and is keyed by values, so concurrent reads stay consistent.
    """

    def __init__(self, ms: MoveSet, q: int, hyperplanes, flats, by_key):
        self.ms = ms
        self.q = q
        self.hyperplanes = hyperplanes
        self.flats = flats
        self._by_key = by_key
        self.iso_classes: list[IsoClass] = []
        self._alpha_cache: dict = {}
        self._alpha_qp_cache: dict = {}

    @property
    def bottom(self) -> Flat:
        return self.flats[0]

    def flat_by_rows(self, rows) -> Flat:
        key = canonical_int_rows(rows)
        if key not in self._by_key:
            raise KeyError("no flat with the given row space")
        return self.flats[self._by_key[key]]

    def flat_of_hyperplanes(self, hyperplane_ids) -> Flat:
        rows = [hyperplane_row(self.hyperplanes[h], self.ms, self.q)
                for h in hyperplane_ids]
        return self.flat_by_rows(rows)

    def hyperplane_index(self, i: int, j: int, move_index: int) -> int:
        if i > j:
            i, j = j, i
        return self.hyperplanes.index(Hyperplane(i, j, move_index))


def intersection_semilattice(ms: MoveSet, q: int,
                             max_flats: int = 200_000) -> Semilattice:
    """Close the move arrangement under intersection; compute Mobius values.

    Each flat is kept as its ``linalg.insert_row`` echelon and its
    hyperplane mask, the set of hyperplanes containing it.  A flat is
    extended by one ``insert_row`` per hyperplane outside its mask; the
    sorted extended echelon (the primitive RREF of ``canonical_int_rows``)
    is the new flat's key.  A new key gets its mask completed by testing
    the remaining hyperplanes against its echelon, and every hyperplane of
    that mask then leads from the parent to the same flat, so none of them
    is eliminated again for this parent.  Flats are ordered by codimension,
    then by rows.
    """
    hyps = build_move_arrangement(ms, q)
    hrows = [hyperplane_row(h, ms, q) for h in hyps]

    by_key: dict[tuple, int] = {(): 0}
    masks = [0]
    work = [(0, [])]    # (flat id, echelon) of the flats not yet extended
    while work:
        fid, echelon = work.pop()
        covered = masks[fid]
        for hid, hrow in enumerate(hrows):
            if covered >> hid & 1:
                continue
            # Never None: the mask holds every hyperplane in the span.
            extended = insert_row(hrow, 0, echelon)
            key = tuple(tuple(erow) for _, erow, _ in sorted(extended))
            new = by_key.get(key)
            if new is None:
                if len(masks) >= max_flats:
                    raise CapacityError(
                        f"semilattice closure exceeded {max_flats} flats",
                        max_flats=max_flats)
                # A hyperplane already covered, or passed over above, leads
                # from this parent to another flat, so it is not in this one.
                mask = masks[fid] | 1 << hid
                for other in range(hid + 1, len(hrows)):
                    if (not covered >> other & 1
                            and insert_row(hrows[other], 0, extended) is None):
                        mask |= 1 << other
                new = by_key[key] = len(masks)
                masks.append(mask)
                work.append((new, extended))
            covered |= masks[new]

    # Deterministic flat order: by codimension, then by row content.
    ordered = sorted(by_key, key=lambda rows: (len(rows), rows))
    flats = []
    for fid, rows in enumerate(ordered):
        mask = masks[by_key[rows]]
        members = tuple(hid for hid in range(len(hyps)) if mask >> hid & 1)
        edges = tuple((hyps[hid].i, hyps[hid].j, hyps[hid].move_index)
                      for hid in members)
        involved = sorted({c // 2 for row in rows
                           for c, x in enumerate(row) if x != 0})
        flats.append(Flat(fid, rows, mask, members, tuple(involved), edges))
    by_key = {rows: fid for fid, rows in enumerate(ordered)}

    sl = Semilattice(ms, q, hyps, flats, by_key)
    _compute_mobius(sl)
    _compute_iso_classes(sl)
    return sl


def _compute_mobius(sl: Semilattice) -> None:
    # mu(bottom, U) = -sum of mu over flats strictly containing U; flats
    # are ordered by codimension, so every V in the sum is already done.
    for flat in sl.flats:
        if flat.codim == 0:
            flat.mobius = 1
            continue
        total = 0
        fmask = flat.mask
        for other in sl.flats:
            if other.codim >= flat.codim:
                break
            if other.mask & fmask == other.mask:
                total += other.mobius
        flat.mobius = -total


def mobius(sl: Semilattice, flat_id: int) -> int:
    """Mobius value mu(bottom, U) of the flat with the given id."""
    if not 0 <= flat_id < len(sl.flats):
        raise KeyError(f"unknown flat id {flat_id}")
    return sl.flats[flat_id].mobius


def _local_edges(flat: Flat) -> tuple:
    local = {piece: a for a, piece in enumerate(flat.involved)}
    return tuple(sorted((local[i], local[j], r) for i, j, r in flat.edges))


def _compute_iso_classes(sl: Semilattice) -> None:
    classes: dict[tuple, list[int]] = {}
    for flat in sl.flats:
        kappa = flat.kappa
        edges = _local_edges(flat)
        best = edges
        aut = 0
        for perm in permutations(range(kappa)):
            relabelled = tuple(sorted(
                (min(perm[a], perm[b]), max(perm[a], perm[b]), r)
                for a, b, r in edges))
            if relabelled == edges:
                aut += 1
            if relabelled < best:
                best = relabelled
        flat.iso_key = (kappa, best)
        flat.aut_order = max(aut, 1)
        classes.setdefault(flat.iso_key, []).append(flat.id)

    for cid, (key, members) in enumerate(sorted(classes.items())):
        rep = sl.flats[members[0]]
        for fid in members:
            flat = sl.flats[fid]
            if flat.mobius != rep.mobius or flat.codim != rep.codim:
                raise RuntimeError("isomorphic flats disagree on invariants")
        sl.iso_classes.append(IsoClass(
            id=cid, key=key, kappa=rep.kappa, codim=rep.codim,
            mobius=rep.mobius, aut_order=rep.aut_order,
            representative=rep.id, members=tuple(members)))
        for fid in members:
            sl.flats[fid].iso_class = cid


def iso_classes(sl: Semilattice) -> list[IsoClass]:
    """Partition of the flats into slope-graph isomorphism classes."""
    return sl.iso_classes


def decompose(sl: Semilattice, flat: Flat) -> list[Flat]:
    """Split a flat along the connected components of its slope graph.

    Mobius values and lattice-point counts multiply across the parts.
    """
    if not flat.involved:
        return []
    neighbors = {p: set() for p in flat.involved}
    for i, j, _ in flat.edges:
        neighbors[i].add(j)
        neighbors[j].add(i)
    seen = set()
    parts = []
    for start in flat.involved:
        if start in seen:
            continue
        comp = set()
        stack = [start]
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(neighbors[v] - comp)
        seen |= comp
        hids = [hid for hid in flat.hyperplanes
                if sl.hyperplanes[hid].i in comp]
        parts.append(sl.flat_of_hyperplanes(hids))
    return parts


def w_slope_flat(sl: Semilattice, pieces, move_index: int) -> Flat:
    """The flat where the given pieces all lie on one line of the given move."""
    hids = [sl.hyperplane_index(i, j, move_index)
            for i, j in combinations(sorted(pieces), 2)]
    return sl.flat_of_hyperplanes(hids)


def w_equal_flat(sl: Semilattice, pieces) -> Flat:
    """The flat where the given pieces coincide."""
    hids = [sl.hyperplane_index(i, j, r)
            for i, j in combinations(sorted(pieces), 2)
            for r in range(len(sl.ms))]
    return sl.flat_of_hyperplanes(hids)


def semilattice_report(sl: Semilattice) -> dict:
    """JSON-ready summary: every flat with its invariants and iso class."""
    slope = [m.slope_label for m in sl.ms]
    return {
        "piece": sl.ms.label,
        "q": sl.q,
        "hyperplane_count": len(sl.hyperplanes),
        "flat_count": len(sl.flats),
        "flats": [
            {
                "id": f.id,
                "codim": f.codim,
                "kappa": f.kappa,
                "mobius": f.mobius,
                "aut": f.aut_order,
                "iso_class": f.iso_class,
                "edges": [[i, j, slope[r]] for i, j, r in f.edges],
            }
            for f in sl.flats
        ],
        "iso_classes": [
            {
                "id": c.id,
                "size": c.size,
                "kappa": c.kappa,
                "codim": c.codim,
                "mobius": c.mobius,
                "aut": c.aut_order,
                "representative": c.representative,
            }
            for c in sl.iso_classes
        ],
    }


class _PointGeometry:
    """Interior lattice points of one dilate plus per-move line buckets."""

    __slots__ = ("points", "index", "keys", "buckets")

    def __init__(self, ms: MoveSet, board: BoardPolygon, t: int):
        self.points = interior_lattice_points(board, t)
        self.index = {p: pid for pid, p in enumerate(self.points)}
        self.keys = attack_keys(ms, self.points)
        self.buckets = []
        for col in self.keys:
            buckets: dict[int, list[int]] = {}
            for pid, key in enumerate(col):
                buckets.setdefault(key, []).append(pid)
            self.buckets.append(buckets)


@lru_cache(maxsize=128)
def _point_geometry(ms: MoveSet, board: BoardPolygon, t: int) -> _PointGeometry:
    return _PointGeometry(ms, board, t)


def alpha(sl: Semilattice, flat: Flat, board: BoardPolygon, n: int,
          budget: int = DEFAULT_BUDGET) -> int:
    """Number of kappa-tuples of board cells satisfying the flat's equations.

    Enumerates over the essential coordinates only: pieces the flat does
    not involve contribute no factor here.  Isomorphic flats share one
    cached value per (board, n).
    """
    cache_key = (flat.iso_key, board, n)
    cached = sl._alpha_cache.get(cache_key)
    if cached is not None:
        return cached
    value = _alpha_direct(sl.ms, flat, board, n, budget)
    sl._alpha_cache[cache_key] = value
    return value


def _alpha_direct(ms: MoveSet, flat: Flat, board: BoardPolygon, n: int,
                  budget: int) -> int:
    kappa = flat.kappa
    if kappa == 0:
        return 1
    check_board_walk(board, n, budget)
    geo = _point_geometry(ms, board, n + 1)
    npts = len(geo.points)
    if npts == 0:
        return 0
    if npts ** min(kappa, 3) > budget:
        raise CapacityError(
            f"alpha envelope {npts ** min(kappa, 3)} exceeds budget {budget}",
            n=n, budget=budget)

    local = {piece: a for a, piece in enumerate(flat.involved)}
    pair_slopes: dict[tuple[int, int], set[int]] = {}
    for i, j, r in flat.edges:
        pair_slopes.setdefault((local[i], local[j]), set()).add(r)

    # Pieces forced to coincide (two distinct slopes through one pair)
    # collapse into one group; a closed flat always lists every move
    # hyperplane it lies in, so direct pair inspection finds all of them.
    parent = list(range(kappa))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b), slopes in pair_slopes.items():
        if len(slopes) >= 2:
            parent[find(a)] = find(b)

    group_edges: dict[tuple[int, int], int] = {}
    for (a, b), slopes in pair_slopes.items():
        ga, gb = find(a), find(b)
        if ga == gb:
            continue
        key = (min(ga, gb), max(ga, gb))
        move = next(iter(slopes))
        prev = group_edges.get(key)
        if prev is not None and prev != move:
            raise RuntimeError("closure invariant violated: multi-slope pair "
                               "between non-coincident groups")
        group_edges[key] = move

    groups = sorted({find(a) for a in range(kappa)})
    adjacency = {g: [] for g in groups}
    for (ga, gb), move in group_edges.items():
        adjacency[ga].append((gb, move))
        adjacency[gb].append((ga, move))

    seen: set[int] = set()
    result = 1
    for start in groups:
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
        result *= _count_component(ms, geo, comp, comp_edges, adjacency)
        if result == 0:
            return 0
    return result


def _count_component(ms, geo: _PointGeometry, nodes, edges, adjacency) -> int:
    if len(edges) == len(nodes) - 1:
        return _count_tree(ms, geo, nodes, adjacency)
    return _count_generic(ms, geo, nodes, edges)


def _count_tree(ms, geo: _PointGeometry, nodes, adjacency) -> int:
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


def _count_generic(ms, geo: _PointGeometry, nodes, edges) -> int:
    """Place groups one at a time; a group on two known lines is determined."""
    neighbors = {v: [] for v in nodes}
    for (a, b), move in edges.items():
        neighbors[a].append((b, move))
        neighbors[b].append((a, move))
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


def reconstruct_count(sl: Semilattice, board: BoardPolygon, n: int,
                      budget: int = DEFAULT_BUDGET) -> int:
    """Labelled nonattacking count by Mobius inclusion-exclusion over flats.

    Sums mu(U) * alpha(U; n) * N^(q - kappa(U)) over every flat; must equal
    q! times the enumerator's unlabelled count.
    """
    check_board_walk(board, n, budget)
    geo = _point_geometry(sl.ms, board, n + 1)
    npts = len(geo.points)
    total = 0
    for flat in sl.flats:
        total += (flat.mobius
                  * alpha(sl, flat, board, n, budget)
                  * npts ** (sl.q - flat.kappa))
    return total
