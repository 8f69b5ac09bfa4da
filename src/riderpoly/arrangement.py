"""Move hyperplane arrangements and their intersection semilattices.

For q pieces with move set M there is one hyperplane per (pair of pieces,
move), the tuple (i, j, move index): the configurations where that pair
lies on a common move line.  Intersecting hyperplanes in all combinations
yields the semilattice of flats; each flat carries its defining equations
(canonical primitive integer row basis), its hyperplane mask, Mobius
value, and slope graph, whose edges are its hyperplanes.  Relabelling the
pieces (S_q) permutes the hyperplanes and the flats; the iso classes are
the orbits, each orbit's Mobius value, key and automorphism count are
computed once and set on its members, and a class is represented by its
lowest-id member flat.  The inclusion-exclusion sum of
Mobius-weighted lattice-point counts over all flats (counted in
``flatcount``) reconstructs the nonattacking count, independently of the
brute-force enumerator.  A flat's count is defined at every integer n: at
negative n it is the signed count in a closed dilate (Ehrhart-Macdonald
reciprocity), and at n = -1 the sum counts the configuration types.
``flatcount`` and the budget gate (``counting.check_size``, run by the
callers of ``alpha``) are imported inside the functions that use them,
so ``bounds`` and ``mobius``, which count no flat, compile neither; the
reconstruction route compiles both with ``symbolic``.
"""

from __future__ import annotations

from itertools import combinations
from math import perm

from .errors import DEFAULT_BUDGET, CapacityError
from .geometry import BoardPolygon, MoveSet
from .linalg import insert_row


def build_move_arrangement(ms: MoveSet, q: int) -> list[tuple[int, int, int]]:
    """All C(q,2)*|M| move hyperplanes, pair-major in lexicographic order.

    The hyperplane (i, j, r), i < j: pieces i and j share a line of move r.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    return [(i, j, r)
            for i, j in combinations(range(q), 2)
            for r in range(len(ms))]


def hyperplane_row(h: tuple, ms: MoveSet, q: int) -> tuple[int, ...]:
    """Coefficients of (z_j - z_i) . (d, -c) = 0 in R^{2q}, h = (i, j, r)."""
    i, j, r = h
    m = ms.moves[r]
    row = [0] * (2 * q)
    row[2 * i] = -m.d
    row[2 * i + 1] = m.c
    row[2 * j] = m.d
    row[2 * j + 1] = -m.c
    return tuple(row)


class Flat:
    """An intersection subspace: equations, membership, slope graph.

    ``_classify`` sets the orbit's Mobius value, key, |Aut|, class id and
    member ids (``orbit``, in id order, one tuple shared by every member).
    """

    __slots__ = ("id", "rows", "codim", "mask", "involved", "edges",
                 "mobius", "iso_key", "aut_order", "iso_class", "orbit")

    def __init__(self, fid, rows, mask, involved, edges):
        self.id = fid
        self.rows = rows                  # canonical integer row basis
        self.codim = len(rows)
        self.mask = mask                  # bitmask over hyperplane indices
        self.involved = involved          # tuple of involved piece indices
        self.edges = edges                # its hyperplanes (i, j, r)
        self.mobius = None
        self.iso_key = None
        self.aut_order = None
        self.iso_class = None
        self.orbit = None

    @property
    def kappa(self) -> int:
        return len(self.involved)

    def __repr__(self):
        return (f"Flat(id={self.id}, codim={self.codim}, kappa={self.kappa}, "
                f"mobius={self.mobius})")


class Semilattice:
    """The intersection semilattice of a move arrangement.

    Flat 0 is the bottom element (all of R^{2q}).  An iso class is its
    representative flat, the lowest-id member of its orbit;
    ``iso_classes`` lists them in class order.  The structure is
    immutable once built.
    """

    def __init__(self, ms: MoveSet, q: int, hyperplanes, flats):
        self.ms = ms
        self.q = q
        self.hyperplanes = hyperplanes
        self.hyperplane_ids = {(a, b, r): hid   # either order
                               for hid, (i, j, r) in enumerate(hyperplanes)
                               for a, b in ((i, j), (j, i))}
        self.flats = flats
        self.iso_classes: list[Flat] = []

    def flat_of_hyperplanes(self, hyperplane_ids) -> Flat:
        """The intersection of the given hyperplanes: the first flat, in
        codimension order, whose mask contains them all."""
        mask = sum({1 << h for h in hyperplane_ids})
        if mask >> len(self.hyperplanes):
            raise KeyError("a hyperplane id is outside the arrangement")
        return next(f for f in self.flats if f.mask & mask == mask)

    def hyperplane_index(self, i: int, j: int, move_index: int) -> int:
        """The id of hyperplane (i, j, move); ``KeyError`` if it is not one."""
        return self.hyperplane_ids[i, j, move_index]


def intersection_semilattice(ms: MoveSet, q: int,
                             max_flats: int = 200_000) -> Semilattice:
    """Close the move arrangement under intersection; class the flats.

    Each flat is kept as its ``linalg.insert_row`` echelon and its
    hyperplane mask, the set of hyperplanes containing it.  A flat is
    extended by one ``insert_row`` per hyperplane outside its mask; the
    sorted extended echelon (the primitive RREF of ``canonical_int_rows``)
    is the new flat's key.  A new key gets its mask completed by testing
    the remaining hyperplanes against its echelon, and every hyperplane of
    that mask then leads from the parent to the same flat, so none of them
    is eliminated again for this parent.  Flats are ordered by codimension,
    then by rows.  A pass in that order then takes each flat not yet classed
    with its S_q orbit as an iso class: Mobius value, key and |Aut| are
    computed once per orbit, classes are ordered by key, and each class's
    representative is its lowest-id member.
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
                        flats=len(masks) + 1, budget=max_flats)
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
        edges = tuple(h for hid, h in enumerate(hyps) if mask >> hid & 1)
        involved = sorted({c // 2 for row in rows
                           for c, x in enumerate(row) if x != 0})
        flats.append(Flat(fid, rows, mask, tuple(involved), edges))

    sl = Semilattice(ms, q, hyps, flats)
    _classify(sl)
    return sl


def _classify(sl: Semilattice) -> None:
    # Relabelling pieces by sigma sends hyperplane (i, j, r) to (sigma i,
    # sigma j, r), and a flat to the flat of the image mask; the adjacent
    # transpositions (k-1 k) generate S_q, so they reach the whole orbit.
    ids = sl.hyperplane_ids
    by_mask = {flat.mask: flat.id for flat in sl.flats}
    orbits = []
    for flat in sl.flats:       # in codimension order, as mu's sum needs
        if flat.iso_key is not None:
            continue
        orbit, todo = {flat.id}, [flat]
        while todo:
            edges = todo.pop().edges
            for k in range(1, sl.q):
                s = {k - 1: k, k: k - 1}
                image = by_mask[sum(1 << ids[s.get(i, i), s.get(j, j), r]
                                    for i, j, r in edges)]
                if image not in orbit:
                    orbit.add(image)
                    todo.append(sl.flats[image])
        orbit = tuple(sorted(orbit))
        members = [sl.flats[fid] for fid in orbit]
        # mu(V) over the flats V containing U sums to [U is the bottom]; each
        # V but U comes before U, and only such flats have masks within U's.
        mobius = (flat.codim == 0) - sum(v.mobius for v in sl.flats[:flat.id]
                                         if v.mask & flat.mask == v.mask)
        # The orbit realises every relabelling of the involved pieces, so
        # the least order-preserving local edge list is the least relabelling.
        key = (flat.kappa, min(
            tuple((f.involved.index(i), f.involved.index(j), r)
                  for i, j, r in f.edges) for f in members))
        aut = perm(sl.q, flat.kappa) // len(members)
        for f in members:
            f.mobius, f.iso_key, f.aut_order, f.orbit = mobius, key, aut, orbit
        orbits.append((key, members))

    # One orbit per key, so sorting never compares two orbits' members.
    for cid, (key, members) in enumerate(sorted(orbits)):
        sl.iso_classes.append(members[0])
        for f in members:
            f.iso_class = cid


def is_connected(flat: Flat) -> bool:
    """Whether the flat's slope graph is one component (the bottom has none).

    Mobius values and lattice-point counts multiply over the components,
    so only connected flats enter the exponential-formula assembly.
    """
    from .flatcount import slope_components
    return len(slope_components(flat)) == 1


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
                "id": rep.iso_class,
                "size": len(rep.orbit),
                "kappa": rep.kappa,
                "codim": rep.codim,
                "mobius": rep.mobius,
                "aut": rep.aut_order,
                "representative": rep.id,
            }
            for rep in sl.iso_classes
        ],
    }


def alpha(sl: Semilattice, flat: Flat, board: BoardPolygon, n: int) -> int:
    """The flat's lattice-point count at size n, for every integer n.

    For n >= 0 it is the number of kappa-tuples of board cells (points
    strictly inside the (n+1)-fold dilate) satisfying the flat's
    equations.  The flat meets the interior of board^kappa, so by
    Ehrhart-Macdonald reciprocity the same quasipolynomial at n = -m
    (m >= 1) is (-1)^d L(m-1), with d = 2*kappa - codim and L(t) the
    number of such tuples in the *closed* t-fold dilate (L(0) = 1).
    Pieces the flat does not involve contribute no factor here.  It
    checks no budget: the caller gates the size first.
    """
    from .flatcount import count_flat
    value = count_flat(sl.ms, flat, board, n)
    if n < 0 and flat.codim % 2:
        value = -value      # (-1)^d with d = 2*kappa - codim
    return value


def reconstruct_count(sl: Semilattice, board: BoardPolygon, n: int,
                      budget: int = DEFAULT_BUDGET) -> int:
    """Labelled nonattacking count by Mobius inclusion-exclusion over flats.

    Sums mu(U) * alpha(U; n) * N^(q - kappa(U)) over the flats U, one term
    per iso class times its size: isomorphic flats differ by a relabelling
    of pieces, so they share mu, kappa and alpha.  Must equal q! times the
    enumerator's unlabelled count.  A negative n gives the counting
    quasipolynomial's value there (see ``alpha``): at n = -1 it is
    sum mu(U) * (-1)^codim(U), q! times the number of configuration types.
    Each kappa is gated before any flat is counted; kappa 0 gives N.
    """
    from .counting import check_size
    for kappa in sorted({rep.kappa for rep in sl.iso_classes}):
        npts = check_size(board, n, budget, kappa, "alpha")
    total = 0
    for rep in sl.iso_classes:
        total += (len(rep.orbit) * rep.mobius
                  * alpha(sl, rep, board, n)
                  * npts ** (sl.q - rep.kappa))
    return total
