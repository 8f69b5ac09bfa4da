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
flats (counted in ``flatcount``) reconstructs the nonattacking count,
independently of the brute-force enumerator.  A flat's count is defined
at every integer n: at negative n it is the signed count in a closed
dilate (Ehrhart-Macdonald reciprocity), and at n = -1 the sum counts the
configuration types.  ``flatcount`` and the budget gate
(``counting.check_size``) are imported inside the functions that use
them, so the commands that build a semilattice but count no flat
(``bounds``, ``mobius``) compile neither ``flatcount`` nor ``counting``;
the reconstruction route compiles both with ``symbolic``.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .errors import DEFAULT_BUDGET, CapacityError, Record
from .geometry import BoardPolygon, MoveSet
from .linalg import insert_row


class Hyperplane(Record, frozen=True):
    """Pieces i < j lie on a common line of the move with this index; a frozen value."""

    __slots__ = ("i", "j", "move_index")

    def __init__(self, i: int, j: int, move_index: int):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "move_index", move_index)


def build_move_arrangement(ms: MoveSet, q: int) -> list[Hyperplane]:
    """All C(q,2)*|M| move hyperplanes, pair-major in lexicographic order."""
    if q < 0:
        raise ValueError("q must be nonnegative")
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

    __slots__ = ("id", "rows", "codim", "mask", "involved",
                 "edges", "mobius", "iso_key", "aut_order", "iso_class")

    def __init__(self, fid, rows, mask, involved, edges):
        self.id = fid
        self.rows = rows                  # canonical integer row basis
        self.codim = len(rows)
        self.mask = mask                  # bitmask over hyperplane indices
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


class IsoClass(Record, frozen=True):
    """Flats sharing a slope graph up to label-preserving isomorphism; a frozen value."""

    __slots__ = ("id", "key", "kappa", "codim", "mobius", "aut_order",
                 "representative", "members")

    def __init__(self, id: int, key: tuple, kappa: int, codim: int,
                 mobius: int, aut_order: int, representative: int,
                 members: tuple[int, ...]):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "codim", codim)
        object.__setattr__(self, "mobius", mobius)
        object.__setattr__(self, "aut_order", aut_order)
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "members", members)

    @property
    def size(self) -> int:
        return len(self.members)


class Semilattice:
    """The intersection semilattice of a move arrangement.

    Flat 0 is the bottom element (all of R^{2q}).  The structure is
    immutable once built.
    """

    def __init__(self, ms: MoveSet, q: int, hyperplanes, flats):
        self.ms = ms
        self.q = q
        self.hyperplanes = hyperplanes
        self.flats = flats
        self.iso_classes: list[IsoClass] = []

    @property
    def bottom(self) -> Flat:
        return self.flats[0]

    def flat_of_hyperplanes(self, hyperplane_ids) -> Flat:
        """The intersection of the given hyperplanes: the first flat, in
        codimension order, whose mask contains them all."""
        mask = sum({1 << h for h in hyperplane_ids})
        if mask >> len(self.hyperplanes):
            raise KeyError("a hyperplane id is outside the arrangement")
        return next(f for f in self.flats if f.mask & mask == mask)

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
        edges = tuple((h.i, h.j, h.move_index)
                      for hid, h in enumerate(hyps) if mask >> hid & 1)
        involved = sorted({c // 2 for row in rows
                           for c, x in enumerate(row) if x != 0})
        flats.append(Flat(fid, rows, mask, tuple(involved), edges))

    sl = Semilattice(ms, q, hyps, flats)
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


def _compute_iso_classes(sl: Semilattice) -> None:
    classes: dict[tuple, list[int]] = {}
    for flat in sl.flats:
        kappa = flat.kappa
        local = {piece: a for a, piece in enumerate(flat.involved)}
        edges = tuple(sorted((local[i], local[j], r) for i, j, r in flat.edges))
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
        flat.aut_order = aut  # the identity always counts
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


def alpha(sl: Semilattice, flat: Flat, board: BoardPolygon, n: int,
          budget: int = DEFAULT_BUDGET) -> int:
    """The flat's lattice-point count at size n, for every integer n.

    For n >= 0 it is the number of kappa-tuples of board cells (points
    strictly inside the (n+1)-fold dilate) satisfying the flat's
    equations.  The flat meets the interior of board^kappa, so by
    Ehrhart-Macdonald reciprocity the same quasipolynomial at n = -m
    (m >= 1) is (-1)^d L(m-1), with d = 2*kappa - codim and L(t) the
    number of such tuples in the *closed* t-fold dilate (L(0) = 1).
    Pieces the flat does not involve contribute no factor here, and for
    kappa >= 1 the size is gated (``counting.check_size``) first.
    """
    from .counting import check_size
    from .flatcount import count_flat
    if flat.kappa:
        check_size(board, n, budget, flat.kappa, "alpha")
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
    for kappa in sorted({cls.kappa for cls in sl.iso_classes}):
        npts = check_size(board, n, budget, kappa, "alpha")
    total = 0
    for cls in sl.iso_classes:
        rep = sl.flats[cls.representative]
        total += (cls.size * cls.mobius
                  * alpha(sl, rep, board, n, budget)
                  * npts ** (sl.q - cls.kappa))
    return total
