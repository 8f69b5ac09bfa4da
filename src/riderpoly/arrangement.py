"""Move hyperplane arrangements and their intersection semilattices.

For q pieces with move set M there is one hyperplane per (pair of pieces,
move), the tuple (i, j, move index): the configurations where that pair
lies on a common move line.  Intersecting hyperplanes in all combinations
yields the semilattice of flats (found by ``lattice.close``, keyed by
hyperplane mask); each flat carries its defining equations (canonical
primitive integer row basis), its hyperplane mask, Mobius value, and
slope graph, whose edges are its hyperplanes.  Relabelling the pieces
(S_q) permutes the hyperplanes and the flats; the iso classes are the
orbits (``lattice.classify``), each orbit's Mobius value, key and
automorphism count are computed once and set on its members, and a class
is represented by its lowest-id member flat.  The inclusion-exclusion sum of
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

from .errors import DEFAULT_BUDGET
from .geometry import BoardPolygon, MoveSet
from .lattice import classify, close


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

    ``lattice.close`` checks ``max_flats`` against lower bounds from the
    closures on fewer pieces, then finds every flat by its hyperplane
    mask: it builds each new flat with one ``linalg.insert_row`` from its
    parent's echelon, which gives the flat's rows, the primitive RREF of
    ``canonical_int_rows``.  Flats are ordered by codimension, then by
    rows.  ``lattice.classify`` then takes, in that order, each flat not
    yet classed with its S_q orbit as an iso class: Mobius value, key and
    |Aut| are computed once per orbit, classes are ordered by key, and
    each class's representative is its lowest-id member.
    """
    hyps = build_move_arrangement(ms, q)
    by_mask = close(ms, q, hyps, [hyperplane_row(h, ms, q) for h in hyps],
                    max_flats)
    # Deterministic flat order: by codimension, then by row content.
    ordered = sorted(by_mask.items(), key=lambda item: (len(item[1]), item[1]))
    flats = []
    for fid, (mask, rows) in enumerate(ordered):
        edges = tuple(h for hid, h in enumerate(hyps) if mask >> hid & 1)
        involved = tuple(sorted({p for i, j, _ in edges for p in (i, j)}))
        flats.append(Flat(fid, rows, mask, involved, edges))

    sl = Semilattice(ms, q, hyps, flats)
    classify(sl)
    return sl


def is_connected(flat: Flat) -> bool:
    """Whether the flat's slope graph is one component (the bottom has none).

    Mobius values and lattice-point counts multiply over the components,
    so only connected flats enter the exponential-formula assembly.  The
    pieces' graph of edges is connected exactly when the graph on groups
    of coincident pieces (``flatcount.slope_components``) is, so it is
    read off the edges without building the components.
    """
    reached = set(flat.involved[:1])
    for _ in flat.involved:
        reached.update(p for i, j, _ in flat.edges
                       if i in reached or j in reached for p in (i, j))
    return 0 < len(reached) == flat.kappa


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


def alpha(sl: Semilattice, flat: Flat, board: BoardPolygon, n: int,
          plan=None) -> int:
    """The flat's lattice-point count at size n, for every integer n.

    For n >= 0 it is the number of kappa-tuples of board cells (points
    strictly inside the (n+1)-fold dilate) satisfying the flat's
    equations.  The flat meets the interior of board^kappa, so by
    Ehrhart-Macdonald reciprocity the same quasipolynomial at n = -m
    (m >= 1) is (-1)^d L(m-1), with d = 2*kappa - codim and L(t) the
    number of such tuples in the *closed* t-fold dilate (L(0) = 1).
    Pieces the flat does not involve contribute no factor here.  It
    checks no budget: the caller gates the size first.  ``plan`` is the
    flat's ``flatcount.count_plan``, made for this call if not given.
    """
    from .flatcount import count_flat
    value = count_flat(sl.ms, flat, board, n, plan)
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
