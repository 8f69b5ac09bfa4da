"""The two passes that build an intersection semilattice.

``close`` finds every flat of a move arrangement by its hyperplane mask,
and ``classify`` sets the Mobius values and iso classes of the flats
``arrangement.intersection_semilattice`` builds from them.  They are kept
out of ``arrangement`` so that neither module is large: without a
bytecode cache a job compiles every module it imports, and the largest
compile sets much of its peak memory.
"""

from __future__ import annotations

from math import comb, gcd, perm

from .errors import CapacityError
from .linalg import insert_row


def _partition_sum(conn: list[int], q: int) -> int:
    """Sum over the set partitions of q pieces of the product of conn[|B|]
    over the blocks B, blocks of len(conn) pieces or more counting 0."""
    sums = [1]
    for m in range(1, q + 1):
        # The block of the m-th piece has j pieces, j - 1 of them earlier.
        sums.append(sum(comb(m - 1, j - 1) * conn[j] * sums[m - j]
                        for j in range(1, min(m, len(conn) - 1) + 1)))
    return sums[q]


def close(ms, q: int, hyperplanes, rows, max_flats: int) -> dict[int, tuple]:
    """Every flat of the arrangement, as its mask mapped to its rows.

    ``hyperplanes`` are the arrangement's (i, j, r) tuples and ``rows``
    their integer rows, in the same order.  ``max_flats`` is checked first
    against lower bounds on the flat count.  A flat is the product of the
    connected flats on the blocks of a partition of the pieces, so with
    conn(k) connected flats on k given pieces there are sum over
    partitions of prod conn(|B|) flats; leaving out the blocks of more
    than k pieces bounds that from below.  conn(1) = 1, and conn(2) is the
    moves plus (with two moves or more) coincidence, so the first bound,
    over matchings, needs no closure.  Then conn(k), k = 3..q-1, is taken
    in increasing k from the closure on k pieces, and the bound is checked
    again after each, so a refused closure costs only the smaller ones.
    """
    conn = [0, 1, len(ms) + (len(ms) > 1)]
    bound = _partition_sum(conn, q)
    if bound > max_flats:
        raise CapacityError(
            f"semilattice closure needs at least {bound} flats, "
            f"over budget {max_flats}", flats=bound, budget=max_flats)
    # h = (i, j, r) takes d (x_j - x_i) - c (y_j - y_i) at a point.
    forms = [(2 * i, 2 * j, ms.moves[r].d, ms.moves[r].c)
             for i, j, r in hyperplanes]
    for k in range(3, q):
        on_k = [hid for hid, (_, j, _) in enumerate(hyperplanes) if j < k]
        flats = len(_close(forms, [row[:2 * k] for row in rows], on_k, 2 * k,
                           max_flats))
        conn.append(flats - _partition_sum(conn, k))
        bound = _partition_sum(conn, q)
        if bound > max_flats:
            raise CapacityError(
                f"semilattice closure needs at least {bound} flats "
                f"(from the closures on up to {k} pieces), over budget "
                f"{max_flats}", flats=bound, budget=max_flats, k=k)
    return _close(forms, rows, range(len(hyperplanes)), 2 * q, max_flats)


def _close(forms, rows, hids, dim: int, max_flats: int) -> dict[int, tuple]:
    """The closure of the hyperplanes ``hids`` in R^dim, by mask.

    A flat is keyed by its hyperplane mask, the set of hyperplanes
    containing it, and keeps an integer basis of its null space.
    Hyperplane h restricted to flat F is the vector of its values on F's
    basis, and h and g cut F in the same child exactly when those vectors
    are parallel; so one evaluation per hyperplane outside F's mask groups
    them into F's children, each child's mask is F's and its group's, and
    only a new mask costs work.  Each new flat is built with one
    ``insert_row`` from its parent's echelon, whose sorted rows (the
    primitive RREF of ``linalg.canonical_int_rows``) are the flat's rows,
    and one fraction-free combination of the parent's basis vectors.  The
    search goes depth first, so only one flat per codimension holds its
    basis.
    """
    by_mask: dict[int, tuple] = {0: ()}

    def extend(mask, echelon, basis, groups) -> None:
        # groups: (bits, hid) per set of hyperplanes outside the mask that
        # are parallel on the parent, so on this flat too; hid is one of them.
        children: dict[tuple, list] = {}
        for bits, hid in groups:
            x, y, d, c = forms[hid]
            values = [d * (v[y] - v[x]) - c * (v[y + 1] - v[x + 1])
                      for v in basis]
            g = gcd(*values)
            if next(filter(None, values)) < 0:
                g = -g
            key = tuple(values if g == 1 else [a // g for a in values])
            child = children.get(key)
            if child is None:
                children[key] = [bits, hid, values]
            else:
                child[0] |= bits
        buckets = list(children.values())
        for bits, hid, values in buckets:
            if mask | bits in by_mask:
                continue
            if len(by_mask) >= max_flats:
                raise CapacityError(
                    f"semilattice closure exceeded {max_flats} flats",
                    flats=len(by_mask) + 1, budget=max_flats)
            # Never None: h is not zero on the parent.
            extended = insert_row(rows[hid], 0, echelon)
            by_mask[mask | bits] = tuple(tuple(erow)
                                         for _, erow, _ in sorted(extended))
            p = next(k for k, a in enumerate(values) if a)
            a, pivot = values[p], basis[p]
            child_basis = []
            for b, v in zip(values, basis):
                if v is not pivot:
                    w = [a * s - b * t for s, t in zip(v, pivot)]
                    g = gcd(*w)
                    child_basis.append(w if g == 1 else [s // g for s in w])
            extend(mask | bits, extended, child_basis,
                   [(b, h) for b, h, _ in buckets if h != hid])

    extend(0, [], [[int(a == b) for b in range(dim)] for a in range(dim)],
           [(1 << hid, hid) for hid in hids])
    return by_mask


def classify(sl) -> None:
    """Set each flat's Mobius value, iso key, |Aut|, class id and orbit,
    and list the class representatives in ``sl.iso_classes``."""
    # Relabelling pieces by sigma sends hyperplane (i, j, r) to (sigma i,
    # sigma j, r), and a flat to the flat of the image mask; the adjacent
    # transpositions (k-1 k) generate S_q, so they reach the whole orbit.
    ids = sl.hyperplane_ids
    # Per transposition, the image bit of each hyperplane.
    images = []
    for k in range(1, sl.q):
        s = {k - 1: k, k: k - 1}
        images.append({(i, j, r): 1 << ids[s.get(i, i), s.get(j, j), r]
                       for i, j, r in sl.hyperplanes}.__getitem__)
    by_mask = {flat.mask: flat.id for flat in sl.flats}
    orbits = []
    for flat in sl.flats:       # in codimension order, as mu's sum needs
        if flat.iso_key is not None:
            continue
        orbit, todo = {flat.id}, [flat]
        while todo:
            edges = todo.pop().edges
            for bit in images:
                image = by_mask[sum(map(bit, edges))]
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
