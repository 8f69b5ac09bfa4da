from itertools import permutations
from math import comb, factorial, perm
from random import Random

import pytest
from conftest import (
    DIRECTIONS,
    PIECES,
    RANDOM_BOARDS,
    RATIONAL_BOARDS,
    random_pieces,
    row_keyed_semilattice,
)
from hypothesis import given, settings, strategies as st

from riderpoly import lattice
from riderpoly.arrangement import (
    Flat,
    Semilattice,
    alpha,
    build_move_arrangement,
    hyperplane_row,
    intersection_semilattice,
    is_connected,
    reconstruct_count,
    semilattice_report,
    w_equal_flat,
    w_slope_flat,
)
from riderpoly.counting import attack_keys, count_nonattacking
from riderpoly.errors import CapacityError
from riderpoly.geometry import (
    BoardPolygon,
    board_from_text,
    cells_at,
    interior_lattice_points,
    piece_from_text,
)
from riderpoly.linalg import canonical_int_rows, in_row_space


@pytest.fixture(scope="module")
def queen_sl2(queen):
    return intersection_semilattice(queen, 2)


@pytest.fixture(scope="module")
def queen_sl3(queen):
    return intersection_semilattice(queen, 3)


@pytest.fixture(scope="module")
def queen_sl4(queen):
    return intersection_semilattice(queen, 4)


@pytest.fixture(scope="module")
def bishop_sl4(bishop):
    return intersection_semilattice(bishop, 4)


class TestArrangement:
    def test_hyperplane_counts(self, queen, bishop):
        assert len(build_move_arrangement(queen, 2)) == 4
        assert len(build_move_arrangement(queen, 3)) == 12
        assert len(build_move_arrangement(bishop, 4)) == 12
        assert build_move_arrangement(queen, 1) == []
        assert build_move_arrangement(queen, 0) == []
        with pytest.raises(ValueError, match="q must be nonnegative"):
            build_move_arrangement(queen, -1)

    def test_hyperplane_count_formula(self, nightrider):
        for q in (2, 3, 4):
            assert (len(build_move_arrangement(nightrider, q))
                    == comb(q, 2) * len(nightrider))

    @pytest.mark.parametrize("name, q", [("queen", 3), ("bishop", 4),
                                         ("nightrider", 3)])
    def test_hyperplanes_are_pair_major_tuples(self, name, q):
        ms = piece_from_text(name)
        hyps = build_move_arrangement(ms, q)
        assert hyps == [(i, j, r) for i in range(q) for j in range(i + 1, q)
                        for r in range(len(ms))]
        assert all(type(h) is tuple for h in hyps)
        # Distinct hyperplanes: no two rows span the same line.
        assert len({canonical_int_rows([hyperplane_row(h, ms, q)])
                    for h in hyps}) == len(hyps)
        sl = intersection_semilattice(ms, q)
        assert sl.hyperplanes == hyps
        for hid, h in enumerate(hyps):
            assert sl.hyperplane_index(*h) == hid

    def test_row_encodes_difference_normal(self, queen):
        hyp = build_move_arrangement(queen, 2)[1]  # move (1,1): perp (1,-1)
        assert hyp == (0, 1, 1)
        assert hyperplane_row(hyp, queen, 2) == (-1, 1, 1, -1)


class TestSemilattice:
    def test_queen_q2_structure(self, queen_sl2):
        assert len(queen_sl2.flats) == 6
        mus = sorted(f.mobius for f in queen_sl2.flats)
        assert mus == [-1, -1, -1, -1, 1, 3]

    def test_rook_q2_mobius(self, rook):
        sl = intersection_semilattice(rook, 2)
        assert sorted(f.mobius for f in sl.flats) == [-1, -1, 1, 1]

    def test_max_flats_refusal_context(self, queen, monkeypatch):
        # The queen q=3 closure has 93 flats, of which 16 have blocks of at
        # most two pieces (the bottom and 3 pairs x 5); the 17th flat found
        # exceeds a budget of 16.
        with pytest.raises(CapacityError) as exc:
            intersection_semilattice(queen, 3, max_flats=16)
        assert exc.value.context == {"flats": 17, "budget": 16}
        assert len(intersection_semilattice(queen, 3, max_flats=93).flats) == 93
        # Queen q=2 has 6 such flats, so a budget of 5 is refused before
        # the closure eliminates anything, with the count as context.
        monkeypatch.setattr(lattice, "insert_row", None)
        with pytest.raises(CapacityError) as exc:
            intersection_semilattice(queen, 2, max_flats=5)
        assert exc.value.context == {"flats": 6, "budget": 5}

    @pytest.mark.parametrize("name, q", [
        ("queen", 2), ("queen", 3), ("rook", 4), ("bishop", 4),
        ("nightrider", 3), ("semiqueen", 4), ("-1,2;-2,1;1,1", 4),
        ("1,1", 4), ("queen", 1), ("queen", 0)])
    def test_bound_counts_flats_with_blocks_of_two(self, name, q):
        # The bound counts the flats whose blocks have at most two pieces:
        # one short of it is refused, and a budget of the true flat count
        # (never below the bound) builds the closure.
        ms = piece_from_text(name)
        sl = intersection_semilattice(ms, q)
        flats = sl.flats
        small = [f for f in flats
                 if all(part.kappa <= 2 for part in split_components(sl, f))]
        with pytest.raises(CapacityError) as exc:
            intersection_semilattice(ms, q, max_flats=len(small) - 1)
        assert exc.value.context == {"flats": len(small),
                                     "budget": len(small) - 1}
        assert len(intersection_semilattice(ms, q, max_flats=len(flats))
                   .flats) == len(flats)

    def test_closure_under_intersection(self, queen_sl3):
        flats = queen_sl3.flats
        keys = {flat.rows for flat in flats}
        for a in flats:
            for b in flats:
                assert canonical_int_rows(list(a.rows) + list(b.rows)) in keys

    def test_mobius_recursion(self, queen_sl3):
        # over every interval [bottom, U]: the Mobius values sum to zero
        for u in queen_sl3.flats:
            if u.codim == 0:
                continue
            total = sum(v.mobius for v in queen_sl3.flats
                        if v.mask & u.mask == v.mask)
            assert total == 0, u

    def test_bottom_is_flat_zero(self, queen_sl2):
        bottom = queen_sl2.flats[0]
        assert bottom.codim == 0 and bottom.mask == 0 and bottom.mobius == 1

    @pytest.mark.parametrize("fixture", ["queen_sl3", "queen_sl4",
                                         "bishop_sl4"])
    def test_flat_edges_are_its_masked_hyperplanes(self, fixture, request):
        sl = request.getfixturevalue(fixture)
        for flat in sl.flats:
            assert flat.edges == tuple(
                h for hid, h in enumerate(sl.hyperplanes)
                if flat.mask >> hid & 1), flat
            # Every involved piece is an endpoint of some edge, and back.
            assert set(flat.involved) == {
                p for i, j, _ in flat.edges for p in (i, j)}, flat

    def test_flat_codim_bounds(self, queen_sl3, bishop_sl4):
        for sl in (queen_sl3, bishop_sl4):
            for f in sl.flats:
                if f.kappa >= 2:
                    assert -(-f.kappa // 2) <= f.codim <= 2 * f.kappa - 2

    def test_atoms_have_mobius_minus_one(self, queen_sl3):
        for f in queen_sl3.flats:
            if f.codim == 1:
                assert f.mobius == -1


def reference_semilattice(ms, q):
    """The closure that eliminates every candidate twice, as reference.

    Each candidate is tested with ``in_row_space`` and then keyed by
    ``canonical_int_rows`` from scratch; masks come from a final
    ``in_row_space`` pass over every (flat, hyperplane) pair.  Mobius
    values, automorphism counts and iso classes are computed here too, by
    the defining recursion and by relabelling the involved pieces.
    """
    hyps = build_move_arrangement(ms, q)
    hrows = [hyperplane_row(h, ms, q) for h in hyps]
    found = {()}
    work = [()]
    while work:
        rows = work.pop()
        for hrow in hrows:
            if in_row_space(hrow, rows):
                continue
            key = canonical_int_rows(list(rows) + [hrow])
            if key not in found:
                found.add(key)
                work.append(key)
    ordered = sorted(found, key=lambda rows: (len(rows), rows))
    flats = []
    for fid, rows in enumerate(ordered):
        members = tuple(hid for hid, hrow in enumerate(hrows)
                        if in_row_space(hrow, rows))
        involved = sorted({c // 2 for row in rows
                           for c, x in enumerate(row) if x != 0})
        flats.append(Flat(fid, rows, sum(1 << hid for hid in members),
                          tuple(involved),
                          tuple(hyps[h] for h in members)))
    for u in flats:
        # mu(bottom, U) = -(sum of mu over the flats strictly containing U);
        # V contains U exactly when V's hyperplanes are among U's.
        u.mobius = -sum(v.mobius for v in flats[:u.id]
                        if v.mask | u.mask == u.mask) if u.id else 1
        # Relabel the involved pieces 0..kappa-1 in every order; the key is
        # the least relabelled edge list, |Aut| the orders that fix it.
        labelled = []
        for order in permutations(u.involved):
            label = {piece: a for a, piece in enumerate(order)}
            labelled.append(tuple(sorted(
                (*sorted((label[i], label[j])), r) for i, j, r in u.edges)))
        u.iso_key = (u.kappa, min(labelled))
        u.aut_order = labelled.count(labelled[0])
    members = {}
    for u in flats:
        members.setdefault(u.iso_key, []).append(u.id)
    sl = Semilattice(ms, q, hyps, flats)
    for cid, key in enumerate(sorted(members)):
        sl.iso_classes.append(flats[members[key][0]])
        for fid in members[key]:
            flats[fid].iso_class = cid
            flats[fid].orbit = tuple(members[key])
    return sl


def iso_class_rows(sl):
    """Each class as (key, kappa, codim, mobius, |Aut|, representative id,
    member ids), read from its representative flat."""
    return [(rep.iso_key, rep.kappa, rep.codim, rep.mobius, rep.aut_order,
             rep.id, rep.orbit) for rep in sl.iso_classes]


def assert_same_semilattice(sl, ref):
    fields = ("rows", "mask", "involved", "edges", "mobius",
              "iso_key", "aut_order", "iso_class", "orbit")
    assert len(sl.flats) == len(ref.flats)
    for flat, expected in zip(sl.flats, ref.flats):
        assert ([getattr(flat, f) for f in fields]
                == [getattr(expected, f) for f in fields]), flat
    assert iso_class_rows(sl) == iso_class_rows(ref)


def assert_flat_lookup(sl, subsets=300):
    """``flat_of_hyperplanes`` finds a flat by its mask; check it against
    the flat with the canonical row key of the hyperplanes' rows."""
    by_rows = {flat.rows: flat for flat in sl.flats}
    hrows = [hyperplane_row(h, sl.ms, sl.q) for h in sl.hyperplanes]
    rng = Random(len(sl.flats))
    for _ in range(subsets):
        hids = rng.sample(range(len(hrows)), rng.randint(0, len(hrows)))
        key = canonical_int_rows([hrows[h] for h in hids])
        assert sl.flat_of_hyperplanes(hids) is by_rows[key], hids


class TestClosureParity:
    @settings(max_examples=30, deadline=None)
    @given(ms=random_pieces(), q=st.integers(1, 3))
    def test_matches_double_elimination(self, ms, q):
        sl = intersection_semilattice(ms, q)
        assert_same_semilattice(sl, reference_semilattice(ms, q))
        assert_flat_lookup(sl)
        assert_predicate_matches_splitter(sl)

    @pytest.mark.parametrize("name", ["queen", "rook", "bishop", "nightrider",
                                      "semiqueen"])
    def test_matches_double_elimination_q4(self, name):
        ms = piece_from_text(name)
        sl = intersection_semilattice(ms, 4)
        assert_same_semilattice(sl, reference_semilattice(ms, 4))
        if name == "queen":
            assert_flat_lookup(sl)

    # The mask-keyed closure builds the flats, ids, order, Mobius values
    # and classes that the row-keyed closure it replaced built.
    @pytest.mark.parametrize("q", range(5))
    @pytest.mark.parametrize("name", PIECES)
    def test_matches_row_keyed_closure(self, name, q):
        ms = piece_from_text(name)
        assert_same_semilattice(intersection_semilattice(ms, q),
                                row_keyed_semilattice(ms, q))

    @settings(max_examples=40, deadline=None)
    @given(ms=random_pieces(), q=st.integers(0, 3))
    def test_matches_row_keyed_closure_on_random_pieces(self, ms, q):
        assert_same_semilattice(intersection_semilattice(ms, q),
                                row_keyed_semilattice(ms, q))


class TestNamedFlats:
    @pytest.mark.parametrize("name,m", [("rook", 2), ("bishop", 2),
                                        ("semiqueen", 3), ("queen", 4),
                                        ("nightrider", 4)])
    def test_w_family_mobius(self, name, m):
        ms = piece_from_text(name)
        assert len(ms) == m
        sl = intersection_semilattice(ms, 3)
        assert w_slope_flat(sl, [0, 1], 0).mobius == -1
        assert w_slope_flat(sl, [0, 1, 2], 0).mobius == 2
        assert w_equal_flat(sl, [0, 1]).mobius == m - 1
        mixed = sl.flat_of_hyperplanes(
            [sl.hyperplane_index(0, 1, r) for r in range(m)]
            + [sl.hyperplane_index(0, 2, 0), sl.hyperplane_index(1, 2, 0)])
        assert mixed.mobius == -2 * (m - 1)
        # corrected closed form for the full coincidence flat; the printed
        # (|M|-1)^2(|M|-3) contradicts the region counts (see ledger/README)
        assert w_equal_flat(sl, [0, 1, 2]).mobius == (m - 1) ** 2 * (m + 2)

    def test_w_equal_is_all_slopes_intersection(self, queen_sl2):
        weq = w_equal_flat(queen_sl2, [0, 1])
        assert weq.codim == 2
        assert bin(weq.mask).count("1") == 4
        assert weq.mobius == 3

    def test_unknown_flat_rejected(self, queen_sl2):
        with pytest.raises(KeyError):
            queen_sl2.flat_of_hyperplanes([0, len(queen_sl2.hyperplanes)])

    @pytest.mark.parametrize("i, j, move", [(0, 2, 0), (0, 1, 4), (1, 1, 0)])
    def test_unknown_hyperplane_rejected(self, queen_sl2, i, j, move):
        with pytest.raises(KeyError):
            queen_sl2.hyperplane_index(i, j, move)


def split_components(sl, flat):
    """The flats of the connected components of a flat's slope graph."""
    neighbors = {p: set() for p in flat.involved}
    for i, j, _ in flat.edges:
        neighbors[i].add(j)
        neighbors[j].add(i)
    parts, seen = [], set()
    for start in flat.involved:
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            v = stack.pop()
            if v not in comp:
                comp.add(v)
                stack.extend(neighbors[v] - comp)
        seen |= comp
        parts.append(sl.flat_of_hyperplanes(
            [hid for hid, (i, _, _) in enumerate(sl.hyperplanes)
             if flat.mask >> hid & 1 and i in comp]))
    return parts


def assert_predicate_matches_splitter(sl):
    for flat in sl.flats:
        assert is_connected(flat) == (
            len(split_components(sl, flat)) == 1), flat


class TestComponents:
    def test_disjoint_pairs_split(self, bishop_sl4):
        sl = bishop_sl4
        flat = sl.flat_of_hyperplanes([sl.hyperplane_index(0, 1, 0),
                                       sl.hyperplane_index(2, 3, 0)])
        parts = split_components(sl, flat)
        assert len(parts) == 2
        assert all(p.codim == 1 and is_connected(p) for p in parts)
        assert not is_connected(flat)
        assert flat.mobius == parts[0].mobius * parts[1].mobius == 1

    def test_connected_flat_is_one_component(self, queen_sl3):
        weq = w_equal_flat(queen_sl3, [0, 1, 2])
        assert len(split_components(queen_sl3, weq)) == 1
        assert is_connected(weq)

    def test_bottom_is_not_connected(self, queen_sl3):
        assert split_components(queen_sl3, queen_sl3.flats[0]) == []
        assert not is_connected(queen_sl3.flats[0])

    @pytest.mark.parametrize("fixture", ["queen_sl4", "bishop_sl4"])
    def test_predicate_matches_splitter(self, fixture, request):
        assert_predicate_matches_splitter(request.getfixturevalue(fixture))

    def test_mobius_and_alpha_multiplicativity(self, bishop_sl4, square):
        # The exponential-formula assembly rests on both products.
        sl = bishop_sl4
        for flat in sl.flats:
            parts = split_components(sl, flat)
            if len(parts) < 2:
                continue
            assert flat.mobius == (
                parts[0].mobius * parts[1].mobius if len(parts) == 2
                else parts[0].mobius * parts[1].mobius * parts[2].mobius)
            for n in range(0, 7):
                direct = alpha(sl, flat, square, n)
                product = 1
                for part in parts:
                    product *= alpha(sl, part, square, n)
                assert direct == product, (flat, n)


class TestIsoClasses:
    def test_queen_q2_classes(self, queen_sl2):
        classes = queen_sl2.iso_classes
        # bottom, one class per slope, and the coincidence flat
        assert len(classes) == 6
        weq_class = [c for c in classes if c.codim == 2]
        assert len(weq_class) == 1 and weq_class[0].aut_order == 2

    def test_queen_q3_equal_pair_class(self, queen_sl3):
        weq = w_equal_flat(queen_sl3, [0, 1])
        rep = queen_sl3.iso_classes[weq.iso_class]
        assert rep.orbit is weq.orbit
        assert len(rep.orbit) == 3 == comb(3, 2) * factorial(2) // 2

    def test_class_size_identity(self, queen_sl3, queen_sl4, bishop_sl4):
        for sl in (queen_sl3, queen_sl4, bishop_sl4):
            for rep in sl.iso_classes:
                expected = (comb(sl.q, rep.kappa) * factorial(rep.kappa)
                            // rep.aut_order)
                assert len(rep.orbit) == expected, rep

    @pytest.mark.parametrize("fixture", ["queen_sl3", "queen_sl4",
                                         "bishop_sl4"])
    def test_members_share_one_orbit(self, fixture, request):
        sl = request.getfixturevalue(fixture)
        for flat in sl.flats:
            members = [sl.flats[fid] for fid in flat.orbit]
            assert all(m.orbit is flat.orbit for m in members), flat
            assert flat.id in flat.orbit
            assert list(flat.orbit) == sorted(flat.orbit)
            assert sl.iso_classes[flat.iso_class].id == flat.orbit[0]
            assert (len(flat.orbit) * flat.aut_order
                    == perm(sl.q, flat.kappa)), flat

    @pytest.mark.parametrize("fixture", ["queen_sl3", "queen_sl4",
                                         "bishop_sl4"])
    def test_orbits_partition_flats_in_class_order(self, fixture, request):
        sl = request.getfixturevalue(fixture)
        reps = sl.iso_classes
        assert [rep.iso_class for rep in reps] == list(range(len(reps)))
        assert all(rep.id == rep.orbit[0] for rep in reps)
        keys = [rep.iso_key for rep in reps]
        assert keys == sorted(set(keys))
        members = sorted(fid for rep in reps for fid in rep.orbit)
        assert members == list(range(len(sl.flats)))

    def test_similar_and_dissimilar_subspaces(self, queen_sl3):
        sl = queen_sl3
        move = {m.slope_label: r for r, m in enumerate(sl.ms)}
        # X: pieces 0,1 coincide and piece 2 sits on the slope-1 line through them
        x = sl.flat_of_hyperplanes(
            [sl.hyperplane_index(0, 1, r) for r in range(4)]
            + [sl.hyperplane_index(0, 2, move["1/1"])])
        # Y: same shape with pieces 1 and 2 exchanged
        y = sl.flat_of_hyperplanes(
            [sl.hyperplane_index(0, 2, r) for r in range(4)]
            + [sl.hyperplane_index(0, 1, move["1/1"])])
        # Z: all three on one slope -1 line, two also on a slope-1 line
        z = sl.flat_of_hyperplanes(
            [sl.hyperplane_index(a, b, move["-1/1"])
             for a, b in ((0, 1), (0, 2), (1, 2))]
            + [sl.hyperplane_index(0, 2, move["1/1"])])
        assert x.kappa == y.kappa == z.kappa == 3
        assert x.codim == y.codim == z.codim == 3
        assert x.iso_key == y.iso_key
        assert z.iso_key != x.iso_key

    def test_report_shape(self, queen_sl2):
        report = semilattice_report(queen_sl2)
        assert report["flat_count"] == 6
        assert report["hyperplane_count"] == 4
        assert len(report["flats"]) == 6


class TestAlpha:
    def test_same_row_cubic(self, queen, queen_sl2, square):
        same_row = queen_sl2.flat_of_hyperplanes(
            [queen_sl2.hyperplane_index(0, 1, 0)])  # move (1,0)
        for n in range(0, 7):
            assert alpha(queen_sl2, same_row, square, n) == n**3

    def test_diagonal_cubic(self, queen, queen_sl2, square):
        move = {m.slope_label: r for r, m in enumerate(queen)}
        diag = queen_sl2.flat_of_hyperplanes(
            [queen_sl2.hyperplane_index(0, 1, move["1/1"])])
        for n in range(0, 7):
            assert alpha(queen_sl2, diag, square, n) == n * (2 * n**2 + 1) // 3
        assert alpha(queen_sl2, diag, square, 2) == 6

    def test_coincidence_flat_counts_cells(self, queen_sl2, square):
        weq = w_equal_flat(queen_sl2, [0, 1])
        for n in range(0, 7):
            assert (alpha(queen_sl2, weq, square, n)
                    == len(interior_lattice_points(square, n + 1)))

    def test_alpha_by_unpruned_enumeration(self, queen_sl3, square):
        # oracle: count triples satisfying the flat equations directly
        sl = queen_sl3
        for flat in sl.flats:
            if flat.kappa != 3 or flat.codim > 3:
                continue
            for n in (2, 3, 4):
                points = interior_lattice_points(square, n + 1)
                perp = [m.perp for m in sl.ms]
                count = 0
                for za in points:
                    for zb in points:
                        for zc in points:
                            z = (za, zb, zc)
                            ok = True
                            for i, j, r in flat.edges:
                                dx = z[j][0] - z[i][0]
                                dy = z[j][1] - z[i][1]
                                if perp[r][0] * dx + perp[r][1] * dy != 0:
                                    ok = False
                                    break
                            if ok:
                                count += 1
                assert alpha(sl, flat, square, n) == count, (flat, n)


class TestReconstruction:
    def test_queen_q2_n3(self, queen_sl2, square):
        assert reconstruct_count(queen_sl2, square, 3) == 16

    def test_rook_q2_n2(self, rook, square):
        sl = intersection_semilattice(rook, 2)
        assert reconstruct_count(sl, square, 2) == 4

    def test_empty_board(self, queen_sl2, square):
        assert reconstruct_count(queen_sl2, square, 0) == 0

    @pytest.mark.parametrize("n", [20, -20])
    def test_reconstruct_count_checks_every_kappa_before_listing(
            self, queen_sl3, square, n, no_cell_listing):
        # The kappa = 2 classes fit the budget and kappa = 3 does not:
        # the refusal comes before the kappa = 2 flats are counted.
        with pytest.raises(CapacityError) as exc:
            reconstruct_count(queen_sl3, square, n, budget=10**6)
        assert exc.value.context == {"n": n, "envelope": 400**3,
                                     "budget": 10**6}

    @pytest.mark.parametrize("name", ["queen", "rook", "bishop", "nightrider"])
    @pytest.mark.parametrize("q", [2, 3])
    def test_oracle_equivalence(self, name, q, square):
        ms = piece_from_text(name)
        sl = intersection_semilattice(ms, q)
        for n in range(1, 9):
            lab, _ = count_nonattacking(ms, square, q, n)
            assert reconstruct_count(sl, square, n) == lab

    @settings(max_examples=50, deadline=None)
    @given(ms=random_pieces(), inequalities=RATIONAL_BOARDS,
           q=st.sampled_from([2, 3]))
    def test_oracle_equivalence_on_rational_boards(self, ms, inequalities, q):
        board = BoardPolygon(inequalities)
        sl = intersection_semilattice(ms, q)
        for n in range(0, 5 if q == 2 else 4):
            lab, unlab = count_nonattacking(ms, board, q, n)
            assert (reconstruct_count(sl, board, n) == factorial(q) * unlab
                    == lab), n

    @settings(max_examples=60, deadline=None)
    @given(ms=random_pieces(), q=st.integers(1, 3),
           board_text=st.sampled_from(RANDOM_BOARDS))
    def test_class_sum_matches_flat_sum(self, ms, q, board_text):
        # Reference: one term per flat.  ``reconstruct_count`` takes one
        # term per iso class, times the class size.
        board = board_from_text(board_text)
        sl = intersection_semilattice(ms, q)
        for n in range(-3, 7):
            # N at n < 0 is the closed dilate's count (reciprocity, degree 2).
            npts = len(cells_at(board, n))
            per_flat = sum(flat.mobius * alpha(sl, flat, board, n)
                           * npts ** (q - flat.kappa) for flat in sl.flats)
            assert reconstruct_count(sl, board, n) == per_flat, n


# The four boards of the denominator tests.
DENOMINATOR_BOARDS = ("square", "poly:-1,0,0;0,-1,0;1,1,1", "rect:3/2,1",
                      "poly:-1,0,0;0,-1,0;2,1,3")


def alpha_by_cells(ms, flat, points):
    """Reference alpha: place the flat's pieces one cell at a time.

    A piece with an edge to an earlier piece runs over that edge's line
    bucket, any other over every cell; every edge is checked by its keys.
    """
    keys = attack_keys(ms, points)
    buckets = []
    for col in keys:
        by_key = {}
        for pid, key in enumerate(col):
            by_key.setdefault(key, []).append(pid)
        buckets.append(by_key)
    local = {piece: a for a, piece in enumerate(flat.involved)}
    earlier = [[] for _ in flat.involved]
    for i, j, r in flat.edges:
        a, b = sorted((local[i], local[j]))
        earlier[b].append((a, r))
    placement = [0] * len(flat.involved)

    def place(a):
        if a == len(placement):
            return 1
        if earlier[a]:
            b, r = earlier[a][0]
            candidates = buckets[r][keys[r][placement[b]]]
        else:
            candidates = range(len(points))
        total = 0
        for pid in candidates:
            if all(keys[r][pid] == keys[r][placement[b]]
                   for b, r in earlier[a]):
                placement[a] = pid
                total += place(a + 1)
        return total

    return place(0)


class TestAlphaParity:
    # Custom pieces (coprime, pairwise non-parallel moves) at q = 3 and 4
    # on the four denominator boards; q = 4 keeps to three moves, whose
    # closures stay under a second.
    @settings(max_examples=12, deadline=None)
    @given(moves=st.lists(st.sampled_from(DIRECTIONS), min_size=2, max_size=4,
                          unique=True),
           q=st.integers(3, 4),
           board_text=st.sampled_from(DENOMINATOR_BOARDS))
    def test_matches_cell_by_cell_count(self, moves, q, board_text):
        if q == 4:
            moves = moves[:3]
        ms = piece_from_text(";".join(f"{c},{d}" for c, d in moves))
        board = board_from_text(board_text)
        sl = intersection_semilattice(ms, q)
        for flat in sl.iso_classes:
            for n in range(0, 4):
                points = interior_lattice_points(board, n + 1)
                assert (alpha(sl, flat, board, n)
                        == alpha_by_cells(ms, flat, points)), (flat.id, n)
            # Ehrhart-Macdonald reciprocity: alpha(-m) is the signed count
            # in the closed (m-1)-fold dilate.
            for m in range(1, 4):
                points = cells_at(board, -m)
                assert (alpha(sl, flat, board, -m)
                        == (-1) ** flat.codim
                        * alpha_by_cells(ms, flat, points)), (flat.id, -m)

    def test_closed_form_cycles(self, queen, queen_sl4, square):
        # Queen q=4 flats whose slope graph is a 4-cycle of groups are the
        # ones the last-two-groups closed form counts.
        sl = queen_sl4
        cycles = [rep for rep in sl.iso_classes
                  if rep.kappa == 4 and rep.codim == 4 and is_connected(rep)]
        assert cycles
        for flat in cycles:
            for n in (3, 5):
                points = interior_lattice_points(square, n + 1)
                assert alpha(sl, flat, square, n) == alpha_by_cells(
                    queen, flat, points)


class TestTypeCount:
    """sum_U mu(U) (-1)^codim(U) = q! * types: the labelled count at n = -1."""

    @staticmethod
    def signed_sum(sl):
        return sum(flat.mobius * (-1) ** flat.codim for flat in sl.flats)

    @pytest.mark.parametrize("name,q,board_text,period,n_to", [
        ("queen", 2, "square", 1, 12),
        ("queen", 3, "square", 2, 20),
        ("bishop", 3, "square", 2, 16),
        ("bishop", 3, "poly:-1,0,0;0,-1,0;1,1,1", 2, 20),
        ("nightrider", 2, "square", 2, 14),
    ])
    def test_equals_fit_route_types(self, name, q, board_text, period, n_to):
        from riderpoly import quasipoly as qp
        from riderpoly.counting import count_series
        ms = piece_from_text(name)
        board = board_from_text(board_text)
        sl = intersection_semilattice(ms, q)
        table = count_series(ms, board, q, 1, n_to)
        types = qp.types_count(qp.fit(table, period))
        assert self.signed_sum(sl) == factorial(q) * types
        assert reconstruct_count(sl, board, -1) == factorial(q) * types

    def test_seeded_piece_equals_census(self, square):
        # Its period is 12, so a degree-6 fit needs 96 brute-force rows;
        # the type census realises all 17 types at n = 4.
        from riderpoly.counting import census_types
        ms = piece_from_text("-1,2;-2,1;1,1")
        sl = intersection_semilattice(ms, 3)
        labelled, unlabelled = census_types(ms, square, 3, 4, 4)[4]
        assert unlabelled == 17
        assert self.signed_sum(sl) == labelled == factorial(3) * unlabelled
        assert reconstruct_count(sl, square, -1) == labelled

    def test_queen_q4(self, queen_sl4, square):
        sl = queen_sl4
        assert self.signed_sum(sl) == 574 * factorial(4)
        assert reconstruct_count(sl, square, -1) == 574 * factorial(4)
