from fractions import Fraction as F
from math import factorial

import pytest
from conftest import (
    PIECES,
    RATIONAL_BOARDS,
    board_vertex_denominator,
    random_pieces,
)
from hypothesis import assume, given, settings, strategies as st

from riderpoly import bounds, counting, quasipoly as qp, symbolic
from riderpoly.arrangement import (
    alpha,
    intersection_semilattice,
    reconstruct_count,
    w_equal_flat,
)
from riderpoly.counting import (
    METHOD_RECONSTRUCTION,
    count_nonattacking,
    count_series,
)
from riderpoly.errors import CapacityError, FitError, RiderPolyError
from riderpoly.flatpolytope import class_denominators
from riderpoly.geometry import BoardPolygon, board_from_text, piece_from_text
from riderpoly.symbolic import (
    alpha_qp,
    count_qps,
    flat_polytope_denominator,
    reconstruction_quasipolynomials,
    reconstruction_series,
)


@pytest.fixture(scope="module")
def queen_sl3(queen):
    return intersection_semilattice(queen, 3)


def shifted(fitted, factor, shift=0):
    """fitted times factor, plus shift: each constituent corrupted alike."""
    return qp.Quasipolynomial(fitted.degree, fitted.period, tuple(
        (factor * cons[0] + shift, *(factor * c for c in cons[1:]))
        for cons in fitted.constituents))


class TestBoardCountQp:
    """u_1, the count of one piece, is the cell count N."""

    def test_square_is_n_squared(self, queen_sl3, square):
        nqp = count_qps(queen_sl3, square)[1].reduced()
        assert nqp.period == 1
        assert nqp.constituents[0] == (F(0), F(0), F(1))

    def test_rational_rectangle(self, bishop):
        board = board_from_text("rect:5/2,1")
        nqp = count_qps(intersection_semilattice(bishop, 2), board)[1]
        # interior cells of (n+1)*[0,5/2]x[0,1]: (ceil(5(n+1)/2)-1) * n
        for n in range(0, 12):
            rows = 5 * (n + 1) // 2 + (1 if (5 * (n + 1)) % 2 else 0) - 1
            assert nqp.evaluate(n) == rows * n


class TestFlatDenominators:
    def test_hyperplane_flats_on_square(self, queen_sl3, square):
        for flat in queen_sl3.flats:
            if flat.codim == 1:
                assert flat_polytope_denominator(flat, square) in (1, 2)

    def test_coincidence_flat(self, queen_sl3, square):
        weq = w_equal_flat(queen_sl3, [0, 1])
        assert flat_polytope_denominator(weq, square) == 1

    @pytest.mark.parametrize("board_text", [
        "square", "poly:-1,0,0;0,-1,0;1,1,1", "rect:3/2,1",
        "poly:-1,0,0;0,-1,0;2,1,3"])
    @pytest.mark.parametrize("piece,q", [
        ("queen", 2), ("queen", 3), ("nightrider", 2), ("nightrider", 3),
        ("bishop", 3), ("rook", 3), ("semiqueen", 3),
        ("-1,2;-2,1;1,1", 2), ("-1,2;-2,1;1,1", 3)])
    def test_flatwise_lcm_is_inside_out_denominator(self, piece, q,
                                                    board_text):
        # Beck-Zaslavsky: the inside-out vertices are the vertices of
        # board^q cut by each flat, so the per-flat scans behind
        # bounds.denominator and the full 2q-dimensional scan must give
        # the same lcm.
        ms = piece_from_text(piece)
        board = board_from_text(board_text)
        full_scan = board_vertex_denominator(
            [], bounds.grand_matrix(ms, board, q), board, q)
        assert bounds.denominator(ms, board, q) == full_scan


class TestAlphaQp:
    def test_matches_direct_enumeration(self, queen_sl3, square):
        for flat in queen_sl3.iso_classes:
            fitted = alpha_qp(queen_sl3, flat, square,
                              flat_polytope_denominator(flat, square))
            for n in range(0, 9):
                assert fitted.evaluate(n) == alpha(queen_sl3, flat, square, n), \
                    (flat.id, n)

    def test_nightrider_flats(self, nightrider, square):
        sl = intersection_semilattice(nightrider, 2)
        for flat in sl.iso_classes:
            fitted = alpha_qp(sl, flat, square,
                              flat_polytope_denominator(flat, square))
            for n in range(0, 10):
                assert fitted.evaluate(n) == alpha(sl, flat, square, n)


class TestReconstructionSeries:
    @pytest.mark.parametrize("name,q", [("queen", 2), ("rook", 2),
                                        ("bishop", 3), ("nightrider", 2),
                                        ("queen", 3)])
    def test_matches_brute_force(self, name, q, square):
        from riderpoly.geometry import piece_from_text
        ms = piece_from_text(name)
        sl = intersection_semilattice(ms, q)
        table = reconstruction_series(sl, square, 1, 12)
        brute = count_series(ms, square, q, 1, 12)
        assert table.rows == brute.rows
        assert table.method == METHOD_RECONSTRUCTION

    def test_assembled_degree_and_lead(self, queen_sl3, square):
        unlabelled = reconstruction_quasipolynomials(queen_sl3, square)
        assert unlabelled.degree == 6
        assert unlabelled.reduced().period == 2
        assert set(c[6] for c in unlabelled.constituents) == {F(1, 6)}

    # A doubled assembly still has degree 4 but leads with area^2, not
    # area^2 / 2!; a constant one has the wrong degree.  The Ehrhart check
    # refuses both.
    @pytest.mark.parametrize("corrupt, message", [
        (lambda u: shifted(u, 2), "leads with 1, expected 1/2"),
        (lambda u: qp.Quasipolynomial(0, 1, ((F(1),),)),
         "has degree 0, expected 4"),
    ], ids=["doubled", "constant"])
    def test_corrupted_assembly_fails_ehrhart_check(self, rook, square,
                                                    monkeypatch, corrupt,
                                                    message):
        assembled = symbolic.count_qps

        def corrupted(sl, board, budget):
            return [corrupt(u) for u in assembled(sl, board, budget)]

        monkeypatch.setattr(symbolic, "count_qps", corrupted)
        with pytest.raises(FitError, match=message):
            reconstruction_quasipolynomials(
                intersection_semilattice(rook, 2), square)

    def test_one_gate_per_size(self, queen, square, monkeypatch):
        # The route gates each (route, kappa, n) it samples once: the cell
        # count's fit, every alpha window and the brute-force cross-check.
        calls = []
        check = symbolic.check_size

        def recorded(board, n, budget, q, route):
            calls.append((route, q, n))
            return check(board, n, budget, q, route)

        monkeypatch.setattr(symbolic, "check_size", recorded)
        monkeypatch.setattr(counting, "check_size", recorded)
        reconstruction_series(intersection_semilattice(queen, 3), square, 1, 20)
        assert len(calls) == len(set(calls))
        assert {route for route, _, _ in calls} == {"count", "alpha"}

    def test_every_window_checked_before_listing(self, queen_sl3, square,
                                                 no_cell_listing):
        # Every connected class's alpha window is checked before the first
        # flat is counted.  The first refusal is at n = -5, the closed
        # 4-fold dilate's 25 cells, in the first window that reaches it.
        with pytest.raises(CapacityError) as exc:
            count_qps(queen_sl3, square, budget=10**4)
        assert exc.value.context == {"n": -5, "envelope": 25**3,
                                     "budget": 10**4}

    @pytest.mark.parametrize("name", ["queen", "rook"])
    def test_fewer_pieces_from_one_recursion(self, name, square):
        # The exponential-formula recursion builds a_m for every m <= q
        # from the q = 4 semilattice's connected classes.
        ms = piece_from_text(name)
        counts = count_qps(intersection_semilattice(ms, 4), square)
        for m in range(0, 4):
            for n in range(0, 8):
                assert counts[m].evaluate(n) == count_nonattacking(
                    ms, square, m, n)[1], (m, n)

    @pytest.mark.parametrize("board_text", [
        "square", "rect:3/2,1", "poly:-1,0,0;0,-1,0;2,1,3"])
    def test_single_piece_matches_brute_force(self, queen, board_text):
        # q = 1: the bottom flat alone, so the count is the cell count N.
        board = board_from_text(board_text)
        sl = intersection_semilattice(queen, 1)
        table = reconstruction_series(sl, board, 1, 8)
        assert table.rows == count_series(queen, board, 1, 1, 8).rows

    def test_rational_board_series(self, bishop):
        board = board_from_text("rect:5/2,1")
        sl = intersection_semilattice(bishop, 2)
        table = reconstruction_series(sl, board, 1, 10)
        brute = count_series(bishop, board, 2, 1, 10)
        assert table.rows == brute.rows

    @pytest.mark.parametrize("name,q", [("queen", 2), ("bishop", 3),
                                        ("nightrider", 2)])
    @pytest.mark.parametrize("board_text", [
        "square", "rect:3/2,1", "poly:-1,0,0;0,-1,0;2,1,3"])
    def test_negative_n_by_reciprocity(self, name, q, board_text):
        # At n = -m the inclusion-exclusion sum counts closed dilates
        # (cells and flat tuples alike); the assembled quasipolynomial
        # must agree.
        sl = intersection_semilattice(piece_from_text(name), q)
        board = board_from_text(board_text)
        unlabelled = reconstruction_quasipolynomials(sl, board)
        for n in range(-5, 0):
            assert (factorial(q) * unlabelled.evaluate(n)
                    == reconstruct_count(sl, board, n)), n

    @pytest.mark.parametrize("n_from, n_to, message", [
        (-3, 0, "n must be nonnegative"),
        (5, 3, "n_from must not exceed n_to"),
    ], ids=["negative", "reversed"])
    def test_bad_range_refused_before_any_fit(self, queen_sl3, square,
                                              monkeypatch, n_from, n_to,
                                              message):
        import riderpoly.symbolic as sym

        def no_fit(*args):
            raise AssertionError("fitted before refusing the range")

        monkeypatch.setattr(sym, "reconstruction_quasipolynomials", no_fit)
        with pytest.raises(ValueError, match=message):
            sym.reconstruction_series(queen_sl3, square, n_from, n_to)

    def test_cross_check_tamper_detection(self, queen_sl3, square, monkeypatch):
        # a wrong assembled value must be caught by the brute-force gate
        import riderpoly.symbolic as sym

        real = sym.reconstruction_quasipolynomials

        def corrupted(sl, board, budget=10**10):
            return shifted(real(sl, board, budget), 1, shift=1)

        monkeypatch.setattr(sym, "reconstruction_quasipolynomials", corrupted)
        with pytest.raises(RiderPolyError):
            sym.reconstruction_series(queen_sl3, square, 1, 5)


class TestAssembledEqualsTableFit:
    """The assembled count, reduced, is the brute-force table's fit at its
    period, constituent by constituent: equal rows at n <= 12 do not imply
    this, since 6 rows per residue are fewer than 2q + 1 coefficients."""

    @pytest.mark.parametrize("name,q,board_text", [
        ("queen", 3, "square"), ("bishop", 2, "square"),
        ("bishop", 3, "square"), ("rook", 2, "square"),
        ("rook", 3, "square"), ("bishop", 2, "rect:5/2,1")])
    def test_constituents(self, name, q, board_text):
        ms = piece_from_text(name)
        board = board_from_text(board_text)
        assembled = reconstruction_quasipolynomials(
            intersection_semilattice(ms, q), board).reduced()
        p = assembled.period
        table = count_series(ms, board, q, 0, p * (2 * q + 2) - 1)
        assert qp.fit(table, p).constituents == assembled.constituents

    def test_nightrider_q3_largest_window(self, nightrider, square,
                                          monkeypatch):
        # P = 60, so the window holds 480 sizes; the default budget refuses
        # the closed dilates its alpha windows reach.
        budget = 10**14
        sl = intersection_semilattice(nightrider, 3)
        assembled = []
        real = symbolic.reconstruction_quasipolynomials

        def kept(*args):
            assembled.append(real(*args))
            return assembled[-1]

        monkeypatch.setattr(symbolic, "reconstruction_quasipolynomials", kept)
        table = reconstruction_series(sl, square, 1, 12, budget=budget)
        assert table.rows == count_series(nightrider, square, 3, 1, 12).rows
        fitted, = assembled
        assert fitted.reduced().period == 60
        assert qp.types_count(fitted) == 36
        assert reconstruct_count(sl, square, -1, budget) // 6 == 36


class TestAssemblyPeriod:
    """The assembly's window period is the inside-out denominator, and it
    counts cells only at the sizes its fits sample."""

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("name", PIECES)
    def test_period_is_denominator_on_square(self, name, q, square):
        ms = piece_from_text(name)
        # The nightrider's q = 3 alpha windows need more than the default.
        assembled = count_qps(intersection_semilattice(ms, q), square,
                              budget=10**14)[q]
        assert assembled.period == bounds.denominator(ms, square, q)

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(PIECES), inequalities=RATIONAL_BOARDS,
           q=st.sampled_from([3, 2, 1]))
    def test_period_is_denominator_on_rational_boards(self, name,
                                                      inequalities, q):
        ms = piece_from_text(name)
        board = BoardPolygon(inequalities)
        denom = bounds.denominator(ms, board, q)
        # The window grows with the period (see TestRouteAgreement).
        assume(denom <= 12)
        try:
            assembled = count_qps(intersection_semilattice(ms, q), board,
                                  budget=10**9)[q]
        except CapacityError:
            assume(False)
        assert assembled.period == denom

    @pytest.mark.parametrize("board_text", ["square", "rect:5/2,1"])
    def test_cells_counted_only_in_fitted_windows(self, nightrider,
                                                  board_text, monkeypatch):
        board = board_from_text(board_text)
        sl = intersection_semilattice(nightrider, 2)
        classes, period = class_denominators(sl, board)
        fitted = set(symbolic._window(2, board.denominator))
        for rep, p in classes:
            fitted.update(symbolic._window(2 * rep.kappa - rep.codim, p))
        window = set(symbolic._window(4, period))
        assert fitted < window
        counted = []
        cell_count = counting.cell_count

        def recorded(board, n):
            counted.append(n)
            return cell_count(board, n)

        monkeypatch.setattr(counting, "cell_count", recorded)
        count_qps(sl, board)
        assert counted and set(counted) <= fitted


class TestRouteAgreement:
    """The assembly's u_q against the enumerator on random pieces and
    rational boards."""

    @settings(max_examples=30, deadline=None)
    @given(ms=random_pieces(), inequalities=RATIONAL_BOARDS,
           q=st.sampled_from([3, 2, 1]))
    def test_assembled_count_equals_brute_force(self, ms, inequalities, q):
        board = BoardPolygon(inequalities)
        sl = intersection_semilattice(ms, q)
        # The assembly samples P(2q + 2) sizes, P the lcm of the board's
        # and the connected classes' denominators, so a large P makes an
        # example slow (P = 693 at q = 2 takes about 5 s), not wrong.
        assume(class_denominators(sl, board)[1] <= 12)
        try:
            unlabelled = count_qps(sl, board, budget=10**9)[q]
        except CapacityError:
            assume(False)
        for n in range(0, 4):
            assert unlabelled.evaluate(n) == count_nonattacking(
                ms, board, q, n)[1], n
