"""Assembled counting quasipolynomials from the intersection semilattice.

``reconstruct_count`` in the arrangement module evaluates the
inclusion-exclusion sum at one board size by direct enumeration.  This
module assembles the *whole quasipolynomial* instead: each flat class's
lattice-point count alpha is itself an Ehrhart quasipolynomial of known
degree whose period divides the flat polytope's vertex denominator, so it
can be fitted exactly from small boards (with held-out validation) and
then evaluated anywhere.  By Ehrhart-Macdonald reciprocity the closed
dilates supply its values at negative n, so the samples sit in a window
around n = 0.  That turns the Mobius sum into exact
quasipolynomial algebra and makes count tables reachable that brute force
cannot touch (the q = 4 table on the square board, for instance).

Every assembled series is cross-checked against the brute-force
enumerator on small boards before it is returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import quasipoly as qp
from .arrangement import Flat, Semilattice, alpha, decompose
from .bounds import flat_polytope_denominator
from .counting import (
    DEFAULT_BUDGET,
    METHOD_RECONSTRUCTION,
    CountTable,
    check_board_walk,
    count_nonattacking,
)
from .errors import RiderPolyError
from .geometry import BoardPolygon, interior_lattice_points


def board_count_qp(board: BoardPolygon,
                   budget: int = DEFAULT_BUDGET) -> qp.Quasipolynomial:
    """The cell count N as an exact quasipolynomial of n (degree 2).

    Fitted from counted values with period equal to the board denominator
    and validated on one extra row per residue.  Every walk is checked
    against the budget before the first one starts.
    """
    period = board.denominator
    ns = range(0, 5 * period)
    for n in ns:
        check_board_walk(board, n, budget)
    values = {n: len(interior_lattice_points(board, n + 1)) for n in ns}
    return qp.fit_values(values, period, 2).reduced()


def alpha_qp(sl: Semilattice, flat: Flat, board: BoardPolygon,
             budget: int = DEFAULT_BUDGET) -> qp.Quasipolynomial:
    """The flat's alpha as an exact, validated quasipolynomial of n.

    Disconnected flats multiply over their slope-graph components.  A
    connected flat of dimension d = 2*kappa - codim is fitted at period p
    = its flat polytope denominator from d + 2 values per residue, taken
    from a window of p*(d + 2) sizes around 0: ``alpha`` at negative n
    counts the closed dilates (Ehrhart-Macdonald reciprocity), so the
    largest |n| sampled is about p*(d + 2)/2 instead of p*(d + 2).  Each
    residue's largest sample, at n >= 0, is its held-out row.  Isomorphic
    flats share one cached fit.
    """
    cache = sl._alpha_qp_cache
    key = (flat.iso_key, board)
    hit = cache.get(key)
    if hit is not None:
        return hit

    if flat.kappa == 0:
        value = qp.constant(1)
    else:
        parts = decompose(sl, flat)
        if len(parts) > 1:
            value = qp.constant(1)
            for part in parts:
                value = value * alpha_qp(sl, part, board, budget)
        else:
            degree = 2 * flat.kappa - flat.codim
            period = flat_polytope_denominator(flat, board)
            span = period * (degree + 2)
            values = {n: alpha(sl, flat, board, n, budget)
                      for n in range(-(span // 2), span - span // 2)}
            value = qp.fit_values(values, period, degree).reduced()
    cache[key] = value
    return value


def reconstruction_quasipolynomials(
        sl: Semilattice, board: BoardPolygon,
        budget: int = DEFAULT_BUDGET) -> tuple:
    """(labelled, unlabelled) counting quasipolynomials for the semilattice's piece.

    Sums mu * alpha * N^(q - kappa) over isomorphism classes (isomorphic
    flats share mu and alpha, so the grouped sum equals the flat-by-flat
    sum exactly), then checks degree and leading coefficient against the
    Ehrhart form before returning.
    """
    n_qp = board_count_qp(board, budget)
    total = qp.constant(0)
    for cls in sl.iso_classes:
        rep = sl.flats[cls.representative]
        term = (cls.size * rep.mobius) * alpha_qp(sl, rep, board, budget)
        total = total + term * n_qp ** (sl.q - cls.kappa)
    if total.degree != 2 * sl.q:
        raise RiderPolyError(
            f"assembled quasipolynomial has degree {total.degree}, "
            f"expected {2 * sl.q}")
    lead = Fraction(board.area) ** sl.q
    for cons in total.constituents:
        if cons[total.degree] != lead:
            raise RiderPolyError(
                "assembled quasipolynomial has a wrong leading coefficient")
    unlabelled = total * Fraction(1, factorial(sl.q))
    return total, unlabelled


def reconstruction_series(sl: Semilattice, board: BoardPolygon,
                          n_from: int, n_to: int,
                          budget: int = DEFAULT_BUDGET,
                          cross_check_up_to: int = 6) -> CountTable:
    """CountTable from the assembled quasipolynomial, method "reconstruction".

    Before emitting anything the assembled labelled count is compared with
    the brute-force enumerator for n = 0..cross_check_up_to (exact
    equality); a mismatch raises instead of producing a table.
    """
    labelled_qp, _ = reconstruction_quasipolynomials(sl, board, budget)
    fq = factorial(sl.q)
    for n in range(0, cross_check_up_to + 1):
        expected, _ = count_nonattacking(sl.ms, board, sl.q, n, budget)
        got = labelled_qp.evaluate(n)
        if got != expected:
            raise RiderPolyError(
                f"reconstruction cross-check failed at n={n}: "
                f"assembled {got}, brute force {expected}")
    rows = {}
    for n in range(n_from, n_to + 1):
        value = labelled_qp.evaluate(n)
        if value.denominator != 1 or int(value) % fq:
            raise RiderPolyError(
                f"assembled labelled count at n={n} is not a multiple of q!")
        rows[n] = (int(value), int(value) // fq)
    return CountTable(piece=sl.ms.label, board=board, q=sl.q, rows=rows,
                      method=METHOD_RECONSTRUCTION)
