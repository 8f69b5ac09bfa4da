"""Assembled counting quasipolynomials from the intersection semilattice.

``reconstruct_count`` in the arrangement module sums one term per iso
class at one board size, the disconnected classes included, so it is
independent of the assembly here.  This module assembles the *whole
quasipolynomial* from the connected flats: mu and alpha multiply over
slope-graph components, so by the exponential formula (Stanley, EC2 5.1)
the count is a sum over set partitions of the pieces of per-block terms.
Each connected class's alpha is an Ehrhart quasipolynomial whose period
divides the flat polytope's vertex denominator, fitted exactly (with
held-out validation) from a window of sizes around n = 0, the negative
ones by Ehrhart-Macdonald reciprocity.  That reaches count tables brute force
cannot touch (the q = 4 table on the square board, for instance).
Every series is cross-checked against brute force before it is returned.
Only this route counts flats, so importing it compiles ``flatcount`` too,
at start-up, before the closure is built, rather than inside the first
flat count.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from . import flatcount  # noqa: F401
from . import quasipoly as qp
from .arrangement import Flat, Semilattice, alpha, is_connected
from .bounds import flat_polytope_denominator
from .counting import (
    DEFAULT_BUDGET,
    METHOD_RECONSTRUCTION,
    CountTable,
    check_board_walk,
    check_range,
    count_series,
)
from .errors import RiderPolyError
from .geometry import BoardPolygon, interior_lattice_count


def board_count_qp(board: BoardPolygon,
                   budget: int = DEFAULT_BUDGET) -> qp.Quasipolynomial:
    """The cell count N as an exact quasipolynomial of n (degree 2).

    Fitted from counted values with period equal to the board denominator:
    five rows per residue, so two held-out rows each.  Every walk is checked
    against the budget before the first one starts.
    """
    period = board.denominator
    ns = range(0, 5 * period)
    for n in ns:
        check_board_walk(board, n, budget)
    values = {n: interior_lattice_count(board, n + 1) for n in ns}
    return qp.fit_values(values, period, 2).reduced()


def alpha_qp(sl: Semilattice, flat: Flat, board: BoardPolygon,
             budget: int = DEFAULT_BUDGET) -> qp.Quasipolynomial:
    """The flat's alpha as an exact, validated quasipolynomial of n.

    A flat of dimension d = 2*kappa - codim is fitted at period p = its
    flat polytope denominator from d + 2 values per residue, taken from a
    window of p*(d + 2) sizes around 0: ``alpha`` at negative n counts
    the closed dilates (Ehrhart-Macdonald reciprocity), so the largest |n|
    sampled is about p*(d + 2)/2 instead of p*(d + 2).  Each residue's
    largest sample, at n >= 0, is its held-out row.
    """
    degree = 2 * flat.kappa - flat.codim
    period = flat_polytope_denominator(flat, board)
    span = period * (degree + 2)
    values = {n: alpha(sl, flat, board, n, budget)
              for n in range(-(span // 2), span - span // 2)}
    return qp.fit_values(values, period, degree).reduced()


def labelled_count_qps(sl: Semilattice, board: BoardPolygon,
                       budget: int = DEFAULT_BUDGET) -> list:
    """Labelled counting quasipolynomials a_0, ..., a_q of m = 0..q pieces.

    Exponential formula: with c_1 = N and c_k = sum mu * alpha over the
    connected flats on pieces 0..k-1, a_m = sum over k of
    C(m-1, k-1) * c_k * a_{m-k}.  A connected class on k pieces is spread
    evenly over the C(q, k) piece subsets, so each contributes
    size / C(q, k) flats to c_k.
    """
    q = sl.q
    c = [None, board_count_qp(board, budget)] + [qp.constant(0)] * (q - 1)
    for cls in sl.iso_classes:
        rep = sl.flats[cls.representative]
        if not is_connected(rep):
            continue
        share, rest = divmod(cls.size, comb(q, cls.kappa))
        if rest:
            raise RuntimeError("a connected class is uneven over piece subsets")
        c[cls.kappa] += share * rep.mobius * alpha_qp(sl, rep, board, budget)
    a = [qp.constant(1)]
    for m in range(1, q + 1):
        a_m = qp.constant(0)
        for k in range(1, m + 1):
            a_m += comb(m - 1, k - 1) * c[k] * a[m - k]
        a.append(a_m)
    return a


def reconstruction_quasipolynomials(
        sl: Semilattice, board: BoardPolygon,
        budget: int = DEFAULT_BUDGET) -> tuple:
    """(labelled, unlabelled) counting quasipolynomials for the semilattice's piece.

    The labelled one is a_q of ``labelled_count_qps``; it is checked
    against the Ehrhart form (``quasipoly.check_ehrhart``) before
    returning.
    """
    total = labelled_count_qps(sl, board, budget)[sl.q]
    qp.check_ehrhart(total, sl.q, board.area, "labelled")
    unlabelled = total * Fraction(1, factorial(sl.q))
    return total, unlabelled


def reconstruction_series(sl: Semilattice, board: BoardPolygon,
                          n_from: int, n_to: int,
                          budget: int = DEFAULT_BUDGET,
                          cross_check_up_to: int = 6) -> CountTable:
    """CountTable from the assembled quasipolynomial, method "reconstruction".

    Before emitting anything the assembled labelled count is compared with
    the brute-force enumerator for n = 0..cross_check_up_to (exact
    equality); a mismatch raises instead of producing a table.  Like the
    brute-force route it refuses a reversed range, and a negative n, where
    the quasipolynomial gives reciprocity values, not counts.
    """
    check_range(n_from, n_to)
    labelled_qp, _ = reconstruction_quasipolynomials(sl, board, budget)
    fq = factorial(sl.q)
    brute = count_series(sl.ms, board, sl.q, 0, cross_check_up_to, budget)
    for n, (expected, _) in brute.rows.items():
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
