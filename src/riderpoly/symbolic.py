"""Counting quasipolynomials assembled from the intersection semilattice.

``reconstruct_count`` in the arrangement module sums one term per iso
class at one board size, the disconnected classes included, so it is
independent of the assembly here.  This module assembles the *whole
quasipolynomial* from the connected flats: mu and alpha multiply over
slope-graph components, so by the exponential formula (Stanley, EC2 5.1)
the count is a sum over set partitions of the pieces of per-block terms.
Each connected class's alpha is an Ehrhart quasipolynomial whose period
divides the flat polytope's vertex denominator, fitted exactly (with
held-out validation) from a window of sizes around n = 0, the negative
ones by Ehrhart-Macdonald reciprocity, and so is the cell count N.  The
formula is then run in integers at every size of one window, whose
period is the inside-out denominator, and each count is fitted from its
values like any table (``quasipoly.fit_values``), so its held-out rows
validate the assembly.  That reaches count tables brute force cannot
touch (the q = 4 table on the square board, for instance).  Every
(kappa, n) a fit samples is gated once (``counting.check_size``), and
every size of the window by its walk (``counting.check_walk``), before
the first flat is counted, and every series is cross-checked against
brute force before it is returned.  Only this route counts flats, so
importing it compiles ``flatcount`` too, at start-up, before the closure
is built, rather than inside the first flat count; each connected
class's count plan (``flatcount.count_plan``) is made once and serves
every size its fit samples.  Of the period chain it takes only the flat
polytope denominators (``flatpolytope``), so it does not compile
``bounds``.
"""

from __future__ import annotations

from math import comb, factorial

from . import flatcount
from .arrangement import Flat, Semilattice, alpha
from .counting import (
    DEFAULT_BUDGET,
    METHOD_RECONSTRUCTION,
    CountTable,
    check_range,
    check_size,
    check_walk,
    count_series,
)
from .errors import RiderPolyError
# perfbench/trace_job.py wraps flat_polytope_denominator under this name.
from .flatpolytope import class_denominators, flat_polytope_denominator  # noqa: F401
from .geometry import BoardPolygon
from .quasipoly import (
    Quasipolynomial,
    check_ehrhart,
    fit_values,
    poly_eval,
    scaled,
)


def _window(degree: int, period: int) -> range:
    """The p*(degree + 2) sizes around 0 that a fit at that degree and
    period samples: degree + 2 per residue, the largest one held out."""
    span = period * (degree + 2)
    return range(-(span // 2), span - span // 2)


def alpha_qp(sl: Semilattice, flat: Flat, board: BoardPolygon,
             period: int) -> Quasipolynomial:
    """The flat's alpha as an exact, validated quasipolynomial of n.

    A flat of dimension d = 2*kappa - codim is fitted at period p, its
    flat polytope denominator, from d + 2 values per residue, taken from a
    window of p*(d + 2) sizes around 0: ``alpha`` at negative n counts
    the closed dilates (Ehrhart-Macdonald reciprocity), so the largest |n|
    sampled is about p*(d + 2)/2 instead of p*(d + 2).  Each residue's
    largest sample, at n >= 0, is its held-out row.  The window is gated
    by ``count_qps``, not here.
    """
    dim = 2 * flat.kappa - flat.codim
    plan = flatcount.count_plan(flat)
    values = {n: alpha(sl, flat, board, n, plan)
              for n in _window(dim, period)}
    return fit_values(values, period, dim).reduced()


def count_qps(sl: Semilattice, board: BoardPolygon,
              budget: int = DEFAULT_BUDGET) -> list:
    """Unlabelled counting quasipolynomials u_0, ..., u_q of m = 0..q pieces.

    Exponential formula: with c_1 = N and c_k = sum mu * alpha over the
    connected flats on pieces 0..k-1, the labelled count is
    a_m = sum over k of C(m-1, k-1) * c_k * a_{m-k}, and u_m = a_m / m!.
    A connected class on k pieces is spread evenly over the C(q, k) piece
    subsets, so each contributes size / C(q, k) flats to c_k.  N and
    each alpha are read off their fits.  The recurrence runs in integers
    at each of the P*(2q + 2) sizes around 0, P the inside-out denominator
    (``flatpolytope.class_denominators``); u_m is fitted from those values
    at period P and degree 2m.  Every class's whole alpha window is
    checked first, in class order, each distinct (kappa, n) where it
    first occurs, then the window's walks, then N's window, all before
    the first flat is counted.
    """
    q = sl.q
    classes, period = class_denominators(sl, board)
    gated, weighted = set(), []
    for rep, p in classes:
        share, rest = divmod(len(rep.orbit), comb(q, rep.kappa))
        if rest:
            raise RuntimeError("a connected class is uneven over piece subsets")
        for n in _window(2 * rep.kappa - rep.codim, p):
            if (rep.kappa, n) not in gated:
                gated.add((rep.kappa, n))
                check_size(board, n, budget, rep.kappa, "alpha")
        weighted.append((rep, p, share * rep.mobius))
    window = _window(2 * q, period)
    for n in window:
        check_walk(board, n, budget)
    fits = []
    if q:
        # c_1 = N, from the 4 * board.denominator sizes around 0, inside
        # the window since the denominator divides P; q = 0 has no c_1.
        cells = {n: check_size(board, n, budget, 0, "count")
                 for n in _window(2, board.denominator)}
        fits.append((1, 1, fit_values(cells, board.denominator, 2)))
    fits += [(rep.kappa, weight, alpha_qp(sl, rep, board, p))
             for rep, p, weight in weighted]
    # Each constituent once as integer coefficients over their lcm.
    terms = [(kappa, weight, [scaled(cons) for cons in fitted.constituents])
             for kappa, weight, fitted in fits]
    values = [{} for _ in range(q + 1)]
    for n in window:
        c = [0] * (q + 1)
        for kappa, weight, constituents in terms:
            coeffs, den = constituents[n % len(constituents)]
            # exact: N and alpha are integers at every n
            c[kappa] += weight * (poly_eval(coeffs, n) // den)
        a = [1]
        for m in range(1, q + 1):
            a.append(sum(comb(m - 1, k - 1) * c[k] * a[m - k]
                         for k in range(1, m + 1)))
        for m, a_m in enumerate(a):
            unlabelled, rest = divmod(a_m, factorial(m))
            if rest:
                raise RiderPolyError(
                    f"assembled count of {m} labelled pieces at n={n} "
                    f"is not a multiple of {m}!")
            values[m][n] = unlabelled
    return [fit_values(values[m], period, 2 * m) for m in range(q + 1)]


def reconstruction_quasipolynomials(
        sl: Semilattice, board: BoardPolygon,
        budget: int = DEFAULT_BUDGET) -> Quasipolynomial:
    """The unlabelled counting quasipolynomial u_q of the semilattice's
    piece, from ``count_qps``, checked against the Ehrhart form
    (``quasipoly.check_ehrhart``) before returning."""
    unlabelled = count_qps(sl, board, budget)[sl.q]
    check_ehrhart(unlabelled, sl.q, board.area)
    return unlabelled


def reconstruction_series(sl: Semilattice, board: BoardPolygon,
                          n_from: int, n_to: int,
                          budget: int = DEFAULT_BUDGET,
                          cross_check_up_to: int = 6) -> CountTable:
    """CountTable from the assembled quasipolynomial, method "reconstruction".

    Before emitting anything the assembled count is compared with the
    brute-force enumerator for n = 0..cross_check_up_to (exact equality);
    a mismatch raises instead of producing a table.  Like the brute-force
    route it refuses a reversed range, and a negative n, where the
    quasipolynomial gives reciprocity values, not counts.
    """
    check_range(n_from, n_to)
    fitted = reconstruction_quasipolynomials(sl, board, budget)
    brute = count_series(sl.ms, board, sl.q, 0, cross_check_up_to, budget)
    for n, expected in brute.rows.items():
        got = fitted.evaluate(n)
        if got != expected:
            raise RiderPolyError(
                f"reconstruction cross-check failed at n={n}: "
                f"assembled {got}, brute force {expected}")
    rows = {}
    for n in range(n_from, n_to + 1):
        value = fitted.evaluate(n)
        if value.denominator != 1:
            raise RiderPolyError(
                f"assembled count at n={n} is not an integer")
        rows[n] = int(value)
    return CountTable(piece=sl.ms.label, board=board, q=sl.q, rows=rows,
                      method=METHOD_RECONSTRUCTION)
