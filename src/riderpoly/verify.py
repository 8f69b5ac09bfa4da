"""The "paper" verification suite: reproduction of published results.

Each check reproduces one acceptance item: published counting formulas,
Mobius values, type counts, oracle equivalences, and period bounds.  All
comparisons are exact.  One check (the coincidence-flat Mobius closed
form) is expected to fail: the published closed form is provably wrong
and the battery verifies the corrected identity alongside; see the
README's "known source discrepancies" section.  Expected failures are
reported as XFAIL and do not flip the exit code; anything else failing
does.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import bounds, quasipoly as qp
from .arrangement import (
    intersection_semilattice,
    reconstruct_count,
    w_equal_flat,
    w_slope_flat,
)
from .counting import CountTable, census_types, count_series
from .errors import CapacityError, Record
from .geometry import BoardPolygon, piece_from_text
from .symbolic import reconstruction_series


class CheckResult(Record):
    """The outcome of one check of the battery; a mutable value."""

    __slots__ = ("name", "passed", "expected_failure", "detail")

    def __init__(self, name: str, passed: bool,
                 expected_failure: bool = False, detail: str = ""):
        self.name = name
        self.passed = passed
        self.expected_failure = expected_failure
        self.detail = detail

    @property
    def status(self) -> str:
        if self.expected_failure:
            return "XFAIL" if not self.passed else "UNEXPECTED-PASS"
        return "PASS" if self.passed else "FAIL"


class PaperSuite(Record):
    """Shared artifacts for the acceptance battery (tables, semilattices).

    The board defaults to the square and the cache to a new empty dict.
    A mutable value, so unhashable.
    """

    __slots__ = ("board", "_cache")

    def __init__(self, board: BoardPolygon | None = None,
                 _cache: dict | None = None):
        self.board = BoardPolygon.square() if board is None else board
        self._cache = {} if _cache is None else _cache

    def piece(self, name: str):
        return piece_from_text(name)

    def table(self, name: str, q: int, n_to: int) -> CountTable:
        key = ("table", name, q, n_to)
        if key not in self._cache:
            self._cache[key] = count_series(
                self.piece(name), self.board, q, 1, n_to)
        return self._cache[key]

    def semilattice(self, name: str, q: int):
        key = ("sl", name, q)
        if key not in self._cache:
            self._cache[key] = intersection_semilattice(self.piece(name), q)
        return self._cache[key]

    def queen4_table(self) -> CountTable:
        key = ("table4",)
        if key not in self._cache:
            self._cache[key] = reconstruction_series(
                self.semilattice("queen", 4), self.board, 1, 70,
                cross_check_up_to=16)
        return self._cache[key]


def _frac(s: str) -> Fraction:
    return Fraction(s)


def check_two_queens_formula(suite: PaperSuite) -> list[CheckResult]:
    """Criterion 1: the known two-queens quasipolynomial, fitted from brute force."""
    table = suite.table("queen", 2, 12)
    fitted = qp.fit(table, 1)
    expected = tuple(_frac(s) for s in ("0", "-1/3", "3/2", "-5/3", "1/2"))
    ok = fitted.constituents[0] == expected
    return [CheckResult(
        "1. two-queens formula coefficients (1/2, -5/3, 3/2, -1/3, 0)",
        ok, detail=qp.pretty(fitted))]


def check_two_nightriders(suite: PaperSuite) -> list[CheckResult]:
    """Criterion 2: period detection and the two-nightriders constituents."""
    table = suite.table("nightrider", 2, 20)
    period = qp.detect_period(table, 6).period
    results = [CheckResult("2a. two-nightriders detected period = 2", period == 2)]
    fitted = qp.fit(table, 2)
    base = tuple(_frac(s) for s in ("0", "-11/12", "3/2", "-5/6", "1/2"))
    even = tuple(base[k] + (_frac("1/4") if k == 1 else 0) for k in range(5))
    odd = tuple(base[k] - (_frac("1/4") if k == 1 else 0) for k in range(5))
    results.append(CheckResult(
        "2b. constituents match n^4/2 - 5n^3/6 + 3n^2/2 - 11n/12 + (-1)^n n/4",
        fitted.constituents == (even, odd), detail=qp.pretty(fitted)))
    results.append(CheckResult(
        "2c. u_N(2;-1) = 4", qp.types_count(fitted) == 4))
    return results


def check_three_queens_types(suite: PaperSuite) -> list[CheckResult]:
    """Criterion 3: three-queens table, period-2 fit, 36 types at n = -1."""
    table = suite.table("queen", 3, 20)
    fitted = qp.fit(table, 2)
    three = qp.types_count(fitted)
    two = qp.types_count(qp.fit(suite.table("queen", 2, 12), 1))
    return [
        CheckResult("3a. three-queens types u_Q(3;-1) = 36", three == 36),
        CheckResult("3b. two-queens types u_Q(2;-1) = 4", two == 4),
    ]


def check_two_move_types(suite: PaperSuite) -> list[CheckResult]:
    """Criterion 4: bishop and rook type counts equal q!, by fit and census."""
    results = []
    for name in ("bishop", "rook"):
        for q in (2, 3):
            denom = bounds.denominator(suite.piece(name), suite.board, q)
            table = suite.table(name, q, 2 * (2 * q + 2))
            fitted = qp.detect_period(table, max(denom, 2),
                                      denominator_bound=denom)
            qp.check_ehrhart(fitted, q, table.board.area)
            types = qp.types_count(fitted)
            results.append(CheckResult(
                f"4. {name} q={q}: types from fit = {factorial(q)}",
                types == factorial(q), detail=f"got {types}"))
            lab, unlab = census_types(suite.piece(name), suite.board, q,
                                      10, 10)[10]
            results.append(CheckResult(
                f"4. {name} q={q}: census at n=10 = {factorial(q)}",
                unlab == factorial(q) and lab == factorial(q) * unlab,
                detail=f"census ({lab}, {unlab})"))
    return results


W_SUITE_PIECES = ("rook", "bishop", "queen", "nightrider", "semiqueen")


def check_mobius_suite(suite: PaperSuite) -> list[CheckResult]:
    """Criterion 5: the Mobius identities of the named coincidence flats.

    The fourth identity is asserted exactly as the source states it,
    (|M|-1)^2(|M|-3); that value is provably wrong (it contradicts the
    source's own region/type counts), so the check is marked as an
    expected failure and the corrected closed form (|M|-1)^2(|M|+2) is
    verified alongside.
    """
    results = []
    literal_ok = True
    corrected_ok = True
    detail = []
    for name in W_SUITE_PIECES:
        ms = suite.piece(name)
        m = len(ms)
        sl = suite.semilattice(name, 3)
        pair = w_slope_flat(sl, [0, 1], 0)
        triple = w_slope_flat(sl, [0, 1, 2], 0)
        weq = w_equal_flat(sl, [0, 1])
        mixed = sl.flat_of_hyperplanes(
            [sl.hyperplane_index(0, 1, r) for r in range(m)]
            + [sl.hyperplane_index(0, 2, 0), sl.hyperplane_index(1, 2, 0)])
        weq3 = w_equal_flat(sl, [0, 1, 2])
        results.append(CheckResult(
            f"5. {name}: mu(W^s l=2) = -1, mu(W^s l=3) = 2",
            pair.mobius == -1 and triple.mobius == 2))
        results.append(CheckResult(
            f"5. {name}: mu(W=_ij) = |M|-1 = {m - 1}", weq.mobius == m - 1))
        results.append(CheckResult(
            f"5. {name}: mu(W=_ij ^ W^s_ijk) = -2(|M|-1) = {-2 * (m - 1)}",
            mixed.mobius == -2 * (m - 1)))
        literal_ok &= weq3.mobius == (m - 1) ** 2 * (m - 3)
        corrected_ok &= weq3.mobius == (m - 1) ** 2 * (m + 2)
        detail.append(f"{name}: mu(W=_ijk) = {weq3.mobius}")
    results.append(CheckResult(
        "5d. mu(W=_ijk) = (|M|-1)^2(|M|-3) as printed [documented source defect]",
        literal_ok, expected_failure=True, detail="; ".join(detail)))
    results.append(CheckResult(
        "5d'. mu(W=_ijk) = (|M|-1)^2(|M|+2) (corrected closed form)",
        corrected_ok, detail="; ".join(detail)))
    return results


def check_oracle_equivalence(suite: PaperSuite) -> list[CheckResult]:
    """Criterion 6: semilattice reconstruction equals q! x brute force, 64 cells."""
    cells = 0
    bad = []
    for name in ("queen", "bishop", "rook", "nightrider"):
        for q in (2, 3):
            sl = suite.semilattice(name, q)
            table = suite.table(name, q, 8)
            for n in table.ns():
                lab, _ = table.row(n)
                rec = reconstruct_count(sl, suite.board, n)
                cells += 1
                if rec != lab:
                    bad.append((name, q, n, rec, lab))
    return [CheckResult(
        f"6. reconstruction oracle = brute force on {cells} cells",
        cells == 64 and not bad, detail=str(bad) if bad else "exact")]


def check_bounds_table(suite: PaperSuite) -> list[CheckResult]:
    """Criterion 7: denominators, lcmd values, closed forms, divisibility chain."""
    board = suite.board
    queen = suite.piece("queen")
    nightrider = suite.piece("nightrider")
    bishop = suite.piece("bishop")
    results = []
    denom_expect = {("queen", 2): 1, ("queen", 3): 2,
                    ("nightrider", 2): 2, ("nightrider", 3): 60}
    denoms = {}
    for (name, q), expected in denom_expect.items():
        got = bounds.denominator(suite.piece(name), board, q)
        denoms[(name, q)] = got
        results.append(CheckResult(
            f"7. denominator({name}, q={q}) = {expected}", got == expected,
            detail=f"got {got}"))
    lcmd_expect = {("queen", 2): 2, ("queen", 3): 4,
                   ("nightrider", 2): 60, ("nightrider", 3): 3600}
    for (name, q), expected in lcmd_expect.items():
        got = bounds.lcmd_direct(bounds.attack_rows(suite.piece(name), q))
        results.append(CheckResult(
            f"7. lcmd(A'({name}, q={q})) = {expected}", got == expected,
            detail=f"got {got}"))
    closed = [bounds.lcmd_closed_form_two_moves(bishop, q) for q in range(2, 7)]
    results.append(CheckResult(
        "7. lcmd closed form (bishop, q=2..6) = 2,4,8,16,32",
        closed == [2, 4, 8, 16, 32], detail=str(closed)))
    results.append(CheckResult(
        "7. lcmd(M_nightrider) = 60",
        bounds.lcmd_direct(bounds.moves_matrix(nightrider)) == 60))

    chain_denoms = {("bishop", 3): bounds.denominator(bishop, board, 3),
                    ("queen", 3): denoms[("queen", 3)],
                    ("nightrider", 2): denoms[("nightrider", 2)]}
    table_rows = {("bishop", 3): 16, ("queen", 3): 20, ("nightrider", 2): 20}
    for key, denom in chain_denoms.items():
        period = qp.detect_period(suite.table(*key, table_rows[key]), 6,
                                  denominator_bound=denom).period
        ok = period == 2 and denom % period == 0
        results.append(CheckResult(
            f"7. observed period {key} = 2 divides denominator {denom}", ok))
    return results


def check_coefficients(suite: PaperSuite) -> list[CheckResult]:
    """Criterion 8: gamma_0 = 1/q!, residue-independent gamma_1, cross-q quadratic.

    Five-queens counting is far over desk budget, so the cross-q check
    runs on q = 2..4 (three points, degree-2 fit) with gamma_0 as the
    validation, as the criterion's fallback prescribes.  The q = 4 table
    comes from the cross-checked semilattice reconstruction.
    """
    results = []
    fits = {
        ("queen", 2): qp.fit(suite.table("queen", 2, 12), 1),
        ("queen", 3): qp.fit(suite.table("queen", 3, 20), 2),
        ("nightrider", 2): qp.fit(suite.table("nightrider", 2, 20), 2),
        ("bishop", 2): qp.fit(suite.table("bishop", 2, 12), 1),
        ("rook", 2): qp.fit(suite.table("rook", 2, 12), 1),
        ("bishop", 3): qp.fit(suite.table("bishop", 3, 16), 2),
        ("rook", 3): qp.fit(suite.table("rook", 3, 12), 1),
        ("queen", 4): qp.fit(suite.queen4_table(), 6),
    }
    gamma1 = {}
    for (name, q), fitted in fits.items():
        g0 = set(qp.coefficient(fitted, 0))
        g1 = set(qp.coefficient(fitted, 1))
        results.append(CheckResult(
            f"8. {name} q={q}: gamma_0 = 1/{q}! and gamma_1 residue-independent",
            g0 == {Fraction(1, factorial(q))} and len(g1) == 1,
            detail=f"gamma_1 = {g1}"))
        gamma1[(name, q)] = next(iter(g1))

    # Cross-q: q! gamma_1 for queens at q = 2, 3, 4 through one quadratic.
    points = [(q, factorial(q) * gamma1[("queen", q)]) for q in (2, 3, 4)]
    quad = qp.interpolate(points)
    ok = all(qp.poly_eval(quad, q) == v for q, v in points) and len(quad) <= 3
    results.append(CheckResult(
        "8. q!*gamma_1 (queens, q=2..4) fits one quadratic in q "
        "(reduced from q=2..5; gamma_0 is the validation)",
        ok, detail=f"quadratic coefficients (ascending): {quad}"))
    return results


def check_exclusions(suite: PaperSuite) -> list[CheckResult]:
    """Criterion 9: out-of-budget targets abort loudly instead of running."""
    results = []
    try:
        bounds.denominator(suite.piece("nightrider"), suite.board, 4)
        results.append(CheckResult(
            "9. nightrider q=4 denominator aborts with CapacityError", False))
    except CapacityError as exc:
        results.append(CheckResult(
            "9. nightrider q=4 denominator aborts with CapacityError", True,
            detail=str(exc)))
    try:
        bounds.lcmd_direct(bounds.attack_rows(suite.piece("nightrider"), 4))
        results.append(CheckResult(
            "9. nightrider q=4 lcmd aborts with CapacityError "
            "(stretch job needs an explicit budget)", False))
    except CapacityError as exc:
        results.append(CheckResult(
            "9. nightrider q=4 lcmd aborts with CapacityError "
            "(stretch job needs an explicit budget)", True, detail=str(exc)))
    return results


ALL_CHECKS = (
    check_two_queens_formula,
    check_two_nightriders,
    check_three_queens_types,
    check_two_move_types,
    check_mobius_suite,
    check_oracle_equivalence,
    check_bounds_table,
    check_coefficients,
    check_exclusions,
)


def run_paper_suite() -> int:
    """Run the battery, print one line per check, return the exit code.

    Exit 0 when every check passes and every documented-defect check
    fails exactly as documented; 1 otherwise.
    """
    suite = PaperSuite()
    failures = 0
    for check in ALL_CHECKS:
        for result in check(suite):
            print(f"{result.status:15s} {result.name}")
            if result.detail and result.status not in ("PASS",):
                print(f"{'':15s}   {result.detail}")
            if result.expected_failure:
                if result.passed:
                    failures += 1
            elif not result.passed:
                failures += 1
    print(f"verification {'PASSED' if failures == 0 else 'FAILED'}")
    return 0 if failures == 0 else 1
