"""Acceptance battery: one test per criterion, one printed line per check.

All equalities are exact (big-integer / big-rational, tolerance zero).
Checks marked as expected failures document verified defects in the
source material; see the ledger notes referenced by the README.  Run with
``pytest -s tests/test_acceptance.py`` to watch the per-check lines.
"""

import pytest

from riderpoly.verify import (
    PaperSuite,
    check_bounds_table,
    check_coefficients,
    check_exclusions,
    check_mobius_suite,
    check_oracle_equivalence,
    check_three_queens_types,
    check_two_move_types,
    check_two_nightriders,
    check_two_queens_formula,
)


@pytest.fixture(scope="module")
def suite():
    return PaperSuite()


def run(check, suite):
    results = check(suite)
    for result in results:
        line = f"{result.status:15s} {result.name}"
        if result.detail:
            line += f"   [{result.detail}]"
        print(line)
    for result in results:
        if not result.expected_failure:
            assert result.passed, f"{result.name}: {result.detail}"
    return results


def test_criterion_1_two_queens_formula(suite):
    run(check_two_queens_formula, suite)


def test_criterion_2_two_nightriders(suite):
    run(check_two_nightriders, suite)


def test_criterion_3_three_queens_types(suite):
    run(check_three_queens_types, suite)


def test_criterion_4_two_move_type_counts(suite):
    run(check_two_move_types, suite)


def test_criterion_5_mobius_suite(suite):
    run(check_mobius_suite, suite)


@pytest.mark.xfail(strict=True, reason=(
    "documented source defect: the printed closed form (|M|-1)^2(|M|-3) "
    "for the three-piece coincidence flat contradicts the source's own "
    "region counts; the computed values satisfy (|M|-1)^2(|M|+2) and are "
    "confirmed by the crosscut theorem and by brute-force reconstruction"))
def test_criterion_5_literal_coincidence_mobius(suite):
    literal = next(r for r in check_mobius_suite(suite) if r.expected_failure)
    assert literal.passed


def test_criterion_6_oracle_equivalence(suite):
    run(check_oracle_equivalence, suite)


def test_criterion_7_bounds_table(suite):
    run(check_bounds_table, suite)


def test_criterion_8_coefficient_properties(suite):
    run(check_coefficients, suite)


def test_criterion_9_documented_exclusions(suite):
    run(check_exclusions, suite)
