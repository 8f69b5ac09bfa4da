from fractions import Fraction as F
from math import factorial

import pytest
from conftest import RANDOM_BOARDS, random_pieces
from hypothesis import given, settings, strategies as st

from riderpoly import quasipoly as qp
from riderpoly.counting import CountTable, count_series
from riderpoly.errors import (
    FitError,
    InsufficientDataError,
    PeriodNotFoundError,
    ValidationMismatchError,
)
from riderpoly.geometry import board_from_text


def labelled(table):
    """The labelled column of a count table: n -> q! * u(q; n)."""
    return {n: table.row(n)[0] for n in table.ns()}


def scaled(k, fitted):
    """The constituents of k times a quasipolynomial."""
    return tuple(tuple(k * c for c in cons) for cons in fitted.constituents)


@pytest.fixture(scope="module")
def two_queens(queen, square):
    return count_series(queen, square, 2, 1, 12)


@pytest.fixture(scope="module")
def two_nightriders(nightrider, square):
    return count_series(nightrider, square, 2, 1, 20)


class TestFit:
    def test_two_queens_coefficients(self, two_queens):
        fitted = qp.fit(two_queens, 1)
        assert fitted.constituents[0] == (F(0), F(-1, 3), F(3, 2), F(-5, 3), F(1, 2))

    def test_two_nightriders_constituents(self, two_nightriders):
        fitted = qp.fit(two_nightriders, 2)
        even = (F(0), F(-11, 12) + F(1, 4), F(3, 2), F(-5, 6), F(1, 2))
        odd = (F(0), F(-11, 12) - F(1, 4), F(3, 2), F(-5, 6), F(1, 2))
        assert fitted.constituents == (even, odd)

    def test_q1_square_is_n_squared(self, rook, square):
        table = count_series(rook, square, 1, 1, 6)
        fitted = qp.fit(table, 1)
        assert fitted.constituents[0] == (F(0), F(0), F(1))

    def test_round_trip_reproduces_every_row(self, two_nightriders):
        fitted = qp.fit(two_nightriders, 2)
        for n in two_nightriders.ns():
            assert fitted.evaluate(n) == two_nightriders.rows[n]

    def test_wrong_period_raises_validation(self, two_nightriders):
        with pytest.raises(ValidationMismatchError) as exc:
            qp.fit_values(two_nightriders.rows, 1, 4)
        assert exc.value.residuals

    def test_insufficient_data(self, two_queens):
        with pytest.raises(InsufficientDataError):
            qp.fit_values(two_queens.rows, 4, 4)

    def test_labelled_column_leading_coefficient(self, two_queens):
        fitted = qp.fit_values(labelled(two_queens), 1, 4)
        assert fitted.constituents[0][4] == 1
        assert fitted.constituents == scaled(2, qp.fit(two_queens, 1))

    def test_doubled_counts_fail_leading_check(self, two_queens):
        # Still a degree-4 quasipolynomial, but it leads with 1, not 1/2.
        doubled = CountTable(two_queens.piece, two_queens.board, 2, {
            n: 2 * unlab for n, unlab in two_queens.rows.items()})
        with pytest.raises(FitError, match="leads with 1, expected 1/2"):
            qp.fit(doubled, 1)


def _fit_or_error(values, period, degree):
    try:
        return qp.fit_values(values, period, degree)
    except FitError as exc:
        return type(exc), str(exc)


class TestLabelledColumn:
    """Fitting is linear and exact, so the labelled count's quasipolynomial
    is q! times the unlabelled one, and both columns fail alike."""

    @settings(max_examples=30, deadline=None)
    @given(ms=random_pieces(), board_text=st.sampled_from(RANDOM_BOARDS),
           q=st.integers(1, 3))
    def test_q_factorial_times_the_unlabelled_fit(self, ms, board_text, q):
        # 2q + 2 rows per residue at period 2: 2q + 1 nodes, one held out.
        table = count_series(ms, board_from_text(board_text), q, 1, 4 * q + 4)
        values, degree = labelled(table), 2 * q
        fitting = []
        for p in (1, 2, 3):
            expected = _fit_or_error(table.rows, p, degree)
            got = _fit_or_error(values, p, degree)
            if isinstance(expected, qp.Quasipolynomial):
                assert got.constituents == scaled(factorial(q), expected)
                fitting.append(p)
            else:
                assert got == expected
        try:
            period = qp.detect_period(table, 3).period
        except PeriodNotFoundError:
            period = None
        # A search on the labelled column takes the same first period.
        assert period == (fitting[0] if fitting else None)
        if period is not None:
            assert (qp.fit_values(values, period, degree).constituents
                    == scaled(factorial(q), qp.fit(table, period)))


class TestDetectPeriod:
    def test_queen_is_one(self, two_queens):
        assert qp.detect_period(two_queens, 4).period == 1

    def test_nightrider_is_two(self, two_nightriders):
        assert qp.detect_period(two_nightriders, 4).period == 2

    def test_returns_the_validated_fit(self, two_nightriders):
        # The fit it validated, the same as a fit at the detected period.
        assert (qp.detect_period(two_nightriders, 4)
                == qp.fit(two_nightriders, 2))

    def test_divisor_restriction(self, two_nightriders):
        assert qp.detect_period(two_nightriders, 6,
                                denominator_bound=2).period == 2

    def test_not_found_reports_residuals(self, two_nightriders):
        with pytest.raises(PeriodNotFoundError):
            qp.detect_period(two_nightriders, 1)


class TestEvaluate:
    def test_named_values(self, two_queens):
        fitted = qp.fit(two_queens, 1)
        assert fitted.evaluate(5) == 140
        assert fitted.evaluate(-1) == 4

    def test_negative_uses_last_constituent(self, two_nightriders):
        fitted = qp.fit(two_nightriders, 2)
        assert fitted.evaluate(-1) == qp.poly_eval(fitted.constituents[1], -1) == 4

    def test_types_count(self, two_queens, two_nightriders):
        assert qp.types_count(qp.fit(two_queens, 1)) == 4
        assert qp.types_count(qp.fit(two_nightriders, 2)) == 4

    def test_types_count_rejects_non_integer(self):
        bad = qp.Quasipolynomial(1, 1, ((F(1, 2), F(1)),))
        with pytest.raises(FitError):
            qp.types_count(bad)

    def test_labelled_and_unlabelled_type_counts_agree(self, two_nightriders):
        unlab = qp.types_count(qp.fit(two_nightriders, 2))
        lab = qp.types_count(qp.fit_values(labelled(two_nightriders), 2, 4))
        assert lab == 2 * unlab == 8


    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), period=st.integers(1, 4), degree=st.integers(0, 8),
           n=st.integers(-60, 60))
    def test_integer_horner_matches_fraction_horner(self, data, period,
                                                    degree, n):
        target = qp.Quasipolynomial(degree, period, tuple(
            tuple(data.draw(COEFFS) for _ in range(degree + 1))
            for _ in range(period)))
        value = target.evaluate(n)
        # Horner over the Fraction coefficients themselves, as reference.
        reference = F(0)
        for c in reversed(target.constituents[n % period]):
            reference = reference * n + c
        assert type(value) is F and value == reference

    def test_scaled_is_over_the_least_denominator(self):
        assert qp.scaled((F(1, 2), F(-2, 3), F(3))) == ([3, -4, 18], 6)
        assert qp.scaled((F(0), F(5))) == ([0, 5], 1)


class TestCoefficient:
    def test_two_queens_gamma0(self, two_queens):
        fitted = qp.fit(two_queens, 1)
        assert qp.coefficient(fitted, 0) == [F(1, 2)]

    def test_two_nightriders_gammas(self, two_nightriders):
        fitted = qp.fit(two_nightriders, 2)
        assert qp.coefficient(fitted, 1) == [F(-5, 6), F(-5, 6)]
        assert qp.coefficient(fitted, 3) == [F(-11, 12) + F(1, 4),
                                             F(-11, 12) - F(1, 4)]

    def test_out_of_range(self, two_queens):
        fitted = qp.fit(two_queens, 1)
        with pytest.raises(IndexError):
            qp.coefficient(fitted, 5)


class TestSerialization:
    def test_schema_fields(self, two_nightriders):
        fitted = qp.fit(two_nightriders, 2)
        data = fitted.to_json_dict()
        assert data["degree"] == 4 and data["period"] == 2
        assert data["constituents"][0][4] == "1/2"

    def test_pretty_period_two(self, two_nightriders):
        fitted = qp.fit(two_nightriders, 2)
        text = qp.pretty(fitted)
        assert text == "{n^4/2 - 5n^3/6 + 3n^2/2 - 11n/12} + (-1)^n [n/4]"

    def test_pretty_period_one(self, two_queens):
        assert qp.pretty(qp.fit(two_queens, 1)) == \
            "n^4/2 - 5n^3/3 + 3n^2/2 - n/3"


class TestAlgebra:
    def test_reduced_collapses_fake_period(self):
        fake = qp.Quasipolynomial(1, 2, ((F(0), F(1)), (F(0), F(1))))
        assert fake.reduced().period == 1


def reference_lagrange(points):
    """Lagrange interpolation over Fraction, ascending coefficients."""
    coeffs = [F(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [F(1)]
        denom = F(1)
        for j, (xj, _) in enumerate(points):
            if j != i:
                # basis * (x - xj)
                basis = [a - xj * b
                         for a, b in zip([F(0)] + basis, basis + [F(0)])]
                denom *= xi - xj
        weight = F(yi) / denom
        for k, c in enumerate(basis):
            coeffs[k] += weight * c
    return tuple(coeffs)


def reference_fit(values, period, degree):
    """Residue-wise Lagrange fit validated with poly_eval, as reference."""
    constituents = []
    for k in range(period):
        ns = sorted(n for n in values if n % period == k)
        coeffs = reference_lagrange([(n, values[n]) for n in ns[:degree + 1]])
        residuals = {}
        for n in ns[degree + 1:]:
            predicted = qp.poly_eval(coeffs, n)
            if predicted != values[n]:
                residuals[n] = (values[n], predicted)
        if residuals:
            raise ValidationMismatchError("reference", residuals=residuals)
        constituents.append(coeffs)
    return qp.Quasipolynomial(degree, period, tuple(constituents))


COEFFS = st.fractions(min_value=-6, max_value=6, max_denominator=8)


class TestIntegerFitParity:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), period=st.integers(1, 4), degree=st.integers(0, 8),
           extra=st.integers(1, 3), start=st.integers(-30, 5))
    def test_matches_lagrange_reference(self, data, period, degree, extra,
                                        start):
        target = qp.Quasipolynomial(degree, period, tuple(
            tuple(data.draw(COEFFS) for _ in range(degree + 1))
            for _ in range(period)))
        values = {}
        for n in range(start, start + period * (degree + 1 + extra)):
            value = target.evaluate(n)
            values[n] = int(value) if value.denominator == 1 else value
        fitted = qp.fit_values(values, period, degree)
        assert fitted == reference_fit(values, period, degree) == target
        assert all(type(c) is F for cons in fitted.constituents for c in cons)

        # A corrupted held-out row is rejected with the same residuals.
        held = data.draw(st.sampled_from(sorted(values)[-period * extra:]))
        values[held] += data.draw(COEFFS.filter(bool))
        with pytest.raises(ValidationMismatchError) as new:
            qp.fit_values(values, period, degree)
        with pytest.raises(ValidationMismatchError) as ref:
            reference_fit(values, period, degree)
        assert new.value.residuals == ref.value.residuals
        assert list(new.value.residuals) == [held]

    @given(st.lists(st.tuples(st.integers(-20, 20), COEFFS), min_size=1,
                    max_size=6, unique_by=lambda point: point[0]))
    def test_interpolate_matches_lagrange(self, points):
        coeffs = qp.interpolate(points)
        assert coeffs == reference_lagrange(points)
        assert repr(coeffs) == repr(reference_lagrange(points))
