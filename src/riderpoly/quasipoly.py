"""Exact quasipolynomial interpolation, evaluation, and coefficients.

A quasipolynomial of period p is p polynomials, one per residue of n
mod p; fitting interpolates each residue class exactly and then
*validates* on held-out rows, so a successful fit is a falsifiable
statement about the values, never just a curve through points.  Every
quasipolynomial riderpoly makes is such a fit: of a count table, of a
flat's lattice counts, or of the counts the Mobius assembly computes at
each size (``symbolic.count_qps``); there is no quasipolynomial
arithmetic.  The interpolation solves the Vandermonde system by
fraction-free integer elimination (``linalg.insert_row``); ``Fraction``
appears only in the final coefficients.  All arithmetic is exact; there
is no floating point in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .errors import (
    FitError,
    InsufficientDataError,
    PeriodNotFoundError,
    Record,
    ValidationMismatchError,
)
from .linalg import divisors, insert_row


def poly_eval(coeffs, x):
    """Evaluate ascending-power coefficients at x (Horner), exactly.

    Integer coefficients give an int; ``Fraction`` ones give a ``Fraction``.
    """
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def scaled(coeffs) -> tuple[list[int], int]:
    """Exact rational coefficients as integers over their least common
    denominator: (a, den) with coeffs[j] = a[j] / den."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _interpolate_scaled(points) -> tuple[list[int], int]:
    """Integer coefficients and a common denominator of the interpolant.

    Through (x, y) pairs with distinct integer x and exact rational y:
    returns (a, scale) with the polynomial sum(a[j] * x^j) / scale.  The
    values are scaled by their common denominator and the Vandermonde
    system is solved by ``insert_row``; with full rank every echelon row
    is e * u_j = rhs, one per coefficient.
    """
    size = len(points)
    den = lcm(*(y.denominator for _, y in points))
    echelon: list = []
    for x, y in points:
        row = [x ** j for j in range(size)]
        echelon = insert_row(row, y.numerator * (den // y.denominator),
                             echelon)
    pivots = lcm(*(erow[col] for col, erow, _ in echelon))
    coeffs = [0] * size
    for col, erow, rhs in echelon:
        coeffs[col] = rhs * (pivots // erow[col])
    return coeffs, pivots * den


def interpolate(points) -> tuple[Fraction, ...]:
    """Interpolating polynomial through (x, y) pairs, ascending coefficients."""
    coeffs, scale = _interpolate_scaled(points)
    return tuple(Fraction(a, scale) for a in coeffs)


class Quasipolynomial(Record, frozen=True):
    """p constituent polynomials; f(n) = constituent[n mod p](n).

    Constituents are stored in residue order with ascending-power exact
    rational coefficients, all padded to the common degree.  A frozen
    value: the result of a fit (``fit_values``) or its ``reduced`` form.
    """

    __slots__ = ("degree", "period", "constituents")

    def __init__(self, degree: int, period: int,
                 constituents: tuple[tuple[Fraction, ...], ...]):
        if len(constituents) != period:
            raise ValueError("constituent count must equal the period")
        for c in constituents:
            if len(c) != degree + 1:
                raise ValueError("constituents must share the stated degree")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "constituents", constituents)

    def evaluate(self, n: int) -> Fraction:
        """f(n) for any integer n; n = -1 uses the last constituent.

        Horner runs on the constituent's integer coefficients (``scaled``);
        only the result is a ``Fraction``.
        """
        coeffs, den = scaled(self.constituents[n % self.period])
        return Fraction(poly_eval(coeffs, n), den)

    def reduced(self) -> "Quasipolynomial":
        """Smallest period dividing the stored one with identical behavior."""
        p = next(p for p in divisors(self.period)
                 if all(self.constituents[k] == self.constituents[k % p]
                        for k in range(self.period)))
        return Quasipolynomial(self.degree, p, self.constituents[:p])

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "period": self.period,
            "constituents": [[str(c) for c in cons]
                             for cons in self.constituents],
        }


def fit_values(values, period: int, degree: int) -> Quasipolynomial:
    """Interpolate each residue class exactly and validate on held-out rows.

    ``values`` maps integer n (negative n too) to an exact value, an int
    or a ``Fraction``.  Each residue class mod ``period`` must supply at
    least degree + 2 rows: its degree + 1 smallest n are the
    interpolation nodes and every larger n is a validation row.  Each
    class is solved in integers (values scaled by their common
    denominator) and checked against its held-out rows in integers; only
    the returned coefficients are ``Fraction``.  Any validation mismatch
    raises, with the residuals (value, predicted) attached.
    """
    constituents = []
    for k in range(period):
        ns = sorted(n for n in values if n % period == k)
        if len(ns) < degree + 2:
            raise InsufficientDataError(
                f"residue {k} mod {period}: need {degree + 2} rows "
                f"({degree + 1} nodes + validation), have {len(ns)}")
        coeffs, scale = _interpolate_scaled(
            [(n, values[n]) for n in ns[:degree + 1]])
        residuals = {}
        for n in ns[degree + 1:]:
            value = values[n]
            predicted = poly_eval(coeffs, n)
            if predicted * value.denominator != value.numerator * scale:
                residuals[n] = (value, Fraction(predicted, scale))
        if residuals:
            raise ValidationMismatchError(
                f"period {period} rejected: {len(residuals)} held-out "
                f"mismatches in residue {k}", residuals=residuals)
        constituents.append(tuple(Fraction(a, scale) for a in coeffs))
    return Quasipolynomial(degree=degree, period=period,
                           constituents=tuple(constituents))


def check_ehrhart(qp: Quasipolynomial, q: int, area: Fraction) -> None:
    """Raise ``FitError`` unless qp has the Ehrhart form of a q-piece count.

    The unlabelled count of q pieces has degree 2q, and every constituent
    leads with (vol B)^q / q!.
    """
    if qp.degree != 2 * q:
        raise FitError(f"quasipolynomial has degree {qp.degree}, "
                       f"expected {2 * q}")
    lead = area ** q / factorial(q)
    for k, cons in enumerate(qp.constituents):
        if cons[-1] != lead:
            raise FitError(
                f"constituent {k} leads with {cons[-1]}, expected {lead}; "
                "wrong degree or corrupted counts")


def fit(table, period: int) -> Quasipolynomial:
    """Fit a count table's unlabelled rows at degree 2q, then check their
    Ehrhart form.  The labelled count is q! times the result."""
    fitted = fit_values(table.rows, period, 2 * table.q)
    check_ehrhart(fitted, table.q, table.board.area)
    return fitted


def detect_period(table, p_max: int,
                  denominator_bound: int | None = None) -> Quasipolynomial:
    """The degree-2q fit of the unlabelled rows at the smallest period
    <= p_max where it validates; its ``period`` is the detected one.

    When a denominator bound is supplied the search is restricted to its
    divisors (the quasipolynomial period divides the inside-out
    denominator).  The Ehrhart form is not checked (see ``fit``).
    """
    if denominator_bound is not None:
        candidates = [p for p in divisors(denominator_bound) if p <= p_max]
    else:
        candidates = list(range(1, p_max + 1))
    failures = []
    for p in candidates:
        try:
            return fit_values(table.rows, p, 2 * table.q)
        except (ValidationMismatchError, InsufficientDataError) as exc:
            failures.append(f"p={p}: {exc}")
    raise PeriodNotFoundError(
        "no candidate period fits the table: " + "; ".join(failures))


def coefficient(qp: Quasipolynomial, i: int) -> list[Fraction]:
    """Coefficient of n^(degree - i) in each constituent, residue order."""
    if not 0 <= i <= qp.degree:
        raise IndexError(f"coefficient index {i} out of range 0..{qp.degree}")
    return [cons[qp.degree - i] for cons in qp.constituents]


def types_count(qp: Quasipolynomial) -> int:
    """Number of combinatorial configuration types: the value at n = -1.

    Uses the last constituent.  A non-integer result means the fit is
    inconsistent and is reported as such.
    """
    value = qp.evaluate(-1)
    if value.denominator != 1:
        raise FitError(f"type count evaluated to non-integer {value}; "
                       "fit inconsistency")
    return int(value)


def pretty(qp: Quasipolynomial) -> str:
    """Human-readable form; period 2 renders as {average} + (-1)^n (half-difference)."""
    if qp.period == 1:
        return _poly_str(qp.constituents[0])
    if qp.period == 2:
        even, odd = qp.constituents
        avg = tuple((a + b) / 2 for a, b in zip(even, odd))
        alt = tuple((a - b) / 2 for a, b in zip(even, odd))
        out = "{" + _poly_str(avg) + "}"
        if any(alt):
            out += " + (-1)^n [" + _poly_str(alt) + "]"
        return out
    lines = [f"period {qp.period}:"]
    for k, cons in enumerate(qp.constituents):
        lines.append(f"  n = {k} mod {qp.period}:  {_poly_str(cons)}")
    return "\n".join(lines)


def _poly_str(coeffs) -> str:
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if power == 0:
            body = str(c)
        else:
            v = "n" if power == 1 else f"n^{power}"
            if c == 1:
                body = v
            elif c.denominator == 1:
                body = f"{c.numerator}{v}"
            elif c.numerator == 1:
                body = f"{v}/{c.denominator}"
            else:
                body = f"{c.numerator}{v}/{c.denominator}"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out
