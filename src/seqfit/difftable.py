"""Difference tables, main diagonals, and degree detection.

Row 0 holds the sequence values; row r+1 holds successive differences of
row r.  The main diagonal is the leftmost entry of each row.  A sequence
generated by a degree-d polynomial on a constant-step grid has a constant
row d, which is how the degree is detected.

Every entry of the table is an integer multiple of 1/L, where L is the lcm
of the input denominators, so rows are differenced as plain ints over L and
only turned back into Rationals where a caller sees them.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from .errors import DomainError, NotPolynomialError
from .numeric import Rational, binomial, common_denominator


@dataclass(frozen=True)
class DifferenceTable:
    rows: tuple[tuple[Rational, ...], ...]

    @property
    def main_diagonal(self) -> tuple[Rational, ...]:
        return tuple(row[0] for row in self.rows)


@dataclass(frozen=True)
class DegreeReport:
    degree: int
    constant_row_value: Rational
    witnesses: int


def _difference_rows(row: list[int]) -> Iterator[list[int]]:
    """Yield row, then each row of its successive differences, down to one entry."""
    yield row
    while len(row) > 1:
        row = [b - a for a, b in zip(row, row[1:])]
        yield row


def _newton_values(diagonal: list[int], m: int) -> list[int]:
    """Row 0, m entries long, of the difference table with main diagonal
    `diagonal` and a constant last row: Newton's forward formula, the inverse
    of _difference_rows, as d = len(diagonal) - 1 passes of running sums."""
    d = len(diagonal) - 1
    values = [diagonal[-1]] * (m - d)
    for delta in reversed(diagonal[:-1]):
        values = accumulate(values, initial=delta)
    return list(values)


def build_table(values) -> DifferenceTable:
    """Build all rows down to the single-entry row."""
    values = tuple(values)
    if not values:
        raise DomainError("sequence must have at least one value")
    denominator, ints = common_denominator(values)
    return DifferenceTable(rows=tuple(
        tuple(Rational(n, denominator) for n in row) for row in _difference_rows(ints)
    ))


def diagonal_direct(values, k: int) -> Rational:
    """k-th main diagonal entry via the closed binomial form.

    D_k = sum_{i=0}^{k} (-1)^(k-i) C(k,i) a_i.  Independent of build_table;
    used to cross-check table construction.
    """
    values = tuple(values)
    if not 0 <= k < len(values):
        raise DomainError(f"diagonal index {k} out of range for length {len(values)}")
    total = Rational(0)
    for i in range(k + 1):
        term = binomial(k, i) * values[i]
        total += term if (k - i) % 2 == 0 else -term
    return total


def _check_degree_args(length: int, min_witnesses: int):
    if min_witnesses < 2:
        raise DomainError("min_witnesses must be >= 2")
    if length < 2:
        raise DomainError("degree detection needs a sequence of length >= 2")


def _not_polynomial(min_witnesses: int, deepest: int) -> NotPolynomialError:
    return NotPolynomialError(
        f"no constant row with >= {min_witnesses} entries down to row {deepest}; "
        "not polynomial within the observed window",
        deepest_row=deepest,
    )


def _first_constant_row(rows, min_witnesses: int):
    """Scan rows down to the shallowest constant one with >= min_witnesses
    entries; return the leading entries of the rows scanned and that row,
    or None in its place when no row is constant."""
    diagonal = []
    for row in rows:
        if len(row) < min_witnesses:
            break
        diagonal.append(row[0])
        if row.count(row[0]) == len(row):
            return diagonal, row
    return diagonal, None


def _scan(rows, min_witnesses: int):
    """_first_constant_row, raising NotPolynomialError when no row is constant."""
    diagonal, row = _first_constant_row(rows, min_witnesses)
    if row is None:
        raise _not_polynomial(min_witnesses, len(diagonal) - 1)
    return diagonal, row


# The degree search's one tuning constant: past 2 * _PREFIX samples fit first
# guesses the degree from the first _PREFIX, and the scan tests its deepest row
# before any other.  On 250-500 samples of degree <= 5 (CPython 3.11, fit's time
# against the full scan) a prefix of 16 and of 32 both took 0.64-0.66, 64 took 0.69-0.71.
_PREFIX = 32


def _deepest_row_is_constant(ints: list[int], min_witnesses: int) -> bool:
    """Whether row m - min_witnesses over ints, the deepest with min_witnesses
    entries, is constant, without building the rows above it.

    It is when its successive differences, the entries
    sum_j (-1)^(n-j) C(n, j) ints[i+j] (i < min_witnesses - 1) of row
    n = m - min_witnesses + 1, are all zero: O(min_witnesses * m) integer
    multiply-adds, with the binomials built incrementally.
    """
    n = len(ints) - min_witnesses + 1
    signed = [1]  # (-1)^j C(n, j) for j = 0..n: the sums up to a common sign
    for j in range(n):
        signed.append(-signed[-1] * (n - j) // (j + 1))
    return not any(sum(map(mul, signed, ints[i:])) for i in range(min_witnesses - 1))


def detect_degree(table: DifferenceTable, min_witnesses: int = 2) -> DegreeReport:
    """Find the shallowest constant row with at least min_witnesses entries.

    Raises NotPolynomialError (carrying the deepest row inspected) when no
    such row exists within the observed window.
    """
    _check_degree_args(len(table.rows[0]), min_witnesses)
    diagonal, row = _scan(table.rows, min_witnesses)
    return DegreeReport(degree=len(diagonal) - 1, constant_row_value=row[0], witnesses=len(row))


def scan_degree(values, min_witnesses: int = 2) -> tuple[DegreeReport, tuple[Rational, ...]]:
    """detect_degree(build_table(values)) and main-diagonal entries 0..degree,
    building rows only down to the first constant one.

    Holds one row at a time: O(m) memory and O(m * (degree + 1)) integer
    operations for m values.  With m > 2 * _PREFIX values, one direct test
    of the deepest row with min_witnesses entries, O(m * min_witnesses)
    work, first decides whether any row is constant, so non-polynomial
    input costs that, not O(m^2).
    """
    denominator, ints = common_denominator(tuple(values))
    report, diagonal = scan_degree_scaled(denominator, ints, min_witnesses=min_witnesses)
    return report, tuple(Rational(n, denominator) for n in diagonal)


def scan_degree_scaled(denominator: int, ints: list[int],
                       min_witnesses: int = 2) -> tuple[DegreeReport, list[int]]:
    """scan_degree over values given as common_denominator(values) returns
    them, ints[i] = denominator * values[i]; the diagonal entries it returns
    are integers over the same denominator.

    Past 2 * _PREFIX values it first tests row m - min_witnesses, the deepest
    it could reach: a constant row makes every deeper row constant, so if that
    row is not constant, no row is.  Up to that it builds at most m(m+1)/2 cells.
    """
    _check_degree_args(len(ints), min_witnesses)
    m = len(ints)
    if m > 2 * _PREFIX and m >= min_witnesses and not _deepest_row_is_constant(ints, min_witnesses):
        raise _not_polynomial(min_witnesses, m - min_witnesses)
    diagonal, row = _scan(_difference_rows(ints), min_witnesses)
    report = DegreeReport(
        degree=len(diagonal) - 1,
        constant_row_value=Rational(row[0], denominator),
        witnesses=len(row),
    )
    return report, diagonal


def _degree_candidates(denominator: int, ints: list[int],
                       min_witnesses: int) -> Iterator[tuple[DegreeReport, list[int]]]:
    """(report, diagonal) pairs, as scan_degree_scaled returns them, for fit to
    check against every sample in turn: with m > 2 * _PREFIX values, first a
    guess read off the first _PREFIX values only, then scan_degree_scaled's
    answer.

    The guess is the first constant row, at depth d, among the difference
    rows of ints[:_PREFIX] with at least 2 entries, and is yielded only when
    m - d >= min_witnesses, with m - d witnesses.  It is exact whenever its
    polynomial reproduces all m samples.  The prefix rows are prefixes of the
    full rows, so then full row d is constant with m - d entries (Newton's
    forward formula), and every full row above d holds a non-constant prefix
    row of at least 3 entries: the full scan would stop at row d with the
    same diagonal.  When m - d < min_witnesses and the samples do lie on the
    guess's polynomial, row m - min_witnesses < d is not constant, and
    scan_degree_scaled's up-front test of that row rejects the input at once.
    """
    _check_degree_args(len(ints), min_witnesses)
    m = len(ints)
    if m > 2 * _PREFIX:
        diagonal, row = _first_constant_row(_difference_rows(ints[:_PREFIX]), 2)
        d = len(diagonal) - 1
        if row is not None and m - d >= min_witnesses:
            yield DegreeReport(degree=d, constant_row_value=Rational(row[0], denominator),
                               witnesses=m - d), diagonal
    yield scan_degree_scaled(denominator, ints, min_witnesses)
