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


def _first_constant_row(rows, min_witnesses: int):
    """Scan rows down to the shallowest constant one with >= min_witnesses
    entries; return the leading entries of the rows scanned and that row."""
    diagonal = []
    for row in rows:
        if len(row) < min_witnesses:
            break
        diagonal.append(row[0])
        if row.count(row[0]) == len(row):
            return diagonal, row
    deepest = len(diagonal) - 1
    raise NotPolynomialError(
        f"no constant row with >= {min_witnesses} entries down to row {deepest}; "
        "not polynomial within the observed window",
        deepest_row=deepest,
    )


def detect_degree(table: DifferenceTable, min_witnesses: int = 2) -> DegreeReport:
    """Find the shallowest constant row with at least min_witnesses entries.

    Raises NotPolynomialError (carrying the deepest row inspected) when no
    such row exists within the observed window.
    """
    _check_degree_args(len(table.rows[0]), min_witnesses)
    diagonal, row = _first_constant_row(table.rows, min_witnesses)
    return DegreeReport(degree=len(diagonal) - 1, constant_row_value=row[0], witnesses=len(row))


def scan_degree(values, min_witnesses: int = 2) -> tuple[DegreeReport, tuple[Rational, ...]]:
    """detect_degree(build_table(values)) and main-diagonal entries 0..degree,
    building rows only down to the first constant one.

    Holds one row at a time: O(m) memory and O(m * (degree + 1)) integer
    operations for m values; non-polynomial input still scans every row.
    """
    values = tuple(values)
    _check_degree_args(len(values), min_witnesses)
    denominator, ints = common_denominator(values)
    diagonal, row = _first_constant_row(_difference_rows(ints), min_witnesses)
    report = DegreeReport(
        degree=len(diagonal) - 1,
        constant_row_value=Rational(row[0], denominator),
        witnesses=len(row),
    )
    return report, tuple(Rational(n, denominator) for n in diagonal)
