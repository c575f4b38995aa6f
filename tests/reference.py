"""Test references for seqfit, kept outside the package.

build_table, detect_degree and diagonal_direct are slow and plainly correct:
they work on the whole difference table of Fractions and share no code with
seqfit.difftable, so a test that compares them with the library compares two
implementations.  scan_degree and compose_affine are Fraction-level views of
the library's integer kernels (difftable.scan_degree_scaled and
solver._compose), for tests that state their cases in Fractions.
"""
from collections import namedtuple
from fractions import Fraction
from math import comb, lcm

from seqfit import solver
from seqfit.difftable import DegreeReport, scan_degree_scaled
from seqfit.errors import DomainError, NotPolynomialError
from seqfit.numeric import common_denominator


class DifferenceTable(namedtuple("DifferenceTable", "rows")):
    # rows: tuple[tuple[Fraction, ...], ...], row 0 the values
    __slots__ = ()

    @property
    def main_diagonal(self) -> tuple:
        return tuple(row[0] for row in self.rows)


def build_table(values) -> DifferenceTable:
    """Every row of successive differences, down to the single-entry row.

    Rows are differenced as integer numerators over the lcm of the value
    denominators, and each cell becomes a Fraction once; subtracting Fractions
    row by row took 1.3x as long on 65-130 values of degree up to 40.
    """
    values = [Fraction(v) for v in values]
    if not values:
        raise DomainError("sequence must have at least one value")
    den = lcm(*(v.denominator for v in values))
    rows = [[v.numerator * (den // v.denominator) for v in values]]
    while len(rows[-1]) > 1:
        rows.append([b - a for a, b in zip(rows[-1], rows[-1][1:])])
    return DifferenceTable(rows=tuple(tuple(Fraction(n, den) for n in row) for row in rows))


def detect_degree(table: DifferenceTable, min_witnesses: int = 2) -> DegreeReport:
    """The shallowest constant row of table with at least min_witnesses entries.

    Raises NotPolynomialError, carrying the deepest row with min_witnesses
    entries (-1 when there is none), when no such row is constant.
    """
    if min_witnesses < 2:
        raise DomainError("min_witnesses must be >= 2")
    if len(table.rows[0]) < 2:
        raise DomainError("degree detection needs a sequence of length >= 2")
    deepest = -1
    for depth, row in enumerate(table.rows):
        if len(row) < min_witnesses:
            break
        if all(v == row[0] for v in row):
            return DegreeReport(degree=depth, constant_row_value=row[0], witnesses=len(row))
        deepest = depth
    raise NotPolynomialError(
        f"no constant row with >= {min_witnesses} entries down to row {deepest}; "
        "not polynomial within the observed window",
        deepest_row=deepest,
    )


def diagonal_direct(values, k: int) -> Fraction:
    """k-th main diagonal entry by the closed binomial form,
    D_k = sum_{i=0}^{k} (-1)^(k-i) C(k,i) a_i, without building the table."""
    values = tuple(values)
    if not 0 <= k < len(values):
        raise DomainError(f"diagonal index {k} out of range for length {len(values)}")
    return sum((comb(k, i) * Fraction(values[i]) * (-1) ** (k - i) for i in range(k + 1)),
               Fraction(0))


def scan_degree(values, min_witnesses: int = 2):
    """scan_degree_scaled on Fractions: its DegreeReport and main-diagonal
    entries 0..degree as Fractions."""
    denominator, ints = common_denominator(tuple(values))
    report, diagonal = scan_degree_scaled(denominator, ints, min_witnesses=min_witnesses)
    return report, tuple(Fraction(n, denominator) for n in diagonal)


def compose_affine(poly_in_g: solver.Polynomial, map: solver.AffineMap) -> solver.Polynomial:
    """solver._compose on a Polynomial: p(g(x)) over x with g(x) = (x - x0)/h."""
    grid = solver._grid(map.x0, map.h)
    return solver._polynomial(*solver._compose(common_denominator(poly_in_g.coefficients), grid))
