"""Test references for seqfit, kept outside the package.

build_table, detect_degree and diagonal_direct are slow and plainly correct:
they work on the whole difference table of Fractions and share no code with
seqfit.difftable, so a test that compares them with the library compares two
implementations.  vandermonde_gauss is the same kind of reference for the
integer elimination of seqfit.oracle.vandermonde_fit.  newton_fit is an
O(m^2) interpolation oracle, cheap enough for the high degrees that
vandermonde_fit's O(m^3) elimination does not reach.  scan_degree and
compose_affine are Fraction-level views of the library's integer kernels
(difftable.scan_degree_scaled and solver._compose), for tests that state
their cases in Fractions.  argparse_read reads a command line with argparse,
as `seqfit` did before seqfit.cli._parse, for tests of that reader.
"""
import argparse
import io
from collections import namedtuple
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb, factorial, lcm

from seqfit import cli, solver
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


def vandermonde_gauss(points) -> solver.Polynomial:
    """oracle.vandermonde_fit by Fraction Gaussian elimination with partial
    pivoting on the Vandermonde system; trailing zero coefficients are trimmed."""
    points = [(Fraction(x), Fraction(y)) for x, y in points]
    if not points:
        raise DomainError("vandermonde_fit needs at least one point")
    xs = [p[0] for p in points]
    if len(set(xs)) != len(xs):
        raise DomainError("duplicate x values make the Vandermonde system singular")

    m = len(points)
    aug = [[x**j for j in range(m)] + [y] for x, y in points]
    for col in range(m):
        pivot = max(range(col, m), key=lambda r: abs(aug[r][col]))
        if aug[pivot][col] == 0:
            raise DomainError("singular Vandermonde system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(col + 1, m):
            factor = aug[r][col] / aug[col][col]
            for c in range(col, m + 1):
                aug[r][c] -= factor * aug[col][c]
    coeffs = [Fraction(0)] * m
    for r in range(m - 1, -1, -1):
        acc = sum((aug[r][c] * coeffs[c] for c in range(r + 1, m)), Fraction(0))
        coeffs[r] = (aug[r][m] - acc) / aug[r][r]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return solver.Polynomial(coefficients=tuple(coeffs))


def newton_fit(x0, h, values) -> tuple:
    """The polynomial of least degree through values on the grid x0 + i*h,
    as its power-basis coefficients in x, ascending, trailing zeros trimmed.

    Newton's forward-difference formula, with t = (x - x0)/h,
        p(x) = sum_j (Delta^j y_0 / j!) * prod_{k<j} (t - k),
    expanded by Horner's rule, p = c_0 + t*(c_1 + (t - 1)*(c_2 + ...)), each
    factor t - k being x/h - (x0/h + k).  Fractions throughout; no Stirling
    numbers, no back-substitution and no seqfit code.
    """
    x0, h = Fraction(x0), Fraction(h)
    row, deltas = [Fraction(v) for v in values], []
    while row:
        deltas.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    coeffs = [Fraction(0)]
    for j in range(len(deltas) - 1, -1, -1):  # coeffs = coeffs * (t - j) + Delta^j y_0 / j!
        shift = x0 / h + j
        coeffs = [prev / h - shift * cur for cur, prev in zip(coeffs + [0], [0] + coeffs)]
        coeffs[0] += deltas[j] / factorial(j)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class _ArgparseError(Exception):
    """A usage error from the parser named prog."""

    def __init__(self, message, prog):
        super().__init__(message)
        self.prog = prog


def argparse_parser():
    """The `seqfit` parser that read every command line argparse read: built from
    cli._COMMANDS, options spelled in full, `--help` the only help option, a
    value of `--` kept, and errors raised as _ArgparseError."""

    class Store(argparse.Action):
        """argparse's default action, storing one value, except that the value
        `--` is kept: argparse drops it from `--start=--` and passes [] here
        (CPython 3.11), so it is converted and checked here."""

        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                values = parser._get_value(self, "--")
                parser._check_value(self, values)
            setattr(namespace, self.dest, values)

    class Parser(argparse.ArgumentParser):
        def __init__(self, **kwargs):
            super().__init__(allow_abbrev=False, add_help=False, **kwargs)
            self.register("action", None, Store)
            self.add_argument("--help", action="help", help="Show this message and exit.")

        def error(self, message):
            raise _ArgparseError(message, self.prog)

    def typed(check):
        def convert(text):
            try:
                return check(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return convert

    parser = Parser(prog="seqfit", formatter_class=argparse.RawDescriptionHelpFormatter,
                    description="""\
Recover exact polynomial coefficients from a sequence of values.

Examples:
  seqfit fit values.txt --start 0 --step 1        # grid 0, 1, 2, ...
  seqfit fit values.txt --start 1 --step 1 --convention start-one
  seqfit fit values.txt --start 3.3 --step 0.1    # arbitrary affine grid""")
    parser.add_argument("--version", action="version", version=f"seqfit, version {cli.__version__}",
                        help="Show the version and exit.")
    subparsers = parser.add_subparsers(title="commands", dest="command", metavar="COMMAND")
    for name, (_, description, takes_input, options) in cli._COMMANDS.items():
        sub = subparsers.add_parser(name, help=description, description=description)
        if takes_input:
            sub.add_argument("input_file", metavar="INPUT_FILE", nargs="?", default="-",
                             help="The values, or '-' for stdin (the default).")
        for flag, dest, default, check, required, help_ in options:
            if default is False:
                sub.add_argument(flag, dest=dest, action="store_true", help=help_)
            else:
                listed = isinstance(check, list)
                sub.add_argument(flag, dest=dest, default=default, required=required, help=help_,
                                 choices=check if listed else None,
                                 type=None if listed or check is None else typed(check))
    return parser


def _joined(argv):
    """argv with each option that takes a value joined to the word after it,
    `--start -1/2` as `--start=-1/2`, up to the first `--`."""
    valued = {option[0] for *_, options in cli._COMMANDS.values() for option in options
              if option[2] is not False}
    joined, words = [], iter(argv)
    for word in words:
        if word == "--":
            return [*joined, word, *words]
        value = next(words, None) if word in valued else None
        joined.append(word if value is None else f"{word}={value}")
    return joined


def argparse_read(argv):
    """What argparse made of argv: ("args", the namespace as a dict), ("printed",
    the --help or --version text) or ("error", the prog whose usage prints, message)."""
    parser = argparse_parser()
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            args, extra = parser.parse_known_args(_joined(argv))
    except SystemExit:
        return "printed", out.getvalue()
    except _ArgparseError as exc:
        return "error", exc.prog, str(exc)
    prog = "seqfit" if args.command is None else f"seqfit {args.command}"
    if extra:
        return "error", prog, f"unrecognized arguments: {' '.join(extra)}"
    if args.command is None:
        return "error", prog, "missing command"
    return "args", vars(args)
