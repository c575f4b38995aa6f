"""Difference rows, main diagonals, and degree detection.

Row 0 holds the sequence values; row r+1 holds successive differences of
row r.  The main diagonal is the leftmost entry of each row.  A sequence
generated by a degree-d polynomial on a constant-step grid has a constant
row d, which is how the degree is detected.

Every entry of the table is an integer multiple of 1/L, where L is the lcm
of the input denominators, so rows are differenced as plain ints over L and
only turned back into Rationals where a caller sees them.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate
from operator import add, mul, sub

from .errors import DomainError, NotPolynomialError
from .numeric import Rational


# degree: int; constant_row_value: Rational; witnesses: int, the entries of that row
DegreeReport = namedtuple("DegreeReport", "degree constant_row_value witnesses")


def _difference_rows(row: list[int]) -> Iterator[list[int]]:
    """Yield row, then each row of its successive differences, down to the first constant
    one (a one-entry row is, so the rows always end): every row below it holds only 0s."""
    yield row
    while row.count(row[0]) < len(row):
        row = list(map(sub, row[1:], row))
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


def _check_degree_args(length: int, min_witnesses: int):
    if not isinstance(min_witnesses, int):
        raise DomainError(f"min_witnesses must be an int, got {min_witnesses!r}")
    if min_witnesses < 2:
        raise DomainError("min_witnesses must be >= 2")
    if length < 2:
        raise DomainError("degree detection needs a sequence of length >= 2")


# The degree search's one tuning constant: past 2 * _PREFIX samples fit first
# guesses the degree from the first _PREFIX, and the scan screens its deepest row
# before any other.  On 250-500 samples of degree <= 5 (CPython 3.11, fit's time
# against the full scan) a prefix of 16 and of 32 both took 0.64-0.66, 64 took 0.69-0.71.
_PREFIX = 32


# The modulus of the deepest-row screen's first pass: a prime below 2**30, so each
# residue is one CPython digit and each product there is big times one digit.
_P = 1_000_000_007


@lru_cache(maxsize=8)
def _binomials_mod_p(n: int) -> tuple[int, ...]:
    """(-1)^j C(n, j) mod _P for j = 0..n // 2, for 0 < n < _P: C(n, j + 1) is
    C(n, j) (n - j) / (j + 1), negated at each step, with the inverse of each
    j + 1 mod _P from inv(i) = -(_P // i) inv(_P mod i), in O(n) small-int
    operations.  The cache holds n // 2 + 1 small ints per entry, memory
    linear in n."""
    k = n // 2
    inverse = [0, 1]
    for i in range(2, k + 1):
        inverse.append((_P - _P // i) * inverse[_P % i] % _P)
    residues = [1]
    for j in range(k):
        residues.append(-residues[-1] * (n - j) * inverse[j + 1] % _P)
    return tuple(residues)


def _deepest_row_may_be_constant(ints: list[int], min_witnesses: int, rest: bool = False) -> bool:
    """Screen row m - min_witnesses over ints, the deepest with min_witnesses
    entries, building no row: False proves it is not constant; True is no proof.

    The row is constant when its successive differences, the entries
    sum_j (-1)^(n-j) C(n, j) ints[i+j] (i < min_witnesses - 1) of row
    n = m - min_witnesses + 1, are all zero.  As C(n, j) = C(n, n-j), each is,
    up to its sign, one signed sum over j <= n // 2 of (-1)^j C(n, j) times
    ints[i+j] paired with ints[i+n-j], added when n is even and subtracted when
    n is odd: n // 2 + 1 integer products.  Sum i reads ints[i..i+n], so only
    the sums at the two ends, i = 0 and min_witnesses - 2, and at the other
    multiples of n + 1 are taken: together they read every sample, so one
    moved sample shows within min_witnesses/(n+1) + 2 sums, O(m) products.
    With rest set, the other sums are taken instead, and then True, after the
    screen's, proves the row constant.

    Each sum is taken first modulo the prime _P, with (-1)^j C(n, j) mod _P in
    place of (-1)^j C(n, j): a sum that is not 0 mod _P is not 0, so the row is
    not constant, with no exact binomial built.  Only a sum that is 0 mod _P is
    then taken exactly, with (-1)^j C(n, j) for j = 0..n // 2 built once, at
    the first such sum, so a sample moved by a multiple of _P still shows
    within those few sums.
    """
    n = len(ints) - min_witnesses + 1
    pair = sub if n % 2 else add
    last = min_witnesses - 2
    residues, exact = _binomials_mod_p(n), None
    screen = dict.fromkeys((0, last, *range(n + 1, last, n + 1)))
    for i in [i for i in range(last) if i not in screen] if rest else screen:
        # ints[i+j] paired with ints[i+n-j] for j <= n // 2; an even n's middle term meets the 0
        terms = list(map(pair, ints[i:i + n // 2 + 1], ints[i + n:i + n // 2:-1] + [0]))
        if sum(map(mul, residues, terms)) % _P:
            return False
        if exact is None:
            exact = [1]
            for j in range(n // 2):
                exact.append(-exact[-1] * (n - j) // (j + 1))
        if sum(map(mul, exact, terms)):
            return False
    return True


def scan_degree_scaled(denominator: int, ints: list[int],
                       min_witnesses: int = 2) -> tuple[DegreeReport, list[int]]:
    """The shallowest constant difference row with at least min_witnesses
    entries, and main-diagonal entries 0..degree, for values given as
    common_denominator(values) returns them, ints[i] = denominator * values[i];
    the diagonal entries are integers over the same denominator.

    One loop walks the rows one at a time down to the first constant one, and
    that walk alone decides: O(m) memory and O(m * (degree + 1)) integer
    operations for m values.  A constant row makes every deeper row constant,
    so if row m - min_witnesses, the deepest the walk could reach, is not
    constant, no row is.  Past 2 * _PREFIX values the deepest-row screen runs
    before the loop, and such input costs O(m) products when the screen sees
    it.  The screen's other sums run inside the loop at row
    min_witnesses * n // (2 * m), n = m - min_witnesses + 1, when the walk has
    built about as many cells as they take products in a pass: a row that is
    not constant costs O(min_witnesses * n) operations at most, as taking
    every sum does, and polynomial input O(m * (degree + 1)).  Raises
    NotPolynomialError, carrying the deepest row with min_witnesses entries
    (-1 when there is none), when no row is constant.
    """
    m = len(ints)
    _check_degree_args(m, min_witnesses)
    screened = m > 2 * _PREFIX and m >= min_witnesses
    if not screened or _deepest_row_may_be_constant(ints, min_witnesses):
        rest_at = min_witnesses * (m - min_witnesses + 1) // (2 * m) if screened else -1
        diagonal = []
        for depth, row in enumerate(_difference_rows(ints)):
            if len(row) < min_witnesses or depth == rest_at and \
                    not _deepest_row_may_be_constant(ints, min_witnesses, rest=True):
                break
            diagonal.append(row[0])
        else:
            return DegreeReport(degree=len(diagonal) - 1, witnesses=len(row),
                                constant_row_value=Rational(row[0], denominator)), diagonal
    deepest = max(m - min_witnesses, -1)
    raise NotPolynomialError(
        f"no constant row with >= {min_witnesses} entries down to row {deepest}; "
        "not polynomial within the observed window",
        deepest_row=deepest,
    )


def _degree_candidates(denominator: int, ints: list[int],
                       min_witnesses: int) -> Iterator[tuple[DegreeReport, list[int]]]:
    """(report, diagonal) pairs, as scan_degree_scaled returns them, for fit to
    check against every sample in turn: with m > 2 * _PREFIX values, first a
    guess read off the first _PREFIX values only, then scan_degree_scaled's
    answer.

    The guess is the last of the difference rows of ints[:_PREFIX], at most
    _PREFIX rows of at most _PREFIX entries, when it has at least 2 entries:
    the first constant row among them, at depth d.  It is yielded only when
    m - d >= min_witnesses, with m - d witnesses.  It is exact whenever its
    polynomial reproduces all m samples.  The prefix rows are prefixes of the
    full rows, so then full row d is constant with m - d entries (Newton's
    forward formula), and every full row above d holds a non-constant prefix
    row of at least 3 entries: the full scan would stop at row d with the
    same diagonal.  When m - d < min_witnesses and the samples do lie on the
    guess's polynomial, row m - min_witnesses < d is not constant: the scan's
    screen, or its loop, which stops above row d, rejects the input in O(m * d).
    """
    _check_degree_args(len(ints), min_witnesses)
    m = len(ints)
    if m > 2 * _PREFIX:
        rows = list(_difference_rows(ints[:_PREFIX]))
        d = len(rows) - 1
        if len(rows[-1]) >= 2 and m - d >= min_witnesses:
            yield DegreeReport(degree=d, constant_row_value=Rational(rows[-1][0], denominator),
                               witnesses=m - d), [row[0] for row in rows]
    yield scan_degree_scaled(denominator, ints, min_witnesses)
