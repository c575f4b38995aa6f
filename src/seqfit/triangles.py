"""Worpitzky number triangles and Stirling numbers of the second kind.

Two triangles are served:

* MWNT, the Mirrored Worpitzky Number Triangle (OEIS A028246), with entries
  (k-1)! * S(n,k), computed as (1/k) * sum_{i=0}^{k} (-1)^(k-i) C(k,i) i^n.
* AWNT, the Alternative Worpitzky Triangle (OEIS A019538), with entries
  k! * S(n,k), computed as sum_{i=0}^{k} (-1)^(k-i) C(k,i) i^n.

Indexing is 1-based (n, k) matching the printed tables; entries with n < k
are 0 and are not stored.  The signed binomial-power sum is the per-cell
definition; whole tables scale Stirling rows built by recurrence and check
their last row against the main diagonal of a difference table of powers.
"""
from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from itertools import accumulate, islice
from math import factorial
from operator import mul
from threading import Lock

from .difftable import _difference_rows
from .errors import DomainError, InternalConsistencyError
from .numeric import binomial


class TriangleKind(Enum):
    MWNT = "mwnt"
    AWNT = "awnt"
    STIRLING2 = "stirling2"


def _signed_power_sum(n: int, k: int) -> int:
    # sum_{i=0}^{k} (-1)^(k-i) C(k,i) i^n with 0^n = 0 for n >= 1
    total = 0
    for i in range(k + 1):
        term = binomial(k, i) * i**n
        total += term if (k - i) % 2 == 0 else -term
    return total


def awnt(n: int, k: int) -> int:
    """AWNT(n, k) = k! * S(n, k); 0 for n < k."""
    if n < 1 or k < 1:
        raise DomainError(f"triangle cells need n >= 1, k >= 1, got ({n}, {k})")
    return _signed_power_sum(n, k) if n >= k else 0


def mwnt(n: int, k: int) -> int:
    """MWNT(n, k) = (k-1)! * S(n, k) = AWNT(n, k) / k; 0 for n < k."""
    return awnt(n, k) // k


def stirling_rows(max_n: int) -> Iterator[tuple[int, ...]]:
    """Yield the rows S(n, 0..n) for n = 0..max_n by S(n,k) = k*S(n-1,k) + S(n-1,k-1)
    (Graham, Knuth and Patashnik, Concrete Mathematics, section 6.1)."""
    row = (1,)
    yield row
    for n in range(1, max_n + 1):
        row = (0, *(k * row[k] + row[k - 1] for k in range(1, n)), 1)
        yield row


def _stirling_columns(max_n: int) -> tuple[tuple[int, ...], ...]:
    """The rows of stirling_rows read down each column:
    (S(k, k), S(k+1, k), ..., S(max_n, k)) for k = 0..max_n."""
    rows = tuple(stirling_rows(max_n))
    return tuple(tuple(row[k] for row in rows[k:]) for k in range(max_n + 1))


# Columns down to a row n < STIRLING_CACHE_ROWS are kept once built: a fit of
# degree d reads columns 0..d+s down to row d+s on every call, and they depend
# on nothing else.  The cache holds the deepest row asked for so far, no more;
# 128 columns hold about 0.5 MiB of ints.  It only grows, under the lock, and
# each growth rebuilds the columns and rebinds a new tuple, so a reader without
# the lock sees either the old table or the grown one, never a half-built one.
STIRLING_CACHE_ROWS = 128
_stirling_cache: tuple[tuple[int, ...], ...] = ()
_stirling_cache_lock = Lock()


def stirling_table(max_n: int) -> tuple[tuple[int, ...], ...]:
    """S(n, k) for n <= N, by columns: table[k] = (S(k, k), S(k+1, k), ..., S(N, k))
    for k = 0..N, N >= max_n.  Below STIRLING_CACHE_ROWS it is the shared cache,
    whose N is the deepest row asked for so far; above it, built fresh to N = max_n."""
    global _stirling_cache
    table = _stirling_cache
    if max_n < len(table):
        return table
    if max_n >= STIRLING_CACHE_ROWS:
        return _stirling_columns(max_n)
    with _stirling_cache_lock:
        if max_n >= len(_stirling_cache):
            _stirling_cache = _stirling_columns(max_n)
        return _stirling_cache


def stirling2(n: int, k: int) -> int:
    """S(n, k): from the shared cache of stirling_table for n < STIRLING_CACHE_ROWS,
    else computed alone as AWNT(n, k) / k!."""
    if n < 0 or k < 0:
        raise DomainError("stirling2 requires nonnegative arguments")
    if k > n:
        return 0
    if n < STIRLING_CACHE_ROWS:
        return stirling_table(n)[k][n - k]
    return awnt(n, k) // factorial(k) if k else 0


def _weights(kind: TriangleKind, max_n: int) -> tuple[list[int], list[int]]:
    """(0!..max_n!, entry / S(n, k) for k = 1..max_n): k!, (k-1)! or 1 by kind."""
    if max_n < 1:
        raise DomainError(f"max_n must be >= 1, got {max_n}")
    factorials = list(accumulate(range(1, max_n + 1), mul, initial=1))
    return factorials, {
        TriangleKind.MWNT: factorials[:-1],
        TriangleKind.AWNT: factorials[1:],
        TriangleKind.STIRLING2: [1] * max_n,
    }[kind]


def _scaled_rows(kind: TriangleKind, max_n: int, first: int) -> Iterator[tuple[int, ...]]:
    weights = _weights(kind, max_n)[1]
    return (tuple(map(mul, weights, row[1:])) for row in islice(stirling_rows(max_n), first, None))


def _checked(kind: TriangleKind, row: tuple[int, ...]) -> tuple[int, ...]:
    """row, the last of its triangle, checked against AWNT row n: the main
    diagonal of the difference table of 0^n, 1^n, ..., n^n."""
    n = len(row)
    factorials, weights = _weights(kind, n)
    diagonal = (r[0] for r in islice(_difference_rows([i**n for i in range(n + 1)]), 1, None))
    for k, (value, cell) in enumerate(zip(row, diagonal), start=1):
        if factorials[k] * value != weights[k - 1] * cell:  # k! * entry = weight * AWNT(n, k)
            raise InternalConsistencyError(
                f"{kind.value} self-check failed at (n={n}, k={k}): {value}")
    return row


def triangle_rows(kind: TriangleKind, max_n: int) -> Iterator[tuple[int, ...]]:
    """Rows 1..max_n (row n holds k = 1..n) one at a time, each scaled from a
    row of stirling_rows, so O(max_n) cells are held; unchecked (see last_row)."""
    return _scaled_rows(kind, max_n, 1)


def last_row(kind: TriangleKind, max_n: int) -> tuple[int, ...]:
    """Row max_n, checked, holding one Stirling row at a time.  No column shrinks
    as n grows (T(n,k) = k*T(n-1,k) + ...), so it holds the triangle's widest cell."""
    return _checked(kind, next(_scaled_rows(kind, max_n, max_n)))


def cells_before_print(kind: TriangleKind, max_n: int, limit: int) -> Iterator[int]:
    """Cells of row max_n to format before any row prints, the widest last.
    Under a digit limit (limit > 0), cells computed alone come first, so a size
    past it fails before any Stirling row is built: k = 2 (at least 2^(max_n-1) - 1,
    so past 4*limit + 1 rows 2^(4*limit), of over limit digits, stands in for it),
    the diagonal max_n! or (max_n-1)!, then the cell near the row's peak, which
    passes 4300 digits at the same row as the widest: k = 0.721*max_n, near
    max_n/(2 ln 2) (rows 1485 AWNT, 1486 MWNT), or max_n // 6 (1982 stirling2)."""
    if limit:
        stirling = kind is TriangleKind.STIRLING2
        cell = stirling2 if stirling else awnt if kind is TriangleKind.AWNT else mwnt
        yield cell(max_n, min(2, max_n)) if max_n <= 4 * limit + 1 else 1 << 4 * limit
        if not stirling:
            yield factorial(max_n - (kind is TriangleKind.MWNT))
        yield cell(max_n, max(1, max_n // 6 if stirling else max_n * 721 // 1000))
    yield max(last_row(kind, max_n))


def build_triangle(kind: TriangleKind, max_n: int) -> tuple[tuple[int, ...], ...]:
    """Rows 1..max_n (rows[n-1] holds k = 1..n); checks the last as last_row does."""
    rows = tuple(triangle_rows(kind, max_n))
    _checked(kind, rows[-1])
    return rows
