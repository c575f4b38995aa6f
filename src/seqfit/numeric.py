"""Exact rational scalars: parsing, formatting, and binomial coefficients.

The universal scalar is ``fractions.Fraction``, re-exported as ``Rational``.
It already guarantees a positive denominator, canonical (reduced) form after
every operation, and 0/1 for zero, so no wrapper type is needed.  What this
module adds is the text grammar used by the CLI and file ingestion:

    value := '-'? digits ('.' digits)? | '-'? digits '/' digits

Decimals are converted exactly via powers of ten, never through binary
floating point.
"""
from __future__ import annotations

import math
import numbers
import re
from fractions import Fraction

Rational = Fraction

from .errors import DomainError, ScalarParseError, ZeroDenominatorError

_SCALAR_RE = re.compile(r"(-?\d+)(?:\.(\d+)|/(\d+))?\Z")  # the sign stays whole: -0.5 is -05/10


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # the grammar matched, so only CPython's int/str digit limit
        raise ScalarParseError(
            f"scalar with {len(digits.lstrip('-'))} digits exceeds the integer conversion limit"
        ) from None


def parse_scalar(text: str) -> Rational:
    """Parse an integer, fraction, or terminating decimal into a Rational.

    Raises ScalarParseError for malformed text or digits beyond CPython's
    int/str conversion limit, and ZeroDenominatorError for a fraction with
    denominator 0.
    """
    token = text.strip()
    m = _SCALAR_RE.match(token)
    if m is None:
        raise ScalarParseError(f"malformed scalar {token!r}")
    whole, frac, den = m.groups()
    if frac is not None:
        return Rational(_int(whole + frac), 10 ** len(frac))
    if den is None:
        return Rational(_int(whole))
    num, den = _int(whole), _int(den)
    if den == 0:
        raise ZeroDenominatorError(f"zero denominator in {token!r}")
    return Rational(num, den)


def common_denominator(values) -> tuple[int, list[int]]:
    """(L, numerators): the lcm L of the denominators of values, and each value times L.

    Raises DomainError for a value that is not an exact rational (an int or a
    Fraction, say): a float or a Decimal would be read as the binary or
    decimal fraction it stores, which is not what its text says.
    """
    for kind in set(map(type, values)):
        if not issubclass(kind, numbers.Rational):
            raise DomainError(f"values must be exact rationals (int or Fraction), not {kind.__name__}")
    ratios = [v.as_integer_ratio() for v in values]
    dens = {q for _, q in ratios}
    den = math.lcm(*dens)
    if den == 1:
        return 1, [p for p, _ in ratios]
    factor = {q: den // q for q in dens}  # one division per distinct denominator
    return den, [p * factor[q] for p, q in ratios]


def _pow10_scale(den: int) -> int | None:
    """Smallest f with den | 10**f, or None if den has other prime factors."""
    f = 0
    while den % 2 == 0:
        den //= 2
        f += 1
    g = 0
    while den % 5 == 0:
        den //= 5
        g += 1
    return max(f, g) if den == 1 else None


def format_scalar(value: Rational, prefer_decimal: bool = False) -> str:
    """Render a Rational in the canonical grammar.

    Canonical form is "p" for integers and "p/q" otherwise.  With
    prefer_decimal, values whose denominator divides a power of ten render
    as exact decimals (e.g. 9/2500 -> "0.0036").  Raises DomainError for
    digits beyond CPython's int/str conversion limit.
    """
    try:
        if value.denominator == 1:
            return str(value.numerator)
        if prefer_decimal:
            f = _pow10_scale(value.denominator)
            if f is not None:
                scaled = value.numerator * 10 ** f // value.denominator
                digits = str(abs(scaled)).rjust(f + 1, "0")
                sign = "-" if scaled < 0 else ""
                return f"{sign}{digits[:-f]}.{digits[-f:]}"
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:  # only CPython's int/str digit limit
        raise DomainError(f"scalar too large to print: {exc}") from None


def binomial(n: int, k: int) -> int:
    """C(n, k) computed exactly; 0 when k > n."""
    if n < 0 or k < 0:
        raise DomainError("binomial requires nonnegative arguments")
    return math.comb(n, k)
