"""Independent brute-force reference implementations.

Used only by the test suite and the `verify` CLI path: an exact Vandermonde
solve for polynomial interpolation, and the Euler finite-difference sum
sum_{i=0}^{k} (-1)^i C(k,i) (z - b*i)^n, which is 0 for n < k and b^k * k!
for n = k.  Exact arithmetic throughout, so agreement checks are equalities.
"""
from __future__ import annotations

from .errors import DomainError
from .numeric import Rational, binomial
from .solver import Polynomial


def efdt_sum(z: Rational, b: Rational, n: int, k: int) -> Rational:
    """Direct evaluation of sum_{i=0}^{k} (-1)^i C(k,i) (z - b*i)^n."""
    total = Rational(0)
    for i in range(k + 1):
        term = binomial(k, i) * (z - b * i) ** n
        total += -term if i % 2 else term
    return total


def vandermonde_fit(points) -> Polynomial:
    """Unique interpolating polynomial through the given (x, y) points.

    Exact Gaussian elimination with partial pivoting on the Vandermonde
    system; trailing zero coefficients are trimmed.  O(m^3), test-only.
    """
    points = [(Rational(x), Rational(y)) for x, y in points]
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
    coeffs = [Rational(0)] * m
    for r in range(m - 1, -1, -1):
        acc = sum((aug[r][c] * coeffs[c] for c in range(r + 1, m)), Rational(0))
        coeffs[r] = (aug[r][m] - acc) / aug[r][r]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return Polynomial(coefficients=tuple(coeffs))
