"""Independent brute-force reference implementations and the identity suite.

Used only by the test suite and the `verify` CLI path: an exact Vandermonde
solve for polynomial interpolation, the Euler finite-difference sum
sum_{i=0}^{k} (-1)^i C(k,i) (z - b*i)^n, which is 0 for n < k and b^k * k!
for n = k, and `identity_checks`, the one statement of the identities that
`seqfit verify --self` prints and the acceptance test asserts.  Exact
arithmetic throughout, so agreement checks are equalities.
"""
from __future__ import annotations

from math import factorial

from .errors import DomainError
from .numeric import Rational, binomial, common_denominator
from .solver import AffineMap, Polynomial, fit
from .triangles import awnt, mwnt, stirling2


def efdt_sum(z: Rational, b: Rational, n: int, k: int) -> Rational:
    """Direct evaluation of sum_{i=0}^{k} (-1)^i C(k,i) (z - b*i)^n.

    Over the common denominator q of z = u/q and b = v/q each term is
    (u - v*i)^n / q^n, so the sum is one integer sum and one division.
    """
    q, (u, v) = common_denominator((z, b))
    total = sum((-1) ** i * binomial(k, i) * (u - v * i) ** n for i in range(k + 1))
    return Rational(total, q**n)


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


def identity_checks():
    """Yield (name, ok) for each identity of the suite, in a fixed order.

    Each oracle is a direct sum or a cell-by-cell comparison, independent of
    the solver; each randomised check draws from its own seeded generator.
    """
    import random

    cells = [(n, k) for n in range(1, 13) for k in range(1, n + 1)]
    yield ("awnt = k! * stirling2 and mwnt = (k-1)! * stirling2, n,k <= 12",
           all(awnt(n, k) == factorial(k) * stirling2(n, k)
               and mwnt(n, k) == factorial(k - 1) * stirling2(n, k) for n, k in cells))
    yield ("awnt = k * mwnt, n,k <= 12",
           all(awnt(n, k) == k * mwnt(n, k) for n, k in cells))
    yield ("right-diagonal factorials and zeros above the diagonal",
           all(awnt(k, k) == factorial(k) and mwnt(k, k) == factorial(k - 1)
               for k in range(1, 13))
           and all(awnt(n, k) == 0 for k in range(1, 13) for n in range(1, k)))
    yield ("shifted-binomial power sum equals mwnt(q+1, k)",
           all(sum((-1) ** (k - i) * binomial(k - 1, i - 1) * i**q
                   for i in range(1, k + 1)) == mwnt(q + 1, k)
               for q in range(0, 11) for k in range(1, 11)))

    rng = random.Random(28246)
    draws = [(Rational(rng.randint(-50, 50), rng.randint(1, 9)),
              Rational(rng.randint(-50, 50), rng.randint(1, 9))) for _ in range(40)]
    yield ("finite-difference sums: 0 below the diagonal, b^k * k! on it",
           all(efdt_sum(z, b, n, k) == (b**k * factorial(k) if n == k else 0)
               for z, b in draws for k in range(1, 11) for n in range(0, k + 1)))

    rng = random.Random(19538)
    agree = True
    for _ in range(25):
        d = rng.randint(0, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(d + 1)]
        coeffs[-1] = coeffs[-1] or 1
        points = [(x, sum(c * x**j for j, c in enumerate(coeffs))) for x in range(d + 3)]
        recovered = fit([y for _, y in points], AffineMap(Rational(0), Rational(1)))
        agree &= recovered.poly_in_x.coefficients == vandermonde_fit(points).coefficients
    yield "fit agrees with the Vandermonde oracle on random polynomials", agree
