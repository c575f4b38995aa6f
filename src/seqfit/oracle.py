"""Independent brute-force reference implementations and the identity suite.

Used only by the test suite and the `verify` CLI path: an exact Vandermonde
solve for polynomial interpolation, the Euler finite-difference sum
sum_{i=0}^{k} (-1)^i C(k,i) (z - b*i)^n, which is 0 for n < k and b^k * k!
for n = k (defined for n, k >= 0), and `identity_checks`, the one statement
of the identities that `seqfit verify --self` prints and the acceptance test
asserts.  Both read the finite-difference sums off one integer kernel,
`_efdt_row`, over the common denominator of z and b.  Exact arithmetic
throughout, so agreement checks are equalities.
"""
from __future__ import annotations

from math import factorial
from operator import mul

from .errors import DomainError
from .numeric import Rational, binomial, common_denominator
from .solver import AffineMap, Polynomial, fit
from .triangles import awnt, mwnt, stirling2


def _efdt_row(u: int, v: int, k: int, n_max: int) -> list[int]:
    """The integer sums sum_{i=0}^{k} (-1)^i C(k,i) (u - v*i)^n for n = 0..n_max.

    A direct sum: the terms start as the signed binomials, and each next n
    multiplies every term by its base u - v*i once.
    """
    bases = [u - v * i for i in range(k + 1)]
    terms = [(-1) ** i * binomial(k, i) for i in range(k + 1)]
    row = [sum(terms)]
    for _ in range(n_max):
        terms = list(map(mul, terms, bases))
        row.append(sum(terms))
    return row


def efdt_sum(z: Rational, b: Rational, n: int, k: int) -> Rational:
    """Direct evaluation of sum_{i=0}^{k} (-1)^i C(k,i) (z - b*i)^n, n, k >= 0.

    Over the common denominator q of z = u/q and b = v/q each term is
    (u - v*i)^n / q^n, so the sum is one integer sum and one division.
    Raises DomainError for a negative n or k.
    """
    if n < 0 or k < 0:
        raise DomainError("efdt_sum requires nonnegative n and k")
    q, (u, v) = common_denominator((z, b))
    return Rational(_efdt_row(u, v, k, n)[n], q**n)


def vandermonde_fit(points) -> Polynomial:
    """Unique interpolating polynomial through the given (x, y) points.

    Fraction-free (Bareiss) elimination on the Vandermonde system, in
    integers: over common denominators, x_i = u_i/q and y_i = v_i/r, so
    c_j = z_j q^j / r where sum_j u_i^j z_j = v_i.  Every leading minor of
    that matrix is the Vandermonde determinant of distinct u_i, so no pivot
    is 0, and each step's division by the previous pivot is exact.  The last
    pivot is the determinant D, so the D z_j are integers, found by exact
    back-substitution.  Trailing zero coefficients are trimmed.  O(m^3),
    test-only.
    """
    points = [(Rational(x), Rational(y)) for x, y in points]
    if not points:
        raise DomainError("vandermonde_fit needs at least one point")
    xs = [p[0] for p in points]
    if len(set(xs)) != len(xs):
        raise DomainError("duplicate x values make the Vandermonde system singular")

    m = len(points)
    q, us = common_denominator(xs)
    r, vs = common_denominator([p[1] for p in points])
    aug = [[u**j for j in range(m)] + [v] for u, v in zip(us, vs)]
    previous = 1
    for col in range(m - 1):
        pivot_row = aug[col]
        pivot = pivot_row[col]
        for row in aug[col + 1:]:
            factor = row[col]
            row[col + 1:] = [(a * pivot - factor * b) // previous
                             for a, b in zip(row[col + 1:], pivot_row[col + 1:])]
        previous = pivot
    det = aug[-1][m - 1]
    scaled = [0] * m  # det * z_j
    for i in range(m - 1, -1, -1):
        acc = sum(aug[i][c] * scaled[c] for c in range(i + 1, m))
        scaled[i] = (det * aug[i][m] - acc) // aug[i][i]
    coeffs = [Rational(z * q**j, det * r) for j, z in enumerate(scaled)]
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
    # over q with z = u/q and b = v/q, efdt_sum(z, b, n, k) is row[n] / q^n and
    # b^k * k! is v^k * k! / q^k: one integer row per (z, b, k) checks n = 0..k
    scaled = [common_denominator(draw)[1] for draw in draws]
    yield ("finite-difference sums: 0 below the diagonal, b^k * k! on it",
           all(_efdt_row(u, v, k, k) == [0] * k + [v**k * factorial(k)]
               for u, v in scaled for k in range(1, 11)))

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
