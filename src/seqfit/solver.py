"""Coefficient recovery from the main diagonal by triangle back-substitution.

Two conventions: start_zero (index 0, 1, 2, ...) with diagonal[k] =
sum_{n=k}^{d} c_n * AWNT(n,k) for k >= 1 and c_0 = diagonal[0]; start_one
(index 1, 2, 3, ...) with diagonal[k-1] = sum_{n=k}^{d+1} c_{n-1} * MWNT(n,k).
As AWNT(n,k) = k! * S(n,k) and MWNT(n,k) = (k-1)! * S(n,k), dividing by the
pivot turns both into diagonal[j]/j! = sum_{m=j}^{d} c_m * S(m+s, j+s) with
s = 0 or 1, and S(j+s, j+s) = 1 isolates one coefficient per step, j = d..0.

Arbitrary grids x0, x0+h, x0+2h, ... are handled by remapping to integer
indexes with g(x) = (x - x0)/h, solving in the g basis, and composing back.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import islice
from math import factorial, gcd
from operator import mul

from .difftable import _degree_candidates, _newton_values
from .errors import DomainError, InconsistentSequenceError
from .numeric import Rational, common_denominator
from .triangles import awnt  # noqa: F401 -- unused here, kept for importers of seqfit.solver.awnt
from .triangles import stirling_table


class Polynomial(namedtuple("Polynomial", "coefficients")):
    """Dense coefficients c_0..c_d, index = power; evaluation uses 0^0 = 1."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: Rational) -> Rational:
        result = Rational(0)
        for c in reversed(self.coefficients):
            result = result * x + c
        return result


class AffineMap(namedtuple("AffineMap", "x0 h")):
    """Index remap g(x) = (x - x0)/h; g(x0) = 0, g(x0 + h) = 1."""

    __slots__ = ()

    def __new__(cls, x0: Rational, h: Rational):
        if h == 0:
            raise DomainError("affine map step h must be nonzero")
        return tuple.__new__(cls, (x0, h))

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: keep the h != 0 check
        return cls(*iterable)


# poly_in_g, poly_in_x: Polynomial; degree_report: DegreeReport; index_map: AffineMap,
# g(x) = (x - x0)/h on the input grid, x0 moved back one h for start_one
FitResult = namedtuple("FitResult", "poly_in_g poly_in_x index_map degree_report")


# Polynomials and samples travel between the steps of a fit in the form
# common_denominator returns: a pair (D, N) of an int and a list of ints.  A
# polynomial (D, C) is sum_j C[j] * x^j / D; samples (L, N) are N[i] / L.  A
# grid (a, b, q) is the points x_i = (a + i*b)/q.


def _polynomial(den: int, coeffs) -> Polynomial:
    return Polynomial(coefficients=tuple(Rational(c, den) for c in coeffs))


def _lowest_terms(poly: tuple[int, list[int]]) -> tuple[int, list[int]]:
    den, coeffs = poly
    g = gcd(den, *coeffs)
    return (den, coeffs) if g == 1 else (den // g, [c // g for c in coeffs])


def _grid(start: Rational, step: Rational) -> tuple[int, int, int]:
    q, (a, b) = common_denominator((start, step))
    return a, b, q


def _back_substitute(den: int, diagonal: list[int], s: int) -> tuple[int, list[int]]:
    """Solve diagonal[j]/j! = sum_{m=j}^{d} c_m * S(m+s, j+s), d = len(diagonal) - 1,
    for a diagonal of integers N_j over den, in integers: the solution is
    (den*d!, C) with C_m = den*d!*c_m, and C_j = (d!/j!)*N_j - sum_{m>j} C_m * S(m+s, j+s),
    the sum taken down column j+s of the Stirling table, columns[k][i] = S(k+i, k)."""
    d = len(diagonal) - 1
    columns = stirling_table(d + s)
    scaled = [0] * (d + 1)
    weight = 1  # d!/j!
    for j in range(d, -1, -1):
        scaled[j] = weight * diagonal[j] - sum(
            map(mul, scaled[j + 1:], islice(columns[j + s], 1, None)))
        weight *= j
    return den * factorial(d), scaled


def _solve(diagonal, d: int, s: int) -> Polynomial:
    if d < 0:
        raise DomainError(f"degree must be >= 0, got {d}")
    den, numerators = common_denominator(tuple(diagonal)[:d + 1])
    if len(numerators) < d + 1:
        raise DomainError(f"need {d + 1} diagonal entries, got {len(numerators)}")
    return _polynomial(*_back_substitute(den, numerators, s))


def solve_start_zero(diagonal, d: int) -> Polynomial:
    """Recover c_0..c_d from the diagonal of a sequence indexed 0, 1, 2, ..."""
    return _solve(diagonal, d, 0)


def solve_start_one(diagonal, d: int) -> Polynomial:
    """Recover c_0..c_d from the diagonal of a sequence indexed 1, 2, 3, ..."""
    return _solve(diagonal, d, 1)


def _compose(poly: tuple[int, list[int]], grid: tuple[int, int, int]) -> tuple[int, list[int]]:
    """p(g(x)) over x, in integers: poly = (D, C) of degree d in g, the index
    of the points of grid (a, b, q), that is g(x) = (q*x - a)/b, as (D*b^d, X).
    With r_j = C_j * b^(d-j), p(g(x)) * D * b^d = sum_j r_j * (q*x - a)^j: the
    Taylor shift by -a (Ruffini's rule, d(d+1)/2 multiplies by the small a, none
    when a = 0) gives the coefficients of (q*x)^k, and X_k = r_k * q^k."""
    den, coeffs = poly
    a, b, q = grid
    d = len(coeffs) - 1
    r = [c * b ** (d - j) for j, c in enumerate(coeffs)]
    if a:
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                r[j] -= a * r[j + 1]
    result = [c * q ** k for k, c in enumerate(r)]
    while len(result) > 1 and result[-1] == 0:
        result.pop()
    return den * b ** d, result


def _first_miss_by_division(poly: tuple[int, list[int]], differences: tuple[int, list[int]],
                            grid: tuple[int, int, int]) -> int:
    """Index of the first of the samples 0..k-1 that poly misses on grid,
    given only their k differences at sample 0; k when it misses none.  fit
    checks poly_in_g with it on the index grid (s, 1, 1) and poly_in_x on
    the input grid.

    Exact, in integers: with poly = (D, X) of n+1 coefficients, differences
    (L, diagonal), diagonal[j] the j-th difference of the samples' N over L,
    and grid (a, b, q), poly(x_i) * D * q^n = P(t_i) for
    P(T) = sum_j X_j * q^(n-j) * T^j and the nodes t_i = a + i*b.  Dividing P
    by T - t_0, the quotient by T - t_1, and so on, leaves as remainders P's
    Newton coefficients A_j on the nodes (A_j = 0 past n), and the j-th
    difference of P(t_0), P(t_1), ... is j! * b^j * A_j.  Samples 0..j-1 are
    matched exactly when differences 0..j-1 are, so the first miss is the
    first j with A_j * j! * b^j * L != D * q^n * diagonal[j].  The divisions
    take about n^2/2 multiply-adds by the small t_i.
    """
    pden, coeffs = poly
    den, diagonal = differences
    a, b, q = grid
    n = len(coeffs) - 1
    quotient = [c * q**j for j, c in enumerate(reversed(coeffs))]  # P's, leading first
    scale = pden * q**n
    weight = den  # j! * b^j * L
    for j, delta in enumerate(diagonal):
        t, acc = a + j * b, 0
        for i, c in enumerate(quotient):
            acc = quotient[i] = acc * t + c
        del quotient[-1:]  # acc, the remainder, is A_j: 0 once the quotient is empty
        if acc * weight != delta * scale:
            return j
        weight *= (j + 1) * b
    return len(diagonal)


def fit(values, map: AffineMap, convention: str = "start_zero",
        min_witnesses: int = 2) -> FitResult:
    """End-to-end fit: difference rows, degree, solve, recompose, verify.

    The samples are scaled to integers once, by common_denominator, and
    everything up to the FitResult runs on integers over that denominator.
    Each candidate `diagonal`, of degree d, is checked by three exact links,
    each resting only on the one before it:
    - its running sums, _newton_values (Newton's forward formula, the
      inverse of differencing), equal every sample: the samples lie on the
      one polynomial of degree <= d whose differences at sample 0 are
      `diagonal`, so an accepted fit never rests on the scan;
    - poly_in_g, solved from `diagonal`, has those differences at
      g = s, s+1, ..., s+d, by _first_miss_by_division: having d+1
      coefficients, it is then that polynomial in g;
    - poly_in_x, composed from poly_in_g, has them on the input grid, by
      the same kernel: having at most d+1 coefficients, it is then that
      polynomial in x.
    A candidate whose sums miss is neither solved nor composed.  A failure
    reports the first sample the sums miss, or else the first poly_in_g
    misses, which only a wrong _back_substitute makes, or else the first
    poly_in_x misses, which only a wrong _compose makes.
    On the convention's own grid, where g(x) = x, the two are one
    polynomial at the same points: it is neither composed nor checked a
    second time, and is both fields of the FitResult.

    The degree comes from difftable._degree_candidates: with many samples
    a guess read off a prefix, then the full scan; the first candidate whose
    polynomial reproduces every sample is the answer (the argument that it
    is exact is at _degree_candidates).
    """
    values = tuple(values)
    if len(values) < 2:
        raise DomainError("fit needs at least two sequence values")
    shift = {"start_zero": 0, "start_one": 1}.get(convention)
    if shift is None:
        raise DomainError(f"unknown convention {convention!r}")

    den, ints = common_denominator(values)
    m = len(ints)
    grid = a, b, q = _grid(map.x0, map.h)
    # the g basis starts at index `shift`: g(x) = (x - x0)/h + shift = (q*x - (a - shift*b))/b
    own_grid = a == shift * b and b == q
    index_map = AffineMap(x0=map.x0 - shift * map.h, h=map.h)

    for report, diagonal in _degree_candidates(den, ints, min_witnesses):
        d = len(diagonal) - 1
        sums = _newton_values(diagonal, m)
        if sums != ints:
            i = next(j for j, (v, u) in enumerate(zip(sums, ints)) if v != u)
            continue
        # in lowest terms, as Fractions would be, so that no step after carries
        # the factor d! and powers of b for nothing
        poly_in_g = _lowest_terms(_back_substitute(den, diagonal, shift))
        i = _first_miss_by_division(poly_in_g, (den, diagonal), (shift, 1, 1))
        if i > d and not own_grid:
            poly_in_x = _lowest_terms(_compose(poly_in_g, (a - shift * b, b, q)))
            i = _first_miss_by_division(poly_in_x, (den, diagonal), grid)
        if i > d:
            in_g = _polynomial(*poly_in_g)
            in_x = in_g if own_grid else _polynomial(*poly_in_x)
            return FitResult(in_g, in_x, index_map, report)
    raise InconsistentSequenceError(
        f"fitted polynomial does not reproduce sample {i} (x={map.x0 + i * map.h})",
        sample_index=i,
    )
