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

from dataclasses import dataclass
from math import factorial, gcd

from .difftable import DegreeReport, _degree_candidates, _newton_values
from .errors import DomainError, InconsistentSequenceError
from .numeric import Rational, common_denominator
from .triangles import awnt  # noqa: F401 -- unused here, kept for importers of seqfit.solver.awnt
from .triangles import stirling_table


@dataclass(frozen=True)
class Polynomial:
    """Dense coefficients c_0..c_d, index = power; evaluation uses 0^0 = 1."""

    coefficients: tuple[Rational, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: Rational) -> Rational:
        result = Rational(0)
        for c in reversed(self.coefficients):
            result = result * x + c
        return result


@dataclass(frozen=True)
class AffineMap:
    """Index remap g(x) = (x - x0)/h; g(x0) = 0, g(x0 + h) = 1."""

    x0: Rational
    h: Rational

    def __post_init__(self):
        if self.h == 0:
            raise DomainError("affine map step h must be nonzero")

    def __call__(self, x: Rational) -> Rational:
        return (x - self.x0) / self.h


@dataclass(frozen=True)
class FitResult:
    poly_in_g: Polynomial
    poly_in_x: Polynomial
    index_map: AffineMap  # g(x) = (x - x0)/h on the input grid, x0 moved back one h for start_one
    degree_report: DegreeReport


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
    (den*d!, C) with C_m = den*d!*c_m, and C_j = (d!/j!)*N_j - sum_{m>j} C_m * S(m+s, j+s)."""
    d = len(diagonal) - 1
    rows = stirling_table(d + s)[s:]  # rows[m] = S(m+s, .)
    scaled = [0] * (d + 1)
    weight = 1  # d!/j!
    for j in range(d, -1, -1):
        scaled[j] = weight * diagonal[j] - sum(
            scaled[m] * rows[m][j + s] for m in range(j + 1, d + 1))
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
    """compose_affine in integers: poly = (D, C) of degree d in g, the index
    of the points of grid (a, b, q), that is g(x) = (q*x - a)/b, as (D*b^d, X) over x."""
    den, coeffs = poly
    a, b, q = grid
    result: list[int] = []
    weight = 1  # b^(d-j)
    for c in reversed(coeffs):  # result = result * (q*x - a) + c * b^(d-j)
        result = [q * prev - a * cur for cur, prev in zip(result + [0], [0] + result)]
        result[0] += c * weight
        weight *= b
    while len(result) > 1 and result[-1] == 0:
        result.pop()
    return den * b ** (len(coeffs) - 1), result


def compose_affine(poly_in_g: Polynomial, map: AffineMap) -> Polynomial:
    """Expand p(g(x)) with g(x) = (x - x0)/h into coefficients over x, in integers:
    with x0 = a/q, h = b/q and coefficients C_j/D, Horner's rule gives
    p(g(x)) * D * b^d = sum_j C_j * b^(d-j) * (q*x - a)^j."""
    return _polynomial(*_compose(common_denominator(poly_in_g.coefficients), _grid(map.x0, map.h)))


def _first_miss(poly: tuple[int, list[int]], samples: tuple[int, list[int]],
                grid: tuple[int, int, int]) -> int:
    """Index of the first sample that poly misses on grid; len(samples[1]) when
    it reproduces them all.

    Exact, in integers: with poly = (D, C) of n+1 coefficients, samples
    (L, N) and grid (a, b, q), Horner's rule on the homogeneous form
    sum_j C_j * q^(n-j) * (a + i*b)^j gives acc_i = poly(x_i) * D * q^n, so
    poly(x_i) = N[i]/L exactly when acc_i * L = N[i] * D * q^n.
    """
    pden, coeffs = poly
    den, ints = samples
    a, b, q = grid
    n = len(coeffs) - 1
    leading, *rest = [c * q**j for j, c in enumerate(reversed(coeffs))]  # C_(n-j) * q^j
    scale = pden * q**n
    for i, v in enumerate(ints):
        t = a + i * b
        acc = leading
        for w in rest:
            acc = acc * t + w
        if acc * den != v * scale:
            return i
    return len(ints)


def _solve_and_check(samples: tuple[int, list[int]], diagonal: list[int], shift: int,
                     grid: tuple[int, int, int]):
    """poly_in_g from diagonal (integers over samples[0], entries 0..d), poly_in_x
    on grid, both as (D, C), and the first sample either one misses."""
    den, ints = samples
    a, b, q = grid
    d = len(diagonal) - 1
    # in lowest terms, as Fractions would be, so that no step after carries
    # the factor d! and powers of b for nothing
    poly_in_g = _lowest_terms(_back_substitute(den, diagonal, shift))
    # the g basis starts at index `shift`: g(x) = (x - x0)/h + shift = (q*x - (a - shift*b))/b
    poly_in_x = _lowest_terms(_compose(poly_in_g, (a - shift * b, b, q)))
    # Horner's rule checks poly_in_g at the first d+1 samples and poly_in_x at
    # those, or at all m when m <= 2(d+1); past that, one comparison with the
    # running sums of `diagonal` checks every sample.  That is exact, and as
    # strong as checking both polynomials everywhere:
    # - each has at most d+1 coefficients (_back_substitute and _compose
    #   build d+1), so matching the first d+1 samples makes it the polynomial
    #   through them;
    # - that polynomial's values are the running sums of its difference
    #   diagonal (Newton's forward formula);
    # - if `diagonal` were wrong, the sums would miss a sample among the
    #   first d+1, so an accepted fit never rests on the scan alone.
    # The sums add d times over all m samples, so they pay only when most
    # samples lie past the first d+1.  A miss k <= d in g leaves only the
    # samples before it to check in x.
    m = len(ints)
    head = m if m <= 2 * (d + 1) else d + 1
    k = _first_miss(poly_in_g, (den, ints[:d + 1]), (shift, 1, 1))
    i = _first_miss(poly_in_x, (den, ints[:k if k <= d else head]), grid)
    if i == head < m:
        values = _newton_values(diagonal, m)
        i = m if values == ints else next(
            j for j, (v, u) in enumerate(zip(values, ints)) if v != u)
    return poly_in_g, poly_in_x, i


def fit(values, map: AffineMap, convention: str = "start_zero",
        min_witnesses: int = 2) -> FitResult:
    """End-to-end fit: difference rows, degree, solve, recompose, verify.

    The samples are scaled to integers once, by common_denominator, and
    everything up to the FitResult runs on integers over that denominator.
    Both polynomials are checked at every sample: by Horner's rule at the
    first d+1, where matching makes each the polynomial through them, and
    by Newton's running sums of the diagonal past them (the argument is at
    _solve_and_check).  A failure reports the first sample either misses.

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

    samples = den, ints = common_denominator(values)
    grid = _grid(map.x0, map.h)
    index_map = AffineMap(x0=map.x0 - shift * map.h, h=map.h)

    for report, diagonal in _degree_candidates(den, ints, min_witnesses):
        poly_in_g, poly_in_x, i = _solve_and_check(samples, diagonal, shift, grid)
        if i == len(ints):
            return FitResult(_polynomial(*poly_in_g), _polynomial(*poly_in_x), index_map, report)
    raise InconsistentSequenceError(
        f"fitted polynomial does not reproduce sample {i} (x={map.x0 + i * map.h})"
    )
