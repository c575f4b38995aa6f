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
from math import factorial

from .difftable import DegreeReport, scan_degree_scaled
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


def _back_substitute(diagonal, d: int, s: int) -> Polynomial:
    """Solve diagonal[j]/j! = sum_{m=j}^{d} c_m * S(m+s, j+s) in integers: with L the
    common denominator, N_j = L*diagonal[j] and C_m = L*d!*c_m,
    C_j = (d!/j!)*N_j - sum_{m>j} C_m * S(m+s, j+s)."""
    den, numerators = common_denominator(tuple(diagonal)[:d + 1])
    if len(numerators) < d + 1:
        raise DomainError(f"need {d + 1} diagonal entries, got {len(numerators)}")
    rows = stirling_table(d + s)[s:]  # rows[m] = S(m+s, .)
    scaled = [0] * (d + 1)
    weight = 1  # d!/j!
    for j in range(d, -1, -1):
        scaled[j] = weight * numerators[j] - sum(
            scaled[m] * rows[m][j + s] for m in range(j + 1, d + 1))
        weight *= j
    return Polynomial(coefficients=tuple(Rational(c, den * factorial(d)) for c in scaled))


def solve_start_zero(diagonal, d: int) -> Polynomial:
    """Recover c_0..c_d from the diagonal of a sequence indexed 0, 1, 2, ..."""
    return _back_substitute(diagonal, d, 0)


def solve_start_one(diagonal, d: int) -> Polynomial:
    """Recover c_0..c_d from the diagonal of a sequence indexed 1, 2, 3, ..."""
    return _back_substitute(diagonal, d, 1)


def compose_affine(poly_in_g: Polynomial, map: AffineMap) -> Polynomial:
    """Expand p(g(x)) with g(x) = (x - x0)/h into coefficients over x, in integers:
    with x0 = a/q, h = b/q and coefficients C_j/D, Horner's rule gives
    p(g(x)) * D * b^d = sum_j C_j * b^(d-j) * (q*x - a)^j."""
    q, (a, b) = common_denominator((map.x0, map.h))
    den, coeffs = common_denominator(poly_in_g.coefficients)
    result: list[int] = []
    weight = 1  # b^(d-j)
    for c in reversed(coeffs):  # result = result * (q*x - a) + c * b^(d-j)
        result = [q * prev - a * cur for cur, prev in zip(result + [0], [0] + result)]
        result[0] += c * weight
        weight *= b
    while len(result) > 1 and result[-1] == 0:
        result.pop()
    scale = den * b**poly_in_g.degree
    return Polynomial(coefficients=tuple(Rational(c, scale) for c in result))


def first_mismatch(poly: Polynomial, den: int, ints, start: Rational, step: Rational) -> int:
    """Index of the first value ints[i]/den that poly(start + i*step) does not
    equal; len(ints) when poly reproduces them all.  (den, ints) is the form
    common_denominator(values) returns.

    Exact, in integers: with start = a/q, step = b/q and coefficients
    C_j = c_j/D over their common denominator D, Horner's rule on the
    homogeneous form sum_j c_j * q^(d-j) * (a + i*b)^j gives
    acc_i = poly(x_i) * D * q^d, so poly(x_i) = ints[i]/den exactly when
    acc_i * den = ints[i] * D * q^d.
    """
    q, (a, b) = common_denominator((start, step))
    pden, coeffs = common_denominator(poly.coefficients)
    leading, *rest = [c * q**j for j, c in enumerate(reversed(coeffs))]  # c_(d-j) * q^j
    scale = pden * q**poly.degree
    for i, n in enumerate(ints):
        t = a + i * b
        acc = leading
        for w in rest:
            acc = acc * t + w
        if acc * den != n * scale:
            return i
    return len(ints)


def fit(values, map: AffineMap, convention: str = "start_zero",
        min_witnesses: int = 2) -> FitResult:
    """End-to-end fit: difference rows, degree, solve, recompose, verify.

    The samples are scaled to integers once, by common_denominator, and both
    the degree scan and the verification read that form.  poly_in_x is checked
    against every sample and poly_in_g at its first d+1, which is as strong
    as checking both everywhere (see the comment at the check); a failure
    reports the first sample either polynomial misses.
    """
    values = tuple(values)
    if len(values) < 2:
        raise DomainError("fit needs at least two sequence values")
    shift = {"start_zero": 0, "start_one": 1}.get(convention)
    if shift is None:
        raise DomainError(f"unknown convention {convention!r}")

    den, ints = common_denominator(values)
    report, diagonal = scan_degree_scaled(den, ints, min_witnesses=min_witnesses)
    d = report.degree

    poly_in_g = (solve_start_one if shift else solve_start_zero)(diagonal, d)
    # the g basis starts at index `shift`: g(x) = (x - x0)/h + shift = (x - (x0 - shift*h))/h
    index_map = AffineMap(x0=map.x0 - shift * map.h, h=map.h)
    poly_in_x = compose_affine(poly_in_g, index_map)

    # poly_in_g is checked at g = s..s+d only.  If both polynomials match
    # there, poly_in_g(s+i) = a_i = poly_in_x(x_i) at d+1 distinct points, and
    # both have at most d+1 coefficients (_back_substitute and compose_affine
    # build d+1), so poly_in_g(g(x)) = poly_in_x(x) for every x: poly_in_g
    # misses a sample exactly where poly_in_x does.  So i below is the
    # min(g mismatch, x mismatch) that checking both at every sample gives.
    # k = d+1 is a prefix that all matches, not a mismatch; a mismatch k <= d
    # leaves only the samples before it to check in x.
    k = first_mismatch(poly_in_g, den, ints[:d + 1], Rational(shift), Rational(1))
    i = first_mismatch(poly_in_x, den, ints if k > d else ints[:k], map.x0, map.h)
    if i < len(values):
        raise InconsistentSequenceError(
            f"fitted polynomial does not reproduce sample {i} (x={map.x0 + i * map.h})"
        )

    return FitResult(
        poly_in_g=poly_in_g,
        poly_in_x=poly_in_x,
        index_map=index_map,
        degree_report=report,
    )
