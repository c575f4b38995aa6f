"""Coefficient recovery from the main diagonal by triangle back-substitution.

Two conventions:

* start_zero (index 0, 1, 2, ...): diagonal[k] = sum_{n=k}^{d} c_n * AWNT(n,k)
  for k >= 1, and c_0 = diagonal[0].  Solve for k = d down to 1; AWNT(n,k) = 0
  for n < k makes each step single-unknown with pivot AWNT(k,k) = k!.
* start_one (index 1, 2, 3, ...): diagonal[k-1] = sum_{n=k}^{d+1}
  c_{n-1} * MWNT(n,k) for k = d+1 down to 1, pivot MWNT(k,k) = (k-1)!;
  c_0 emerges at the last step.

Arbitrary grids x0, x0+h, x0+2h, ... are handled by remapping to integer
indexes with g(x) = (x - x0)/h, solving in the g basis, and composing back.
"""
from __future__ import annotations

from dataclasses import dataclass

from .difftable import DegreeReport, scan_degree
from .errors import DomainError, InconsistentSequenceError
from .numeric import Rational, common_denominator
from .triangles import awnt, mwnt


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
    map: AffineMap
    index_map: AffineMap  # the map actually applied; differs from `map` for start_one
    degree_report: DegreeReport


def solve_start_zero(diagonal, d: int) -> Polynomial:
    """Recover c_0..c_d from the diagonal of a sequence indexed 0, 1, 2, ..."""
    diagonal = tuple(diagonal)
    if len(diagonal) < d + 1:
        raise DomainError(f"need {d + 1} diagonal entries, got {len(diagonal)}")
    coeffs: list[Rational | None] = [None] * (d + 1)
    coeffs[0] = diagonal[0]
    for k in range(d, 0, -1):
        acc = sum((coeffs[n] * awnt(n, k) for n in range(k + 1, d + 1)), Rational(0))
        coeffs[k] = (diagonal[k] - acc) / awnt(k, k)  # pivot k!
    return Polynomial(coefficients=tuple(coeffs))


def solve_start_one(diagonal, d: int) -> Polynomial:
    """Recover c_0..c_d from the diagonal of a sequence indexed 1, 2, 3, ..."""
    diagonal = tuple(diagonal)
    if len(diagonal) < d + 1:
        raise DomainError(f"need {d + 1} diagonal entries, got {len(diagonal)}")
    coeffs: list[Rational | None] = [None] * (d + 1)
    for k in range(d + 1, 0, -1):
        acc = sum((coeffs[n - 1] * mwnt(n, k) for n in range(k + 1, d + 2)), Rational(0))
        coeffs[k - 1] = (diagonal[k - 1] - acc) / mwnt(k, k)  # pivot (k-1)!
    return Polynomial(coefficients=tuple(coeffs))


def compose_affine(poly_in_g: Polynomial, map: AffineMap) -> Polynomial:
    """Expand p(g(x)) with g(x) = (x - x0)/h into coefficients over x."""
    # Horner over the linear polynomial g(x) = (-x0/h) + (1/h) x
    g0 = -map.x0 / map.h
    g1 = 1 / map.h
    result = [Rational(0)]
    for c in reversed(poly_in_g.coefficients):
        # result = result * (g0 + g1*x) + c
        shifted = [Rational(0)] + [v * g1 for v in result]
        for i, v in enumerate(result):
            shifted[i] += v * g0
        shifted[0] += c
        result = shifted
    while len(result) > 1 and result[-1] == 0:
        result.pop()
    return Polynomial(coefficients=tuple(result))


def first_mismatch(poly: Polynomial, values, start: Rational, step: Rational) -> int:
    """Index of the first value that poly(start + i*step) does not equal;
    len(values) when poly reproduces them all.

    Exact, in integers: with start = a/q, step = b/q and coefficients
    C_j = c_j/D over their common denominator D, Horner's rule on the
    homogeneous form sum_j c_j * q^(d-j) * (a + i*b)^j gives
    poly(x_i) * D * q^d, which is compared with the value scaled alike.
    """
    q, (a, b) = common_denominator((start, step))
    den, coeffs = common_denominator(poly.coefficients)
    leading, *rest = [c * q**j for j, c in enumerate(reversed(coeffs))]  # c_(d-j) * q^j
    scale = den * q**poly.degree
    for i, value in enumerate(values):
        t = a + i * b
        acc = leading
        for w in rest:
            acc = acc * t + w
        if acc * value.denominator != value.numerator * scale:
            return i
    return len(values)


def fit(values, map: AffineMap, convention: str = "auto", min_witnesses: int = 2) -> FitResult:
    """End-to-end fit: difference rows, degree, solve, recompose, verify."""
    values = tuple(values)
    if len(values) < 2:
        raise DomainError("fit needs at least two sequence values")
    if convention not in ("auto", "start_zero", "start_one"):
        raise DomainError(f"unknown convention {convention!r}")

    report, diagonal = scan_degree(values, min_witnesses=min_witnesses)
    d = report.degree

    if convention == "start_one":
        poly_in_g = solve_start_one(diagonal, d)
        # g basis starts at index 1: m(x) = (x - x0)/h + 1 = (x - (x0 - h))/h
        index_map = AffineMap(x0=map.x0 - map.h, h=map.h)
        first_index = Rational(1)
    else:
        poly_in_g = solve_start_zero(diagonal, d)
        index_map = map
        first_index = Rational(0)

    poly_in_x = compose_affine(poly_in_g, index_map)

    i = min(first_mismatch(poly_in_g, values, first_index, Rational(1)),
            first_mismatch(poly_in_x, values, map.x0, map.h))
    if i < len(values):
        raise InconsistentSequenceError(
            f"fitted polynomial does not reproduce sample {i} (x={map.x0 + i * map.h})"
        )

    return FitResult(
        poly_in_g=poly_in_g,
        poly_in_x=poly_in_x,
        map=map,
        index_map=index_map,
        degree_report=report,
    )
