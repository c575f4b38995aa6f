"""Exact polynomial-coefficient recovery from sequences of values.

Builds the difference table of a sequence, detects the generating
polynomial's degree from the constant row, and solves for the coefficients
by back-substitution against Worpitzky number triangles, all in exact
rational arithmetic.
"""

from .difftable import DegreeReport
from .numeric import Rational, binomial, format_scalar, parse_scalar
from .solver import AffineMap, FitResult, Polynomial, fit, solve_start_one, solve_start_zero
from .triangles import TriangleKind, awnt, build_triangle, mwnt, stirling2

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "DegreeReport",
    "FitResult",
    "Polynomial",
    "Rational",
    "TriangleKind",
    "awnt",
    "binomial",
    "build_triangle",
    "fit",
    "format_scalar",
    "mwnt",
    "parse_scalar",
    "solve_start_one",
    "solve_start_zero",
    "stirling2",
]
