"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (rational arithmetic end to end), so there are no
tolerances; the only stated bounds are wall-clock budgets, asserted where
the criterion names one.
"""
import random
import time
from fractions import Fraction

import pytest

from seqfit import (
    AffineMap,
    Polynomial,
    TriangleKind,
    awnt,
    binomial,
    fit,
    mwnt,
    parse_scalar,
)
from seqfit.oeis import crosscheck_triangle, fetch_bfile
from seqfit.oracle import identity_checks, vandermonde_fit

from conftest import (
    AWNT_TABLE,
    COEFFS_DECIMAL_G,
    COEFFS_DECIMAL_X,
    COEFFS_START_ONE,
    COEFFS_START_ZERO,
    MWNT_TABLE,
    SEQ_DECIMAL,
    SEQ_START_ONE,
    SEQ_START_ZERO,
)
from reference import build_table, diagonal_direct


@pytest.fixture(autouse=True)
def pass_fail_line(request, capsys):
    # one line per criterion, after the call phase has been reported
    yield
    rep = getattr(request.node, "rep_call", None)
    outcome = "PASS" if rep is not None and rep.passed else "FAIL"
    with capsys.disabled():
        print(f"{outcome}: {request.node.name}")


def test_golden_start_zero_example():
    start = time.perf_counter()
    result = fit([Fraction(v) for v in SEQ_START_ZERO],
                 AffineMap(Fraction(0), Fraction(1)))
    assert result.degree_report.degree == 6
    assert list(result.poly_in_x.coefficients) == COEFFS_START_ZERO
    assert time.perf_counter() - start < 1.0


def test_golden_start_one_example():
    result = fit([Fraction(v) for v in SEQ_START_ONE],
                 AffineMap(Fraction(1), Fraction(1)), "start_one")
    assert list(result.poly_in_x.coefficients) == COEFFS_START_ONE


def test_golden_decimal_grid_example():
    values = [parse_scalar(v) for v in SEQ_DECIMAL]
    result = fit(values, AffineMap(parse_scalar("3.3"), parse_scalar("0.1")))
    assert list(result.poly_in_g.coefficients) == COEFFS_DECIMAL_G
    assert list(result.poly_in_x.coefficients) == COEFFS_DECIMAL_X


def test_triangle_fidelity_all_162_cells():
    for n in range(1, 10):
        for k in range(1, 10):
            assert mwnt(n, k) == MWNT_TABLE[n - 1][k - 1], ("mwnt", n, k)
            assert awnt(n, k) == AWNT_TABLE[n - 1][k - 1], ("awnt", n, k)


def test_identity_suite():
    # the same (name, ok) pairs that `seqfit verify --self` prints
    start = time.perf_counter()
    checks = list(identity_checks())
    assert len(checks) == 6
    for name, ok in checks:
        assert ok, name
    assert time.perf_counter() - start < 5.0


def test_oracle_equivalence_500_random_polynomials():
    start = time.perf_counter()
    rng = random.Random(19538)
    for _ in range(500):
        d = rng.randint(0, 8)
        coeffs = [Fraction(rng.randint(-50, 50), rng.randint(1, 10))
                  for _ in range(d + 1)]
        if d > 0 and coeffs[-1] == 0:
            coeffs[-1] = Fraction(1, 2)
        p = Polynomial(coefficients=tuple(coeffs))
        x0 = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        h = Fraction(rng.randint(-10, 10) or 1, rng.randint(1, 6))
        xs = [x0 + i * h for i in range(rng.randint(d + 2, d + 6))]
        points = [(x, p(x)) for x in xs]
        via_fit = fit([y for _, y in points], AffineMap(x0, h))
        via_oracle = vandermonde_fit(points)
        assert via_fit.poly_in_x.coefficients == via_oracle.coefficients == p.coefficients
    assert time.perf_counter() - start < 60.0


def test_diagonal_closed_form_equivalence_200_random_sequences():
    rng = random.Random(5460)
    for _ in range(200):
        length = rng.randint(1, 12)
        values = [Fraction(rng.randint(-100, 100), rng.randint(1, 10))
                  for _ in range(length)]
        diagonal = build_table(values).main_diagonal
        for k in range(length):
            assert diagonal_direct(values, k) == diagonal[k]


def test_expanded_bracket_multipliers():
    from test_oracle import EXPANSION_MULTIPLIERS

    assert EXPANSION_MULTIPLIERS[6][6] == 720
    assert EXPANSION_MULTIPLIERS[6][5] == 0
    assert EXPANSION_MULTIPLIERS[5][6] == 1800
    for k, by_n in EXPANSION_MULTIPLIERS.items():
        for n, expected in by_n.items():
            bracket = sum((-1) ** (k - i) * binomial(k, i) * i**n
                          for i in range(k + 1))
            assert bracket == expected == awnt(n, k)


def test_oeis_fixture_crosschecks():
    awnt_report = crosscheck_triangle(
        TriangleKind.AWNT, fetch_bfile("A019538", source="fixture"), 45)
    assert awnt_report.matched == 45 and awnt_report.first_mismatch is None
    mwnt_report = crosscheck_triangle(
        TriangleKind.MWNT, fetch_bfile("A028246", source="fixture"), 45)
    assert mwnt_report.matched == 45 and mwnt_report.first_mismatch is None
