import random
import subprocess
import sys
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqfit import Polynomial, awnt, binomial, fit
from seqfit.errors import DomainError
from seqfit import oracle
from seqfit.numeric import common_denominator
from seqfit.oracle import efdt_sum, vandermonde_fit
from seqfit.solver import AffineMap

from reference import vandermonde_gauss


class TestVandermondeFit:
    def test_degree_six_golden(self):
        points = [(0, 10), (1, 49), (2, 628), (3, 4915), (4, 23662), (5, 83005), (6, 235144)]
        assert vandermonde_fit(points).coefficients == (10, 9, 8, 7, 6, 5, 4)

    def test_single_point(self):
        assert vandermonde_fit([(0, Fraction(7, 3))]).coefficients == (Fraction(7, 3),)

    def test_collinear_points_trim_degree(self):
        assert vandermonde_fit([(1, 2), (2, 4), (3, 6)]).coefficients == (0, 2)

    def test_duplicate_x_rejected(self):
        with pytest.raises(DomainError):
            vandermonde_fit([(1, 2), (1, 3)])

    def test_no_points_rejected(self):
        with pytest.raises(DomainError):
            vandermonde_fit([])

    def test_rational_points(self):
        points = [(Fraction(1, 2), Fraction(9, 4)), (Fraction(3, 2), Fraction(25, 4)),
                  (Fraction(5, 2), Fraction(49, 4))]
        # y = (x + 1)^2
        assert vandermonde_fit(points).coefficients == (1, 2, 1)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fractions(-20, 20, max_denominator=12), min_size=1, max_size=14, unique=True),
           st.lists(st.fractions(-1000, 1000, max_denominator=100), min_size=1, max_size=16))
    def test_integer_elimination_matches_fraction_gauss(self, xs, coeffs):
        # with fewer coefficients than points the interpolant has trailing
        # zeros to trim; with more it is another polynomial, of degree len(xs) - 1
        points = [(x, sum(c * x**j for j, c in enumerate(coeffs))) for x in xs]
        assert vandermonde_fit(points) == vandermonde_gauss(points)


def fraction_efdt_sum(z, b, n, k):
    # the sum term by term in Fraction arithmetic, as a reference for efdt_sum's integer form
    return sum((-1) ** i * binomial(k, i) * (Fraction(z) - Fraction(b) * i) ** n
               for i in range(k + 1))


class TestEfdtSum:
    def test_zero_below_diagonal(self):
        assert efdt_sum(Fraction(17, 3), Fraction(-4), 3, 5) == 0

    def test_diagonal_value(self):
        assert efdt_sum(Fraction(2), Fraction(3), 4, 4) == 1944
        assert 1944 == 3**4 * factorial(4)

    def test_awnt_special_case(self):
        value = efdt_sum(Fraction(0), Fraction(-1), 6, 6)
        assert (-1) ** 6 * value == 720 == awnt(6, 6)

    def test_random_z_b_identities(self):
        rng = random.Random(5460)
        for _ in range(20):
            z = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            b = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            for k in range(1, 11):
                for n in range(0, k):
                    assert efdt_sum(z, b, n, k) == 0
                assert efdt_sum(z, b, k, k) == b**k * factorial(k)

    @pytest.mark.parametrize("z, b", [
        (Fraction(-7, 3), Fraction(5, 4)),  # different denominators
        (Fraction(9, 2), Fraction(0)),  # b = 0: every term is z^n
        (Fraction(6, 5), Fraction(2, 5)),  # z = 3b: the i = 3 term is 0^n, and 0^0 = 1
        (Fraction(0), Fraction(-1, 7)),  # z = 0b
        (4, -3),  # plain ints
    ])
    def test_matches_a_direct_fraction_sum(self, z, b):
        for k in range(0, 6):
            for n in range(0, k + 3):
                assert efdt_sum(z, b, n, k) == fraction_efdt_sum(z, b, n, k), (n, k)
                assert type(efdt_sum(z, b, n, k)) is Fraction

    def test_matches_a_direct_fraction_sum_on_random_scalars(self):
        rng = random.Random(2018)
        for _ in range(50):
            z = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
            b = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
            k = rng.randint(0, 10)
            for n in range(0, k + 3):
                assert efdt_sum(z, b, n, k) == fraction_efdt_sum(z, b, n, k), (z, b, n, k)

    def test_awnt_derivation_chain(self):
        for n in range(1, 10):
            for k in range(1, 10):
                value = efdt_sum(Fraction(0), Fraction(-1), n, k)
                assert (-1) ** k * value == awnt(n, k)

    @pytest.mark.parametrize("n, k", [(-1, 2), (2, -1), (-1, -1)])
    def test_negative_arguments_are_a_domain_error(self, n, k):
        with pytest.raises(DomainError, match="nonnegative"):
            efdt_sum(Fraction(1, 2), Fraction(3), n, k)


def suite_draws():
    # the 40 (z, b) draws of identity_checks' finite-difference identity
    rng = random.Random(28246)
    return [(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
             Fraction(rng.randint(-50, 50), rng.randint(1, 9))) for _ in range(40)]


class TestEfdtRow:
    def test_matches_the_fraction_sums_on_the_suite_draws(self):
        for z, b in suite_draws():
            q, (u, v) = common_denominator((z, b))
            for k in range(0, 11):
                row = oracle._efdt_row(u, v, k, k + 2)
                assert len(row) == k + 3
                for n, total in enumerate(row):
                    assert total == fraction_efdt_sum(z, b, n, k) * q**n, (z, b, n, k)
                    assert Fraction(total, q**n) == efdt_sum(z, b, n, k), (z, b, n, k)

    def test_integer_identity_accepts_exactly_the_cells_the_fraction_form_accepts(self):
        # per cell (n, k), n <= k, of every draw: the row entry against 0 or v^k k!
        # over q^n, and the Fraction sum against 0 or b^k k!, over all 2600 cells
        cells = 0
        for z, b in suite_draws():
            q, (u, v) = common_denominator((z, b))
            for k in range(1, 11):
                row = oracle._efdt_row(u, v, k, k)
                for n in range(0, k + 1):
                    by_ints = row[n] == (v**k * factorial(k) if n == k else 0)
                    by_fractions = fraction_efdt_sum(z, b, n, k) == (
                        b**k * factorial(k) if n == k else 0)
                    assert by_ints == by_fractions, (z, b, n, k)
                    cells += 1
        assert cells == 2600

    def test_the_identity_reads_one_row_per_draw_and_k(self, monkeypatch):
        calls = []
        real = oracle._efdt_row

        def recorded(u, v, k, n_max):
            calls.append((u, v, k, n_max))
            return real(u, v, k, n_max)

        monkeypatch.setattr(oracle, "_efdt_row", recorded)
        monkeypatch.setattr(oracle, "efdt_sum", None)  # the suite reads no single cell
        checks = dict(oracle.identity_checks())
        assert checks["finite-difference sums: 0 below the diagonal, b^k * k! on it"]
        scaled = [tuple(common_denominator(draw)[1]) for draw in suite_draws()]
        assert calls == [(u, v, k, k) for u, v in scaled for k in range(1, 11)]
        assert len(calls) == 400


# Each bracket below is sum_{i=0}^{k} (-1)^(k-i) C(k,i) i^n written out with
# its binomial weights; the expected multipliers are the AWNT column values
# used when solving the degree-6 worked example coefficient by coefficient.
EXPANSION_MULTIPLIERS = {
    6: {6: 720, 5: 0, 4: 0, 3: 0, 2: 0, 1: 0},
    5: {6: 1800, 5: 120, 4: 0, 3: 0, 2: 0, 1: 0},
    4: {6: 1560, 5: 240, 4: 24, 3: 0, 2: 0, 1: 0},
    3: {6: 540, 5: 150, 4: 36, 3: 6, 2: 0, 1: 0},
    2: {6: 62, 5: 30, 4: 14, 3: 6, 2: 2, 1: 0},
    1: {6: 1, 5: 1, 4: 1, 3: 1, 2: 1, 1: 1},
}


def test_expanded_brackets_match_awnt_multipliers():
    for k, by_n in EXPANSION_MULTIPLIERS.items():
        for n, expected in by_n.items():
            bracket = sum(
                (-1) ** (k - i) * binomial(k, i) * i**n for i in range(k, -1, -1)
            )
            assert bracket == expected, (n, k)
            assert bracket == awnt(n, k), (n, k)


def test_expanded_brackets_solve_the_worked_example():
    diagonal = {6: 2880, 5: 7800, 4: 7584, 3: 3168, 2: 540, 1: 39}
    coeffs = {}
    for k in range(6, 0, -1):
        known = sum(coeffs[n] * EXPANSION_MULTIPLIERS[k][n] for n in range(k + 1, 7))
        coeffs[k] = Fraction(diagonal[k] - known, EXPANSION_MULTIPLIERS[k][k])
    assert [coeffs[k] for k in range(1, 7)] == [9, 8, 7, 6, 5, 4]


def test_oracle_agrees_with_fit_on_random_instances():
    rng = random.Random(19538)
    for _ in range(100):
        d = rng.randint(0, 6)
        coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(d + 1)]
        if d > 0 and coeffs[-1] == 0:
            coeffs[-1] = Fraction(1)
        p = Polynomial(coefficients=tuple(coeffs))
        x0 = Fraction(rng.randint(-10, 10), rng.randint(1, 4))
        h = Fraction(rng.randint(1, 10), rng.randint(1, 4))
        xs = [x0 + i * h for i in range(d + 2)]
        points = [(x, p(x)) for x in xs]
        via_fit = fit([y for _, y in points], AffineMap(x0, h))
        assert vandermonde_fit(points).coefficients == via_fit.poly_in_x.coefficients


def test_import_seqfit_does_not_load_the_oracle():
    # the oracle is a test reference, imported from seqfit.oracle where needed
    probe = "import sys, seqfit; print('seqfit.oracle' in sys.modules, hasattr(seqfit, 'efdt_sum'))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout == "False False\n"
