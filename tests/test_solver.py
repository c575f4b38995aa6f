import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from seqfit import (
    AffineMap,
    Polynomial,
    awnt,
    fit,
    mwnt,
    solve_start_one,
    solve_start_zero,
)
from seqfit import difftable, solver
from seqfit.difftable import DegreeReport
from seqfit.errors import DomainError, InconsistentSequenceError, NotPolynomialError
from seqfit.numeric import common_denominator
from seqfit.oracle import vandermonde_fit

from conftest import (
    COEFFS_DECIMAL_G,
    COEFFS_DECIMAL_X,
    COEFFS_START_ONE,
    COEFFS_START_ZERO,
    DIAG_START_ONE,
    DIAG_START_ZERO,
)
from reference import build_table, compose_affine, detect_degree, newton_fit, scan_degree


def poly(*coeffs):
    return Polynomial(coefficients=tuple(Fraction(c) for c in coeffs))


class TestSolveStartZero:
    def test_degree_six_example(self):
        result = solve_start_zero([Fraction(v) for v in DIAG_START_ZERO[:7]], 6)
        assert list(result.coefficients) == COEFFS_START_ZERO

    def test_constant(self):
        assert solve_start_zero([Fraction(5)], 0).coefficients == (5,)

    def test_linear(self):
        # brute-force Vandermonde fit of {(0,3),(1,5)} gives 3 + 2x
        oracle = vandermonde_fit([(0, 3), (1, 5)])
        assert oracle.coefficients == (3, 2)
        assert solve_start_zero([Fraction(3), Fraction(2)], 1).coefficients == (3, 2)

    def test_short_diagonal_rejected(self):
        with pytest.raises(DomainError):
            solve_start_zero([Fraction(1)], 2)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError, match="degree must be >= 0, got -1"):
            solve_start_zero([Fraction(1)], -1)
        with pytest.raises(DomainError, match="degree must be >= 0, got -2"):
            solve_start_zero([Fraction(1), Fraction(2), Fraction(3)], -2)


class TestSolveStartOne:
    def test_degree_six_example(self):
        result = solve_start_one([Fraction(v) for v in DIAG_START_ONE[:7]], 6)
        assert list(result.coefficients) == COEFFS_START_ONE

    def test_constant(self):
        assert solve_start_one([Fraction(-9)], 0).coefficients == (-9,)

    def test_linear(self):
        # brute-force Vandermonde fit of {(1,7),(2,11)} gives 3 + 4x
        oracle = vandermonde_fit([(1, 7), (2, 11)])
        assert oracle.coefficients == (3, 4)
        assert solve_start_one([Fraction(7), Fraction(4)], 1).coefficients == (3, 4)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError, match="degree must be >= 0, got -1"):
            solve_start_one([Fraction(1)], -1)
        with pytest.raises(DomainError, match="degree must be >= 0, got -2"):
            solve_start_one([Fraction(1), Fraction(2), Fraction(3)], -2)

    def test_matches_start_zero_after_reindexing(self):
        # same data viewed with index starting at 0, composed with g(x) = x - 1
        rng = random.Random(28246)
        for _ in range(50):
            d = rng.randint(0, 6)
            coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(d + 1)]
            if coeffs[-1] == 0:
                coeffs[-1] = Fraction(2)
            p = Polynomial(coefficients=tuple(coeffs))
            values = [p(Fraction(x)) for x in range(1, d + 4)]
            diagonal = build_table(values).main_diagonal
            via_one = solve_start_one(diagonal, d)
            via_zero = compose_affine(
                solve_start_zero(diagonal, d), AffineMap(Fraction(1), Fraction(1))
            )
            assert via_one.coefficients == via_zero.coefficients == p.coefficients


class TestComposeAffine:
    def test_decimal_example(self):
        poly_in_g = Polynomial(coefficients=tuple(COEFFS_DECIMAL_G))
        composed = compose_affine(poly_in_g, AffineMap(Fraction(33, 10), Fraction(1, 10)))
        assert list(composed.coefficients) == COEFFS_DECIMAL_X

    def test_identity_map(self):
        p = poly(1, 2, 3)
        assert compose_affine(p, AffineMap(Fraction(0), Fraction(1))) == p

    def test_integer_shift(self):
        composed = compose_affine(poly(0, 1), AffineMap(Fraction(5), Fraction(1)))
        assert composed.coefficients == (-5, 1)

    def test_zero_step_rejected(self):
        with pytest.raises(DomainError):
            AffineMap(Fraction(0), Fraction(0))


class TestFit:
    def test_start_zero_golden(self, seq_start_zero):
        result = fit(seq_start_zero, AffineMap(Fraction(0), Fraction(1)), "start_zero")
        assert result.degree_report.degree == 6
        assert list(result.poly_in_x.coefficients) == COEFFS_START_ZERO

    def test_start_one_golden(self, seq_start_one):
        result = fit(seq_start_one, AffineMap(Fraction(1), Fraction(1)), "start_one")
        assert list(result.poly_in_x.coefficients) == COEFFS_START_ONE
        assert list(result.poly_in_g.coefficients) == COEFFS_START_ONE

    def test_decimal_grid_golden(self, seq_decimal):
        result = fit(seq_decimal, AffineMap(Fraction(33, 10), Fraction(1, 10)))
        assert list(result.poly_in_g.coefficients) == COEFFS_DECIMAL_G
        assert list(result.poly_in_x.coefficients) == COEFFS_DECIMAL_X

    def test_all_zero_sequence(self):
        result = fit([Fraction(0)] * 4, AffineMap(Fraction(0), Fraction(1)))
        assert result.degree_report.degree == 0
        assert result.poly_in_x.coefficients == (0,)

    def test_too_short(self):
        with pytest.raises(DomainError):
            fit([Fraction(1)], AffineMap(Fraction(0), Fraction(1)))

    @pytest.mark.parametrize("values", [
        [0.5, 1.0, 1.5],
        [Decimal("0.5"), Decimal("1.0"), Decimal("1.5")],
        [Fraction(1, 2), 1, 1.5],  # one inexact sample among exact ones
    ])
    def test_inexact_samples_rejected(self, values):
        with pytest.raises(DomainError, match="exact rationals"):
            fit(values, AffineMap(Fraction(0), Fraction(1)))

    @pytest.mark.parametrize("m", [8, 80])  # both sides of the prefix selection
    def test_fewer_than_two_witnesses_rejected(self, m):
        with pytest.raises(DomainError, match="min_witnesses must be >= 2"):
            fit([Fraction(i) for i in range(m)], AffineMap(Fraction(0), Fraction(1)),
                min_witnesses=1)

    def test_unknown_convention(self):
        for convention in ("newton", "auto"):  # auto is a CLI alias only
            with pytest.raises(DomainError, match="unknown convention"):
                fit([Fraction(1), Fraction(2)], AffineMap(Fraction(0), Fraction(1)), convention)

    def test_reproduces_every_sample(self, seq_decimal):
        result = fit(seq_decimal, AffineMap(Fraction(33, 10), Fraction(1, 10)))
        for i, value in enumerate(seq_decimal):
            x = Fraction(33, 10) + i * Fraction(1, 10)
            assert result.poly_in_x(x) == value
            assert result.poly_in_g(Fraction(i)) == value


def random_rational(rng, num=50, den=10):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def test_round_trip_on_random_affine_grids():
    rng = random.Random(163626)
    for _ in range(500):
        d = rng.randint(0, 8)
        coeffs = [random_rational(rng) for _ in range(d + 1)]
        if d > 0 and coeffs[-1] == 0:
            coeffs[-1] = Fraction(1, 3)
        p = Polynomial(coefficients=tuple(coeffs))
        x0 = random_rational(rng)
        h = random_rational(rng)
        while h == 0:
            h = random_rational(rng)
        count = rng.randint(d + 2, d + 6)
        xs = [x0 + i * h for i in range(count)]
        values = [p(x) for x in xs]
        convention = rng.choice(["start_zero", "start_zero", "start_one"])  # 2:1, as the default
        result = fit(values, AffineMap(x0, h), convention)
        assert result.poly_in_x.coefficients == p.coefficients, (coeffs, x0, h)


def forward_differences(ints):
    """The main diagonal of the full difference table of ints: its j-th
    differences at index 0, j = 0..len(ints) - 1."""
    diagonal = []
    while ints:
        diagonal.append(ints[0])
        ints = [v - u for u, v in zip(ints, ints[1:])]
    return diagonal


class TestFirstMissByDivision:
    """solver._first_miss_by_division, fit()'s check of poly_in_g on the
    index grid and of poly_in_x on the input grid through the first k
    samples' differences, names the first of those samples that p misses by
    rational evaluation (Polynomial.__call__ over Fractions): for fit()'s
    results in both bases and conventions, samples moved by 1/q, another
    polynomial's values, and polynomials shorter or longer than the
    diagonal."""

    @staticmethod
    def random_case(rng):
        d = rng.randint(0, 6)
        p = Polynomial(coefficients=tuple(random_rational(rng) for _ in range(d + 1)))
        x0 = random_rational(rng)
        h = -Fraction(rng.randint(1, 9), rng.randint(1, 10))  # negative steps
        samples = [p(x0 + i * h) for i in range(rng.randint(d + 2, 3 * (d + 1) + 5))]
        return p, x0, h, samples

    @staticmethod
    def first_miss(p, values, start, step, k):
        """The kernel's answer for p at the first k of values, on the grid
        start + i*step, asserted equal to rational evaluation's."""
        den, ints = common_denominator(values)
        got = solver._first_miss_by_division(common_denominator(p.coefficients),
                                             (den, forward_differences(ints[:k])),
                                             solver._grid(start, step))
        expected = next((i for i in range(k) if p(start + i * step) != values[i]), k)
        assert got == expected, (p, values, start, step, k)
        return got

    def test_accepts_fit_results_in_both_bases_and_conventions(self):
        rng = random.Random(1806)
        for _ in range(200):
            p, x0, h, samples = self.random_case(rng)
            k = len(samples)
            assert self.first_miss(p, samples, x0, h, k) == k
            for convention, first_index in (("start_zero", 0), ("start_one", 1)):
                result = fit(samples, AffineMap(x0, h), convention)
                assert self.first_miss(result.poly_in_x, samples, x0, h, k) == k
                assert self.first_miss(result.poly_in_g, samples, Fraction(first_index),
                                       Fraction(1), k) == k

    def test_rejects_a_sample_moved_by_one_over_q(self):
        rng = random.Random(3030)
        for _ in range(200):
            p, x0, h, samples = self.random_case(rng)
            # poly_in_x may be the shorter; all the samples, as fit()'s sums see them
            k = rng.choice((p.degree + 1, p.degree + 2, len(samples)))
            q = x0.denominator * h.denominator
            for i in (0, k // 2, k - 1):
                moved = list(samples)
                moved[i] += Fraction(rng.choice((1, -1)), q)
                assert self.first_miss(p, moved, x0, h, k) == i

    def test_agrees_with_rational_evaluation_on_other_values(self):
        rng = random.Random(4300)
        longer = 0
        for _ in range(200):
            p, x0, h, samples = self.random_case(rng)
            values = [v if rng.random() < 0.8 else random_rational(rng) for v in samples]
            # another polynomial's values often have denominators the samples' lack
            other = self.random_case(rng)[0]
            for k in (p.degree + 1, len(values)):
                longer += other.degree >= k
                for poly_ in (p, other):
                    self.first_miss(poly_, values, x0, h, k)
        assert longer >= 50

    @pytest.mark.parametrize("k", [1, 2, 5, 41])
    def test_a_polynomial_shorter_than_the_diagonal(self, k):
        x0, h = Fraction(33, 10), Fraction(1, 10)
        zeros = [Fraction(0)] * k
        assert self.first_miss(poly(0), zeros, x0, h, k) == k
        assert self.first_miss(poly(Fraction(1, 7)), zeros, x0, h, k) == 0
        line = [3 - 2 * (x0 + i * h) for i in range(k)]
        assert self.first_miss(poly(3, -2), line, x0, h, k) == k
        assert self.first_miss(poly(3, -2), line, x0, -h, k) == 1

    @pytest.mark.parametrize("k", [1, 2, 5, 41])
    def test_a_polynomial_longer_than_the_diagonal(self, k):
        x0, h = Fraction(33, 10), Fraction(1, 10)
        zeros = [Fraction(0)] * (k + 1)
        # of degree k, zero at the first k points only: k differences see no miss
        p = Polynomial(coefficients=tuple(vanishing([x0 + i * h for i in range(k)], Fraction(1, 7))))
        assert self.first_miss(p, zeros, x0, h, k) == k
        assert self.first_miss(p, zeros, x0, h, k + 1) == k


def vanishing(roots, scale):
    """Coefficients of scale * prod_r (t - r): zero at every root, degree len(roots)."""
    coeffs = [Fraction(scale)]
    for r in roots:
        coeffs = [prev - r * cur for cur, prev in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def plus(p, coeffs):
    """p plus the polynomial with coefficients coeffs, no more of them than p has."""
    extra = list(coeffs) + [0] * (len(p.coefficients) - len(coeffs))
    return Polynomial(coefficients=tuple(c + e for c, e in zip(p.coefficients, extra, strict=True)))


def off_at(k):
    """Corruption: coefficient k off by 1/7."""
    return lambda p, roots: plus(p, [0] * k + [Fraction(1, 7)])


def agreeing_at(p, roots):
    """Corruption: + (1/7) * prod_r (t - r), which leaves p unchanged at the roots."""
    return plus(p, vanishing(roots, Fraction(1, 7)))


class TestVerification:
    """fit() rejects a poly_in_g or a poly_in_x that misses a sample, whichever
    coefficient is wrong, and reports the first sample poly_in_g misses, or,
    when it misses none, the first sample poly_in_x misses."""

    TRUE_X = (Fraction(2, 3), Fraction(-1), Fraction(0), Fraction(5, 2), Fraction(3))  # degree 4
    GRIDS = {"integer": (Fraction(0), Fraction(1)), "integer+1": (Fraction(1), Fraction(1)),
             "integer+2": (Fraction(2), Fraction(1)), "3.3/0.1": (Fraction(33, 10), Fraction(1, 10))}
    M = 12
    # (convention, grid) pairs for corruptions of poly_in_g: on start_zero's
    # "integer" and start_one's "integer+1" grids g(x) = x, fit() never
    # composes, and poly_in_g is poly_in_x too
    G_CASES = [("start_zero", "integer"), ("start_zero", "3.3/0.1"),
               ("start_one", "integer"), ("start_one", "3.3/0.1"), ("start_one", "integer+1")]
    # pairs where fit() composes poly_in_x, so that a corruption of it is seen:
    # start_zero's integer grid starts at 2
    X_CASES = [("start_zero", "integer+2"), ("start_zero", "3.3/0.1"),
               ("start_one", "integer"), ("start_one", "3.3/0.1")]

    def run(self, monkeypatch, convention, grid, corrupt_g=None, corrupt_x=None):
        """fit() over M samples with its integer solve (poly_in_g) and its
        integer composition (poly_in_x) replaced by the true polynomial, or by
        corrupt_*(true, roots), where roots are the d points the corruption
        may agree at.  Composition always starts from the true poly_in_g, so a
        corrupted poly_in_g is seen only by its own check.  Where g(x) = x,
        fit() must not compose at all, and the poly_in_g it solved, corrupted
        or not, is its poly_in_x; nor may it compose a poly_in_g that misses a
        sample.  Asserts that fit() reports the first sample poly_in_g misses,
        or else the first poly_in_x misses, found by rational evaluation at
        every sample, after trying the prefix degree first when
        M > 2 * _PREFIX, and returns that index."""
        x0, h = self.GRIDS[grid]
        shift = {"start_zero": 0, "start_one": 1}[convention]
        own_grid = (x0, h) == (shift, 1)
        assert not (own_grid and corrupt_x)
        values = [Polynomial(coefficients=self.TRUE_X)(x0 + i * h) for i in range(self.M)]
        real_solve, real_compose = solver._back_substitute, solver._compose
        used = {"solves": 0, "composes": 0}

        def solve(den, diagonal, s):
            assert s == shift
            used["solves"] += 1
            used["true_g"] = true = real_solve(den, diagonal, s)
            g = Polynomial(coefficients=tuple(Fraction(c, true[0]) for c in true[1]))
            used["g"] = corrupt_g(g, [shift + i for i in range(g.degree)]) if corrupt_g else g
            return common_denominator(used["g"].coefficients)

        def compose(poly_in_g, index_grid):
            used["composes"] += 1
            den, coeffs = real_compose(used["true_g"], index_grid)
            x = Polynomial(coefficients=tuple(Fraction(c, den) for c in coeffs))
            used["x"] = corrupt_x(x, [x0 + i * h for i in range(x.degree)]) if corrupt_x else x
            return common_denominator(used["x"].coefficients)

        monkeypatch.setattr(solver, "_back_substitute", solve)
        monkeypatch.setattr(solver, "_compose", compose)
        with pytest.raises(InconsistentSequenceError) as raised:
            fit(values, AffineMap(x0, h), convention)
        assert used["solves"] == (2 if self.M > 2 * difftable._PREFIX else 1)
        assert used["composes"] == (0 if own_grid or corrupt_g else used["solves"])
        g = used["g"]
        x = used.get("x", g)
        assert len(g.coefficients) == len(x.coefficients) == len(self.TRUE_X)
        expected = next((i for i, v in enumerate(values) if g(Fraction(shift + i)) != v), None)
        if expected is None:
            expected = next(i for i, v in enumerate(values) if x(x0 + i * h) != v)
        assert str(raised.value) == \
            f"fitted polynomial does not reproduce sample {expected} (x={x0 + expected * h})"
        assert raised.value.sample_index == expected
        return expected

    @pytest.mark.parametrize("convention, grid", G_CASES)
    @pytest.mark.parametrize("k", range(5))
    def test_any_wrong_coefficient_of_poly_in_g_is_rejected(self, monkeypatch, convention, grid, k):
        self.run(monkeypatch, convention, grid, corrupt_g=off_at(k))

    @pytest.mark.parametrize("convention, grid", X_CASES)
    @pytest.mark.parametrize("k", range(5))
    def test_any_wrong_coefficient_of_poly_in_x_is_rejected(self, monkeypatch, convention, grid, k):
        self.run(monkeypatch, convention, grid, corrupt_x=off_at(k))

    @pytest.mark.parametrize("convention, grid", G_CASES)
    def test_poly_in_g_right_at_the_first_d_samples_is_rejected_at_sample_d(
            self, monkeypatch, convention, grid):
        assert self.run(monkeypatch, convention, grid, corrupt_g=agreeing_at) == 4

    @pytest.mark.parametrize("convention, grid", X_CASES)
    def test_poly_in_x_right_at_the_first_d_samples_is_rejected_at_sample_d(
            self, monkeypatch, convention, grid):
        assert self.run(monkeypatch, convention, grid, corrupt_x=agreeing_at) == 4

    @pytest.mark.parametrize("convention, grid", X_CASES)
    def test_a_miss_of_poly_in_g_is_reported_before_poly_in_x_is_composed(
            self, monkeypatch, convention, grid):
        # one polynomial misses from sample d on, the other from sample 0 or 1
        assert self.run(monkeypatch, convention, grid,
                        corrupt_g=agreeing_at, corrupt_x=off_at(2)) == 4
        assert self.run(monkeypatch, convention, grid,
                        corrupt_g=off_at(2), corrupt_x=agreeing_at) <= 1

    @pytest.mark.parametrize("convention", ["start_zero", "start_one"])
    def test_many_more_samples_than_coefficients_fit(self, convention):
        p = poly(Fraction(-7, 4), 0, 3, Fraction(1, 9))
        x0, h = Fraction(-5, 3), Fraction(2, 7)
        values = [p(x0 + i * h) for i in range(60)]
        result = fit(values, AffineMap(x0, h), convention)
        assert result.degree_report.degree == 3
        assert result.poly_in_x == p


class TestVerificationPastThePrefix(TestVerification):
    """The same corruptions over 80 samples, where fit() first tries the degree
    read from a prefix, rejects it, and falls back to the full scan."""

    M = 80


def off_by_one_at(index):
    """A _compose mutant: coefficient `index` of X, in (D*b^d, X), off by 1."""
    def compose(real, poly_in_g, grid):
        den, coeffs = real(poly_in_g, grid)
        return den, [c + (j == index % len(coeffs)) for j, c in enumerate(coeffs)]
    return compose


class TestABrokenComposeIsRejected:
    """fit() checks poly_in_x itself: a _compose mutant that returns a wrong
    poly_in_x raises InconsistentSequenceError, at the first sample that
    poly_in_x misses, with the text and sample_index that checking it by
    rational evaluation gives."""

    MUTANTS = {
        "shift sign flipped": lambda real, poly_in_g, grid: real(poly_in_g, (-grid[0], *grid[1:])),
        "q^k dropped": lambda real, poly_in_g, grid: real(poly_in_g, (*grid[:2], 1)),
        "X_0 off by 1": off_by_one_at(0),
        "X_d off by 1": off_by_one_at(-1),
    }
    # a != 0 and q != 1 in every index grid, so that each mutant changes poly_in_x
    GRIDS = [(Fraction(33, 10), Fraction(1, 10)), (Fraction(33, 10), Fraction(-1, 10)),
             (Fraction(-5, 3), Fraction(2, 7))]
    HIGH = tuple(Fraction(random.Random(40).randint(-9, 9), j + 1) for j in range(40)) + (1,)

    @pytest.mark.parametrize("mutant", MUTANTS)
    @pytest.mark.parametrize("grid", GRIDS, ids=["3.3/0.1", "3.3/-0.1", "-5/3,2/7"])
    @pytest.mark.parametrize("convention", ["start_zero", "start_one"])
    @pytest.mark.parametrize("true_x", [TestVerification.TRUE_X, HIGH], ids=["d=4", "d=40"])
    def test_each_mutant_is_rejected_where_its_poly_in_x_misses(
            self, monkeypatch, mutant, grid, convention, true_x):
        x0, h = grid
        xs = [x0 + i * h for i in range(len(true_x) + 2)]
        values = [Polynomial(coefficients=tuple(true_x))(x) for x in xs]
        real, composed = solver._compose, []

        def compose(poly_in_g, index_grid):
            composed.append(self.MUTANTS[mutant](real, poly_in_g, index_grid))
            return composed[-1]

        monkeypatch.setattr(solver, "_compose", compose)
        with pytest.raises(InconsistentSequenceError) as raised:
            fit(values, AffineMap(x0, h), convention)
        den, coeffs = composed[-1]
        broken = Polynomial(coefficients=tuple(Fraction(c, den) for c in coeffs))
        expected = next(i for i, (x, v) in enumerate(zip(xs, values)) if broken(x) != v)
        assert expected < len(true_x)  # among the first d+1 samples
        assert str(raised.value) == \
            f"fitted polynomial does not reproduce sample {expected} (x={xs[expected]})"
        assert raised.value.sample_index == expected


class TestVerificationDoesNotTrustTheScan:
    """fit() rejects a degree or a diagonal that the scan got wrong, at the
    first sample the polynomial solved from it misses, which the diagonal's
    running sums find, whether or not g(x) = x."""

    TRUE_X = TestVerification.TRUE_X  # degree 4
    GRIDS = TestVerification.GRIDS
    SCAN_GRIDS = ["integer", "integer+1", "3.3/0.1"]

    def fit_with_scan(self, monkeypatch, m, convention, grid, wrong):
        """fit() over m samples of TRUE_X with scan_degree_scaled's
        (report, diagonal) replaced by wrong(report, diagonal); returns the
        samples and the InconsistentSequenceError raised."""
        x0, h = self.GRIDS[grid]
        values = [Polynomial(coefficients=self.TRUE_X)(x0 + i * h) for i in range(m)]
        real = difftable.scan_degree_scaled
        monkeypatch.setattr(difftable, "scan_degree_scaled",
                            lambda *args, **kwargs: wrong(*real(*args, **kwargs)))
        with pytest.raises(InconsistentSequenceError) as raised:
            fit(values, AffineMap(x0, h), convention)
        return values, raised.value

    # all at most 2 * _PREFIX, so that the scan's is the only candidate
    @pytest.mark.parametrize("m", [6, 9, 40])
    @pytest.mark.parametrize("grid", SCAN_GRIDS)
    @pytest.mark.parametrize("convention", ["start_zero", "start_one"])
    def test_a_degree_too_low_is_rejected_where_its_polynomial_misses(
            self, monkeypatch, m, convention, grid):
        def one_lower(report, diagonal):
            d = report.degree - 1
            return DegreeReport(d, report.constant_row_value, report.witnesses + 1), diagonal[:d + 1]

        assert m <= 2 * difftable._PREFIX
        values, error = self.fit_with_scan(monkeypatch, m, convention, grid, one_lower)
        x0, h = self.GRIDS[grid]
        xs = [x0 + i * h for i in range(m)]
        claimed = vandermonde_fit(zip(xs[:len(self.TRUE_X) - 1], values))  # through d samples
        expected = next(i for i, (x, v) in enumerate(zip(xs, values)) if claimed(x) != v)
        assert str(error) == \
            f"fitted polynomial does not reproduce sample {expected} (x={xs[expected]})"
        assert error.sample_index == expected

    @pytest.mark.parametrize("m", [6, 40])
    @pytest.mark.parametrize("grid", SCAN_GRIDS)
    @pytest.mark.parametrize("convention", ["start_zero", "start_one"])
    def test_a_wrong_first_diagonal_entry_is_rejected_at_sample_0(
            self, monkeypatch, m, convention, grid):
        def off_by_one(report, diagonal):
            return report, [diagonal[0] + 1] + diagonal[1:]

        _, error = self.fit_with_scan(monkeypatch, m, convention, grid, off_by_one)
        x0 = self.GRIDS[grid][0]
        assert str(error) == f"fitted polynomial does not reproduce sample 0 (x={x0})"
        assert error.sample_index == 0


class TestChecksInTheIndexBasis:
    """fit() checks each candidate's diagonal against every sample by its
    running sums and solves only a diagonal that passes; it checks poly_in_g,
    and then poly_in_x, the composition, through the first d+1 samples'
    differences only, and on the convention's own grid neither composes nor
    checks a second polynomial."""

    TRUE_X = TestVerification.TRUE_X  # degree 4
    D = len(TRUE_X) - 1
    GRIDS = TestVerification.GRIDS

    def traced_fit(self, monkeypatch, m, convention, grid, moved):
        """fit() over m samples of TRUE_X on grid, the last one moved by 1
        when moved; the scan, which would reject moved samples as not
        polynomial, is handed the true samples, so that the check must
        reject them.  Returns fit()'s result or error, its
        _first_miss_by_division calls in order, each as (basis, coefficients,
        samples checked): basis "g" on the index grid (s, 1, 1) and "x" on
        the input grid, each checking as many samples as it is given
        differences; and the numbers of solves and composes."""
        x0, h = self.GRIDS[grid]
        shift = {"start_zero": 0, "start_one": 1}[convention]
        values = [Polynomial(coefficients=self.TRUE_X)(x0 + i * h) for i in range(m)]
        den, true_ints = common_denominator(values)
        if moved:
            values[-1] += 1
            assert common_denominator(values)[0] == den
        calls, used = [], {"solves": 0, "composes": 0}
        real_by_division, real_solve, real_compose, real_scan = \
            solver._first_miss_by_division, solver._back_substitute, solver._compose, \
            difftable.scan_degree_scaled

        def first_miss_by_division(poly, differences, grid_):
            basis = "g" if grid_ == (shift, 1, 1) else "x" if grid_ == solver._grid(x0, h) else grid_
            calls.append((basis, len(poly[1]), len(differences[1])))
            return real_by_division(poly, differences, grid_)

        def solve(*args):
            used["solves"] += 1
            return real_solve(*args)

        def compose(*args):
            used["composes"] += 1
            return real_compose(*args)

        monkeypatch.setattr(solver, "_first_miss_by_division", first_miss_by_division)
        monkeypatch.setattr(solver, "_back_substitute", solve)
        monkeypatch.setattr(solver, "_compose", compose)
        monkeypatch.setattr(difftable, "scan_degree_scaled",
                            lambda den, ints, w: real_scan(den, true_ints, w))
        try:
            outcome = fit(values, AffineMap(x0, h), convention)
        except InconsistentSequenceError as exc:
            outcome = exc
        assert isinstance(outcome, InconsistentSequenceError) == moved
        return outcome, calls, used

    # m = 65 and 130 try the prefix guess first
    @pytest.mark.parametrize("m", [6, 10, 11, 40, 65, 130])
    @pytest.mark.parametrize("grid", ["3.3/0.1", "integer+2"])
    @pytest.mark.parametrize("convention", ["start_zero", "start_one"])
    @pytest.mark.parametrize("moved", [False, True])
    def test_poly_in_x_is_checked_at_no_more_than_d_plus_1_samples(
            self, monkeypatch, m, convention, grid, moved):
        _, calls, used = self.traced_fit(monkeypatch, m, convention, grid, moved)
        # a candidate whose sums miss a sample is neither solved nor composed
        assert used == ({"solves": 0, "composes": 0} if moved else {"solves": 1, "composes": 1})
        assert calls == ([] if moved else [("g", self.D + 1, self.D + 1),
                                           ("x", self.D + 1, self.D + 1)])

    @pytest.mark.parametrize("m", [6, 10, 11, 40, 65, 130])
    @pytest.mark.parametrize("convention, grid", [("start_zero", "integer"),
                                                  ("start_one", "integer+1")])
    @pytest.mark.parametrize("moved", [False, True])
    def test_on_the_own_grid_poly_in_x_is_neither_composed_nor_checked(
            self, monkeypatch, m, convention, grid, moved):
        result, calls, used = self.traced_fit(monkeypatch, m, convention, grid, moved)
        assert used == {"solves": 0 if moved else 1, "composes": 0}
        assert calls == ([] if moved else [("g", self.D + 1, self.D + 1)])
        if not moved:
            assert result.poly_in_x is result.poly_in_g

    @pytest.mark.parametrize("m", range(D + 2, 2 * (D + 1) + 1))
    @pytest.mark.parametrize("convention", ["start_zero", "start_one"])
    def test_a_sample_moved_at_m_minus_1_is_reported_there(self, monkeypatch, m, convention):
        error, calls, _ = self.traced_fit(monkeypatch, m, convention, "3.3/0.1", moved=True)
        x0, h = self.GRIDS["3.3/0.1"]
        assert error.sample_index == m - 1
        assert str(error) == \
            f"fitted polynomial does not reproduce sample {m - 1} (x={x0 + (m - 1) * h})"
        assert calls == []


# Per-cell back-substitution straight from the triangle definitions, with the
# pivots AWNT(k,k) = k! and MWNT(k,k) = (k-1)!: the reference for the solver's
# integer kernel.
def reference_start_zero(diagonal, d):
    coeffs = [None] * (d + 1)
    coeffs[0] = Fraction(diagonal[0])
    for k in range(d, 0, -1):
        acc = sum((coeffs[n] * awnt(n, k) for n in range(k + 1, d + 1)), Fraction(0))
        coeffs[k] = (diagonal[k] - acc) / awnt(k, k)
    return tuple(coeffs)


def reference_start_one(diagonal, d):
    coeffs = [None] * (d + 1)
    for k in range(d + 1, 0, -1):
        acc = sum((coeffs[n - 1] * mwnt(n, k) for n in range(k + 1, d + 2)), Fraction(0))
        coeffs[k - 1] = (diagonal[k - 1] - acc) / mwnt(k, k)
    return tuple(coeffs)


def reference_compose(coeffs, x0, h):
    """p(g(x)) by Horner's rule in Fractions over g(x) = -x0/h + x/h."""
    g0, g1 = -x0 / h, 1 / h
    result = []
    for c in reversed(coeffs):
        result = [cur * g0 + prev * g1 for cur, prev in zip(result + [0], [0] + result)]
        result[0] += c
    while len(result) > 1 and result[-1] == 0:
        result.pop()
    return tuple(result)


small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=10)
wide_rationals = st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**6)
steps = st.builds(lambda sign, size: sign * size, st.sampled_from((1, -1)),
                  st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=10))
# integer steps, and steps from 1/10 to 10 in size: rational, of either sign
grid_steps = st.one_of(st.sampled_from((1, -1, 2, -3)).map(Fraction), steps)


@st.composite
def diagonals(draw):
    d = draw(st.integers(min_value=0, max_value=25))
    return d, draw(st.lists(wide_rationals, min_size=d + 1, max_size=d + 3))


class TestSolverProperties:
    @settings(max_examples=100, deadline=None)
    @given(diagonals())
    def test_both_conventions_match_the_reference(self, case):
        d, diagonal = case
        assert solve_start_zero(diagonal, d).coefficients == reference_start_zero(diagonal, d)
        assert solve_start_one(diagonal, d).coefficients == reference_start_one(diagonal, d)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(small_rationals, min_size=1, max_size=12),
           st.integers(min_value=0, max_value=3), small_rationals, steps)
    def test_compose_affine_matches_fraction_horner(self, coeffs, zeros, x0, h):
        coeffs = coeffs + [Fraction(0)] * zeros  # zero leading coefficients are trimmed
        p = Polynomial(coefficients=tuple(coeffs))
        composed = compose_affine(p, AffineMap(x0, h))
        assert composed.coefficients == reference_compose(coeffs, x0, h)
        for x in (x0, x0 + h, Fraction(7, 3)):
            assert composed(x) == p((x - x0) / h)

    # the degrees the high-degree fits compose at.  x0 = 0 gives a = 0, where the
    # shift is skipped (off the own grid when h != 1), and x0 != 0 gives a != 0;
    # grid_steps gives negative steps and |b| > 1.  No shrink phase, as in
    # TestTheNewtonOracle
    @pytest.mark.parametrize("x0s", [st.just(Fraction(0)), small_rationals.filter(bool)],
                             ids=["x0=0", "x0!=0"])
    @settings(max_examples=8, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.integers(min_value=26, max_value=80), st.data(), grid_steps)
    def test_compose_affine_matches_fraction_horner_at_high_degree(self, x0s, d, data, h):
        x0 = data.draw(x0s)
        coeffs = data.draw(st.lists(small_rationals, min_size=d + 1, max_size=d + 1))
        coeffs += [Fraction(0)] * data.draw(st.integers(min_value=0, max_value=2))
        composed = compose_affine(Polynomial(coefficients=tuple(coeffs)), AffineMap(x0, h))
        assert composed.coefficients == reference_compose(coeffs, x0, h)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(small_rationals, min_size=1, max_size=7), small_rationals, steps,
           st.integers(min_value=2, max_value=5), st.sampled_from(("start_zero", "start_one")))
    def test_fit_agrees_with_the_vandermonde_oracle(self, coeffs, x0, h, extra, convention):
        p = Polynomial(coefficients=tuple(coeffs))
        xs = [x0 + i * h for i in range(len(coeffs) - 1 + extra)]
        values = [p(x) for x in xs]
        result = fit(values, AffineMap(x0, h), convention)
        assert result.poly_in_x.coefficients == vandermonde_fit(zip(xs, values)).coefficients
        first = 1 if convention == "start_one" else 0
        indexed = [(first + i, v) for i, v in enumerate(values)]
        assert result.poly_in_g.coefficients == vandermonde_fit(indexed).coefficients


class TestTheNewtonOracle:
    """reference.newton_fit, O(m^2), checks fit() at the degrees that
    vandermonde_fit, O(m^3), does not reach; below them it is checked
    against vandermonde_fit."""

    # no shrink phase: shrinking a failure here ran into Hypothesis's 5-minute limit
    @settings(max_examples=10, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.integers(min_value=26, max_value=120), st.data(), small_rationals, grid_steps,
           st.integers(min_value=2, max_value=4), st.sampled_from(("start_zero", "start_one")))
    def test_fit_agrees_with_it_at_high_degree(self, d, data, x0, h, extra, convention):
        leading = data.draw(small_rationals.filter(bool))
        coeffs = (*data.draw(st.lists(small_rationals, min_size=d, max_size=d)), leading)
        values = [Polynomial(coefficients=coeffs)(x0 + i * h) for i in range(d + extra)]
        result = fit(values, AffineMap(x0, h), convention)
        assert result.degree_report.degree == d
        assert result.poly_in_x.coefficients == newton_fit(x0, h, values) == coeffs
        first = 1 if convention == "start_one" else 0
        assert result.poly_in_g.coefficients == newton_fit(first, 1, values)

    # d >= 31: the prefix of 32 samples has no constant row with 2 entries, so
    # fit reaches the scan, and past 64 samples its deepest-row screen; up to
    # m - d + 2 witnesses, so that the input is rejected too
    @settings(max_examples=10, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.integers(min_value=31, max_value=40), st.integers(min_value=65, max_value=130),
           st.data(), small_rationals, grid_steps)
    def test_fit_agrees_with_it_on_the_scan_path(self, d, m, data, x0, h):
        leading = data.draw(small_rationals.filter(bool))
        coeffs = (*data.draw(st.lists(small_rationals, min_size=d, max_size=d)), leading)
        values = [Polynomial(coefficients=coeffs)(x0 + i * h) for i in range(m)]
        if data.draw(st.booleans()):
            values[data.draw(st.integers(0, m - 1))] += data.draw(small_rationals.filter(bool))
        w = data.draw(st.integers(min_value=2, max_value=m - d + 2))
        try:
            detect_degree(build_table(values), w)
        except NotPolynomialError as expected:
            with pytest.raises(NotPolynomialError) as raised:
                fit(values, AffineMap(x0, h), min_witnesses=w)
            assert str(raised.value) == str(expected)
            assert raised.value.deepest_row == expected.deepest_row
            return
        assert fit(values, AffineMap(x0, h), min_witnesses=w).poly_in_x.coefficients == \
            newton_fit(x0, h, values) == coeffs

    @settings(max_examples=60, deadline=None)
    @given(st.lists(small_rationals, min_size=1, max_size=26), small_rationals, grid_steps)
    def test_it_agrees_with_the_vandermonde_oracle(self, values, x0, h):
        xs = [x0 + i * h for i in range(len(values))]
        assert newton_fit(x0, h, values) == vandermonde_fit(zip(xs, values)).coefficients


class TestTheConventionsOwnGrid:
    """On the grid x0 = s, h = 1 (s = 0 for start_zero, 1 for start_one),
    g(x) = x and fit() returns one polynomial as both poly_in_g and poly_in_x;
    on the grids next to it, it composes, and both match the oracle."""

    TRUE_X = TestVerification.TRUE_X  # degree 4

    @pytest.mark.parametrize("m", [12, 80])  # both sides of the prefix guess
    @pytest.mark.parametrize("convention, x0, h", [
        ("start_zero", 0, 2), ("start_zero", 0, Fraction(1, 2)), ("start_zero", 0, -1),
        ("start_one", 1, 2), ("start_one", 1, Fraction(1, 2)), ("start_one", 1, -1),
        ("start_one", 0, 1), ("start_zero", 1, 1),
    ])
    def test_grids_next_to_it_match_the_vandermonde_oracle(self, m, convention, x0, h):
        xs = [x0 + i * h for i in range(m)]
        values = [Polynomial(coefficients=self.TRUE_X)(Fraction(x)) for x in xs]
        result = fit(values, AffineMap(Fraction(x0), Fraction(h)), convention)
        n = len(self.TRUE_X) + 1  # d + 2 samples fix the polynomial; fit() checked the rest
        assert result.poly_in_x.coefficients == vandermonde_fit(zip(xs[:n], values)).coefficients
        first = 1 if convention == "start_one" else 0
        indexed = [(first + i, v) for i, v in enumerate(values[:n])]
        assert result.poly_in_g.coefficients == vandermonde_fit(indexed).coefficients
        assert result.poly_in_x != result.poly_in_g

    @settings(max_examples=150, deadline=None)
    @given(st.lists(small_rationals, min_size=1, max_size=7), st.integers(min_value=1, max_value=90),
           st.sampled_from(("start_zero", "start_one")), st.data())
    def test_one_polynomial_is_both_and_matches_the_oracle(self, coeffs, extra, convention, data):
        # past 2 * _PREFIX samples, one may be moved past the prefix, where only
        # a check of every sample sees it
        s = 1 if convention == "start_one" else 0
        m = len(coeffs) + extra
        values = [Polynomial(coefficients=tuple(coeffs))(Fraction(s + i)) for i in range(m)]
        if m > 2 * difftable._PREFIX and data.draw(st.booleans()):
            values[data.draw(st.integers(difftable._PREFIX, m - 1))] += \
                data.draw(small_rationals.filter(bool))
        own_grid = AffineMap(Fraction(s), Fraction(1))
        try:
            report, _ = scan_degree(values)
        except NotPolynomialError as expected:
            with pytest.raises(NotPolynomialError) as raised:
                fit(values, own_grid, convention)
            assert str(raised.value) == str(expected)
            return
        result = fit(values, own_grid, convention)
        assert result.degree_report == report
        assert result.poly_in_x == result.poly_in_g
        n = report.degree + 2
        oracle = vandermonde_fit((s + i, v) for i, v in enumerate(values[:n])).coefficients
        assert result.poly_in_g.coefficients == oracle
        assert result.poly_in_x.coefficients == oracle


@st.composite
def long_inputs(draw):
    """(values, x0, h): 65-200 samples, more than twice the prefix fit() reads
    the degree from, drawn as a polynomial's samples; the same with one sample
    moved past the prefix; one polynomial's samples on the prefix and
    another's beyond it; or b^i."""
    m = draw(st.integers(min_value=65, max_value=200))
    x0, h = draw(small_rationals), draw(steps)
    xs = [x0 + i * h for i in range(m)]
    p = Polynomial(coefficients=tuple(draw(st.lists(small_rationals, min_size=1, max_size=7))))
    values = [p(x) for x in xs]
    kind = draw(st.sampled_from(("polynomial", "moved", "two", "power")))
    if kind == "moved":
        values[draw(st.integers(min_value=difftable._PREFIX, max_value=m - 1))] += \
            draw(small_rationals.filter(bool))
    elif kind == "two":
        other = Polynomial(coefficients=tuple(draw(st.lists(small_rationals, min_size=1, max_size=7))))
        cut = draw(st.integers(min_value=difftable._PREFIX, max_value=m - 1))
        values[cut:] = [other(x) for x in xs[cut:]]
    elif kind == "power":
        base = draw(st.integers(min_value=2, max_value=5))
        values = [Fraction(base**i) for i in range(m)]
    return values, x0, h


class TestLongInputs:
    @settings(max_examples=150, deadline=None)
    @given(long_inputs(), st.sampled_from(("start_zero", "start_one")), st.data())
    def test_fit_agrees_with_the_full_scan_and_the_vandermonde_oracle(self, case, convention, data):
        values, x0, h = case
        # past _PREFIX, and near m: past m - d for degrees up to 6, where fit skips the prefix guess
        m = len(values)
        w = data.draw(st.one_of(st.sampled_from((2, 5, 40)), st.integers(m - 7, m + 1)))
        try:
            report, _ = scan_degree(values, min_witnesses=w)
        except NotPolynomialError as expected:
            with pytest.raises(NotPolynomialError) as raised:
                fit(values, AffineMap(x0, h), convention, min_witnesses=w)
            assert str(raised.value) == str(expected)
            assert raised.value.deepest_row == expected.deepest_row
            return
        result = fit(values, AffineMap(x0, h), convention, min_witnesses=w)
        assert result.degree_report == report
        # the O(m^3) oracle on d+2 samples, which fix the polynomial; fit() checked the rest
        n = report.degree + 2
        xs = [x0 + i * h for i in range(n)]
        assert result.poly_in_x.coefficients == vandermonde_fit(zip(xs, values)).coefficients
        first = 1 if convention == "start_one" else 0
        indexed = [(first + i, v) for i, v in enumerate(values[:n])]
        assert result.poly_in_g.coefficients == vandermonde_fit(indexed).coefficients

    def test_many_witnesses_need_no_deepest_row_test(self, monkeypatch):
        # the prefix guess needs 2 entries per row, not min_witnesses, so the
        # O(m) screen of row m - min_witnesses, and the scan, never run here
        tests = 0
        real = difftable._deepest_row_may_be_constant

        def counted(*args, **kwargs):
            nonlocal tests
            tests += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(difftable, "_deepest_row_may_be_constant", counted)
        values = [Fraction(i**10 - 3 * i) for i in range(4000)]
        result = fit(values, AffineMap(Fraction(0), Fraction(1)), min_witnesses=2000)
        assert (result.degree_report.degree, result.degree_report.witnesses) == (10, 3990)
        assert tests == 0

    @pytest.mark.parametrize("w", [101, 150])
    def test_more_witnesses_than_samples_reads_down_to_row_minus_one(self, w):
        values = [Fraction(i**3 - 3 * i) for i in range(100)]
        with pytest.raises(NotPolynomialError) as raised:
            fit(values, AffineMap(Fraction(0), Fraction(1)), min_witnesses=w)
        assert str(raised.value) == (f"no constant row with >= {w} entries down to row -1; "
                                     "not polynomial within the observed window")
        assert raised.value.deepest_row == -1
