import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqfit import AffineMap, difftable, fit
from seqfit.errors import DomainError, NotPolynomialError
from seqfit.numeric import common_denominator

from conftest import DIAG_START_ONE, DIAG_START_ZERO
from reference import build_table, detect_degree, diagonal_direct, scan_degree

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=10
)


class TestBuildTable:
    def test_main_diagonal_start_zero_example(self, seq_start_zero):
        table = build_table(seq_start_zero)
        assert list(table.main_diagonal) == DIAG_START_ZERO

    def test_main_diagonal_start_one_example(self, seq_start_one):
        table = build_table(seq_start_one)
        assert list(table.main_diagonal) == DIAG_START_ONE

    def test_single_value(self):
        table = build_table([Fraction(5)])
        assert table.rows == ((Fraction(5),),)
        assert table.main_diagonal == (Fraction(5),)

    def test_row_lengths_shrink_by_one(self, seq_start_zero):
        table = build_table(seq_start_zero)
        for r, row in enumerate(table.rows):
            assert len(row) == len(seq_start_zero) - r

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            build_table([])


class TestDetectDegree:
    def test_degree_six_example(self, seq_start_zero):
        report = detect_degree(build_table(seq_start_zero))
        assert report.degree == 6
        assert report.constant_row_value == 2880
        assert report.witnesses == 2

    def test_degree_five_decimal_example(self, seq_decimal):
        report = detect_degree(build_table(seq_decimal))
        assert report.degree == 5
        assert report.constant_row_value == Fraction(9, 2500)
        assert report.witnesses == 2

    def test_constant_sequence(self):
        report = detect_degree(build_table([Fraction(7)] * 3))
        assert report.degree == 0
        assert report.constant_row_value == 7
        assert report.witnesses == 3

    def test_not_polynomial_within_window(self):
        # 2^x grows too fast for any constant row to appear
        with pytest.raises(NotPolynomialError) as err:
            detect_degree(build_table([Fraction(2**i) for i in range(6)]))
        assert err.value.deepest_row == 4

    def test_length_one_rejected(self):
        with pytest.raises(DomainError):
            detect_degree(build_table([Fraction(1)]))

    def test_min_witnesses_raises_the_bar(self, seq_start_zero):
        # row 6 has only two entries, so demanding three pushes past the window
        with pytest.raises(NotPolynomialError):
            detect_degree(build_table(seq_start_zero), min_witnesses=3)

    def test_constant_shift_invariance(self, seq_start_zero):
        shifted = [v + Fraction(123, 7) for v in seq_start_zero]
        assert detect_degree(build_table(shifted)).degree == 6


class TestDiagonalDirect:
    def test_start_zero_example_entry(self, seq_start_zero):
        assert diagonal_direct(seq_start_zero, 3) == 3168

    def test_index_zero_is_first_value(self, seq_start_zero):
        assert diagonal_direct(seq_start_zero, 0) == seq_start_zero[0]

    def test_start_one_example_entry(self, seq_start_one):
        assert diagonal_direct(seq_start_one, 6) == 1440

    def test_out_of_range(self, seq_start_zero):
        with pytest.raises(DomainError):
            diagonal_direct(seq_start_zero, 8)

    @given(st.lists(rationals, min_size=1, max_size=12))
    def test_matches_table_construction(self, values):
        table = build_table(values)
        for k in range(len(values)):
            assert diagonal_direct(values, k) == table.main_diagonal[k]


@given(
    st.lists(rationals, min_size=1, max_size=6),
    st.integers(min_value=0, max_value=4),
)
def test_polynomial_rows_go_constant_then_zero(coeffs, extra):
    # sample a polynomial at d+2+extra consecutive integers
    d = len(coeffs) - 1
    values = [
        sum(c * Fraction(x) ** j if j else c for j, c in enumerate(coeffs))
        for x in range(d + 2 + extra)
    ]
    table = build_table(values)
    row_d = table.rows[d]
    assert all(v == row_d[0] for v in row_d)
    for deeper in table.rows[d + 1 :]:
        assert all(v == 0 for v in deeper)


class TestNewtonValues:
    """difftable._newton_values, the inverse of _difference_rows."""

    @staticmethod
    def diagonal(ints):
        return [row[0] for row in difftable._difference_rows(ints)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=-10**12, max_value=10**12), min_size=1, max_size=40))
    def test_the_full_diagonal_gives_back_the_list(self, ints):
        assert difftable._newton_values(self.diagonal(ints), len(ints)) == ints

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8),
           st.integers(min_value=-9, max_value=9), st.integers(min_value=-9, max_value=9),
           st.integers(min_value=0, max_value=60))
    def test_d_plus_1_entries_give_back_every_value_of_degree_d(self, coeffs, a, b, extra):
        d = len(coeffs) - 1
        ints = [sum(c * (a + i * b) ** j for j, c in enumerate(coeffs))
                for i in range(d + 1 + extra)]
        assert difftable._newton_values(self.diagonal(ints)[:d + 1], len(ints)) == ints


def polynomial_samples(coeffs, x0, h, extra):
    return [sum(c * (x0 + i * h) ** j for j, c in enumerate(coeffs))
            for i in range(len(coeffs) + extra)]


def perturbed(values, where, q):
    """values with one sample, the first, a middle or the last, moved by 1/q."""
    index = {"first": 0, "middle": len(values) // 2, "last": len(values) - 1}[where]
    return [v + Fraction(1, q) if i == index else v for i, v in enumerate(values)]


coefficients = st.lists(rationals, min_size=1, max_size=14).filter(lambda c: c[-1])


@st.composite
def scan_cases(draw):
    """(values, min_witnesses): m up to ~40, min_witnesses 2-5, degrees up to
    13, one sample moved, and m close to min_witnesses."""
    min_witnesses = draw(st.integers(min_value=2, max_value=5))
    polynomial = st.builds(polynomial_samples, coefficients, rationals, rationals.filter(bool),
                           st.integers(min_value=1, max_value=26))
    # m = degree + min_witnesses: the constant row is the deepest one with enough entries
    deepest_constant = st.builds(polynomial_samples, coefficients, rationals,
                                 rationals.filter(bool), st.just(min_witnesses - 1))
    moved = st.builds(perturbed, st.one_of(polynomial, deepest_constant),
                      st.sampled_from(["first", "middle", "last"]), st.integers(1, 9))
    near = st.lists(rationals, min_size=max(2, min_witnesses - 1), max_size=min_witnesses + 2)
    noise = st.lists(rationals, min_size=2, max_size=40)
    return draw(st.one_of(polynomial, deepest_constant, moved, near, noise)), min_witnesses


@st.composite
def long_scan_cases(draw):
    """(values, min_witnesses): 65-130 values, more than 2 * _PREFIX, so that
    the scan tests the deepest row first; a polynomial of degree up to 40, the
    same with one sample moved past the prefix, one polynomial up to a cut past
    the prefix and another after it, or b^i; min_witnesses 2, 5, 40 or m + 1."""
    m = draw(st.integers(min_value=2 * difftable._PREFIX + 1, max_value=130))
    x0, h = draw(rationals), draw(rationals.filter(bool))

    def polynomial():
        coeffs = draw(st.lists(rationals, min_size=1, max_size=41))
        return [sum(c * (x0 + i * h) ** j for j, c in enumerate(coeffs)) for i in range(m)]

    kind = draw(st.sampled_from(("polynomial", "moved", "split", "power")))
    if kind == "power":
        base = draw(st.integers(min_value=2, max_value=5))
        values = [Fraction(base**i) for i in range(m)]
    else:
        values = polynomial()
    past_prefix = st.integers(min_value=difftable._PREFIX, max_value=m - 1)
    if kind == "moved":
        values[draw(past_prefix)] += Fraction(1, draw(st.integers(1, 9)))
    elif kind == "split":
        cut = draw(past_prefix)
        values[cut:] = polynomial()[cut:]
    return values, draw(st.sampled_from((2, 5, 40, m + 1)))


def assert_scan_matches_the_full_table(values, min_witnesses):
    table = build_table(values)
    try:
        expected = detect_degree(table, min_witnesses=min_witnesses)
    except NotPolynomialError as full:
        with pytest.raises(NotPolynomialError) as lazy:
            scan_degree(values, min_witnesses=min_witnesses)
        assert str(lazy.value) == str(full)
        assert lazy.value.deepest_row == full.deepest_row
        return
    report, diagonal = scan_degree(values, min_witnesses=min_witnesses)
    assert report == expected
    assert diagonal == table.main_diagonal[: report.degree + 1]
    assert list(diagonal) == [diagonal_direct(values, k) for k in range(report.degree + 1)]


class TestDifferenceRows:
    """difftable._difference_rows against the reference's full table."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.lists(rationals, min_size=1, max_size=30),
        st.builds(lambda value, m: [value] * m, rationals, st.integers(1, 12)),
        st.builds(polynomial_samples, coefficients, rationals, rationals.filter(bool),
                  st.integers(1, 12)),
        st.builds(perturbed,
                  st.builds(polynomial_samples, coefficients, st.just(0), st.just(1),
                            st.integers(1, 12)),
                  st.sampled_from(["first", "middle", "last"]), st.integers(1, 9)),
    ))
    @example([Fraction(-7, 3)])
    @example([Fraction(3)] * 4)
    @example([Fraction(2**i) for i in range(8)])
    def test_rows_end_at_the_first_constant_row(self, values):
        den, ints = common_denominator(values)
        rows = list(difftable._difference_rows(ints))
        reference = [[v * den for v in row] for row in build_table(values).rows]
        top = len(rows) - 1
        assert rows == reference[:top + 1]
        assert [len(set(row)) == 1 for row in rows] == [False] * top + [True]
        assert all(v == 0 for row in reference[top + 1:] for v in row)


class TestScanDegree:
    @settings(max_examples=400, deadline=None)
    @given(scan_cases())
    def test_matches_detect_degree_on_the_full_table(self, case):
        assert_scan_matches_the_full_table(*case)

    @settings(max_examples=100, deadline=None)
    @given(long_scan_cases())
    def test_long_inputs_match_detect_degree_on_the_full_table(self, case):
        assert_scan_matches_the_full_table(*case)

    @pytest.mark.parametrize("min_witnesses", [2, 5])
    def test_non_polynomial_input_reads_few_rows(self, min_witnesses, monkeypatch):
        pulled = 0
        real = difftable._difference_rows

        def counted(row):
            nonlocal pulled
            for r in real(row):
                pulled += 1
                yield r

        monkeypatch.setattr(difftable, "_difference_rows", counted)
        values = [Fraction(5**i) for i in range(500)]
        with pytest.raises(NotPolynomialError) as err:
            scan_degree(values, min_witnesses=min_witnesses)
        assert err.value.deepest_row == 500 - min_witnesses
        assert str(err.value).startswith(
            f"no constant row with >= {min_witnesses} entries down to row {500 - min_witnesses};")
        assert pulled == 0  # the deepest-row test rejects it before any full row is built

    def test_high_degree_polynomial_still_fits(self):
        # past 2 * _PREFIX samples the deepest row with 5 entries is row d, constant,
        # so the scan goes on after its up-front test
        d = 2 * difftable._PREFIX
        values = [Fraction(i**d - 3 * i, 7) for i in range(d + 5)]
        report, diagonal = scan_degree(values, min_witnesses=5)
        assert (report.degree, report.witnesses) == (d, 5)
        assert report.constant_row_value == Fraction(math.factorial(d), 7)
        assert len(diagonal) == d + 1

    @pytest.mark.parametrize("min_witnesses", [4, 5, 9])
    def test_more_witnesses_than_values_reads_down_to_row_minus_one(self, min_witnesses):
        values = [Fraction(v) for v in (1, 2, 4)]
        for degree_of in (lambda: scan_degree(values, min_witnesses=min_witnesses),
                          lambda: detect_degree(build_table(values), min_witnesses=min_witnesses)):
            with pytest.raises(NotPolynomialError) as err:
                degree_of()
            assert str(err.value) == (f"no constant row with >= {min_witnesses} entries down to "
                                      "row -1; not polynomial within the observed window")
            assert err.value.deepest_row == -1

    def test_golden_example(self, seq_start_zero):
        report, diagonal = scan_degree(seq_start_zero)
        assert (report.degree, report.constant_row_value, report.witnesses) == (6, 2880, 2)
        assert list(diagonal) == DIAG_START_ZERO[:7]

    def test_constant_row_value_keeps_the_common_denominator(self, seq_decimal):
        report, _ = scan_degree(seq_decimal)
        assert report.constant_row_value == Fraction(9, 2500)

    def test_argument_checks_match_detect_degree(self):
        with pytest.raises(DomainError, match="min_witnesses"):
            scan_degree([Fraction(1), Fraction(2)], min_witnesses=1)
        with pytest.raises(DomainError, match="length >= 2"):
            scan_degree([Fraction(1)])

    @pytest.mark.parametrize("m", [10, 3 * difftable._PREFIX])  # the plain scan, and the deepest-row test
    @pytest.mark.parametrize("min_witnesses", [2.5, 2.0, "3", None])
    def test_a_min_witnesses_that_is_not_an_int_is_rejected(self, m, min_witnesses):
        values = [Fraction(3) ** i for i in range(m)]
        with pytest.raises(DomainError, match="min_witnesses must be an int, got "):
            difftable.scan_degree_scaled(1, [3**i for i in range(m)], min_witnesses)
        with pytest.raises(DomainError, match="min_witnesses must be an int, got "):
            fit(values, AffineMap(Fraction(0), Fraction(1)), min_witnesses=min_witnesses)


class TestDeepestRowMayBeConstant:
    """difftable._deepest_row_may_be_constant against the full table, and its
    cost.  The screen takes only the sums at i = 0, at min_witnesses - 2 and at
    the multiples of n + 1, and its False proves the row not constant; with
    rest set it takes the other sums, and then decides."""

    @staticmethod
    def cubic(m, where=None):
        """m samples of i^3 - 2i, one of them (first, middle or last) moved by 1."""
        values = [Fraction(i**3 - 2 * i) for i in range(m)]
        return [int(v) for v in (perturbed(values, where, 1) if where else values)]

    # on these inputs the screen is exact: its sums see every moved sample
    @pytest.mark.parametrize("where", [None, "first", "middle", "last"])
    @pytest.mark.parametrize("min_witnesses", [2, 3, 10, 20, 30, 36, 37, 38, 40])
    def test_matches_the_full_scan(self, where, min_witnesses):
        ints = self.cubic(40, where)
        row = build_table(ints).rows[len(ints) - min_witnesses]
        assert difftable._deepest_row_may_be_constant(ints, min_witnesses) == \
            (row.count(row[0]) == len(row))

    @staticmethod
    def reference_input(data, min_m):
        """min_m to 150 samples of a polynomial or of b^i (b negative too), one
        of them perhaps moved (by a multiple of _P too, so that every sum is 0
        mod _P and only the exact sums decide), and any min_witnesses from 2
        to m, so that n = m - min_witnesses + 1 takes both parities."""
        m = data.draw(st.integers(min_value=min_m, max_value=150))
        if data.draw(st.booleans()):
            base = data.draw(st.sampled_from((-5, -3, -2, -1, 2, 3, 5)))
            ints = [base**i for i in range(m)]
        else:
            coeffs = data.draw(st.lists(st.integers(-50, 50), min_size=1, max_size=12))
            ints = [sum(c * i**j for j, c in enumerate(coeffs)) for i in range(m)]
        if data.draw(st.booleans()):
            ints[data.draw(st.integers(0, m - 1))] += data.draw(
                st.sampled_from((-1, 1, 7, difftable._P, -difftable._P, 2 * difftable._P)))
        return ints, data.draw(st.integers(min_value=2, max_value=m))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_reference_table(self, data):
        """On reference_input from 2 samples up, the screen says False only of
        a row that is not constant, and the scan it guards agrees with the
        reference scan of the full table."""
        ints, min_witnesses = self.reference_input(data, 2)
        m = len(ints)
        table = build_table(ints)
        row = table.rows[m - min_witnesses]
        constant = all(v == row[0] for v in row)
        assert difftable._deepest_row_may_be_constant(ints, min_witnesses) or not constant
        try:
            report = detect_degree(table, min_witnesses)
        except NotPolynomialError as expected:
            with pytest.raises(NotPolynomialError) as raised:
                difftable.scan_degree_scaled(1, ints, min_witnesses)
            assert str(raised.value) == str(expected)
            assert raised.value.deepest_row == expected.deepest_row
            return
        assert difftable.scan_degree_scaled(1, ints, min_witnesses) == \
            (report, list(table.main_diagonal[:report.degree + 1]))

    @staticmethod
    def scan_work(ints, min_witnesses):
        """scan_degree_scaled(1, ints, min_witnesses)'s answer, or its
        NotPolynomialError, with the rows it pulled from _difference_rows and
        the rest flag of each _deepest_row_may_be_constant call it made."""
        rows, calls = 0, []
        real_rows, real_screen = difftable._difference_rows, difftable._deepest_row_may_be_constant

        def counted_rows(ints):
            nonlocal rows
            for row in real_rows(ints):
                rows += 1
                yield row

        def counted_screen(ints, min_witnesses, rest=False):
            calls.append(rest)
            return real_screen(ints, min_witnesses, rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(difftable, "_difference_rows", counted_rows)
            patch.setattr(difftable, "_deepest_row_may_be_constant", counted_screen)
            try:
                outcome = difftable.scan_degree_scaled(1, ints, min_witnesses)
            except NotPolynomialError as error:
                outcome = error
        return outcome, rows, calls

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_the_scan_screens_once_and_takes_the_other_sums_at_row_c(self, data):
        """On reference_input past 2 * _PREFIX samples, where the scan is
        screened, with c = min_witnesses * n // (2m): the screen runs once; an
        answer of degree d pulls d + 1 rows and takes the other sums once when
        d >= c, never otherwise; a rejection pulls no row (the screen's) or
        c + 1 rows (the other sums')."""
        ints, min_witnesses = self.reference_input(data, 2 * difftable._PREFIX + 1)
        m = len(ints)
        c = min_witnesses * (m - min_witnesses + 1) // (2 * m)
        outcome, rows, calls = self.scan_work(ints, min_witnesses)
        assert calls[0] is False and calls.count(False) == 1
        if isinstance(outcome, NotPolynomialError):
            assert (rows, calls[1:]) in ((0, []), (c + 1, [True]))
        else:
            d = outcome[0].degree
            assert rows == d + 1
            assert calls[1:] == ([True] if d >= c else [])

    @pytest.mark.parametrize("m, power, min_witnesses, rows, calls", [
        (2000, 31, 1000, 32, [False]),  # c = 250: the walk ends at row 31, above c
        (200, 40, 10, 41, [False, True]),  # c = 4: the other sums at row 4, then row 40
    ])
    def test_the_scan_takes_the_other_sums_only_when_the_walk_reaches_row_c(
            self, m, power, min_witnesses, rows, calls):
        ints = [i**power - 7 * i for i in range(m)]
        outcome, pulled, made = self.scan_work(ints, min_witnesses)
        assert (outcome[0].degree, outcome[0].witnesses) == (power, m - power)
        assert (pulled, made) == (rows, calls)

    def test_a_true_screen_of_a_row_that_is_not_constant_leaves_the_walk_to_decide(self):
        # 2 C(i, 43) - 27 C(i, 42), i < 70: with 30 witnesses n = 41, and the
        # screen's two sums, at i = 0 and 28, are 0, though row 40 is not constant
        ints = [2 * math.comb(i, 43) - 27 * math.comb(i, 42) for i in range(70)]
        row = build_table(ints).rows[40]
        assert row.count(row[0]) < len(row)
        assert difftable._deepest_row_may_be_constant(ints, 30)
        message = ("no constant row with >= 30 entries down to row 40; "
                   "not polynomial within the observed window")
        with pytest.raises(NotPolynomialError) as raised:
            difftable.scan_degree_scaled(1, ints, 30)
        assert (str(raised.value), raised.value.deepest_row) == (message, 40)
        with pytest.raises(NotPolynomialError) as raised:
            fit([Fraction(v) for v in ints], AffineMap(Fraction(0), Fraction(1)), min_witnesses=30)
        assert (str(raised.value), raised.value.deepest_row) == (message, 40)

    @staticmethod
    def screen_passing(m, min_witnesses):
        """m samples whose row m - min_witnesses is not constant, though the
        screen's sums, at i = 0 and min_witnesses - 2 only, are 0: with 4
        witnesses m - 2 zeros, then 1 and n = m - 3 (sum 2 is n - n); else
        2 C(i, n + 2) - (min_witnesses - 3) C(i, n + 1), whose sum i is
        i (i - 1) - (min_witnesses - 3) i, as in the test above."""
        n = m - min_witnesses + 1
        if min_witnesses == 4:
            return [0] * (m - 2) + [1, n]
        return [2 * math.comb(i, n + 2) - (min_witnesses - 3) * math.comb(i, n + 1) for i in range(m)]

    @pytest.mark.parametrize("m, min_witnesses", [(70, 4), (2000, 4), (70, 30), (400, 200)])
    def test_a_walk_past_a_true_screen_is_cut_short_by_the_other_sums(
            self, monkeypatch, m, min_witnesses):
        # the walk stops at row min_witnesses * n // (2m), where the other sums
        # reject the row, not at row n after O(m * n) cells of growing integers
        ints = self.screen_passing(m, min_witnesses)
        if m <= 100:
            row = build_table(ints).rows[m - min_witnesses]
            assert row.count(row[0]) < len(row)
        assert difftable._deepest_row_may_be_constant(ints, min_witnesses)
        assert not difftable._deepest_row_may_be_constant(ints, min_witnesses, rest=True)
        rows, real = 0, difftable._difference_rows

        def counted(ints):
            nonlocal rows
            for row in real(ints):
                rows += 1
                yield row

        monkeypatch.setattr(difftable, "_difference_rows", counted)
        with pytest.raises(NotPolynomialError) as raised:
            difftable.scan_degree_scaled(1, ints, min_witnesses)
        assert raised.value.deepest_row == m - min_witnesses
        n = m - min_witnesses + 1
        assert rows == min_witnesses * n // (2 * m) + 1

    @pytest.mark.parametrize("m, min_witnesses", [(100, 4), (100, 30), (100, 60)])
    def test_the_screen_and_the_other_sums_take_every_sum_once(self, monkeypatch, m, min_witnesses):
        # on a constant row every sum is 0 and taken both ways, n // 2 + 1 products a pass
        ints = self.cubic(m)
        constant, screen = self.screened(monkeypatch, ints, min_witnesses)
        constant_too, others = self.screened(monkeypatch, ints, min_witnesses, rest=True)
        assert constant and constant_too
        assert screen + others == 2 * (min_witnesses - 1) * ((m - min_witnesses + 1) // 2 + 1)

    @staticmethod
    def screened(monkeypatch, ints, min_witnesses, rest=False):
        """_deepest_row_may_be_constant's answer on ints (on its other sums with
        rest set) and the integer products it took."""
        products = 0

        def counted(a, b):
            nonlocal products
            products += 1
            return a * b

        monkeypatch.setattr(difftable, "mul", counted)
        return difftable._deepest_row_may_be_constant(ints, min_witnesses, rest), products

    @classmethod
    def products_to_reject(cls, monkeypatch, ints, min_witnesses):
        """The integer products _deepest_row_may_be_constant takes to reject ints."""
        constant, products = cls.screened(monkeypatch, ints, min_witnesses)
        assert not constant
        return products

    def test_a_constant_row_is_accepted_in_two_sums(self, monkeypatch):
        # n = 2001: the sums at i = 0 and 1998 read every sample, and no other
        # multiple of n + 1 lies between them; each is 0, so it is taken both ways
        m, min_witnesses = 4000, 2000
        constant, products = self.screened(monkeypatch, self.cubic(m), min_witnesses)
        assert constant
        assert products == 2 * 2 * ((m - min_witnesses + 1) // 2 + 1)

    # m = 400 samples; each sum is n // 2 + 1 products, n = m - min_witnesses + 1,
    # modulo _P, and as many again exactly when it is 0 mod _P.  In order from
    # i = 0 up, the sample moved at the end would be seen by the last of
    # min_witnesses - 1 sums, and the middle one (200) by sum 200 - n.  Each
    # sum before the one that sees it is 0, so it is taken both ways.
    @pytest.mark.parametrize("min_witnesses, where, sums", [
        (200, "first", 1), (200, "middle", 1), (200, "last", 2),  # n = 201: the two ends
        (300, "first", 1), (300, "middle", 3), (300, "last", 2),  # n = 101: 0, 298, 102, ...
    ])
    def test_one_moved_sample_is_seen_within_a_few_sums(
            self, monkeypatch, min_witnesses, where, sums):
        m = 400
        products = self.products_to_reject(monkeypatch, self.cubic(m, where), min_witnesses)
        assert products == (2 * sums - 1) * ((m - min_witnesses + 1) // 2 + 1)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("m, min_witnesses",
                             [(40, 2), (40, 3), (40, 36), (400, 200), (400, 300), (401, 200)])
    def test_a_sample_moved_by_p_is_rejected_by_the_exact_sums(
            self, monkeypatch, m, min_witnesses, where):
        # a sample moved by _P leaves every sum 0 mod _P, so only the exact sums
        # see it; they run sum by sum, so it costs what a sample moved by 1 does,
        # plus the exact pass of the one sum that sees it, not every sum's residue
        index = {"first": 0, "middle": m // 2, "last": m - 1}[where]
        costs = []
        for offset in (1, difftable._P):
            ints = self.cubic(m)
            ints[index] += offset
            costs.append(self.products_to_reject(monkeypatch, ints, min_witnesses))
        by_one, by_p = costs
        assert by_p == by_one + (m - min_witnesses + 1) // 2 + 1

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 499, 500])
    def test_residues_are_the_binomials_mod_p(self, n):
        assert difftable._binomials_mod_p(n) == \
            tuple((-1)**j * math.comb(n, j) % difftable._P for j in range(n // 2 + 1))
