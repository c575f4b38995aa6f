import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqfit import build_table, detect_degree
from seqfit import difftable
from seqfit.difftable import diagonal_direct, scan_degree
from seqfit.errors import DomainError, NotPolynomialError

from conftest import DIAG_START_ONE, DIAG_START_ZERO

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
