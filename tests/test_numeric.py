import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqfit import binomial, format_scalar, parse_scalar
from seqfit.errors import DomainError, ScalarParseError, SeqfitError, ZeroDenominatorError
from seqfit.numeric import common_denominator


class TestParseScalar:
    def test_decimal(self):
        assert parse_scalar("0.0036") == Fraction(9, 2500)

    def test_integer(self):
        assert parse_scalar("10") == Fraction(10)

    def test_decimal_with_long_fraction_part(self):
        assert parse_scalar("1472.79189") == Fraction(147279189, 100000)

    def test_negative_decimal(self):
        assert parse_scalar("-0.0036") == Fraction(-9, 2500)

    def test_fraction(self):
        assert parse_scalar("7/3") == Fraction(7, 3)

    def test_negative_fraction(self):
        assert parse_scalar("-7/3") == Fraction(-7, 3)

    def test_whitespace_trimmed(self):
        assert parse_scalar("  3.3 ") == Fraction(33, 10)

    @pytest.mark.parametrize("bad", ["", "abc", "1.2.3", "1/2/3", "1e3", ".5", "1.", "--2"])
    def test_malformed(self, bad):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)

    def test_zero_denominator_is_distinct(self):
        with pytest.raises(ZeroDenominatorError):
            parse_scalar("7/0")

    @given(st.integers(-10**12, 10**12), st.integers(1, 12))
    def test_parsed_decimal_times_power_of_ten_is_integer(self, mantissa, f):
        text = f"{'-' if mantissa < 0 else ''}{abs(mantissa) // 10**f}.{abs(mantissa) % 10**f:0{f}d}"
        value = parse_scalar(text)
        assert (value * 10**f).denominator == 1


class TestFormatScalar:
    def test_integer_canonical(self):
        assert format_scalar(Fraction(10)) == "10"

    def test_fraction_canonical(self):
        assert format_scalar(Fraction(9, 2500)) == "9/2500"

    def test_decimal_rendering(self):
        assert format_scalar(Fraction(9, 2500), prefer_decimal=True) == "0.0036"
        assert format_scalar(Fraction(3, 100000), prefer_decimal=True) == "0.00003"
        assert format_scalar(Fraction(-33, 10), prefer_decimal=True) == "-3.3"

    def test_non_decimal_denominator_stays_fractional(self):
        assert format_scalar(Fraction(1, 3), prefer_decimal=True) == "1/3"

    def test_reduced_denominator_still_renders_decimal(self):
        # 1935.96875 reduces to denominator 32 = 2^5; must round-trip
        value = parse_scalar("1935.96875")
        assert value.denominator == 32
        assert format_scalar(value, prefer_decimal=True) == "1935.96875"

    @given(st.fractions())
    def test_format_parse_round_trip(self, value):
        assert parse_scalar(format_scalar(value)) == value


class TestBinomial:
    def test_standard_value(self):
        assert binomial(6, 3) == 20

    def test_identity_case(self):
        assert binomial(5, 0) == 1

    def test_k_greater_than_n(self):
        assert binomial(3, 5) == 0

    def test_pascals_rule(self):
        for n in range(1, 31):
            for k in range(n + 1):
                left = binomial(n, k)
                right = binomial(n - 1, k - 1) + binomial(n - 1, k) if k else binomial(n - 1, 0)
                assert left == right

    @pytest.mark.parametrize("n, k", [(-1, 0), (-1, 2), (3, -1)])
    def test_negative_arguments_rejected(self, n, k):
        # a DomainError, so a SeqfitError and still a ValueError
        with pytest.raises(SeqfitError, match="nonnegative") as err:
            binomial(n, k)
        assert isinstance(err.value, DomainError) and isinstance(err.value, ValueError)


class TestCommonDenominator:
    exact = st.one_of(
        st.integers(-10**30, 10**30),
        st.booleans(),
        st.fractions(max_denominator=10**6),
        st.builds(Fraction, st.integers(-10**30, 10**30), st.sampled_from([1, 2, 3, 4, 6, 10, 12, 10**9 + 7])),
    )

    @given(st.lists(exact, max_size=40) | st.lists(st.integers(), max_size=40))
    def test_lcm_of_reduced_denominators_and_exact_numerators(self, values):
        den, ints = common_denominator(values)
        assert den == math.lcm(*(Fraction(v).denominator for v in values))
        assert len(ints) == len(values)
        assert all(isinstance(n, int) for n in ints)
        assert all(n == v * den for n, v in zip(ints, values))

    def test_example(self):
        assert common_denominator([Fraction(1, 6), 2, True, Fraction(-3, 4)]) == (12, [2, 24, 12, -9])

    def test_a_generator_is_read_once(self):
        # the type check used to exhaust a one-shot iterator, leaving (1, [])
        assert common_denominator(v for v in (Fraction(1, 2), Fraction(1, 3))) == (6, [3, 2])

    @pytest.mark.parametrize("value, name", [(0.5, "float"), (Decimal("0.5"), "Decimal")])
    def test_inexact_value_rejected(self, value, name):
        with pytest.raises(DomainError) as err:
            common_denominator([1, Fraction(1, 2), value])
        assert str(err.value) == f"values must be exact rationals (int or Fraction), not {name}"


def test_rational_arithmetic_is_exact():
    rng = random.Random(4915)
    for _ in range(1000):
        a, b = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
        c, d = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
        total = Fraction(a, b) + Fraction(c, d)
        assert total == Fraction(a * d + c * b, b * d)
        assert total.denominator > 0


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="interpreter has no int/str digit limit")
class TestOversizeLiterals:
    # 5000 digits is past CPython's default int/str conversion limit of 4300
    DIGITS = "7" * 5000

    @pytest.mark.parametrize("template", ["{}", "-{}", "{}.5", "1.{}", "{}/3", "3/{}"])
    def test_raises_parse_error_not_value_error(self, template):
        with pytest.raises(ScalarParseError, match=r"50\d\d digits exceeds"):
            parse_scalar(template.format(self.DIGITS))

    def test_limit_is_left_as_it_was(self):
        before = sys.get_int_max_str_digits()
        with pytest.raises(ScalarParseError):
            parse_scalar(self.DIGITS)
        assert sys.get_int_max_str_digits() == before


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="interpreter has no int/str digit limit")
class TestOversizeResults:
    BIG = 10**4400  # past CPython's default int/str conversion limit of 4300 digits

    @pytest.mark.parametrize("value", [Fraction(BIG), Fraction(-BIG, 3), Fraction(3, BIG + 1),
                                       Fraction(BIG + 1, 10**5)])
    @pytest.mark.parametrize("prefer_decimal", [False, True])
    def test_raises_domain_error_not_value_error(self, value, prefer_decimal):
        with pytest.raises(DomainError, match="too large to print") as err:
            format_scalar(value, prefer_decimal=prefer_decimal)
        assert isinstance(err.value, SeqfitError)

    def test_limit_is_left_as_it_was(self):
        before = sys.get_int_max_str_digits()
        with pytest.raises(DomainError):
            format_scalar(Fraction(self.BIG))
        assert sys.get_int_max_str_digits() == before
