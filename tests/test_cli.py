import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from seqfit import AffineMap, cli, fit, format_scalar, oeis, oracle, parse_scalar, triangles
from seqfit.cli import main
from seqfit.errors import SeqfitError
from seqfit.oeis import BFile

from conftest import SEQ_DECIMAL, SEQ_START_ONE, SEQ_START_ZERO
from reference import build_table, detect_degree


def run(args, input=None):
    return CliRunner().invoke(main, args, input=input)


SELF_CHECK_STDOUT = """\
PASS: awnt = k! * stirling2 and mwnt = (k-1)! * stirling2, n,k <= 12
PASS: awnt = k * mwnt, n,k <= 12
PASS: right-diagonal factorials and zeros above the diagonal
PASS: shifted-binomial power sum equals mwnt(q+1, k)
PASS: finite-difference sums: 0 below the diagonal, b^k * k! on it
PASS: fit agrees with the Vandermonde oracle on random polynomials
"""


def write_sequence(tmp_path, values, sep="\n"):
    path = tmp_path / "sequence.txt"
    path.write_text(sep.join(str(v) for v in values) + "\n")
    return str(path)


class TestFitCommand:
    def test_json_golden_start_zero(self, tmp_path):
        path = write_sequence(tmp_path, SEQ_START_ZERO)
        result = run(["fit", path, "--start", "0", "--step", "1", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["degree"] == 6
        assert payload["coefficients_x"] == ["10", "9", "8", "7", "6", "5", "4"]
        assert payload["verified"] is True

    def test_json_golden_start_one(self, tmp_path):
        path = write_sequence(tmp_path, SEQ_START_ONE)
        result = run(["fit", path, "--start", "1", "--convention", "start-one",
                      "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["coefficients_x"] == ["17", "13", "11", "7", "5", "3", "2"]

    def test_text_decimal_grid(self, tmp_path):
        path = write_sequence(tmp_path, SEQ_DECIMAL)
        result = run(["fit", path, "--start", "3.3", "--step", "0.1"])
        assert result.exit_code == 0
        assert "9, 5, 1, 4, 1, 3" in result.output
        assert "0.00003" in result.output

    def test_comma_separated_input(self, tmp_path):
        path = write_sequence(tmp_path, SEQ_START_ZERO, sep=", ")
        result = run(["fit", path, "--format", "json"])
        assert result.exit_code == 0

    def test_an_empty_token_between_commas_is_skipped(self):
        result = run(["difftable"], input="1,,2,3\n")
        assert result.exit_code == 0
        assert result.stdout.splitlines()[0] == "row 0: 1  2  3"

    def test_two_dashes_end_the_options(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-x.txt").write_text("\n".join(map(str, SEQ_START_ZERO)) + "\n")
        result = run(["fit", "--format", "json", "--", "-x.txt"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["coefficients_x"] == ["10", "9", "8", "7", "6", "5", "4"]
        result = run(["fit", "-x.txt"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1].startswith("Error: ")

    def test_stdin_matches_file(self, tmp_path):
        path = write_sequence(tmp_path, SEQ_START_ZERO)
        from_file = run(["fit", path, "--format", "json"])
        from_stdin = run(["fit", "--format", "json"],
                         input="\n".join(str(v) for v in SEQ_START_ZERO) + "\n")
        assert from_file.output == from_stdin.output

    def test_json_is_byte_stable(self, tmp_path):
        path = write_sequence(tmp_path, SEQ_DECIMAL)
        args = ["fit", path, "--start", "3.3", "--step", "0.1", "--format", "json"]
        assert run(args).output == run(args).output

    def test_empty_input_is_usage_error(self):
        result = run(["fit"], input="")
        assert result.exit_code == 2

    def test_malformed_scalar_is_usage_error(self):
        result = run(["fit"], input="1\ntwo\n3\n")
        assert result.exit_code == 2

    def test_zero_step_is_usage_error(self):
        result = run(["fit", "--step", "0"], input="1\n2\n")
        assert result.exit_code == 2

    def test_oversize_literal_is_usage_error(self):
        result = run(["fit", "--format", "json"], input="1\n" + "7" * 5000 + "\n3\n")
        assert result.exit_code == 2
        assert "input parse: scalar with 5000 digits" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="interpreter has no int/str digit limit")
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_oversize_result_is_a_format_error(self, fmt):
        # the x coefficient 10^4400 has more digits than CPython prints by default
        values = f"0\n{10**4000:d}\n{2 * 10**4000:d}\n"
        result = run(["fit", "--step", f"1/{10**400:d}", "--format", fmt], input=values)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error (format): scalar too large to print")
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    def test_non_polynomial_input_is_domain_error(self):
        result = run(["fit"], input="1\n2\n4\n8\n16\n32\n")
        assert result.exit_code == 1
        assert "error (fit)" in result.output

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("values, grid", [(SEQ_START_ZERO, ["--start", "0", "--step", "1"]),
                                              (SEQ_DECIMAL, ["--start", "3.3", "--step", "0.1"])])
    def test_auto_convention_prints_the_start_zero_bytes(self, tmp_path, values, grid, fmt):
        path = write_sequence(tmp_path, values)
        auto, zero = (run(["fit", path, *grid, "--format", fmt, "--convention", convention])
                      for convention in ("auto", "start-zero"))
        assert auto.exit_code == zero.exit_code == 0
        assert auto.stdout_bytes == zero.stdout_bytes
        assert auto.stderr_bytes == zero.stderr_bytes


@pytest.mark.parametrize("command", ["fit", "difftable"])
def test_non_utf8_input_is_usage_error(command, tmp_path):
    path = tmp_path / "sequence.txt"
    path.write_bytes(b"\xff\xfe\n")
    for result in (run([command], input=b"\xff\xfe\n"), run([command, str(path)])):
        assert result.exit_code == 2
        assert result.stderr.endswith("Error: input parse: 'utf-8' codec can't decode byte 0xff "
                                      "in position 0: invalid start byte\n")
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)


def difftable_reference(text, fmt, min_witnesses):
    """`seqfit difftable` output rebuilt from build_table, detect_degree and json.dumps."""
    table = build_table([parse_scalar(t) for t in text.split()])
    try:
        degree = detect_degree(table, min_witnesses=min_witnesses).degree
    except SeqfitError:
        degree = None
    if fmt == "json":
        return json.dumps({
            "rows": [[format_scalar(v) for v in row] for row in table.rows],
            "main_diagonal": [format_scalar(v) for v in table.main_diagonal],
            "degree": degree,
        }, indent=2) + "\n"
    lines = [f"row {r}: " + "  ".join(format_scalar(v, prefer_decimal=True) for v in row)
             for r, row in enumerate(table.rows)]
    lines.append(f"degree: {degree}" if degree is not None
                 else "degree: not polynomial within observed window")
    return "\n".join(lines) + "\n"


DIFFTABLE_INPUTS = {
    "integer": " ".join(map(str, SEQ_START_ZERO)),
    "fractional": " ".join(f"{i * i - 3}/7" for i in range(9)) + " 1/3",
    "fractional polynomial": " ".join(f"{i ** 3}/6" for i in range(-3, 9)),
    "decimal": " ".join(SEQ_DECIMAL),
    "decimal and fraction": "0.5 -1.25 3/8 0.0036 2 -7/3",
    "negative": "-5 -3 -1 1 3 5 7",
    "single value": "-7/3",
    "non-polynomial": "1 2 4 8 16 32 64 128",
    "constant": "3 3 3 3",
    "constant decimal row": " ".join(f"{i ** 3}/4" for i in range(7)),
    "last sample moved": " ".join(str(i ** 3 + (i == 39)) for i in range(40)),
}


class TestDifftableCommand:
    @pytest.mark.parametrize("min_witnesses", [2, 5])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("name", list(DIFFTABLE_INPUTS))
    def test_output_is_byte_identical_to_the_reference(self, name, fmt, min_witnesses):
        text = DIFFTABLE_INPUTS[name]
        args = ["difftable", f"--format={fmt}", f"--min-witnesses={min_witnesses}"]
        result = run(args, input=text.replace(" ", "\n"))
        assert result.exit_code == 0
        assert result.stdout == difftable_reference(text, fmt, min_witnesses)
        assert result.stderr == ""
        if not hasattr(sys, "set_int_max_str_digits"):
            return  # the interpreter has no int/str digit limit to lift
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # no limit: no check walk runs, and the bytes are the same
        try:
            unlimited = run(args, input=text.replace(" ", "\n"))
        finally:
            sys.set_int_max_str_digits(limit)
        assert (unlimited.exit_code, unlimited.stdout, unlimited.stderr) == (0, result.stdout, "")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="interpreter has no int/str digit limit")
    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("denominator", ["", "/3"])
    def test_deep_rows_past_the_digit_limit_are_a_format_error(self, fmt, denominator):
        # every input has 636 digits; alternating signs double the entries row by row,
        # so rows past about the 15th have more than 640
        values = "".join(f"{(-1) ** i * (i % 3 + 1) * 10**635:d}{denominator}\n" for i in range(40))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            result = run(["difftable", f"--format={fmt}"], input=values)
        finally:
            sys.set_int_max_str_digits(limit)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error (format): scalar too large to print")
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="interpreter has no int/str digit limit")
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_the_rows_past_the_check_that_print_are_formatted_twice(self, monkeypatch, fmt):
        # row 0's widest cell, 39^2 * 10^636, has 640 digits, which print, but 2124 bits,
        # which the check reads as up to 640 + bits(1) = 641 digits: only row 0's 40 cells
        # are formatted before printing; row 1's widest, 77 * 10^636, reads as 640
        text = " ".join(str(10**636 * i * i) for i in range(40))
        calls = 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return format_scalar(*args, **kwargs)

        monkeypatch.setattr(cli, "format_scalar", counted)
        streamed = run(["difftable", f"--format={fmt}"], input=text.replace(" ", "\n"))
        streamed_calls, calls = calls, 0
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            result = run(["difftable", f"--format={fmt}"], input=text.replace(" ", "\n"))
            expected = difftable_reference(text, fmt, 2)
        finally:
            sys.set_int_max_str_digits(limit)
        assert result.exit_code == 0
        assert result.stdout == expected == streamed.stdout
        assert result.stderr == ""
        assert calls == streamed_calls + 40  # row 0 once before printing, then as it prints

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="interpreter has no int/str digit limit")
    def test_a_long_polynomial_table_is_formatted_once_under_a_lower_limit(
            self, monkeypatch, tmp_path):
        # no row of 3000 cubes has a cell past 2999^3, though 2^2999 * 2999^3, which
        # bounds every row of any 3000 values up to 2999^3, has 914 digits
        (tmp_path / "cubes.txt").write_text("".join(f"{i ** 3}\n" for i in range(3000)))
        calls = 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return format_scalar(*args, **kwargs)

        def calls_at(digits):
            nonlocal calls
            calls, limit = 0, sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(digits)
            try:
                with open(os.devnull, "w") as out, redirect_stdout(out):
                    assert main.main(["difftable", str(tmp_path / "cubes.txt")],
                                     standalone_mode=False) == 0
            finally:
                sys.set_int_max_str_digits(limit)
            return calls

        monkeypatch.setattr(cli, "format_scalar", counted)
        # rows 0..2 cell by cell, then one call for each of the 2997 constant rows
        assert calls_at(640) == calls_at(sys.get_int_max_str_digits()) == 3000 + 2999 + 2998 + 2997

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="interpreter has no int/str digit limit")
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_a_cell_past_the_digit_limit_in_the_last_row_alone_prints_nothing(self, fmt):
        # alternating signs double every entry row by row: row r holds +-2^r * c, which
        # has 641 digits in row 39, the last, and at most 640 above it
        c = -(-10**640 // 2**39)
        values = "".join(f"{(-1) ** i * c}\n" for i in range(40))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            format_scalar(Fraction(2**38 * c))
            with pytest.raises(SeqfitError) as last_cell:
                format_scalar(Fraction(2**39 * c))
            result = run(["difftable", f"--format={fmt}"], input=values)
        finally:
            sys.set_int_max_str_digits(limit)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error (format): {last_cell.value}\n"
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_a_constant_row_formats_its_cell_once(self, monkeypatch, fmt):
        calls = 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return format_scalar(*args, **kwargs)

        monkeypatch.setattr(cli, "format_scalar", counted)
        result = run(["difftable", f"--format={fmt}"], input="".join(f"{i ** 3}\n" for i in range(300)))
        assert result.exit_code == 0
        # rows 0..2 cell by cell (897 cells), then one call for each of the 297 constant
        # rows; about 45 000 calls, one a cell, when constant rows were formatted in full
        assert calls == 897 + 297

    # (values, digit limit or None for the interpreter's own, rows made, the output's end)
    PULL_CASES = {
        # rows 4..299 hold only 0s and are printed without subtracting (300 when every row
        # was made); the check walk's bound, 2^299 * 299^3, stays within 4300 digits
        "cubes": ([i ** 3 for i in range(300)], None, 4, "row 299: 0\ndegree: 3\n"),
        "cubes, no limit": ([i ** 3 for i in range(300)], 0, 4, "row 299: 0\ndegree: 3\n"),
        # no row above the last is constant: the printer alone makes every row (twice as
        # many when a walk ahead of it always ran)
        "moved cubes": ([i ** 3 + (i == 1499) for i in range(1500)], None, 1500,
                        "row 1499: 1\ndegree: not polynomial within observed window\n"),
        # 2^299 * 299^3 * 10^630 may pass 640 digits, so the check walk makes rows 0..3 too
        "cubes near the limit": ([i ** 3 * 10**630 for i in range(300)], 640, 4 + 4,
                                 "row 299: 0\ndegree: 3\n"),
    }

    @pytest.mark.parametrize("name", list(PULL_CASES))
    def test_the_printer_stops_differencing_at_the_first_constant_row(self, monkeypatch, name):
        values, digits, expected, end = self.PULL_CASES[name]
        if digits is not None and not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("interpreter has no int/str digit limit")
        real, pulled = cli._difference_rows, 0

        def counted(ints):
            nonlocal pulled
            for row in real(ints):
                pulled += 1
                yield row

        monkeypatch.setattr(cli, "_difference_rows", counted)
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if digits is not None:
            sys.set_int_max_str_digits(digits)
        try:
            result = run(["difftable"], input="".join(f"{v}\n" for v in values))
        finally:
            if digits is not None:
                sys.set_int_max_str_digits(limit)
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout.endswith(end)
        assert pulled == expected

    def test_table_output(self):
        result = run(["difftable"], input="10\n49\n628\n4915\n")
        assert result.exit_code == 0
        assert "row 0: 10  49  628  4915" in result.output
        assert "row 1: 39  579  4287" in result.output

    def test_json_output(self):
        result = run(["difftable", "--format", "json"],
                     input=",".join(str(v) for v in SEQ_START_ZERO))
        payload = json.loads(result.output)
        assert payload["main_diagonal"] == ["10", "39", "540", "3168", "7584",
                                            "7800", "2880", "0"]
        assert payload["degree"] == 6

    def test_non_polynomial_still_prints_table(self):
        result = run(["difftable"], input="1\n2\n4\n8\n16\n")
        assert result.exit_code == 0
        assert "not polynomial" in result.output


def traced_run(args, tmp_path, stdin_text=None):
    """(peak bytes traced, bytes printed) of one in-process run whose stdout is a file."""
    if stdin_text is not None:
        (tmp_path / "in.txt").write_text(stdin_text)
        args = [*args, str(tmp_path / "in.txt")]
    with open(tmp_path / "out.txt", "w") as out, redirect_stdout(out):
        main.main(args, standalone_mode=False)  # warm: lazy imports and caches fill here
        out.seek(0)
        out.truncate()
        tracemalloc.start()
        try:
            main.main(args, standalone_mode=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak, os.path.getsize(tmp_path / "out.txt")


class TestOutputMemory:
    """Peak traced memory per byte printed: cells are formatted as rows are made,
    so the peak is a few copies of the text, not a table of Fractions."""

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_difftable_of_250_values(self, fmt, tmp_path):
        values = "".join(f"{i ** 5 - 3 * i * i + 7}\n" for i in range(250))
        peak, printed = traced_run(["difftable", f"--format={fmt}"], tmp_path, values)
        assert printed > 100_000
        assert peak < 6 * printed  # 17-21x when every cell was a Fraction first

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_difftable_of_1000_values_streams_its_rows(self, fmt, tmp_path):
        values = "".join(f"{i ** 5 - 3 * i * i + 7}\n" for i in range(1000))
        peak, printed = traced_run(["difftable", f"--format={fmt}"], tmp_path, values)
        assert printed > 1_000_000
        assert peak < printed / 5  # 2.1x (table), 3.0x (JSON) when the whole text was built first

    @pytest.mark.parametrize("fmt", ["table", "json", "bfile"])
    def test_triangle_of_200_rows(self, fmt, tmp_path):
        peak, printed = traced_run(
            ["triangle", "--kind=awnt", "--rows=200", f"--format={fmt}"], tmp_path)
        assert printed > 4_000_000
        assert peak < printed / 4  # 3.6x when the whole text was built first


class TestTriangleCommand:
    def test_mwnt_table(self):
        result = run(["triangle", "--kind", "mwnt", "--rows", "4"])
        assert result.output.splitlines() == ["1", "1  1", "1  3  2", "1  7  12  6"]

    def test_awnt_json(self):
        result = run(["triangle", "--kind", "awnt", "--rows", "3", "--format", "json"])
        assert json.loads(result.output)["rows"] == [[1], [1, 2], [1, 6, 6]]

    def test_bfile_format(self):
        result = run(["triangle", "--kind", "awnt", "--rows", "3", "--format", "bfile"])
        assert result.output.splitlines() == ["1 1", "2 1", "3 2", "4 1", "5 6", "6 6"]

    def test_stirling2(self):
        result = run(["triangle", "--kind", "stirling2", "--rows", "4"])
        assert result.output.splitlines()[-1] == "1  7  6  1"

    def test_rows_required(self):
        assert run(["triangle", "--kind", "mwnt"]).exit_code == 2

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="interpreter has no int/str digit limit")
    @pytest.mark.parametrize("fmt", ["table", "json", "bfile"])
    def test_cells_past_the_digit_limit_are_a_format_error(self, fmt):
        # AWNT row 300 holds 300! (615 digits) and larger cells; 640 is the lowest limit allowed
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            result = run(["triangle", "--kind", "awnt", "--rows", "300", "--format", fmt])
        finally:
            sys.set_int_max_str_digits(limit)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error (format): scalar too large to print")
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("kind", ["awnt", "mwnt", "stirling2"])
    def test_a_hopeless_triangle_is_rejected_before_any_row_is_built(self, kind):
        # the diagonal cell of row 2500 is 2500! (AWNT) or 2499! (MWNT), over 7400
        # digits, and S(2500, 416) has over 5600; building the 2500 Stirling
        # rows first took more than 20 s (AWNT) and 2.5 min (stirling2)
        try:
            str(math.factorial(2499))
        except ValueError as exc:
            expected = f"error (format): scalar too large to print: {exc}\n"
        else:
            pytest.skip("2499! prints under this interpreter's int/str digit limit")
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "seqfit.cli", "triangle", "--kind", kind, "--rows", "2500",
             "--format", "bfile"], capture_output=True, text=True, timeout=120)
        assert time.perf_counter() - start < 10
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == expected

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="interpreter has no int/str digit limit")
    @pytest.mark.parametrize("kind, first_wide_row",
                             [("awnt", 1485), ("mwnt", 1486), ("stirling2", 1982)])
    def test_rows_past_the_default_limit_are_rejected_before_the_last_row(
            self, monkeypatch, capsys, kind, first_wide_row):
        # the cell at k = 0.721·rows (AWNT, MWNT) or rows // 6 (stirling2) passes
        # 4300 digits at the row the widest cell does; rows 1485..1558 of AWNT,
        # whose diagonal cell still prints, ran past 120 s
        class Reached(Exception):
            pass

        def last_row(*args):
            raise Reached

        monkeypatch.setattr(triangles, "last_row", last_row)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            args = ["triangle", f"--kind={kind}", "--format=bfile"]
            assert main.main([*args, f"--rows={first_wide_row}"], standalone_mode=False) == 1
            with pytest.raises(Reached):
                main.main([*args, f"--rows={first_wide_row - 1}"], standalone_mode=False)
        finally:
            sys.set_int_max_str_digits(limit)
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error (format): scalar too large to print: ")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="interpreter has no int/str digit limit")
    @pytest.mark.parametrize("kind", ["awnt", "mwnt", "stirling2"])
    def test_no_limit_computes_no_extra_cell(self, monkeypatch, kind):
        def cell(*args):
            raise AssertionError("a cell computed under no digit limit")

        expected = run(["triangle", f"--kind={kind}", "--rows=9"]).stdout
        for name in ("awnt", "mwnt", "stirling2"):
            monkeypatch.setattr(triangles, name, cell)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            result = run(["triangle", f"--kind={kind}", "--rows=9"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert result.exit_code == 0
        assert result.stdout == expected

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="interpreter has no int/str digit limit")
    @pytest.mark.parametrize("kind", ["awnt", "mwnt", "stirling2"])
    def test_a_row_count_past_the_k_2_bound_builds_nothing(self, monkeypatch, kind):
        # past 4 * 4300 + 1 rows the cell at k = 2, at least 2^(rows-1) - 1, has over 5160
        # digits; at 10^9 rows it was a 125 MB integer that took 7.8 s to build and then fail
        def built(*args):
            raise AssertionError("a cell or a Stirling row built")

        for name in ("awnt", "mwnt", "stirling2", "stirling_rows"):
            monkeypatch.setattr(triangles, name, built)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(SeqfitError) as cell_2:  # S(20000, 2), the smallest at k = 2
                format_scalar(Fraction(2**19999 - 1))
            result = run(["triangle", f"--kind={kind}", f"--rows={10**9}", "--format=bfile"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == f"error (format): {cell_2.value}\n"


class TestVerifyCommand:
    def test_self_checks_pass(self):
        result = run(["verify", "--self"])
        assert result.exit_code == 0
        assert result.stdout == SELF_CHECK_STDOUT
        assert result.stderr == ""

    @pytest.mark.parametrize("function, cell, failing", [
        ("stirling2", (7, 3), {0}),
        ("mwnt", (5, 3), {0, 1, 3}),
        ("awnt", (4, 4), {0, 1, 2}),
        ("_efdt_row", (3, 3), {4}),
    ])
    def test_a_wrong_cell_fails_exactly_the_identities_that_read_it(
            self, monkeypatch, function, cell, failing):
        real = getattr(oracle, function)

        def off_by_one(*args):
            return real(*args) + (args[-2:] == cell)

        def row_off_by_one(u, v, k, n_max):
            # cell (n, k) of the finite-difference sums: entry n of the row for k
            row = real(u, v, k, n_max)
            n = cell[0]
            if k == cell[1] and n <= n_max:
                row[n] += 1
            return row

        monkeypatch.setattr(oracle, function, row_off_by_one if function == "_efdt_row" else off_by_one)
        names = [line.split(": ", 1)[1] for line in SELF_CHECK_STDOUT.splitlines()]
        expected = [(name, i not in failing) for i, name in enumerate(names)]
        assert list(oracle.identity_checks()) == expected
        result = run(["verify", "--self"])
        assert result.exit_code == 1
        assert result.stdout == "".join(
            f"{'PASS' if ok else 'FAIL'}: {name}\n" for name, ok in expected)

    def test_self_with_an_unknown_sequence_prints_nothing(self):
        result = run(["verify", "--self", "--oeis", "A000001"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.endswith("Error: no triangle mapping for A000001\n")

    def test_oeis_fixture_crosscheck(self):
        result = run(["verify", "--oeis", "A019538", "--cells", "45"])
        assert result.exit_code == 0
        assert "45/45 cells matched" in result.output

    def test_oeis_mwnt_crosscheck(self):
        result = run(["verify", "--oeis", "A028246"])
        assert result.exit_code == 0

    def test_oeis_bfile_with_an_index_gap_is_an_oeis_error(self, monkeypatch):
        real = oeis.fetch_bfile

        def gapped(sequence_id, source):
            bfile = real(sequence_id, source)
            return BFile(bfile.sequence_id, bfile.entries[:13] + bfile.entries[14:])

        monkeypatch.setattr(oeis, "fetch_bfile", gapped)
        result = run(["verify", "--oeis", "A019538", "--cells", "45"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error (oeis): A019538: entry 14 has index 15, expected 14\n"

    def test_oeis_bfile_with_a_wrong_entry_reports_its_first_mismatch(self, monkeypatch):
        real = oeis.fetch_bfile

        def wrong(sequence_id, source):
            # entry 14 is AWNT(5, 4) = 4! * S(5, 4) = 240
            bfile = real(sequence_id, source)
            return BFile(bfile.sequence_id, bfile.entries[:13] + ((14, 241),) + bfile.entries[14:])

        monkeypatch.setattr(oeis, "fetch_bfile", wrong)
        result = run(["verify", "--oeis", "A019538", "--cells", "45"])
        assert result.exit_code == 1
        assert result.stdout == ("FAIL: awnt vs A019538: 44/45 cells matched\n"
                                 "  first mismatch at (n=5, k=4): ours 240, b-file 241\n")
        assert result.stderr == ""

    def test_unknown_sequence_is_usage_error(self):
        assert run(["verify", "--oeis", "A000001"]).exit_code == 2

    def test_no_action_is_usage_error(self):
        assert run(["verify"]).exit_code == 2


def test_import_cli_leaves_oeis_oracle_and_json_to_the_commands_that_use_them():
    probe = ("import sys, seqfit.cli; "
             "print(*(name in sys.modules for name in ('seqfit.oeis', 'seqfit.oracle', 'json')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout == "False False False\n"


@pytest.mark.skipif(os.name != "posix", reason="closes the child's fd before exec")
@pytest.mark.parametrize("closed, args, code", [
    (0, ["fit"], 2),
    (0, ["difftable", "-"], 2),
    (1, ["fit", "FILE"], 1),
    (1, ["difftable", "FILE"], 1),
    (1, ["triangle", "--kind", "awnt", "--rows", "5"], 1),
    (1, ["verify", "--self"], 1),
    (1, ["--version"], 1),
    (1, ["fit", "FILE", "--start", "abc"], 2),
    ("pipe", ["triangle", "--kind", "awnt", "--rows", "300"], 1),
], ids=["fit, stdin closed", "difftable, stdin closed", "fit, stdout closed",
        "difftable, stdout closed", "triangle, stdout closed", "verify, stdout closed",
        "version, stdout closed", "usage error, stdout closed", "reader leaves after 10 bytes"])
def test_a_closed_stream_exits_without_a_traceback(tmp_path, closed, args, code):
    # a stdin closed when the interpreter starts is a usage error; a closed stdout
    # fails as a stdout whose reader has left: exit 1 and nothing on stderr
    args = [write_sequence(tmp_path, SEQ_START_ZERO) if a == "FILE" else a for a in args]
    child = subprocess.Popen(
        [sys.executable, "-m", "seqfit.cli", *args], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, preexec_fn=None if closed == "pipe" else lambda: os.close(closed))
    if closed == "pipe":
        assert len(child.stdout.read(10)) == 10
    out = b"" if closed == "pipe" else child.stdout.read()
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == code
    assert out == b""
    if code == 2:
        assert err.splitlines()[-1].startswith("Error: ")
    else:
        assert err == ""


def test_version_flag():
    result = run(["--version"])
    assert result.exit_code == 0
    assert "seqfit" in result.output


def child_imports(args):
    """A `python -m seqfit.cli` child run on four squares, and the modules it imported."""
    run_ = subprocess.run([sys.executable, "-X", "importtime", "-m", "seqfit.cli", *args],
                          input="1\n4\n9\n16\n", capture_output=True, text=True)
    return run_, {line.rsplit("|", 1)[1].strip() for line in run_.stderr.splitlines()
                  if line.startswith("import time:")}


def test_neither_import_nor_a_run_loads_click():
    probe = "import sys, seqfit.cli; print('click' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
    run_, loaded = child_imports(["fit"])
    assert run_.returncode == 0
    assert run_.stdout.startswith("degree: 2\n")
    assert "seqfit.solver" in loaded  # the probe sees the run's imports
    assert [name for name in loaded if name.split(".")[0] == "click"] == []


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_well_formed_fit_loads_neither_argparse_nor_json(fmt):
    run_, loaded = child_imports(["fit", "--format", fmt])
    assert run_.returncode == 0
    assert "seqfit.solver" in loaded
    assert loaded & {"argparse", "gettext", "locale", "json"} == set()


def test_a_usage_error_loads_argparse():
    run_, loaded = child_imports(["fit", "--bogus"])
    assert run_.returncode == 2
    assert run_.stderr.splitlines()[-1] == "Error: unrecognized arguments: --bogus"
    assert "argparse" in loaded


def test_main_follows_clicks_calling_convention(tmp_path, capsys):
    path = write_sequence(tmp_path, SEQ_START_ZERO)
    assert main.name == "seqfit"
    result = CliRunner().invoke(main, ["fit", path, "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["coefficients_x"] == ["10", "9", "8", "7", "6", "5", "4"]
    assert main.main(["fit", path, "--format", "json"], standalone_mode=False) == 0
    assert capsys.readouterr().out == result.stdout
    assert main.main(["verify"], prog_name="seqfit", standalone_mode=False) == 2
    assert capsys.readouterr().err.endswith("Error: nothing to verify: pass --self and/or --oeis\n")
    with pytest.raises(SystemExit) as exited:
        main.main(["fit", path])
    assert exited.value.code == 0


def test_the_options_joined_to_their_values_are_the_parsers_own():
    # every option of the top parser and its commands either takes a value,
    # whatever its nargs, and is in _TAKES_VALUE, or is a flag (nargs 0)
    parser = cli._parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    actions = [action for p in (parser, *commands.values()) for action in p._actions
               if action.option_strings]
    valued = {name for action in actions if action.nargs != 0 for name in action.option_strings}
    flags = {name for action in actions if action.nargs == 0 for name in action.option_strings}
    assert valued == cli._TAKES_VALUE
    assert flags == {"--self", "--online", "--help", "--version"}


@pytest.mark.parametrize("args", [
    ["fit", "--bogus"],
    ["fit", "--format", "csv"],
    ["triangle", "--kind", "awnt", "--rows", "0"],
    ["fit", "--min-witnesses", "1"],
    ["verify", "--oeis", "A019538", "--cells", "x"],
    ["triangle", "--rows", "3"],
    ["fit", "--start"],
    ["fit", "no-such-file.txt"],
    ["bogus"],
    [],
    ["fit", "--form", "json"],
], ids=["unknown option", "bad choice", "rows 0", "min-witnesses 1", "cells x", "missing kind",
        "start with no value", "missing input file", "unknown command", "no command",
        "abbreviated option"])
def test_a_parser_error_exits_2_with_an_error_line(args):
    result = subprocess.run([sys.executable, "-m", "seqfit.cli", *args], input="1\n2\n3\n",
                            capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1].startswith("Error: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("grid", [["--start", "-1/2", "--step", "-1/3"],
                                  ["--start=-1/2", "--step=-1/3"]])
def test_a_negative_rational_is_an_option_value(grid):
    # 1, 2, 3 at x = -1/2, -5/6, -7/6: p(x) = -1/2 - 3x
    result = run(["fit", *grid, "--format", "json"], input="1\n2\n3\n")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["basis_g"] == {"x0": "-1/2", "h": "-1/3"}
    assert payload["coefficients_x"] == ["-1/2", "-3"]


def test_an_option_value_of_two_dashes_is_a_value():
    result = run(["fit", "--start", "--"], input="1\n2\n")
    assert result.exit_code == 2
    assert result.stderr.endswith("Error: malformed scalar '--'\n")
    result = run(["fit", "--format=--"], input="1\n2\n")
    assert result.exit_code == 2
    assert "--format" in result.stderr.splitlines()[-1]


# A small grammar of command lines and inputs for the fuzz below: valid and
# broken scalars, odd grids, option values out of range, small --rows and
# --cells, and bytes that are not UTF-8.  Valid values are drawn more often
# than broken ones, and an option more often than not; --online is never drawn.
broken_scalars = st.sampled_from(["", "x", "1/", "/3", "1/0", "1.2.3", "1e5", "--", "0x10",
                                  "1_000", ".5", "5.", "+3", "½", "٣"])
valid_scalars = st.one_of(
    st.integers(-60, 60).map(str),
    st.builds("{}/{}".format, st.integers(-60, 60), st.integers(1, 9)),
    st.builds("{}.{}".format, st.integers(-60, 60), st.integers(0, 999)),
)
scalars = st.one_of(valid_scalars, valid_scalars, valid_scalars, broken_scalars)
inputs = st.one_of(
    *(st.builds(lambda tokens, sep: sep.join(tokens), st.lists(tokens, max_size=10),
                st.sampled_from(["\n", ",", ", ", " ", "\n# note\n"]))
      for tokens in (valid_scalars, valid_scalars, scalars)),
    st.binary(max_size=12),
)
valid_counts = st.integers(1, 8).map(str)
# int() reads "1_000" as 1000: as --rows it asks for a triangle of hundreds of MB, so a
# count draws "1_0" in its place
counts = st.one_of(valid_counts, valid_counts, st.integers(-1, 8).map(str),
                   broken_scalars.map(lambda text: "1_0" if text == "1_000" else text))


def options(**choices):
    """Each --name with a value drawn from its strategy, or, one time in three, left out."""
    return st.tuples(*(st.one_of(pair, pair, st.none())
                       for name, values in choices.items()
                       for pair in [st.tuples(st.just("--" + name.replace("_", "-")), values)]))


def choice(*valid):
    return st.one_of(*[st.sampled_from(valid)] * 3, st.just("x"))


command_lines = st.one_of(
    st.tuples(st.just("fit"), options(
        start=scalars, step=scalars, convention=choice("auto", "start-zero", "start-one"),
        format=choice("text", "json"), min_witnesses=counts)),
    st.tuples(st.just("difftable"), options(format=choice("table", "json"), min_witnesses=counts)),
    st.tuples(st.just("triangle"), options(
        kind=choice("awnt", "mwnt", "stirling2"), rows=counts,
        format=choice("table", "json", "bfile"))),
    st.tuples(st.just("verify"), options(
        self=st.none(),  # a flag: the None after it is dropped
        oeis=choice("A019538", "A028246", "A000001"),
        cells=st.integers(-1, 120).map(str))),
)

REPORT_LINE = re.compile(r"(PASS|FAIL): |  first mismatch at ")


@settings(max_examples=300, deadline=None)
@given(command_lines, inputs,
       st.sampled_from([[], [], ["-"], ["-"], ["no-such-file.txt"], ["--bogus"]]))
def test_any_command_line_exits_0_1_or_2_without_a_traceback(command_line, stdin, extra):
    command, drawn = command_line
    args = [command, *(word for pair in drawn if pair for word in pair if word is not None)]
    if command in ("fit", "difftable"):
        args += extra
    result = CliRunner().invoke(main, args, input=stdin)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 1, 2)
    assert "Traceback" not in result.output
    if result.exit_code == 2 or (result.exit_code == 1 and command != "verify"):
        assert result.stdout == ""
    elif result.exit_code == 1:
        assert all(REPORT_LINE.match(line) for line in result.stdout.splitlines())


def parsed_by_argparse(words):
    """The namespace and extra words of argparse's parse of words."""
    args, extra = cli._parser().parse_known_args(words)
    return vars(args), extra


# words the grammar above never draws: the end of the options, stdin, a negative
# number, a flag with a value, help and version, values that start with `--` or are
# empty, and INPUT_FILEs; None repeats a word already drawn
odd_words = st.sampled_from(["--", "-", "-5", "--self=1", "--self", "--online", "--help",
                             "--version", "--start=--x", "--start=", "--format=", "--rows=",
                             "--kind=", "--oeis=", "in.txt", "", "fit", "no-such-file.txt"])


@settings(max_examples=500, deadline=None)
@given(command_lines, st.lists(st.tuples(st.integers(0, 20), st.one_of(odd_words, st.none())),
                               max_size=3),
       st.booleans())
def test_the_fast_parse_declines_or_equals_argparse(command_line, inserts, joined):
    command, drawn = command_line
    pairs = [pair for pair in drawn if pair]
    args = [command, *(word for name, value in pairs
                       for word in ([f"{name}={value}"] if joined else [name, value])
                       if word is not None)]
    for at, word in inserts:  # at 0, before the command
        args.insert(at % (len(args) + 1), args[at % len(args)] if word is None else word)
    words = cli._joined(args)
    fast = cli._fast_args(words)
    if fast is not None:
        assert (vars(fast), []) == parsed_by_argparse(words)


@pytest.mark.parametrize("args", [
    ["fit"],
    ["fit", "-", "--start=-1/2", "--step=0.1", "--format=json", "--convention=start-one"],
    ["fit", "--start", "-1/2", "in.txt", "--min-witnesses", "3"],
    ["difftable", "-", "--format=json"],
    ["difftable", "--min-witnesses=٣", "in.txt"],
    ["triangle", "--kind=awnt", "--rows=30", "--format=bfile"],
    ["triangle", "--rows", "5", "--kind", "stirling2"],
    ["verify", "--self"],
    ["verify", "--oeis", "A019538", "--cells=30", "--online", "--self"],
])
def test_the_fast_parse_reads_the_lines_that_need_no_argparse(args):
    words = cli._joined(args)
    assert vars(cli._fast_args(words)) == parsed_by_argparse(words)[0]


@pytest.mark.parametrize("args", [
    [], ["--help"], ["--version"], ["fit", "--help"], ["fit", "--"], ["fit", "--", "in.txt"],
    ["fit", "-5"], ["verify", "--self=1"], ["fit", "--format=csv"], ["fit", "--start"],
    ["fit", "--start="], ["fit", ""], ["fit", "--start=--"], ["fit", "--start=0", "--start=1"],
    ["fit", "a.txt", "b.txt"],
    ["triangle", "--kind=awnt"], ["triangle", "--kind=awnt", "--rows=0"], ["--start=0", "fit"],
    ["verify", "--kind=awnt"], ["bogus"], ["fit", "--form=json"],
])
def test_the_fast_parse_declines_the_rest(args):
    assert cli._fast_args(cli._joined(args)) is None


def old_fit_json(result):
    """`seqfit fit --format json`'s output as json.dumps made it."""
    return json.dumps({
        "degree": result.degree_report.degree,
        "basis_g": {
            "x0": format_scalar(result.index_map.x0),
            "h": format_scalar(result.index_map.h),
        },
        "coefficients_g": [format_scalar(c) for c in result.poly_in_g.coefficients],
        "coefficients_x": [format_scalar(c) for c in result.poly_in_x.coefficients],
        "verified": True,
    }, indent=2)


def test_the_fit_json_is_laid_out_as_json_dumps_lays_it_out():
    rng = random.Random(3213)
    for trial in range(300):
        d = rng.choice([rng.randint(0, 8), rng.randint(0, 60)])
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(d)] + [Fraction(1, 3)]
        if trial % 3 == 0:  # a decimal grid
            x0 = Fraction(rng.randint(-99, 99), 10)
            h = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([10, 100]))
        else:
            x0, h = Fraction(rng.randint(-9, 9)), Fraction(rng.choice([-3, -1, 1, 2]))
        values = [sum(c * (x0 + i * h) ** j for j, c in enumerate(coeffs))
                  for i in range(d + rng.randint(2, 4))]
        result = fit(values, AffineMap(x0, h), rng.choice(["start_zero", "start_one"]))
        assert cli._format_fit(result, "json") == old_fit_json(result)
