import json
import sys

import pytest
from click.testing import CliRunner

from seqfit import cli, oracle
from seqfit.cli import main
from seqfit.oeis import BFile

from conftest import SEQ_DECIMAL, SEQ_START_ONE, SEQ_START_ZERO


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


class TestDifftableCommand:
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
        ("efdt_sum", (3, 3), {4}),
    ])
    def test_a_wrong_cell_fails_exactly_the_identities_that_read_it(
            self, monkeypatch, function, cell, failing):
        real = getattr(oracle, function)

        def off_by_one(*args):
            return real(*args) + (args[-2:] == cell)

        monkeypatch.setattr(oracle, function, off_by_one)
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
        real = cli.fetch_bfile

        def gapped(sequence_id, source):
            bfile = real(sequence_id, source)
            return BFile(bfile.sequence_id, bfile.entries[:13] + bfile.entries[14:])

        monkeypatch.setattr(cli, "fetch_bfile", gapped)
        result = run(["verify", "--oeis", "A019538", "--cells", "45"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error (oeis): A019538: entry 14 has index 15, expected 14\n"

    def test_unknown_sequence_is_usage_error(self):
        assert run(["verify", "--oeis", "A000001"]).exit_code == 2

    def test_no_action_is_usage_error(self):
        assert run(["verify"]).exit_code == 2


def test_version_flag():
    result = run(["--version"])
    assert result.exit_code == 0
    assert "seqfit" in result.output
