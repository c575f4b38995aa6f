import json
import random
import sys
import threading
from functools import cache
from itertools import islice
from math import factorial

import pytest
from click.testing import CliRunner

from seqfit import TriangleKind, awnt, build_triangle, mwnt, stirling2
from seqfit import triangles
from seqfit.cli import main
from seqfit.errors import DomainError, InternalConsistencyError
from seqfit.triangles import _signed_power_sum

from conftest import AWNT_TABLE, MWNT_TABLE


class TestAwnt:
    def test_table_value(self):
        assert awnt(6, 4) == 1560

    def test_right_diagonal_is_factorial(self):
        assert awnt(9, 9) == 362880

    def test_zero_above_diagonal(self):
        assert awnt(3, 5) == 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            awnt(0, 1)
        with pytest.raises(DomainError):
            awnt(1, 0)


class TestMwnt:
    def test_table_value(self):
        assert mwnt(7, 3) == 602

    def test_right_diagonal_is_factorial(self):
        assert mwnt(9, 9) == 40320

    def test_small_diagonal(self):
        assert mwnt(2, 2) == 1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mwnt(1, 0)


class TestStirling2:
    def test_partitions_of_four_into_two(self):
        # independent oracle: enumerate 2-block partitions of {0,1,2,3} by the
        # smaller block containing element 0
        blocks = sum(1 for mask in range(1, 2**3) for _ in [mask])
        assert blocks == 7
        assert stirling2(4, 2) == 7
        assert stirling2(4, 2) == awnt(4, 2) // factorial(2)

    def test_base_case(self):
        assert stirling2(0, 0) == 1

    def test_singleton_blocks(self):
        assert stirling2(5, 5) == 1

    def test_zero_cases(self):
        assert stirling2(3, 0) == 0
        assert stirling2(2, 5) == 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            triangles.stirling2(-1, 0)

    def test_past_the_cache_each_cell_is_computed_alone(self, monkeypatch):
        sizes = (128, 129, 200, 300)
        rows = {n: next(islice(triangles.stirling_rows(n), n, None)) for n in sizes}

        def built(max_n):
            raise AssertionError(f"a Stirling table to row {max_n} built for one cell")

        monkeypatch.setattr(triangles, "stirling_rows", built)
        monkeypatch.setattr(triangles, "_stirling_columns", built)
        for n in sizes:
            for k in (0, 1, 2, 3, n // 6, n // 2, n - 1, n):
                assert stirling2(n, k) == rows[n][k], (n, k)



def fresh_columns(n):
    """The columns (S(k, k), ..., S(n, k)), k = 0..n, of the rows stirling_rows builds."""
    rows = tuple(triangles.stirling_rows(n))
    return tuple(tuple(row[k] for row in rows[k:]) for k in range(n + 1))


def down_to(table, n):
    """The columns of a Stirling table by columns, cut at row n."""
    assert len(table) > n and all(len(column) == len(table) - k for k, column in enumerate(table))
    return tuple(column[:n + 1 - k] for k, column in enumerate(table[:n + 1]))


class TestStirlingCache:
    ORDER = (5, 90, 3, 130, 60, 127, 0, 128, 11, 250)  # shuffled, across the cap of 128 rows

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(triangles, "_stirling_cache", ())

    def test_columns_match_fresh_columns_in_any_order_across_the_cap(self):
        deepest = -1
        for n in self.ORDER:
            table = triangles.stirling_table(n)
            assert down_to(table, n) == fresh_columns(n), n
            assert stirling2(n, n // 3) == next(islice(triangles.stirling_rows(n), n, None))[n // 3]
            if n < triangles.STIRLING_CACHE_ROWS:
                deepest = max(deepest, n)
            else:
                assert len(table) == n + 1  # built fresh, down to row n only
            # the cache holds the rows asked for below the cap, no more
            assert len(triangles._stirling_cache) == deepest + 1 <= triangles.STIRLING_CACHE_ROWS
        assert len(triangles._stirling_cache) == triangles.STIRLING_CACHE_ROWS

    def test_columns_are_tuples(self):
        for n in (7, 130):
            table = triangles.stirling_table(n)
            assert type(table) is tuple and all(type(column) is tuple for column in table)

    def test_threads_growing_it_at_once_read_whole_tables(self):
        fresh = fresh_columns(127)
        errors = []

        def reader(seed):
            for n in random.Random(seed).sample(range(128), 40):
                if down_to(triangles.stirling_table(n), n) != down_to(fresh, n):
                    errors.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert triangles._stirling_cache == fresh


class TestPrintedTables:
    def test_all_81_mwnt_cells(self):
        for n in range(1, 10):
            for k in range(1, 10):
                assert mwnt(n, k) == MWNT_TABLE[n - 1][k - 1], (n, k)

    def test_all_81_awnt_cells(self):
        for n in range(1, 10):
            for k in range(1, 10):
                assert awnt(n, k) == AWNT_TABLE[n - 1][k - 1], (n, k)


class TestBuildTriangle:
    def test_mwnt_row_four(self):
        rows = build_triangle(TriangleKind.MWNT, 9)
        assert rows[3] == (1, 7, 12, 6)
        assert sum(len(r) for r in rows) == 45

    def test_awnt_row_five(self):
        assert build_triangle(TriangleKind.AWNT, 9)[4] == (1, 30, 150, 240, 120)

    def test_single_row(self):
        assert build_triangle(TriangleKind.AWNT, 1) == ((1,),)

    def test_bad_max_n(self):
        with pytest.raises(DomainError):
            build_triangle(TriangleKind.MWNT, 0)


# entry(n, k) / S(n, k) per kind
WEIGHTS = {
    TriangleKind.MWNT: lambda k: factorial(k - 1),
    TriangleKind.AWNT: factorial,
    TriangleKind.STIRLING2: lambda k: 1,
}


@cache
def expected_rows(kind, max_n):
    """Rows 1..max_n from the per-cell stirling2, scaled by k!, (k-1)! or 1."""
    return [[WEIGHTS[kind](k) * stirling2(n, k) for k in range(1, n + 1)]
            for n in range(1, max_n + 1)]


class TestBuildTriangleCells:
    @pytest.mark.parametrize("kind", list(TriangleKind))
    def test_every_cell_to_40_rows_matches_both_definitions(self, kind):
        rows = build_triangle(kind, 40)
        for n in range(1, 41):
            for k in range(1, n + 1):
                # the signed power sum is k! * S(n, k)
                by_power_sum = _signed_power_sum(n, k) * WEIGHTS[kind](k) // factorial(k)
                assert rows[n - 1][k - 1] == by_power_sum, (n, k)
        assert [list(row) for row in rows] == expected_rows(kind, 40)

    @pytest.mark.parametrize("rows, k", [(6, 3), (130, 77)])
    @pytest.mark.parametrize("kind", list(TriangleKind))
    def test_wrong_last_row_fails_the_self_check(self, kind, rows, k, monkeypatch):
        real = triangles.stirling_rows

        def corrupted(max_n):
            for n, row in enumerate(real(max_n)):
                yield row if n < max_n else (*row[:k], row[k] + 1, *row[k + 1:])

        monkeypatch.setattr(triangles, "stirling_rows", corrupted)
        with pytest.raises(InternalConsistencyError, match=rf"\(n={rows}, k={k}\)"):
            build_triangle(kind, rows)
        with pytest.raises(InternalConsistencyError, match=rf"\(n={rows}, k={k}\)"):
            triangles.last_row(kind, rows)
        result = CliRunner().invoke(main, ["triangle", f"--kind={kind.value}", f"--rows={rows}"])
        assert result.exit_code != 0
        assert result.stdout == ""  # the check runs before the first row prints


class TestCellsBeforePrint:
    @pytest.mark.parametrize("kind", list(TriangleKind))
    def test_cells_are_of_the_last_row_and_the_widest_comes_last(self, kind):
        for n in range(1, 61):
            row = expected_rows(kind, n)[-1]
            cells = list(triangles.cells_before_print(kind, n, limit=4300))
            assert set(cells) <= set(row), n
            assert cells[-1] == max(row) == max(cells), n
            assert list(triangles.cells_before_print(kind, n, limit=0)) == [max(row)], n


class TestTriangleCommandBytes:
    """`seqfit triangle` output, rebuilt here from stirling2 and the output formats."""

    @staticmethod
    def expected_output(kind, rows, fmt):
        table = expected_rows(kind, rows)
        if fmt == "json":
            return json.dumps({"kind": kind.value, "rows": table}, indent=2) + "\n"
        if fmt == "bfile":
            cells = [value for row in table for value in row]
            return "".join(f"{i} {value}\n" for i, value in enumerate(cells, start=1))
        return "".join("  ".join(str(v) for v in row) + "\n" for row in table)

    @pytest.mark.parametrize("rows", [1, 7, 25, 40, 60])
    @pytest.mark.parametrize("fmt", ["table", "json", "bfile"])
    @pytest.mark.parametrize("kind", list(TriangleKind))
    def test_output_is_byte_identical(self, kind, fmt, rows):
        result = CliRunner().invoke(
            main, ["triangle", f"--kind={kind.value}", f"--rows={rows}", f"--format={fmt}"])
        assert result.exit_code == 0
        assert result.stdout == self.expected_output(kind, rows, fmt)
