import io
import urllib.error
import urllib.request

import pytest

from seqfit import TriangleKind
from seqfit.errors import BFileError, DomainError
from seqfit.oeis import BFile, crosscheck_triangle, fetch_bfile, parse_bfile


class TestFetchBfile:
    def test_awnt_fixture_prefix(self):
        bfile = fetch_bfile("A019538", source="fixture")
        assert bfile.entries[:6] == ((1, 1), (2, 1), (3, 2), (4, 1), (5, 6), (6, 6))
        assert len(bfile.entries) >= 100

    def test_mwnt_fixture_prefix(self):
        bfile = fetch_bfile("A028246", source="fixture")
        assert bfile.entries[:6] == ((1, 1), (2, 1), (3, 1), (4, 1), (5, 3), (6, 2))
        assert len(bfile.entries) >= 100

    def test_missing_fixture(self):
        with pytest.raises(BFileError, match="no bundled fixture"):
            fetch_bfile("A000000", source="fixture")

    def test_bad_id(self):
        with pytest.raises(BFileError, match="bad OEIS id"):
            fetch_bfile("bad", source="fixture")

    def test_network_fetch_reads_the_bfile(self, monkeypatch):
        requested = []

        def fake_urlopen(url, timeout):
            requested.append(url)
            return io.BytesIO(b"# A019538\n1 1\n2 1\n3 2\n")

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        bfile = fetch_bfile("A019538", source="network")
        assert requested == ["https://oeis.org/A019538/b019538.txt"]
        assert bfile.entries == ((1, 1), (2, 1), (3, 2))

    @pytest.mark.parametrize("error", [
        urllib.error.URLError("name resolution failed"),
        urllib.error.HTTPError("https://oeis.org/A019538/b019538.txt", 404, "Not Found", {}, None),
        TimeoutError("timed out"),
    ])
    def test_network_failure_is_a_bfile_error(self, monkeypatch, error):
        def fake_urlopen(url, timeout):
            raise error

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        with pytest.raises(BFileError, match="fetch of https://oeis.org/A019538/b019538.txt failed"):
            fetch_bfile("A019538", source="network")

    def test_bad_source(self):
        with pytest.raises(BFileError, match="unknown source"):
            fetch_bfile("A019538", source="cache")


class TestParseBfile:
    def test_comments_and_blank_lines_skipped(self):
        bfile = parse_bfile("A019538", "# header\n\n1 1\n2 1\n")
        assert bfile.entries == ((1, 1), (2, 1))

    def test_malformed_line_reports_number(self):
        with pytest.raises(BFileError, match="line 2"):
            parse_bfile("A019538", "1 1\noops\n")

    def test_non_increasing_index_rejected(self):
        with pytest.raises(BFileError, match="non-increasing"):
            parse_bfile("A019538", "2 1\n1 1\n")


class TestCrosscheck:
    def test_awnt_first_45_cells(self):
        bfile = fetch_bfile("A019538", source="fixture")
        report = crosscheck_triangle(TriangleKind.AWNT, bfile, 45)
        assert report.ok and report.matched == 45

    def test_mwnt_first_45_cells(self):
        # pinned orientation: A028246 rows match MWNT rows directly
        bfile = fetch_bfile("A028246", source="fixture")
        report = crosscheck_triangle(TriangleKind.MWNT, bfile, 45)
        assert report.ok and report.matched == 45

    def test_all_fixture_cells_match(self):
        for seq_id, kind in (("A019538", TriangleKind.AWNT), ("A028246", TriangleKind.MWNT)):
            bfile = fetch_bfile(seq_id, source="fixture")
            report = crosscheck_triangle(kind, bfile, len(bfile.entries))
            assert report.ok

    def test_corrupted_fixture_reports_location(self):
        bfile = fetch_bfile("A019538", source="fixture")
        entries = list(bfile.entries)
        entries[13] = (entries[13][0], entries[13][1] + 1)  # linear index 14 -> (5, 4)
        report = crosscheck_triangle(TriangleKind.AWNT, BFile("A019538", tuple(entries)), 45)
        assert not report.ok
        assert report.matched == 44
        n, k, ours, theirs = report.first_mismatch
        assert (n, k) == (5, 4)
        assert ours == 240 and theirs == 241

    def test_mirrored_comparison_detects_orientation(self):
        # a b-file with every row reversed must not match (rows are not palindromes)
        values = [v for _, v in fetch_bfile("A028246", source="fixture").entries[:45]]
        rows = [values[n * (n - 1) // 2:n * (n + 1) // 2] for n in range(1, 10)]
        mirrored = [v for row in rows for v in reversed(row)]
        bfile = BFile("A028246", tuple(enumerate(mirrored, start=1)))
        report = crosscheck_triangle(TriangleKind.MWNT, bfile, 45)
        assert not report.ok
        assert report.first_mismatch == (3, 1, 1, 2)  # row 3 reads 2 3 1

    @pytest.mark.parametrize("edit", [
        lambda entries: entries[:13] + entries[14:],  # index 14 is missing
        lambda entries: tuple((i - 1, v) for i, v in entries),  # indexed from 0
    ], ids=["gap", "offset-0"])
    def test_entries_must_be_indexed_from_one_without_gaps(self, edit):
        bfile = fetch_bfile("A019538", source="fixture")
        broken = BFile("A019538", edit(bfile.entries))
        with pytest.raises(BFileError, match="has index"):
            crosscheck_triangle(TriangleKind.AWNT, broken, 45)

    @pytest.mark.parametrize("cells", [0, -3])
    def test_fewer_than_one_cell_is_rejected(self, cells):
        bfile = fetch_bfile("A019538", source="fixture")
        with pytest.raises(DomainError, match=f"cells must be >= 1, got {cells}"):
            crosscheck_triangle(TriangleKind.AWNT, bfile, cells)

    def test_too_many_cells_requested(self):
        bfile = fetch_bfile("A019538", source="fixture")
        with pytest.raises(BFileError, match="requested"):
            crosscheck_triangle(TriangleKind.AWNT, bfile, len(bfile.entries) + 1)
