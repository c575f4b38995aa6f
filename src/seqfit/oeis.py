"""OEIS b-file fetching, parsing, and triangle cross-checks.

b-files are plain text with lines of `index value` and optional `#` comment
lines.  Fixtures for A019538 (AWNT) and A028246 (MWNT) are bundled so tests
never touch the network; network fetch is opt-in via the `verify --online`
CLI flag.

Orientation note: the rows printed for A028246 in its OEIS entry are
identical to the MWNT rows generated here ((k-1)! * S(n,k) with k = 1..n),
so the cross-check uses the direct row order for both sequences.
"""
from __future__ import annotations

import re
from collections import namedtuple
from importlib import resources
from itertools import count

from .errors import BFileError, DomainError
from .triangles import TriangleKind, build_triangle

_ID_RE = re.compile(r"A(\d{6})\Z")
_LINE_RE = re.compile(r"(-?\d+)\s+(-?\d+)\Z")

# The triangle each bundled fixture holds, and the ids `verify --oeis` accepts.
TRIANGLE_KINDS = {"A019538": TriangleKind.AWNT, "A028246": TriangleKind.MWNT}


# sequence_id: str; entries: tuple of (index, value) int pairs
BFile = namedtuple("BFile", "sequence_id entries")


class CrosscheckReport(namedtuple("CrosscheckReport", "kind cells_checked matched first_mismatch")):
    # kind: TriangleKind; cells_checked, matched: int; first_mismatch: (n, k, ours, theirs) or None
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.matched == self.cells_checked


def parse_bfile(sequence_id: str, text: str) -> BFile:
    entries = []
    last_index = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE_RE.match(line)
        if m is None:
            raise BFileError(f"{sequence_id}: malformed b-file line {lineno}: {raw!r}")
        index, value = int(m.group(1)), int(m.group(2))
        if last_index is not None and index <= last_index:
            raise BFileError(f"{sequence_id}: non-increasing index at line {lineno}")
        last_index = index
        entries.append((index, value))
    return BFile(sequence_id=sequence_id, entries=tuple(entries))


def fetch_bfile(sequence_id: str, source: str = "fixture") -> BFile:
    """Load a b-file from the bundled fixtures or from oeis.org."""
    m = _ID_RE.match(sequence_id)
    if m is None:
        raise BFileError(f"bad OEIS id {sequence_id!r}; expected 'A' + 6 digits")
    if source == "fixture":
        if sequence_id not in TRIANGLE_KINDS:
            raise BFileError(f"no bundled fixture for {sequence_id}")
        text = (
            resources.files("seqfit") / "fixtures" / f"b{m.group(1)}.txt"
        ).read_text()
    elif source == "network":
        from urllib.request import urlopen

        url = f"https://oeis.org/{sequence_id}/b{m.group(1)}.txt"
        try:
            with urlopen(url, timeout=30) as response:
                text = response.read().decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:  # URLError and HTTPError are OSErrors
            raise BFileError(f"fetch of {url} failed: {exc}") from exc
    else:
        raise BFileError(f"unknown source {source!r}")
    return parse_bfile(sequence_id, text)


def crosscheck_triangle(kind: TriangleKind, bfile: BFile, cells: int) -> CrosscheckReport:
    """Compare the first `cells` triangular cells, read row by row, against a b-file
    whose entries must be indexed 1, 2, 3, ..."""
    if cells < 1:
        raise DomainError(f"cells must be >= 1, got {cells}")
    if cells > len(bfile.entries):
        raise BFileError(
            f"requested {cells} cells but {bfile.sequence_id} has {len(bfile.entries)}"
        )
    max_n = next(n for n in count(1) if n * (n + 1) // 2 >= cells)
    ours = ((n, k, value) for n, row in enumerate(build_triangle(kind, max_n), start=1)
            for k, value in enumerate(row, start=1))
    matched = 0
    first_mismatch = None
    for i, ((index, theirs), (n, k, value)) in enumerate(
            zip(bfile.entries[:cells], ours), start=1):
        if index != i:
            raise BFileError(f"{bfile.sequence_id}: entry {i} has index {index}, expected {i}")
        if value == theirs:
            matched += 1
        elif first_mismatch is None:
            first_mismatch = (n, k, value, theirs)
    return CrosscheckReport(
        kind=kind, cells_checked=cells, matched=matched, first_mismatch=first_mismatch
    )
