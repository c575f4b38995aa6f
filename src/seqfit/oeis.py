"""OEIS b-file fetching, parsing, and triangle cross-checks.

b-files are plain text with lines of `index value` and optional `#` comment
lines.  Fixtures for A019538 (AWNT) and A028246 (MWNT) are bundled so tests
never touch the network; network fetch is opt-in via the `verify --online`
CLI flag.

Orientation note: the rows printed for A028246 in its OEIS entry are
identical to the MWNT rows generated here ((k-1)! * S(n,k) with k = 1..n),
so the cross-check uses the direct row order for both sequences, with
per-row reversal available as an explicit option.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

from .errors import BFileError
from .triangles import TriangleKind, build_triangle

_ID_RE = re.compile(r"A(\d{6})\Z")
_LINE_RE = re.compile(r"(-?\d+)\s+(-?\d+)\Z")

FIXTURE_IDS = {"A019538", "A028246"}


@dataclass(frozen=True)
class BFile:
    sequence_id: str
    entries: tuple[tuple[int, int], ...]

    def serialize(self) -> str:
        return "".join(f"{i} {v}\n" for i, v in self.entries)


@dataclass(frozen=True)
class CrosscheckReport:
    kind: TriangleKind
    cells_checked: int
    matched: int
    first_mismatch: tuple[int, int, int, int] | None  # (n, k, ours, theirs)

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
        if sequence_id not in FIXTURE_IDS:
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


def _linear_to_nk(index: int) -> tuple[int, int]:
    # row-major 1-based: index = n(n-1)/2 + k with 1 <= k <= n
    n = 1
    while n * (n + 1) // 2 < index:
        n += 1
    k = index - n * (n - 1) // 2
    return n, k


def crosscheck_triangle(
    kind: TriangleKind, bfile: BFile, cells: int, mirror_rows: bool = False
) -> CrosscheckReport:
    """Compare the first `cells` triangular cells against a b-file.

    With mirror_rows each generated row is reversed before comparison.
    """
    if cells > len(bfile.entries):
        raise BFileError(
            f"requested {cells} cells but {bfile.sequence_id} has {len(bfile.entries)}"
        )
    max_n, _ = _linear_to_nk(cells)
    triangle = build_triangle(kind, max_n)
    matched = 0
    first_mismatch = None
    for i in range(cells):
        _, value = bfile.entries[i]
        n, k = _linear_to_nk(i + 1)
        ours = triangle.value(n, n + 1 - k) if mirror_rows else triangle.value(n, k)
        if ours == value:
            matched += 1
        elif first_mismatch is None:
            first_mismatch = (n, k, ours, value)
    return CrosscheckReport(
        kind=kind, cells_checked=cells, matched=matched, first_mismatch=first_mismatch
    )
