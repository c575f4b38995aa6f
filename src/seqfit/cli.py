"""Command-line front end: fit, difftable, triangle, and verify subcommands.

Exit codes: 0 success, 1 domain errors (non-polynomial data, inconsistency,
failed verification), 2 usage and input-parse errors.  All errors go to
stderr; results go to stdout.
"""
from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from math import factorial

import click

from . import __version__
from .difftable import _difference_rows
from .errors import BFileError, DomainError, ScalarParseError, SeqfitError
from .numeric import Rational, common_denominator, format_scalar, parse_scalar
from .solver import AffineMap, fit
from .triangles import TriangleKind, last_row, triangle_rows

_CONVENTIONS = {"auto": "start_zero", "start-zero": "start_zero", "start-one": "start_one"}


def _read_values(input_file) -> list[Rational]:
    """Parse newline- or comma-separated scalars, skipping '#' comment lines."""
    try:
        text = input_file.read()
    except UnicodeDecodeError as exc:
        raise click.UsageError(f"input parse: {exc}")
    values = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for token in line.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                values.append(parse_scalar(token))
            except ScalarParseError as exc:
                raise click.UsageError(f"input parse: {exc}")
    if not values:
        raise click.UsageError("input contains no values")
    return values


def _fail(stage: str, exc: Exception):
    click.echo(f"error ({stage}): {exc}", err=True)
    sys.exit(1)


def _json_list(items: Iterable[str], indent: str) -> str:
    """items, each a JSON value already, as json.dumps(indent=2) lays out a
    non-empty list whose first line is indented by indent."""
    return f"[\n{indent}  " + f",\n{indent}  ".join(items) + f"\n{indent}]"


@click.group()
@click.version_option(__version__, prog_name="seqfit")
def main():
    """Recover exact polynomial coefficients from a sequence of values.

    \b
    Examples:
      seqfit fit values.txt --start 0 --step 1        # grid 0, 1, 2, ...
      seqfit fit values.txt --start 1 --step 1 --convention start-one
      seqfit fit values.txt --start 3.3 --step 0.1    # arbitrary affine grid
    """


@main.command("fit")
@click.argument("input_file", type=click.File("r"), default="-")
@click.option("--start", default="0", help="First grid value x0 (default 0).")
@click.option("--step", default="1", help="Constant grid step h (default 1).")
@click.option(
    "--convention",
    type=click.Choice(sorted(_CONVENTIONS)),
    default="auto",
    help="Index convention; auto remaps the grid to indexes 0, 1, 2, ...",
)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--min-witnesses", type=click.IntRange(min=2), default=2,
              help="Entries required in the constant row (default 2).")
def fit_cmd(input_file, start, step, convention, fmt, min_witnesses):
    """Fit the generating polynomial of the sequence in INPUT_FILE (or stdin)."""
    values = _read_values(input_file)
    try:
        x0, h = parse_scalar(start), parse_scalar(step)
    except ScalarParseError as exc:
        raise click.UsageError(str(exc))
    if h == 0:
        raise click.UsageError("--step must be nonzero")
    try:
        result = fit(values, AffineMap(x0=x0, h=h),
                     convention=_CONVENTIONS[convention], min_witnesses=min_witnesses)
    except SeqfitError as exc:
        _fail("fit", exc)
    try:
        click.echo(_format_fit(result, fmt))
    except DomainError as exc:
        _fail("format", exc)


def _format_fit(result, fmt: str) -> str:
    if fmt == "json":
        import json

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
    x0, h, g, x = (", ".join(format_scalar(c, prefer_decimal=True) for c in scalars)
                   for scalars in ([result.index_map.x0], [result.index_map.h],
                                   result.poly_in_g.coefficients, result.poly_in_x.coefficients))
    return (f"degree: {result.degree_report.degree}\n"
            f"coefficients in g = (x - {x0})/{h} (ascending power): {g}\n"
            f"coefficients in x (ascending power): {x}\n"
            "verified against all input samples")


@main.command("difftable")
@click.argument("input_file", type=click.File("r"), default="-")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
@click.option("--min-witnesses", type=click.IntRange(min=2), default=2)
def difftable_cmd(input_file, fmt, min_witnesses):
    """Print the difference table of the sequence in INPUT_FILE (or stdin)."""
    den, ints = common_denominator(_read_values(input_file))
    try:
        click.echo(_format_table(den, ints, min_witnesses, fmt))
    except DomainError as exc:
        _fail("format", exc)


def _format_table(den: int, ints: list[int], min_witnesses: int, fmt: str) -> str:
    """The difference table of ints over den, each integer row formatted as it
    is made, so only one row of cells is live beside the text, and the degree
    read off the same rows: the first constant one with at least min_witnesses
    entries, as fit's degree scan finds it, or none."""
    texts, diagonal, degree = [], [], None
    for r, row in enumerate(_difference_rows(ints)):
        if degree is None and len(row) >= min_witnesses and row.count(row[0]) == len(row):
            degree = r
        if fmt == "json":
            cells = [f'"{format_scalar(Rational(n, den))}"' for n in row]
            diagonal.append(cells[0])
            texts.append(_json_list(cells, "    "))
        else:
            texts.append(f"row {r}: " + "  ".join(
                format_scalar(Rational(n, den), prefer_decimal=True) for n in row))
    if fmt == "json":
        return (f'{{\n  "rows": {_json_list(texts, "  ")},\n'
                f'  "main_diagonal": {_json_list(diagonal, "  ")},\n'
                f'  "degree": {"null" if degree is None else degree}\n}}')
    texts.append(f"degree: {degree}" if degree is not None
                 else "degree: not polynomial within observed window")
    return "\n".join(texts)


@main.command("triangle")
@click.option("--kind", type=click.Choice(["mwnt", "awnt", "stirling2"]), required=True)
@click.option("--rows", type=click.IntRange(min=1), required=True)
@click.option("--format", "fmt", type=click.Choice(["table", "json", "bfile"]), default="table")
def triangle_cmd(kind, rows, fmt):
    """Print a number triangle with the given number of rows."""
    kind = TriangleKind(kind)
    try:
        # the diagonal cell, rows! or (rows-1)!, is no wider than the widest:
        # if it cannot print, reject before building any row
        if kind is not TriangleKind.STIRLING2:
            format_scalar(factorial(rows - (kind is TriangleKind.MWNT)))
        # no column shrinks as n grows, so if the widest cell prints, every cell does
        format_scalar(max(last_row(kind, rows)))
    except DomainError as exc:
        _fail("format", exc)
    for text in _triangle_text(kind, triangle_rows(kind, rows), fmt):
        click.echo(text, nl=False)


def _triangle_text(kind: TriangleKind, rows, fmt: str) -> Iterator[str]:
    """The output of `seqfit triangle`, one row's text at a time."""
    if fmt == "json":
        yield f'{{\n  "kind": "{kind.value}",\n  "rows": [\n    '
        for n, row in enumerate(rows):
            yield (",\n    " if n else "") + _json_list(map(str, row), "    ")
        yield "\n  ]\n}\n"
    elif fmt == "bfile":
        for n, row in enumerate(rows):
            yield "".join(f"{i} {v}\n" for i, v in enumerate(row, start=n * (n + 1) // 2 + 1))
    else:
        for row in rows:
            yield "  ".join(map(str, row)) + "\n"


@main.command("verify")
@click.option("--self", "self_check", is_flag=True, help="Run the identity suites.")
@click.option("--oeis", "oeis_id", default=None, help="Cross-check against an OEIS b-file.")
@click.option("--online", is_flag=True, help="Fetch the b-file from oeis.org instead of fixtures.")
@click.option("--cells", type=click.IntRange(min=1), default=45)
def verify_cmd(self_check, oeis_id, online, cells):
    """Run self-verification suites and OEIS cross-checks."""
    if not self_check and oeis_id is None:
        raise click.UsageError("nothing to verify: pass --self and/or --oeis")
    if oeis_id is not None:
        from .oeis import TRIANGLE_KINDS, crosscheck_triangle, fetch_bfile

        kind = TRIANGLE_KINDS.get(oeis_id)
        if kind is None:
            raise click.UsageError(f"no triangle mapping for {oeis_id}")
    failures = _run_self_checks() if self_check else 0
    if oeis_id is not None:
        try:
            bfile = fetch_bfile(oeis_id, source="network" if online else "fixture")
            report = crosscheck_triangle(kind, bfile, cells)
        except BFileError as exc:
            _fail("oeis", exc)
        status = "PASS" if report.ok else "FAIL"
        click.echo(f"{status}: {kind.value} vs {oeis_id}: "
                   f"{report.matched}/{report.cells_checked} cells matched")
        if report.first_mismatch:
            n, k, ours, theirs = report.first_mismatch
            click.echo(f"  first mismatch at (n={n}, k={k}): ours {ours}, b-file {theirs}")
            failures += 1
    sys.exit(1 if failures else 0)


def _run_self_checks() -> int:
    """Print PASS or FAIL for each identity of `oracle.identity_checks`; return the failures."""
    from .oracle import identity_checks

    failures = 0
    for name, ok in identity_checks():
        click.echo(f"{'PASS' if ok else 'FAIL'}: {name}")
        failures += not ok
    return failures


if __name__ == "__main__":
    main()
