"""Command-line front end: fit, difftable, triangle, and verify subcommands.

Exit codes: 0 success, 1 domain errors (non-polynomial data, inconsistency,
failed verification), 2 usage and input-parse errors.  All errors go to
stderr; results go to stdout.  The parser is the standard library's argparse.
"""
from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator

from . import __version__
from .difftable import _difference_rows
from .errors import BFileError, DomainError, ScalarParseError, SeqfitError
from .numeric import Rational, common_denominator, format_scalar, parse_scalar
from .solver import AffineMap, fit
from .triangles import TriangleKind, cells_before_print, triangle_rows

_CONVENTIONS = {"auto": "start_zero", "start-zero": "start_zero", "start-one": "start_one"}

# every option that takes a value; --self, --online, --help and --version are flags
_TAKES_VALUE = frozenset({"--start", "--step", "--convention", "--format", "--min-witnesses",
                          "--kind", "--rows", "--oeis", "--cells"})


class _UsageError(Exception):
    """A bad command line or input: exit 2, with `Error: <message>` on stderr
    after the usage of parser (None: the parser of the command that ran)."""

    def __init__(self, message: str, parser: argparse.ArgumentParser | None = None):
        super().__init__(message)
        self.parser = parser


class _Store(argparse.Action):
    """argparse's default action, storing one value, except that the value
    `--` is kept, as click kept it: argparse drops it from `--start=--` and
    passes [] here (CPython 3.11), so it is converted and checked here."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == []:
            values = parser._get_value(self, "--")
            parser._check_value(self, values)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """Options are spelled out in full, `--help` is the only help option, and
    errors raise _UsageError instead of exiting."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.register("action", None, _Store)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        raise _UsageError(message, self)


def _open_input(path: str):
    """INPUT_FILE opened as click.File("r") opened it: a path with the
    locale's encoding, and '-' as stdin, read as strict UTF-8 when stdin
    itself would not fail on bad bytes (under the C locale or UTF-8 mode)."""
    if path != "-":
        try:
            return open(path)
        except OSError as exc:
            raise _UsageError(f"argument INPUT_FILE: '{path}': {exc.strerror}") from None
    if sys.stdin is None:  # fd 0 was closed when the interpreter started
        raise _UsageError("argument INPUT_FILE: '-': stdin is closed")
    if sys.stdin.errors != "strict":
        try:
            return open(sys.stdin.fileno(), encoding="utf-8", closefd=False)
        except OSError:  # io.UnsupportedOperation: a stream with no file descriptor
            pass
    return sys.stdin


def _at_least(low: int):
    """The type of an integer option no less than low."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        return value
    return convert


def _parser() -> _Parser:
    """The `seqfit` parser; each command's namespace holds its function in
    `run` and its own parser in `parser`."""
    parser = _Parser(prog="seqfit", formatter_class=argparse.RawDescriptionHelpFormatter,
                     description="""\
Recover exact polynomial coefficients from a sequence of values.

Examples:
  seqfit fit values.txt --start 0 --step 1        # grid 0, 1, 2, ...
  seqfit fit values.txt --start 1 --step 1 --convention start-one
  seqfit fit values.txt --start 3.3 --step 0.1    # arbitrary affine grid""")
    parser.add_argument("--version", action="version", version=f"seqfit, version {__version__}",
                        help="Show the version and exit.")
    commands = parser.add_subparsers(title="commands", dest="command", metavar="COMMAND")

    def command(name: str, run, description: str) -> _Parser:
        sub = commands.add_parser(name, help=description, description=description)
        sub.set_defaults(run=run, parser=sub)
        return sub

    def input_file(sub: _Parser) -> None:
        sub.add_argument("input_file", metavar="INPUT_FILE", nargs="?", default="-",
                         help="The values, or '-' for stdin (the default).")

    sub = command("fit", fit_cmd,
                  "Fit the generating polynomial of the sequence in INPUT_FILE (or stdin).")
    input_file(sub)
    sub.add_argument("--start", default="0", help="First grid value x0 (default 0).")
    sub.add_argument("--step", default="1", help="Constant grid step h (default 1).")
    sub.add_argument("--convention", choices=sorted(_CONVENTIONS), default="auto",
                     help="Index convention; auto remaps the grid to indexes 0, 1, 2, ...")
    sub.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")
    sub.add_argument("--min-witnesses", type=_at_least(2), default=2,
                     help="Entries required in the constant row (default 2).")

    sub = command("difftable", difftable_cmd,
                  "Print the difference table of the sequence in INPUT_FILE (or stdin).")
    input_file(sub)
    sub.add_argument("--format", dest="fmt", choices=["table", "json"], default="table")
    sub.add_argument("--min-witnesses", type=_at_least(2), default=2)

    sub = command("triangle", triangle_cmd, "Print a number triangle with the given number of rows.")
    sub.add_argument("--kind", choices=[kind.value for kind in TriangleKind], required=True)
    sub.add_argument("--rows", type=_at_least(1), required=True)
    sub.add_argument("--format", dest="fmt", choices=["table", "json", "bfile"], default="table")

    sub = command("verify", verify_cmd, "Run self-verification suites and OEIS cross-checks.")
    sub.add_argument("--self", dest="self_check", action="store_true",
                     help="Run the identity suites.")
    sub.add_argument("--oeis", dest="oeis_id", help="Cross-check against an OEIS b-file.")
    sub.add_argument("--online", action="store_true",
                     help="Fetch the b-file from oeis.org instead of fixtures.")
    sub.add_argument("--cells", type=_at_least(1), default=45)
    return parser


def _joined(argv: list[str]) -> list[str]:
    """argv with each option that takes a value joined to the word after it,
    `--start -1/2` as `--start=-1/2`: an option takes the next word whatever
    it is, as click read it, where argparse would read `-1/2` as an option."""
    joined, words = [], iter(argv)
    for word in words:
        if word == "--":
            return [*joined, word, *words]
        value = next(words, None) if word in _TAKES_VALUE else None
        joined.append(word if value is None else f"{word}={value}")
    return joined


def _run(argv: list[str]) -> int:
    """Parse argv, run its command, and return the exit code."""
    parser = _parser()
    args = argparse.Namespace(parser=parser)
    try:
        try:
            _, extra = parser.parse_known_args(_joined(argv), args)
        except SystemExit as exc:  # --help and --version print, then exit 0
            return exc.code
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.command is None:
            parser.error("missing command")
        return args.run(args)
    except _UsageError as exc:
        parser = exc.parser or args.parser
        print(f"{parser.format_usage()}Try '{parser.prog} --help' for help.\n\nError: {exc}",
              file=sys.stderr)
        return 2


class _Main:
    """The `seqfit` entry point, called as a click command is called:
    `main()` from the console script and `python -m seqfit.cli`, and
    `main.main(args, prog_name, standalone_mode)` from click's CliRunner.
    Both run _run; standalone_mode=False returns its exit code instead of
    exiting with it."""

    name = "seqfit"

    def __call__(self, *args, **kwargs):
        return self.main(*args, **kwargs)

    def main(self, args=None, prog_name=None, standalone_mode=True) -> int:
        """Run args (sys.argv[1:] when None); prog_name is accepted for
        CliRunner and unused, as usage lines always name `seqfit`."""
        if sys.stdout is None:  # closed at start: a pipe whose reader has left
            read, write = os.pipe()
            os.close(read)
            sys.stdout = open(write, "w", closefd=False)
        try:
            code = _run(sys.argv[1:] if args is None else list(args))
            sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        except KeyboardInterrupt:
            print("\nAborted!", file=sys.stderr)
            code = 1
        except BrokenPipeError:  # stdout's reader left, as `seqfit triangle ... | head` does
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            code = 1
        if not standalone_mode:
            return code
        sys.exit(code)


main = _Main()


def _read_values(path: str) -> list[Rational]:
    """The scalars in INPUT_FILE, separated by newlines or commas; '#' starts a comment."""
    input_file = _open_input(path)
    try:
        text = input_file.read()
    except UnicodeDecodeError as exc:
        raise _UsageError(f"input parse: {exc}") from None
    finally:
        if input_file is not sys.stdin:
            input_file.close()
    try:
        values = [parse_scalar(token) for line in text.splitlines()
                  for token in line.split("#", 1)[0].split(",") if token.strip()]
    except ScalarParseError as exc:
        raise _UsageError(f"input parse: {exc}") from None
    if not values:
        raise _UsageError("input contains no values")
    return values


def _fail(stage: str, exc: Exception) -> int:
    """Report a failed stage on stderr, after what stdout holds; the exit code 1."""
    sys.stdout.flush()
    print(f"error ({stage}): {exc}", file=sys.stderr)
    return 1


def _json_list(items: Iterable[str], indent: str) -> str:
    """items, each a JSON value already, as json.dumps(indent=2) lays out a
    non-empty list whose first line is indented by indent."""
    return f"[\n{indent}  " + f",\n{indent}  ".join(items) + f"\n{indent}]"


def fit_cmd(args) -> int:
    """Fit the generating polynomial of the sequence in INPUT_FILE (or stdin)."""
    values = _read_values(args.input_file)
    try:
        x0, h = parse_scalar(args.start), parse_scalar(args.step)
    except ScalarParseError as exc:
        raise _UsageError(str(exc)) from None
    if h == 0:
        raise _UsageError("--step must be nonzero")
    try:
        result = fit(values, AffineMap(x0=x0, h=h),
                     convention=_CONVENTIONS[args.convention], min_witnesses=args.min_witnesses)
    except SeqfitError as exc:
        return _fail("fit", exc)
    try:
        print(_format_fit(result, args.fmt))
    except DomainError as exc:
        return _fail("format", exc)
    return 0


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


def _cell(n: int, den: int, fmt: str) -> str:
    """The cell n/den of `seqfit difftable` in fmt, as it prints."""
    text = format_scalar(Rational(n, den), prefer_decimal=fmt != "json")
    return f'"{text}"' if fmt == "json" else text


def difftable_cmd(args) -> int:
    """Print the difference table of the sequence in INPUT_FILE (or stdin)."""
    den, ints = common_denominator(_read_values(args.input_file))
    # n/den in lowest terms p/q has |p| <= |n| and q | den, so at most b*0.30103 + 1 + bits(den)
    # digits for a b-bit n: under a digit limit, each row whose widest entry has `wide` bits or
    # more is formatted first.  2^r * max|ints| bounds row r, so 2^(m-1) * max|ints| bounds all
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    wide = -((den.bit_length() - limit) * 100000 // 30103)
    try:
        if limit and max(map(abs, ints)).bit_length() + len(ints) - 1 >= wide:
            for row in _difference_rows(ints):
                if max(map(abs, row)).bit_length() >= wide:
                    for n in row[:1] if row.count(row[0]) == len(row) else row:
                        _cell(n, den, args.fmt)
    except DomainError as exc:
        return _fail("format", exc)
    sys.stdout.writelines(_table_text(den, ints, args.min_witnesses, args.fmt))
    return 0


def _table_text(den: int, ints: list[int], min_witnesses: int, fmt: str) -> Iterator[str]:
    """The output of `seqfit difftable`, one row's text at a time: the difference rows of
    ints over den down to the first constant one, top, formatted as they are made, top as
    its first cell repeated and each row below it as 0 repeated, unsubtracted.  Row top
    is the degree when it has min_witnesses entries or more, where fit's scan stops."""
    diagonal, top, rows = [], 0, enumerate(_difference_rows(ints))
    for r in range(len(ints)):
        top, row = next(rows, (top, [0]))  # each row below row top holds only 0s
        if row.count(row[0]) < len(row):
            cells = [_cell(n, den, fmt) for n in row]
        else:
            cells = [_cell(row[0], den, fmt)] * (len(ints) - r)
        if fmt == "json":
            diagonal.append(cells[0])
            yield (",\n    " if r else '{\n  "rows": [\n    ') + _json_list(cells, "    ")
        else:
            yield f"row {r}: " + "  ".join(cells) + "\n"
    degree = top if len(ints) - top >= min_witnesses else None
    if fmt == "json":
        yield (f'\n  ],\n  "main_diagonal": {_json_list(diagonal, "  ")},\n'
               f'  "degree": {"null" if degree is None else degree}\n}}\n')
    else:
        yield f"degree: {'not polynomial within observed window' if degree is None else degree}\n"


def triangle_cmd(args) -> int:
    """Print a number triangle with the given number of rows."""
    kind, rows = TriangleKind(args.kind), args.rows
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    try:  # reject a triangle whose widest cell cannot print before any row does
        for cell in cells_before_print(kind, rows, limit):
            format_scalar(cell)
    except DomainError as exc:
        return _fail("format", exc)
    sys.stdout.writelines(_triangle_text(kind, triangle_rows(kind, rows), args.fmt))
    return 0


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
        yield from ("  ".join(map(str, row)) + "\n" for row in rows)


def verify_cmd(args) -> int:
    """Run self-verification suites and OEIS cross-checks."""
    if not args.self_check and args.oeis_id is None:
        raise _UsageError("nothing to verify: pass --self and/or --oeis")
    if args.oeis_id is not None:
        from .oeis import TRIANGLE_KINDS, crosscheck_triangle, fetch_bfile

        kind = TRIANGLE_KINDS.get(args.oeis_id)
        if kind is None:
            raise _UsageError(f"no triangle mapping for {args.oeis_id}")
    failures = _run_self_checks() if args.self_check else 0
    if args.oeis_id is not None:
        try:
            bfile = fetch_bfile(args.oeis_id, source="network" if args.online else "fixture")
            report = crosscheck_triangle(kind, bfile, args.cells)
        except BFileError as exc:
            return _fail("oeis", exc)
        print(f"{'PASS' if report.ok else 'FAIL'}: {kind.value} vs {args.oeis_id}: "
              f"{report.matched}/{report.cells_checked} cells matched")
        if report.first_mismatch:
            n, k, ours, theirs = report.first_mismatch
            print(f"  first mismatch at (n={n}, k={k}): ours {ours}, b-file {theirs}")
            failures += 1
    return 1 if failures else 0


def _run_self_checks() -> int:
    """Print PASS or FAIL for each identity of `oracle.identity_checks`; return the failures."""
    from .oracle import identity_checks

    failures = 0
    for name, ok in identity_checks():
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
        failures += not ok
    return failures


if __name__ == "__main__":
    main()
