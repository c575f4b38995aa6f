"""Command-line front end: fit, difftable, triangle, and verify subcommands.

Exit codes: 0 success, 1 domain errors (non-polynomial data, inconsistency,
failed verification), 2 usage and input-parse errors.  All errors go to
stderr; results go to stdout.  One table, _COMMANDS, declares the grammar.
A well-formed line is read against it directly; the standard library's
argparse, built from the same table, is imported only for --help,
--version, the lines that reading declines, and usage errors.
"""
from __future__ import annotations

import os
import sys
from collections.abc import Iterable, Iterator
from types import SimpleNamespace

from . import __version__
from .difftable import _difference_rows
from .errors import BFileError, DomainError, ScalarParseError, SeqfitError
from .numeric import Rational, common_denominator, format_scalar, parse_scalar
from .solver import AffineMap, fit
from .triangles import TriangleKind, cells_before_print, triangle_rows

_CONVENTIONS = {"auto": "start_zero", "start-zero": "start_zero", "start-one": "start_one"}


class _UsageError(Exception):
    """A bad command line or input: exit 2, with `Error: <message>` on stderr
    after the usage of parser (None: the parser of the command that ran)."""

    def __init__(self, message: str, parser=None):
        super().__init__(message)
        self.parser = parser


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
            if value >= low:
                return value
            message = f"{value} is not in the range x>={low}"
        except ValueError:
            message = f"{text!r} is not a valid integer"
        import argparse

        raise argparse.ArgumentTypeError(message)
    return convert


def _parser():
    """The `seqfit` parser, built from _COMMANDS; `commands` maps each command to its parser."""
    import argparse

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

    parser = _Parser(prog="seqfit", formatter_class=argparse.RawDescriptionHelpFormatter,
                     description="""\
Recover exact polynomial coefficients from a sequence of values.

Examples:
  seqfit fit values.txt --start 0 --step 1        # grid 0, 1, 2, ...
  seqfit fit values.txt --start 1 --step 1 --convention start-one
  seqfit fit values.txt --start 3.3 --step 0.1    # arbitrary affine grid""")
    parser.add_argument("--version", action="version", version=f"seqfit, version {__version__}",
                        help="Show the version and exit.")
    subparsers = parser.add_subparsers(title="commands", dest="command", metavar="COMMAND")
    parser.commands = {}
    for name, (_, description, takes_input, options) in _COMMANDS.items():
        sub = parser.commands[name] = subparsers.add_parser(
            name, help=description, description=description)
        if takes_input:
            sub.add_argument("input_file", metavar="INPUT_FILE", nargs="?", default="-",
                             help="The values, or '-' for stdin (the default).")
        for flag, dest, default, check, required, help_ in options:
            if default is False:
                sub.add_argument(flag, dest=dest, action="store_true", help=help_)
            else:
                listed = isinstance(check, list)  # choices, else a type
                sub.add_argument(flag, dest=dest, default=default, required=required, help=help_,
                                 choices=check if listed else None, type=None if listed else check)
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


def _fast_args(words: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would make of words (from _joined), read against _COMMANDS
    without argparse; None, leaving the line to argparse, unless the first word is a
    command, each later word is, once, one of its options or its INPUT_FILE, and each
    required option is given.  A flag is spelled bare, a valued option as `--name=value`
    with a nonempty value that passes its check and does not start with `--`, and
    INPUT_FILE is `-` or a nonempty word that does not start with `-`."""
    if not words or words[0] not in _COMMANDS:
        return None
    _, _, takes_input, options = _COMMANDS[words[0]]
    args = {"command": words[0], **{dest: default for _, dest, default, *_ in options}}
    if takes_input:
        args["input_file"] = "-"
    by_flag, seen = {option[0]: option for option in options}, set()
    for word in words[1:]:
        flag, joined, value = word.partition("=")
        option = by_flag.get(flag)
        key = flag if option else "INPUT_FILE"
        if key in seen:
            return None
        seen.add(key)
        if option is None:
            if not takes_input or word != "-" and (not word or word.startswith("-")):
                return None
            args["input_file"] = word
        elif option[2] is False:  # a flag
            if joined:
                return None
            args[option[1]] = True
        else:
            check = option[3]
            if not value or value.startswith("--") or isinstance(check, list) and value not in check:
                return None
            if callable(check):
                try:
                    value = check(value)
                except Exception:  # argparse, parsing the line again, reports it
                    return None
            args[option[1]] = value
    if any(required and flag not in seen for flag, _, _, _, required, _ in options):
        return None
    return SimpleNamespace(**args)


def _run(argv: list[str]) -> int:
    """Parse argv, by _fast_args or else argparse, run its command, and return the exit code."""
    words = _joined(argv)
    args = _fast_args(words)
    try:
        if args is None:
            parser = _parser()
            try:
                args, extra = parser.parse_known_args(words)
            except SystemExit as exc:  # --help and --version print, then exit 0
                return exc.code
            if extra:
                parser.commands.get(args.command, parser).error(
                    f"unrecognized arguments: {' '.join(extra)}")
            if args.command is None:
                parser.error("missing command")
        return _COMMANDS[args.command][0](args)
    except _UsageError as exc:
        parser = exc.parser or _parser().commands[args.command]
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
    as_json = fmt == "json"
    x0, h, g, x = ([format_scalar(c, prefer_decimal=not as_json) for c in scalars]
                   for scalars in ([result.index_map.x0], [result.index_map.h],
                                   result.poly_in_g.coefficients, result.poly_in_x.coefficients))
    if as_json:  # as json.dumps(indent=2) lays out the object
        g, x = (_json_list((f'"{c}"' for c in coefficients), "  ") for coefficients in (g, x))
        return (f'{{\n  "degree": {result.degree_report.degree},\n  "basis_g": {{\n'
                f'    "x0": "{x0[0]}",\n    "h": "{h[0]}"\n  }},\n'
                f'  "coefficients_g": {g},\n  "coefficients_x": {x},\n  "verified": true\n}}')
    return (f"degree: {result.degree_report.degree}\n"
            f"coefficients in g = (x - {x0[0]})/{h[0]} (ascending power): {', '.join(g)}\n"
            f"coefficients in x (ascending power): {', '.join(x)}\n"
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


# The CLI grammar, read by _fast_args and _parser: each command's function, its
# description, whether it takes INPUT_FILE, and its options, each as (flag, dest,
# default, check, required, help).  A check is a list of choices, an _at_least
# type, or None for any value; an option whose default is False is a flag.
_COMMANDS = {
    "fit": (fit_cmd, "Fit the generating polynomial of the sequence in INPUT_FILE (or stdin).",
            True, (
        ("--start", "start", "0", None, False, "First grid value x0 (default 0)."),
        ("--step", "step", "1", None, False, "Constant grid step h (default 1)."),
        ("--convention", "convention", "auto", sorted(_CONVENTIONS), False,
         "Index convention; auto remaps the grid to indexes 0, 1, 2, ..."),
        ("--format", "fmt", "text", ["text", "json"], False, None),
        ("--min-witnesses", "min_witnesses", 2, _at_least(2), False,
         "Entries required in the constant row (default 2)."))),
    "difftable": (difftable_cmd,
                  "Print the difference table of the sequence in INPUT_FILE (or stdin).", True, (
        ("--format", "fmt", "table", ["table", "json"], False, None),
        ("--min-witnesses", "min_witnesses", 2, _at_least(2), False, None))),
    "triangle": (triangle_cmd, "Print a number triangle with the given number of rows.", False, (
        ("--kind", "kind", None, [kind.value for kind in TriangleKind], True, None),
        ("--rows", "rows", None, _at_least(1), True, None),
        ("--format", "fmt", "table", ["table", "json", "bfile"], False, None))),
    "verify": (verify_cmd, "Run self-verification suites and OEIS cross-checks.", False, (
        ("--self", "self_check", False, None, False, "Run the identity suites."),
        ("--oeis", "oeis_id", None, None, False, "Cross-check against an OEIS b-file."),
        ("--online", "online", False, None, False,
         "Fetch the b-file from oeis.org instead of fixtures."),
        ("--cells", "cells", 45, _at_least(1), False, None))),
}

# every option that takes a value; the flags, --help and --version take none
_TAKES_VALUE = frozenset(option[0] for *_, options in _COMMANDS.values()
                         for option in options if option[2] is not False)


if __name__ == "__main__":
    main()
