"""Command-line front end: fit, difftable, triangle, and verify subcommands.

Exit codes: 0 success, 1 domain errors (non-polynomial data, inconsistency,
failed verification), 2 usage and input-parse errors.  All errors go to
stderr; results go to stdout.  One table, _COMMANDS, declares the grammar,
and one reader, _parse, reads every command line against it.  The standard
library's argparse, built from the same table, only formats --help and the
usage line of a usage error, and is imported only for them.
"""
from __future__ import annotations

import os
import re
import sys
from collections.abc import Iterable, Iterator
from types import SimpleNamespace

from . import __version__
from .difftable import _difference_rows
from .errors import BFileError, DomainError, ScalarParseError, SeqfitError
from .numeric import Rational, common_denominator, format_scalar, parse_scalar
from .solver import _fit_scaled, _grid
from .triangles import TriangleKind, cells_before_print, triangle_rows

_CONVENTIONS = {"auto": 0, "start-zero": 0, "start-one": 1}  # each word's index shift


class _UsageError(Exception):
    """A bad command line or input: exit 2, with `Error: <message>` on stderr after
    the usage of command (None: `seqfit` itself, or the command that ran)."""

    def __init__(self, message: str, command: str | None = None):
        super().__init__(message)
        self.command = command


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
    """The check of an integer option no less than low: it returns the integer,
    or raises ValueError with argparse's message."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{text!r} is not a valid integer") from None
        if value < low:
            raise ValueError(f"{value} is not in the range x>={low}")
        return value
    return convert


def _parser(command: str | None = None):
    """The argparse parser, built from _COMMANDS, that formats the --help and the
    usage line of command (None: of `seqfit` itself); it parses nothing."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """`--help` is the only help option."""

        def __init__(self, **kwargs):
            super().__init__(add_help=False, **kwargs)
            self.add_argument("--help", action="help", help="Show this message and exit.")

    if command is None:
        parser = _Parser(prog="seqfit", formatter_class=argparse.RawDescriptionHelpFormatter,
                         description="""\
Recover exact polynomial coefficients from a sequence of values.

Examples:
  seqfit fit values.txt --start 0 --step 1        # grid 0, 1, 2, ...
  seqfit fit values.txt --start 1 --step 1 --convention start-one
  seqfit fit values.txt --start 3.3 --step 0.1    # arbitrary affine grid""")
        parser.add_argument("--version", action="version", help="Show the version and exit.")
        commands = parser.add_subparsers(title="commands", metavar="COMMAND")
        for name, (_, description, *_) in _COMMANDS.items():
            commands.add_parser(name, help=description)
        return parser
    _, description, takes_input, options = _COMMANDS[command]
    parser = _Parser(prog=f"seqfit {command}", description=description)
    if takes_input:
        parser.add_argument("input_file", metavar="INPUT_FILE", nargs="?",
                            help="The values, or '-' for stdin (the default).")
    for flag, dest, default, check, required, help_ in options:
        if default is False:
            parser.add_argument(flag, action="store_true", help=help_)
        else:
            parser.add_argument(flag, dest=dest, required=required, help=help_,
                                choices=check if isinstance(check, list) else None)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """argv read against _COMMANDS as argparse reads it; None once --help or
    --version has printed.  Options are spelled in full, and one that takes a
    value takes it after `=` or as the next word, whatever that word is; of a
    repeated option the last counts.  `-` and negative numbers are words, not
    options, and `--` ends the options.  Raises _UsageError for the first bad
    word when it is read, then for a missing required option, then for the
    unrecognized words, each in argparse's wording (CPython 3.11)."""
    valued = {option[0] for *_, options in _COMMANDS.values() for option in options
              if option[2] is not False}
    commands = ", ".join(map(repr, _COMMANDS))
    command, args, extras, words = None, {}, [], iter(argv)
    by_flag = {"--help": None, "--version": None}  # the options of the parser reading
    takes_input = ended = after_input = False  # after_input: the last word was INPUT_FILE
    for word in words:
        if not ended and word == "--":
            ended = True
            if command is None and next(words, None) is not None:
                raise _UsageError(f"argument COMMAND: invalid choice: '--' (choose from {commands})")
            if not (takes_input and (after_input or "input_file" not in args)):
                extras.append(word)  # else argparse drops it as INPUT_FILE's
            continue
        after_input = False
        if not ended and word in valued:  # `--start -1/2` reads as `--start=-1/2`
            value = next(words, None)
            word = word if value is None else f"{word}={value}"
        flag, joined, value = word.partition("=")
        if not ended and flag in by_flag:
            option = by_flag[flag]
            if option is None or option[2] is False:  # --help, --version or a flag
                if joined:
                    raise _UsageError(f"argument {flag}: ignored explicit argument {value!r}",
                                      command)
                if option is not None:
                    args[option[1]] = True
                    continue
                if flag == "--help":
                    _parser(command).print_help()
                else:
                    print(f"seqfit, version {__version__}")
                return None
            if not joined:
                raise _UsageError(f"argument {flag}: expected one argument", command)
            check = option[3]
            if isinstance(check, list) and value not in check:
                raise _UsageError(f"argument {flag}: invalid choice: {value!r} "
                                  f"(choose from {', '.join(map(repr, check))})", command)
            if callable(check):
                try:
                    value = check(value)
                except ValueError as exc:
                    raise _UsageError(f"argument {flag}: {exc}", command) from None
            args[option[1]] = value
        elif (not ended and word[:1] == "-" and word != "-" and " " not in word
              and not re.match(r"^-\d+$|^-\d*\.\d+$", word)):
            extras.append(word)  # an option this parser does not have
        elif command is None:
            if word not in _COMMANDS:
                raise _UsageError(f"argument COMMAND: invalid choice: {word!r} (choose from {commands})")
            command, (_, _, takes_input, options) = word, _COMMANDS[word]
            by_flag = {"--help": None, **{option[0]: option for option in options}}
            args = {"command": command, **{dest: default for _, dest, default, *_ in options}}
        elif takes_input and "input_file" not in args:
            args["input_file"], after_input = word, True
        else:
            extras.append(word)
    if command is None:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}" if extras
                          else "missing command")
    missing = [flag for flag, dest, _, _, required, _ in options if required and args[dest] is None]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}", command)
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}", command)
    if takes_input:
        args.setdefault("input_file", "-")
    return SimpleNamespace(**args)


def main(args=None, prog_name=None, standalone_mode=True) -> int:
    """The `seqfit` entry point: run args (sys.argv[1:] when None) and exit with
    the exit code, or return it when standalone_mode is False.  It is called as a
    click command is, `main()` from the console script and `python -m seqfit.cli`
    and `main.main(args, prog_name, standalone_mode)` from click's CliRunner;
    prog_name is unused, as usage lines always name `seqfit`."""
    if sys.stdout is None:  # closed at start: a pipe whose reader has left
        read, write = os.pipe()
        os.close(read)
        sys.stdout = open(write, "w", closefd=False)
    parsed = None
    try:
        try:
            parsed = _parse(sys.argv[1:] if args is None else list(args))
            code = 0 if parsed is None else _COMMANDS[parsed.command][0](parsed)
        except _UsageError as exc:
            parser = _parser(parsed.command if parsed else exc.command)
            print(f"{parser.format_usage()}Try '{parser.prog} --help' for help.\n\nError: {exc}",
                  file=sys.stderr)
            code = 2
        except SeqfitError as exc:  # a failed self-check, which no command expects
            code = _fail(parsed.command, exc)
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


main.main, main.name = main, "seqfit"  # as click's CliRunner calls a command


def _read_values(path: str) -> tuple[int, list[int]]:
    """The scalars in INPUT_FILE, separated by newlines or commas ('#' starts a
    comment), as common_denominator returns them."""
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
    return common_denominator(values)


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
    den, ints = _read_values(args.input_file)
    try:
        x0, h = parse_scalar(args.start), parse_scalar(args.step)
    except ScalarParseError as exc:
        raise _UsageError(str(exc)) from None
    if h == 0:
        raise _UsageError("--step must be nonzero")
    try:
        result = _fit_scaled(den, ints, _grid(x0, h), _CONVENTIONS[args.convention],
                             args.min_witnesses)
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
    den, ints = _read_values(args.input_file)
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


# The CLI grammar, read by _parse and _parser: each command's function, its
# description, whether it takes INPUT_FILE, and its options, each as (flag, dest,
# default, check, required, help).  A check is a list of choices, an _at_least
# check, or None for any value; an option whose default is False is a flag.
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


if __name__ == "__main__":
    main()
