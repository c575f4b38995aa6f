"""Seeded workload inputs, their expected outcomes and the reference checks.

Every expected value is computed here from the generator's own parameters,
never from seqfit's results: coefficients by binomial expansion, difference
tables by direct subtraction, triangle rows by the Stirling recurrence and
the bundled OEIS b-files, and CLI output read back with ``fractions.Fraction``.

Each generator is an endless iterator of cases; the same seed gives the same
cases.  Sizes follow a golden-ratio sequence and case kinds come in shuffled
fixed-size blocks, so any run of consecutive cases has nearly the same mix
whatever the seed.  That keeps run-to-run spread down without fixing inputs.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "seqfit" / "fixtures"

_PHI = (math.sqrt(5) - 1) / 2


def _spread(u0: float, j: int, lo: int, hi: int) -> int:
    """j-th point of a golden-ratio sequence mapped onto lo..hi inclusive."""
    return lo + int((hi - lo + 1) * ((u0 + j * _PHI) % 1.0))


def _rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    num = rng.choice([n for n in range(-9, 10) if n or not nonzero])
    return Fraction(num, rng.randint(1, 6))


def _coefficients(rng: random.Random, degree: int) -> tuple[Fraction, ...]:
    return tuple(_rational(rng) for _ in range(degree)) + (_rational(rng, nonzero=True),)


def evaluate(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def shift_scale(coeffs, a: Fraction, b: Fraction) -> tuple[Fraction, ...]:
    """Coefficients in g of p(a + b*g), by binomial expansion of each power."""
    n = len(coeffs)
    apow = [Fraction(1)]
    bpow = [Fraction(1)]
    for _ in range(n):
        apow.append(apow[-1] * a)
        bpow.append(bpow[-1] * b)
    out = [Fraction(0)] * n
    for k, c in enumerate(coeffs):
        if c:
            for j in range(k + 1):
                out[j] += c * math.comb(k, j) * apow[k - j] * bpow[j]
    return tuple(out)


def difference_rows(values) -> list[list[Fraction]]:
    rows = [list(values)]
    while len(rows[-1]) > 1:
        row = rows[-1]
        rows.append([b - a for a, b in zip(row, row[1:])])
    return rows


def stirling_rows(n_max: int) -> list[list[int]]:
    """rows[n-1][k-1] = S(n, k) for 1 <= k <= n <= n_max."""
    prev = [1]  # S(0, 0)
    rows = []
    for n in range(1, n_max + 1):
        cur = [0] * (n + 1)
        for k in range(1, n + 1):
            cur[k] = k * (prev[k] if k < len(prev) else 0) + prev[k - 1]
        rows.append(cur[1:])
        prev = cur
    return rows


@functools.lru_cache(maxsize=None)
def triangle_rows(kind: str, n_max: int) -> list[list[int]]:
    scale = {"stirling2": lambda k: 1, "awnt": math.factorial, "mwnt": lambda k: math.factorial(k - 1)}[kind]
    return [[scale(k) * s for k, s in enumerate(row, start=1)] for row in stirling_rows(n_max)]


@functools.lru_cache(maxsize=None)
def read_bfile(name: str) -> list[int]:
    values = []
    for line in (FIXTURES / name).read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            values.append(int(line.split()[1]))
    return values


BFILES = {"awnt": ("A019538", "b019538.txt"), "mwnt": ("A028246", "b028246.txt")}


def to_text(q: Fraction) -> str:
    """Integer, terminating decimal, or p/q: the CLI's input grammar."""
    if q.denominator == 1:
        return str(q.numerator)
    den, twos, fives = q.denominator, 0, 0
    while den % 2 == 0:
        den, twos = den // 2, twos + 1
    while den % 5 == 0:
        den, fives = den // 5, fives + 1
    if den != 1:
        return f"{q.numerator}/{q.denominator}"
    places = max(twos, fives)
    digits = str(abs(q.numerator) * 10**places // q.denominator).rjust(places + 1, "0")
    return f"{'-' if q < 0 else ''}{digits[:-places]}.{digits[-places:]}"


# ---------------------------------------------------------------- fit cases


@dataclass(frozen=True)
class FitCase:
    """One fit() input.  coeffs is empty for an exponential (non-polynomial) input."""

    values: tuple[Fraction, ...]
    x0: Fraction
    h: Fraction
    convention: str  # "start_zero" or "start_one"
    coeffs: tuple[Fraction, ...] = ()

    @property
    def expect_success(self) -> bool:
        return bool(self.coeffs)

    @property
    def index_map(self) -> tuple[Fraction, Fraction]:
        """The (x0, h) of the g basis: g = 0 at x0, or g = 1 at x0 for start_one."""
        return (self.x0 - self.h if self.convention == "start_one" else self.x0), self.h

    # references are cached on the case, which a run repeats
    @functools.cached_property
    def expected_g(self) -> tuple[Fraction, ...]:
        gx0, gh = self.index_map
        return shift_scale(self.coeffs, gx0, gh)

    @functools.cached_property
    def expected_rows(self) -> list[list[Fraction]]:
        return difference_rows(self.values)


def poly_case(rng, degree, m, x0, h, convention) -> FitCase:
    coeffs = _coefficients(rng, degree)
    values = tuple(evaluate(coeffs, x0 + i * h) for i in range(m))
    return FitCase(values, x0, h, convention, coeffs)


def exp_case(base: int, m: int) -> FitCase:
    # no difference row of b^i is constant for b >= 2: NotPolynomialError by construction
    return FitCase(tuple(Fraction(base**i) for i in range(m)), Fraction(0), Fraction(1), "start_zero")


def _grid(rng, grid: str):
    if grid == "start_zero":
        return Fraction(0), Fraction(1), "start_zero"
    if grid == "start_one":
        return Fraction(1), Fraction(1), "start_one"
    step = rng.choice((Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 2), Fraction(2)))
    return Fraction(rng.randint(-99, 99), 10), step * rng.choice((1, -1)), "start_zero"


def long_lowdeg_cases(seed: int):
    """Degree 0-5 on m = 250-500 samples; one input in eight is b^i.

    Each block of 48 cases is six groups of eight: one b^i input and seven
    polynomials, of degrees 0-5 plus one degree more, on two grids of each
    kind plus one grid more; over a block every degree and grid kind comes
    equally often.  A run ends part-way through a group at most, so its mix
    hardly depends on the seed or on how many ops fit in the run.

    Each b^i input has the largest m, 500: these are the inputs that need the
    most memory, and with b = 5 in every block, peak_rss_mb measures the same
    worst case whatever the seed.
    """
    u0 = random.Random(f"long-lowdeg/{seed}").random()
    j = 0
    for block in itertools.count():
        rng = random.Random(f"long-lowdeg/{seed}/{block}")
        bases = [2, 3, 4, 5, rng.randint(2, 5), rng.randint(2, 5)]
        extra_degrees, extra_grids = list(range(6)), ["start_zero", "start_one", "affine"] * 2
        for items in (bases, extra_degrees, extra_grids):
            rng.shuffle(items)
        for base, extra_degree, extra_grid in zip(bases, extra_degrees, extra_grids):
            degrees = [*range(6), extra_degree]
            grids = ["start_zero", "start_one", "affine"] * 2 + [extra_grid]
            rng.shuffle(grids)
            group = [("exp", base)] + [("poly", d, g) for d, g in zip(degrees, grids)]
            rng.shuffle(group)
            for item in group:
                m = _spread(u0, j, 250, 500)
                j += 1
                if item[0] == "exp":
                    yield exp_case(item[1], 500)
                else:
                    yield poly_case(rng, item[1], m, *_grid(rng, item[2]))


def high_degree_cases(seed: int):
    """Degree 30-60 on m = d+2..d+4 samples, both conventions, integer and 3.3/0.1-style grids."""
    u0 = random.Random(f"high-degree/{seed}").random()
    j = 0
    for block in itertools.count():
        rng = random.Random(f"high-degree/{seed}/{block}")
        plan = [(c, dec) for c in ("start_zero", "start_one") for dec in (False, True)] * 2
        rng.shuffle(plan)
        for convention, decimal in plan:
            d = _spread(u0, j, 30, 60)
            j += 1
            if decimal:
                x0, h = Fraction(rng.randint(10, 99), 10), Fraction(1, 10)
            else:
                x0, h = Fraction(0 if convention == "start_zero" else 1), Fraction(1)
            yield poly_case(rng, d, d + rng.randint(2, 4), x0, h, convention)


def fit_problems(case: FitCase, degree, gx0, gh, coeffs_g, coeffs_x, verified=True) -> list[str]:
    """Problems with one reported fit of a polynomial case; empty when it matches."""
    problems = []
    if degree != len(case.coeffs) - 1:
        problems.append(f"degree {degree} != {len(case.coeffs) - 1}")
    if list(coeffs_x) != list(case.coeffs):
        problems.append("coefficients in x differ from the generator's")
    if list(coeffs_g) != list(case.expected_g):
        problems.append("coefficients in g differ from the binomial expansion")
    if (gx0, gh) != case.index_map:
        problems.append("g basis differs from the convention's index map")
    if verified is not True:
        problems.append("not reported as verified")
    return problems


def check_fit(case: FitCase, result, exc: BaseException | None, not_polynomial_error: type) -> list[str]:
    """Problems with one fit() outcome; empty when it matches the reference."""
    if not case.expect_success:
        if isinstance(exc, not_polynomial_error):
            return []
        return [f"expected NotPolynomialError, got {exc!r}" if exc else "expected NotPolynomialError, got a fit"]
    if exc is not None:
        return [f"unexpected {type(exc).__name__}: {exc}"]
    return fit_problems(case, result.degree_report.degree, result.index_map.x0, result.index_map.h,
                        result.poly_in_g.coefficients, result.poly_in_x.coefficients)


# ---------------------------------------------------------------- cli cases


@dataclass(frozen=True)
class CliCase:
    kind: str
    args: tuple[str, ...]
    stdin: str
    expected_code: int
    fit: FitCase | None = None  # fit and difftable inputs
    rows: int = 0  # triangle rows or oeis cells

    @property
    def expect_success(self) -> bool:
        return self.expected_code == 0


@dataclass(frozen=True)
class CliOutcome:
    code: int
    stdout: str
    stderr: str
    crashed: bool  # an uncaught exception, not a typed exit


GOLDEN = (
    ((10, 9, 8, 7, 6, 5, 4), Fraction(0), Fraction(1), 8, "start_zero"),
    ((17, 13, 11, 7, 5, 3, 2), Fraction(1), Fraction(1), 8, "start_one"),
    ((9, 5, 1, 4, 1, 3), Fraction("3.3"), Fraction("0.1"), 7, "start_zero"),
)

# one cycle of the CLI mix, shuffled per cycle.  Small fit calls, whose time is
# mostly interpreter start and imports, are twelve in nineteen, so that
# latency_p50_ms falls inside their cluster; verify --self, the slowest op, is
# three in nineteen, so that latency_p90_ms falls among its runs.  Neither then
# sits in a sparse gap between kinds, where it would jump from run to run.
CLI_MIX = (
    "fit-golden", "fit-golden", "fit-golden", "fit-golden",
    "fit-random", "fit-random", "fit-random", "fit-random", "fit-random", "fit-random",
    "fit-nonpoly", "fit-malformed", "difftable", "triangle", "triangle",
    "verify-self", "verify-self", "verify-self", "verify-oeis",
)

MALFORMED = ("abc", "1.2.3", "3/", "1e5", "0x1F", "--5", "1/0", "4 5")

OVERSIZE_DIGITS = 5000


def _stdin(values) -> str:
    return "".join(to_text(v) + "\n" for v in values)


def _fit_args(case: FitCase, fmt: str) -> tuple[str, ...]:
    args = ["fit", "-", f"--start={to_text(case.x0)}", f"--step={to_text(case.h)}", f"--format={fmt}"]
    if case.convention == "start_one":
        args.append("--convention=start-one")
    return tuple(args)


def _fit_cli_case(kind: str, case: FitCase, fmt: str) -> CliCase:
    return CliCase(kind + "-" + fmt, _fit_args(case, fmt), _stdin(case.values), 0, fit=case)


TRIANGLES = tuple((tri, tfmt) for tri in ("mwnt", "awnt", "stirling2") for tfmt in ("table", "json", "bfile"))


def cli_case(rng: random.Random, kind: str, u: float | None = None, pick=None) -> CliCase:
    """One case of a kind.  u in [0, 1) places a difftable, triangle or verify-oeis
    size in its range, and pick is the triangle's (kind, format) or the verified
    triangle; both are drawn from rng when not given."""
    u = rng.random() if u is None else u
    fmt = rng.choice(("text", "json"))
    if kind == "fit-golden":
        coeffs, x0, h, m, convention = rng.choice(GOLDEN)
        coeffs = tuple(map(Fraction, coeffs))
        case = FitCase(tuple(evaluate(coeffs, x0 + i * h) for i in range(m)), x0, h, convention, coeffs)
        return _fit_cli_case(kind, case, fmt)
    if kind == "fit-random":
        d = rng.randint(0, 8)
        return _fit_cli_case(kind, poly_case(rng, d, rng.randint(d + 2, 16), *_grid(rng, rng.choice(
            ("start_zero", "start_one", "affine")))), fmt)
    if kind == "fit-nonpoly":
        case = exp_case(rng.randint(2, 5), rng.randint(6, 16))
        return CliCase(kind, _fit_args(case, fmt), _stdin(case.values), 1)
    if kind == "fit-malformed":
        tokens = [str(rng.randint(-99, 99)) for _ in range(rng.randint(4, 10))]
        tokens[rng.randrange(len(tokens))] = rng.choice(MALFORMED)
        return CliCase(kind, ("fit", "-", f"--format={fmt}"), "".join(t + "\n" for t in tokens), 2)
    if kind == "difftable":
        case = poly_case(rng, rng.randint(0, 5), 150 + int(101 * u), Fraction(0), Fraction(1), "start_zero")
        return CliCase(kind, ("difftable", "-", "--format=json"), _stdin(case.values), 0, fit=case)
    if kind == "triangle":
        (tri, tfmt), rows = pick or rng.choice(TRIANGLES), 25 + int(21 * u)
        return CliCase(f"triangle-{tri}-{tfmt}", ("triangle", f"--kind={tri}", f"--rows={rows}", f"--format={tfmt}"), "", 0, rows=rows)
    if kind == "verify-self":
        return CliCase(kind, ("verify", "--self"), "", 0)
    if kind == "verify-oeis":
        tri = pick or rng.choice(("awnt", "mwnt"))
        cells = 21 + int(85 * u)
        return CliCase(f"verify-oeis-{tri}", ("verify", "--oeis", BFILES[tri][0], f"--cells={cells}"), "", 0, rows=cells)
    raise ValueError(kind)


def cli_cases(seed: int):
    """The fixed CLI mix, shuffled per cycle, on seeded inputs.

    The slowest ops set latency_p90_ms, so their sizes follow a golden-ratio
    sequence per kind and triangle kinds and formats come round in turn: any
    run then holds nearly the same slow ops whatever the seed.
    """
    u0 = random.Random(f"cli/{seed}").random()
    triangles = list(TRIANGLES)
    random.Random(f"cli/{seed}/triangles").shuffle(triangles)
    count = dict.fromkeys(CLI_MIX, 0)
    for cycle in itertools.count():
        rng = random.Random(f"cli/{seed}/{cycle}")
        kinds = list(CLI_MIX)
        rng.shuffle(kinds)
        for kind in kinds:
            j = count[kind]
            count[kind] += 1
            pick = triangles[j % len(triangles)] if kind == "triangle" else ("awnt", "mwnt")[j % 2]
            yield cli_case(rng, kind, (u0 + j * _PHI) % 1.0, pick)


def oversize_case(seed: int) -> CliCase:
    """A valid integer literal longer than CPython's int/str digit limit; usage error expected."""
    rng = random.Random(f"oversize/{seed}")
    digits = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(OVERSIZE_DIGITS - 1))
    return CliCase("fit-oversize", ("fit", "-", "--format=json"), f"1\n{digits}\n3\n", 2)


def _fractions(tokens) -> list[Fraction]:
    return [Fraction(t) for t in tokens]


def _check_fit_json(case: FitCase, out: str) -> list[str]:
    p = json.loads(out)
    return fit_problems(case, p["degree"], Fraction(p["basis_g"]["x0"]), Fraction(p["basis_g"]["h"]),
                        _fractions(p["coefficients_g"]), _fractions(p["coefficients_x"]), p["verified"])


_TEXT_FIT = re.compile(
    r"degree: (\d+)\n"
    r"coefficients in g = \(x - (\S+)\)/(\S+) \(ascending power\): (.*)\n"
    r"coefficients in x \(ascending power\): (.*)\n"
    r"verified against all input samples\n\Z"
)


def _check_fit_text(case: FitCase, out: str) -> list[str]:
    m = _TEXT_FIT.match(out)
    if m is None:
        return ["text output does not match the fit report layout"]
    degree, gx0, gh, cg, cx = m.groups()
    return fit_problems(case, int(degree), Fraction(gx0), Fraction(gh), _fractions(cg.split(", ")),
                        _fractions(cx.split(", ")))


def _check_difftable(case: FitCase, out: str) -> list[str]:
    payload = json.loads(out)
    rows = case.expected_rows
    problems = []
    if [_fractions(r) for r in payload["rows"]] != rows:
        problems.append("difference rows differ from direct subtraction")
    if _fractions(payload["main_diagonal"]) != [r[0] for r in rows]:
        problems.append("main diagonal differs")
    if payload.get("degree") != len(case.coeffs) - 1:
        problems.append(f"degree {payload.get('degree')} != {len(case.coeffs) - 1}")
    return problems


def _check_triangle(case: CliCase, out: str) -> list[str]:
    _, kind, fmt = case.kind.split("-")
    n = case.rows
    if fmt == "json":
        payload = json.loads(out)
        got = payload["rows"] if payload.get("kind") == kind else None
    elif fmt == "bfile":
        pairs = [tuple(map(int, line.split())) for line in out.splitlines()]
        if [i for i, _ in pairs] != list(range(1, len(pairs) + 1)):
            return ["b-file indexes are not 1, 2, 3, ..."]
        flat = iter(v for _, v in pairs)
        got = [[next(flat, None) for _ in range(r)] for r in range(1, n + 1)] if len(pairs) == n * (n + 1) // 2 else None
    else:
        got = [[int(v) for v in line.split()] for line in out.splitlines()]
    want = triangle_rows(kind, n)
    problems = [] if got == want else [f"{kind} rows differ from the Stirling recurrence"]
    if kind in BFILES and got is not None:
        ref = read_bfile(BFILES[kind][1])
        flat_got = [v for row in got for v in row][: len(ref)]
        if flat_got != ref[: len(flat_got)]:
            problems.append(f"{kind} rows differ from the bundled {BFILES[kind][0]} b-file")
    return problems


def check_cli(case: CliCase, outcome: CliOutcome) -> list[str]:
    """Problems with one CLI outcome; empty when it matches the reference."""
    problems = []
    if outcome.crashed:
        problems.append("uncaught exception (traceback)")
    if outcome.code != case.expected_code:
        problems.append(f"exit code {outcome.code}, expected {case.expected_code}")
    if problems or not case.expect_success:
        return problems
    out = outcome.stdout
    try:
        if case.kind.startswith("fit-"):
            return (_check_fit_json if case.kind.endswith("-json") else _check_fit_text)(case.fit, out)
        if case.kind == "difftable":
            return _check_difftable(case.fit, out)
        if case.kind.startswith("triangle-"):
            return _check_triangle(case, out)
        if case.kind == "verify-self":
            lines = out.splitlines()
            return [] if lines and all(line.startswith("PASS: ") for line in lines) else ["identity suite did not all PASS"]
        if case.kind.startswith("verify-oeis-"):
            kind = case.kind.rsplit("-", 1)[1]
            want = f"PASS: {kind} vs {BFILES[kind][0]}: {case.rows}/{case.rows} cells matched"
            return [] if out.splitlines() == [want] else [f"expected {want!r}"]
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable output: {exc!r}"]
    raise ValueError(case.kind)


WORKLOADS = {"long-lowdeg": long_lowdeg_cases, "high-degree": high_degree_cases, "cli": cli_cases}
