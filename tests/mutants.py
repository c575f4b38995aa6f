"""Mutation smoke for seqfit's exact kernels: each mutant in MUTANTS must fail its tests.

    python tests/mutants.py [name ...]

For each mutant (all of them, or those named) src/ is copied to a temporary
directory, one exact text of one module is replaced there, and
`python -m pytest -x -q <test files>` runs with PYTHONPATH at the copy.  A
mutant whose tests pass survives.  One line is printed per mutant, and the
exit code is 1 if any mutant survives or any text to replace is not in its
module: a refactor updates the table and never drops a mutant silently.  A
surviving mutant is a finding; it is mended by a test that kills it, never
by weakening or deleting the mutant.  An equivalent mutant, which no test
can kill, is not run: it is listed under the table with the reason.

Standard library only; pytest does not collect this file, as its name does
not match test_*.py.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVER, CLI = "tests/test_solver.py", "tests/test_cli.py"

# name: (module under src/seqfit, exact text, its replacement, test files that must kill it)
MUTANTS = {
    "compose grid without the shift": (
        "solver.py", "_compose(poly_in_g, (a - shift * b, b, q))", "_compose(poly_in_g, (a, b, q))",
        [SOLVER]),
    "index_map x0 without the shift": (
        "solver.py", "AffineMap(Rational(a - shift * b, q), Rational(b, q))",
        "AffineMap(Rational(a, q), Rational(b, q))", [SOLVER]),
    "poly_in_g accepted at i >= d": (
        "solver.py", "if i > d and not own_grid:", "if i >= d and not own_grid:", [SOLVER]),
    "a fit accepted at i >= d": (
        "solver.py", "        if i > d:\n", "        if i >= d:\n", [SOLVER]),
    "running sums not checked": (
        "solver.py", "if sums != ints:", "if sums != ints and False:", [SOLVER]),
    "x check skipped off the own grid": (
        "solver.py", "            i = _first_miss_by_division(poly_in_x, (den, diagonal), grid)\n",
        "", [SOLVER]),
    "check weight without b": (
        "solver.py", "weight *= (j + 1) * b", "weight *= (j + 1)", [SOLVER]),
    "back-substitution column one row off": (
        "solver.py", "islice(columns[j + s], 1, None)", "islice(columns[j + s], 2, None)", [SOLVER]),
    "the error's x off the grid": (
        "solver.py", "(x={Rational(a + i * b, q)})", "(x={Rational(a + i, q)})", [SOLVER]),
    "start-one read as start-zero by the CLI": (
        "cli.py", '"start-one": 1', '"start-one": 0', [CLI]),
}

# Equivalent mutants, each with the reason no test can kill it: none so far.


def run(module: str, text: str, replacement: str, files: list[str]) -> str:
    """The outcome of one mutant: killed, survived, missing (its text is not in
    module) or an error (pytest did not run the tests, or not on the copy)."""
    with tempfile.TemporaryDirectory(prefix="seqfit-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "seqfit" / module
        source = path.read_text()
        if source.count(text) != 1:
            return "missing"
        path.write_text(source.replace(text, replacement))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        imported = subprocess.run([sys.executable, "-c", "import seqfit; print(seqfit.__file__)"],
                                  cwd=ROOT, env=env, capture_output=True, text=True).stdout
        if not imported.startswith(str(src)):
            return "error (seqfit not imported from the copy)"
        tests = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                                *files], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
        return "killed" if tests.returncode == 1 else "survived" if tests.returncode == 0 \
            else f"error (pytest exit {tests.returncode})"


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"no such mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for name in names or MUTANTS:
        start = time.perf_counter()
        outcome = run(*MUTANTS[name])
        print(f"{outcome:>8}  {time.perf_counter() - start:5.1f} s  {name}", flush=True)
        bad += outcome != "killed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
