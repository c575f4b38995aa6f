"""What `import seqfit` offers: the names in seqfit.__all__, and none of the
Fraction references the tests keep in tests/reference.py."""
import subprocess
import sys
from pathlib import Path

import pytest

import seqfit
from seqfit import difftable, solver

TESTS = Path(__file__).resolve().parent

# moved to tests/reference.py; fit/FitResult and difftable.scan_degree_scaled replace them
REMOVED = ["DifferenceTable", "build_table", "compose_affine", "detect_degree",
           "diagonal_direct", "scan_degree"]


def test_all_is_the_public_api():
    assert seqfit.__all__ == [
        "AffineMap",
        "DegreeReport",
        "FitResult",
        "Polynomial",
        "Rational",
        "TriangleKind",
        "awnt",
        "binomial",
        "build_triangle",
        "fit",
        "format_scalar",
        "mwnt",
        "parse_scalar",
        "solve_start_one",
        "solve_start_zero",
        "stirling2",
    ]
    assert all(hasattr(seqfit, name) for name in seqfit.__all__)


@pytest.mark.parametrize("name", REMOVED)
@pytest.mark.parametrize("module", [seqfit, difftable, solver], ids=lambda m: m.__name__)
def test_the_reference_layer_is_not_in_the_package(module, name):
    assert not hasattr(module, name)


def test_import_seqfit_loads_nothing_from_the_tests():
    # tests/ is on the child's path, so an import of reference or conftest would succeed
    probe = ("import sys, seqfit, seqfit.cli, seqfit.oeis, seqfit.oracle; "
             "print(*sorted(m.__file__ for m in list(sys.modules.values()) "
             "if getattr(m, '__file__', None)), sep='\\n')")
    path = [str(TESTS), *sys.path]
    out = subprocess.run([sys.executable, "-c", f"import sys; sys.path[:0] = {path!r}; {probe}"],
                         capture_output=True, text=True, check=True)
    loaded = [Path(f).resolve() for f in out.stdout.splitlines()]
    assert any(f.parent.name == "seqfit" for f in loaded)
    assert not [f for f in loaded if TESTS in f.parents]
