"""The contract of seqfit's six result records, and of the DifferenceTable
record of the tests' reference layer (tests/reference.py).

They are named tuples: field names and order, positional and keyword
construction, the repr text, immutability and field-wise == and hash are
those the records had as frozen dataclasses.  Being tuples, they also
iterate and compare equal to a plain tuple of their fields.
"""
import subprocess
import sys
from fractions import Fraction

import pytest

from seqfit.difftable import DegreeReport
from seqfit.errors import DomainError
from seqfit.oeis import BFile, CrosscheckReport
from seqfit.solver import AffineMap, FitResult, Polynomial
from seqfit.triangles import TriangleKind

from reference import DifferenceTable

POLY = Polynomial((Fraction(1, 2), 3))
MAP = AffineMap(Fraction(-1, 3), 2)
REPORT = DegreeReport(3, Fraction(1, 2), 5)

# (type, field values, other values for the same fields one at a time, repr text)
CASES = [
    (Polynomial, ((Fraction(1, 2), 3),), ((Fraction(1, 2), 4),),
     "Polynomial(coefficients=(Fraction(1, 2), 3))"),
    (AffineMap, (Fraction(-1, 3), 2), (0, 3),
     "AffineMap(x0=Fraction(-1, 3), h=2)"),
    (FitResult, (POLY, POLY, MAP, REPORT),
     (Polynomial((1,)), Polynomial((2,)), AffineMap(0, 1), DegreeReport(4, 1, 5)),
     "FitResult(poly_in_g=Polynomial(coefficients=(Fraction(1, 2), 3)), "
     "poly_in_x=Polynomial(coefficients=(Fraction(1, 2), 3)), "
     "index_map=AffineMap(x0=Fraction(-1, 3), h=2), "
     "degree_report=DegreeReport(degree=3, constant_row_value=Fraction(1, 2), witnesses=5))"),
    (DifferenceTable, (((1, 2), (1,)),), (((1, 3), (2,)),),
     "DifferenceTable(rows=((1, 2), (1,)))"),
    (DegreeReport, (3, Fraction(1, 2), 5), (4, Fraction(1, 3), 6),
     "DegreeReport(degree=3, constant_row_value=Fraction(1, 2), witnesses=5)"),
    (BFile, ("A000001", ((1, 1), (2, 1))), ("A000002", ((1, 1),)),
     "BFile(sequence_id='A000001', entries=((1, 1), (2, 1)))"),
    (CrosscheckReport, (TriangleKind.MWNT, 3, 2, (2, 1, 1, 5)), (TriangleKind.AWNT, 4, 3, None),
     "CrosscheckReport(kind=<TriangleKind.MWNT: 'mwnt'>, cells_checked=3, matched=2, "
     "first_mismatch=(2, 1, 1, 5))"),
]


@pytest.mark.parametrize("kind, values, others, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_contract(kind, values, others, text):
    record = kind(*values)
    by_keyword = kind(**dict(zip(kind._fields, values)))
    assert repr(record) == repr(by_keyword) == text
    assert record == by_keyword and hash(record) == hash(by_keyword)
    for i, (name, value, other) in enumerate(zip(kind._fields, values, others)):
        assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            setattr(record, name, other)
        changed = kind(*values[:i], other, *values[i + 1:])
        assert changed != record
        assert record._replace(**{name: other}) == changed
    with pytest.raises(AttributeError):
        record.extra = 1
    # what being a tuple adds
    assert tuple(record) == values and record == values
    assert record._asdict() == dict(zip(kind._fields, values))


@pytest.mark.parametrize("build", [
    lambda: AffineMap(0, 0),
    lambda: AffineMap(x0=0, h=0),
    lambda: AffineMap(0, Fraction(0)),
    lambda: AffineMap(0, 1)._replace(h=0),
    lambda: AffineMap._make((1, 0)),
], ids=["positional", "keyword", "fraction", "_replace", "_make"])
def test_affine_map_step_must_be_nonzero(build):
    with pytest.raises(DomainError, match="affine map step h must be nonzero"):
        build()


def loaded(statement, names):
    probe = f"import sys; {statement}; print(*(name in sys.modules for name in {names!r}))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_import_seqfit_loads_neither_dataclasses_nor_inspect():
    assert loaded("import seqfit", ("dataclasses", "inspect")) == ["False", "False"]


def test_import_cli_does_not_load_dataclasses():
    assert loaded("import seqfit.cli", ("dataclasses", "inspect")) == ["False", "False"]
