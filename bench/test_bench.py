"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest bench -q
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

import tracing
import workloads


def take(cases, n):
    return list(itertools.islice(cases, n))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(workload):
    gen = workloads.WORKLOADS[workload]
    assert take(gen(7), 30) == take(gen(7), 30)
    assert take(gen(7), 30) != take(gen(8), 30)


def test_long_lowdeg_mix():
    cases = take(workloads.long_lowdeg_cases(3), 96)
    assert sum(not c.expect_success for c in cases) == 12  # one in eight is b^i
    for start in range(0, 96, 8):  # and so is one in each group of eight
        assert sum(not c.expect_success for c in cases[start:start + 8]) == 1
    assert all(250 <= len(c.values) <= 500 for c in cases)
    assert {len(c.coeffs) - 1 for c in cases if c.coeffs} == set(range(6))
    assert any(c.h < 0 for c in cases)


def test_high_degree_sizes():
    for c in take(workloads.high_degree_cases(3), 40):
        d = len(c.coeffs) - 1
        assert 30 <= d <= 60 and d + 2 <= len(c.values) <= d + 4


def test_references_agree_with_known_values():
    # the golden start-zero example and its diagonal
    rows = workloads.difference_rows([Fraction(v) for v in (10, 49, 628, 4915, 23662, 83005, 235144, 571903)])
    assert [r[0] for r in rows] == [10, 39, 540, 3168, 7584, 7800, 2880, 0]
    assert workloads.triangle_rows("awnt", 4)[-1] == [1, 14, 36, 24]
    assert workloads.triangle_rows("mwnt", 4)[-1] == [1, 7, 12, 6]
    flat = [v for row in workloads.triangle_rows("awnt", 14) for v in row]
    assert flat == workloads.read_bfile("b019538.txt")[: len(flat)]
    assert workloads.shift_scale((Fraction(1), Fraction(2), Fraction(3)), Fraction(1), Fraction(2)) == (6, 16, 12)
    assert [workloads.to_text(Fraction(v)) for v in ("-0.0036", "7/3", "12", "-5/4")] == ["-0.0036", "7/3", "12", "-1.25"]


def _fake_fit(case):
    gx0, gh = case.index_map
    return SimpleNamespace(
        degree_report=SimpleNamespace(degree=len(case.coeffs) - 1),
        poly_in_x=SimpleNamespace(coefficients=case.coeffs),
        poly_in_g=SimpleNamespace(coefficients=case.expected_g),
        index_map=SimpleNamespace(x0=gx0, h=gh),
    )


class NotPoly(Exception):
    pass


def test_fit_check_catches_one_corrupted_coefficient():
    case = next(c for c in workloads.long_lowdeg_cases(5) if len(c.coeffs) > 3)
    good = _fake_fit(case)
    assert workloads.check_fit(case, good, None, NotPoly) == []
    coeffs = list(case.coeffs)
    coeffs[2] += Fraction(1, 10**9)
    bad = SimpleNamespace(**{**vars(good), "poly_in_x": SimpleNamespace(coefficients=tuple(coeffs))})
    assert workloads.check_fit(case, bad, None, NotPoly) == ["coefficients in x differ from the generator's"]


def test_fit_check_expects_not_polynomial_error_on_exponentials():
    case = workloads.exp_case(3, 20)
    assert workloads.check_fit(case, None, NotPoly("no constant row"), NotPoly) == []
    assert workloads.check_fit(case, None, ValueError("x"), NotPoly) != []


def _json_fit_output(case: workloads.FitCase) -> str:
    gx0, gh = case.index_map
    return json.dumps({
        "degree": len(case.coeffs) - 1,
        "basis_g": {"x0": str(gx0), "h": str(gh)},
        "coefficients_g": [str(c) for c in case.expected_g],
        "coefficients_x": [str(c) for c in case.coeffs],
        "verified": True,
    })


def test_cli_check_catches_one_wrong_exit_code():
    rng = random.Random(1)
    case = workloads.cli_case(rng, "fit-random")
    case = replace(case, kind="fit-random-json", args=case.args[:-1] + ("--format=json",))
    right = workloads.CliOutcome(0, _json_fit_output(case.fit), "", False)
    assert workloads.check_cli(case, right) == []
    assert workloads.check_cli(case, replace(right, code=1)) == ["exit code 1, expected 0"]

    malformed = workloads.cli_case(rng, "fit-malformed")
    assert workloads.check_cli(malformed, workloads.CliOutcome(2, "", "Error: input parse", False)) == []
    assert workloads.check_cli(malformed, workloads.CliOutcome(1, "", "", False)) == ["exit code 1, expected 2"]


def test_cli_check_catches_a_traceback():
    case = workloads.oversize_case(1)
    outcome = workloads.CliOutcome(2, "", "Traceback (most recent call last):\n ValueError", True)
    assert workloads.check_cli(case, outcome) == ["uncaught exception (traceback)"]


def test_self_time_on_a_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S("op", 0, 100, -1, 0),
        S("a", 10, 40, 0, 0),
        S("b", 15, 25, 1, 0),
        S("c", 20, 35, 1, 0),  # overlaps b: the union 15..35 is covered once
        S("d", 50, 90, 0, 0),
        S("e", 95, 120, 3, 0),  # reaches past its parent's end: clipped to 95..90, i.e. nothing
    ]
    assert tracing.self_times(spans) == [100 - 30 - 40, 30 - 20, 10, 15, 40, 25]
    nested = [S("op", 0, 100, -1, 0), S("a", 10, 40, 0, 0), S("b", 15, 25, 1, 0), S("d", 50, 90, 0, 0)]
    assert sum(tracing.self_times(nested)) == 100  # without overlap, self times add up to the root


def test_host_clock_scales_by_the_nearest_calibrations():
    import run

    clock = run.HostClock()
    ref = run.CAL_REF_NS
    clock.samples = [(t * 1000, ref) for t in range(10)] + [(t * 1000, 2 * ref) for t in range(100, 110)]
    assert clock.scaled([(5000, 300), (105000, 300)]) == [300, 150]  # the second ran on a host twice as slow
    assert clock.factor() == 1.5  # over the whole run


def test_tracer_records_nesting_and_restores_names():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    with pytest.raises(ZeroDivisionError):
        tracer.wrap("boom", lambda: 1 / 0)()
    names = [(s.name, s.parent, s.raised) for s in tracer.spans]
    assert names == [("outer", -1, False), ("inner", 0, False), ("boom", -1, True)]
    tracer.end_op()
    assert tracer.calls == {"outer": 1, "inner": 1, "boom": 1}
    assert tracer.raised["boom"] == 1 and tracer.spans == []


def test_tracer_install_is_undone():
    seqfit_solver = pytest.importorskip("seqfit.solver")
    before = (seqfit_solver.awnt, seqfit_solver.Polynomial.__call__)
    tracer = tracing.Tracer()
    tracer.install()
    assert seqfit_solver.awnt is not before[0]
    tracer.uninstall()
    assert (seqfit_solver.awnt, seqfit_solver.Polynomial.__call__) == before


def test_references_accept_seqfit_outputs():
    seqfit = pytest.importorskip("seqfit")
    from click.testing import CliRunner
    from seqfit.cli import main
    from seqfit.errors import NotPolynomialError, SeqfitError

    for case in take(workloads.long_lowdeg_cases(9), 8) + take(workloads.high_degree_cases(9), 4):
        try:
            result, exc = seqfit.fit(case.values, seqfit.AffineMap(case.x0, case.h), convention=case.convention), None
        except SeqfitError as error:
            result, exc = None, error
        assert workloads.check_fit(case, result, exc, NotPolynomialError) == []
    for case in take(workloads.cli_cases(9), len(workloads.CLI_MIX)):
        result = CliRunner().invoke(main, list(case.args), input=case.stdin)
        outcome = workloads.CliOutcome(result.exit_code, result.stdout, result.stderr, False)
        assert workloads.check_cli(case, outcome) == [], case.kind
