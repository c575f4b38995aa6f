"""Spans around seqfit's layers, recorded from outside the package.

seqfit's modules bind each other's functions at import
(``from .triangles import awnt``), so a layer is traced by rebinding the name
in the module that calls it: ``seqfit.solver.awnt``, not
``seqfit.triangles.awnt``.  A name that a later version of seqfit no longer
has is skipped, and its layer then reads zero.

Spans of one op are kept in memory and folded into per-layer totals when the
op ends; self time is a span's duration minus the time its children cover.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass

# (module, name in that module, span); a dict-valued name has each value wrapped
PATCHES = (
    ("seqfit.solver", "build_table", "difftable.build_table"),
    ("seqfit.cli", "build_table", "difftable.build_table"),
    ("seqfit.solver", "detect_degree", "difftable.detect_degree"),
    ("seqfit.cli", "detect_degree", "difftable.detect_degree"),
    ("seqfit.solver", "awnt", "triangles.cell"),
    ("seqfit.solver", "mwnt", "triangles.cell"),
    ("seqfit.cli", "awnt", "triangles.cell"),
    ("seqfit.cli", "mwnt", "triangles.cell"),
    ("seqfit.triangles", "_CELL_FN", "triangles.cell"),
    ("seqfit.cli", "stirling2", "triangles.stirling2"),
    ("seqfit.triangles", "stirling2", "triangles.stirling2"),
    ("seqfit.cli", "build_triangle", "triangles.build_triangle"),
    ("seqfit.oeis", "build_triangle", "triangles.build_triangle"),
    ("seqfit.solver", "solve_start_zero", "solver.solve"),
    ("seqfit.solver", "solve_start_one", "solver.solve"),
    ("seqfit.solver", "compose_affine", "solver.compose"),
    ("seqfit.solver", "Polynomial.__call__", "solver.verify"),
    ("seqfit.cli", "fit", "solver.fit"),
    ("seqfit.cli", "parse_scalar", "numeric.parse"),
    ("seqfit.cli", "format_scalar", "numeric.format"),
    ("seqfit.cli", "fetch_bfile", "oeis.fetch_bfile"),
    ("seqfit.cli", "crosscheck_triangle", "oeis.crosscheck"),
    ("seqfit.cli", "vandermonde_fit", "oracle"),
    ("seqfit.cli", "efdt_sum", "oracle"),
    ("seqfit.cli", "_run_self_checks", "cli.self_checks"),
)

# span -> name of its call-count metric; "op" is the benchmark's own root span
SPANS = {
    "op": None,
    "solver.fit": "solver.fit_calls",
    "difftable.build_table": "difftable.build_table_calls",
    "difftable.detect_degree": "difftable.detect_degree_calls",
    "triangles.cell": "triangles.cell_calls",
    "triangles.stirling2": "triangles.stirling2_calls",
    "triangles.build_triangle": "triangles.build_triangle_calls",
    "solver.solve": "solver.solve_calls",
    "solver.compose": "solver.compose_calls",
    "solver.verify": "solver.verify_evals",
    "numeric.parse": "numeric.parse_calls",
    "numeric.format": "numeric.format_calls",
    "oeis.fetch_bfile": "oeis.fetch_bfile_calls",
    "oeis.crosscheck": "oeis.crosscheck_calls",
    "oracle": "oracle_calls",
    "cli.self_checks": "cli.self_checks_calls",
}


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index of the parent in the op's span list; -1 for the root
    op: int
    raised: bool = False


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, run_start, run_end = 0, None, None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.end - s.start - covered)
    return out


def _count_cells(counts, args, table, exc):
    if table is not None:
        counts["difftable.cells_built"] += sum(len(row) for row in table.rows)


def _count_rows(counts, args, report, exc):
    if report is not None:
        inspected, useful = report.degree + 1, report.degree + 2
    elif hasattr(exc, "deepest_row"):
        inspected = useful = exc.deepest_row + 1
    else:
        return
    counts["difftable.rows_inspected"] += inspected
    counts["difftable.useful_cells"] += sum(len(row) for row in args[0].rows[:useful])


def _count_bits(counts, args, result, exc):
    if result is not None:
        coeffs = result.poly_in_g.coefficients + result.poly_in_x.coefficients
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs)
        counts["solver.coeff_bits_max"] = max(counts["solver.coeff_bits_max"], bits)


OBSERVERS = {
    "difftable.build_table": _count_cells,
    "difftable.detect_degree": _count_rows,
    "solver.fit": _count_bits,
}


class Tracer:
    """Records spans for one op at a time and folds them into totals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack = [-1]
        self.op = 0
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.counts: Counter = Counter()  # observer counts, summed over ops
        self._undo = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        observe = OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = Span(name, 0, 0, stack[-1], tracer.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                span.raised = True
                stack.pop()
                if observe:
                    observe(tracer.counts, args, None, exc)
                raise
            span.end = clock()
            stack.pop()
            if observe:
                observe(tracer.counts, args, result, None)
            return result

        return traced

    def install(self):
        for module_name, path, name in PATCHES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            if isinstance(original, dict):
                saved = dict(original)
                for key, fn in saved.items():
                    original[key] = self.wrap(name, fn)
                self._undo.append((original.update, (saved,)))
            else:
                setattr(owner, attr, self.wrap(name, original))
                self._undo.append((setattr, (owner, attr, original)))

    def uninstall(self):
        while self._undo:
            fn, args = self._undo.pop()
            fn(*args)

    def end_op(self) -> int:
        """Fold the finished op's spans into the totals; return the root's duration in ns."""
        root = 0
        for span, own in zip(self.spans, self_times(self.spans)):
            self.self_ns[span.name] += own
            self.calls[span.name] += 1
            self.raised[span.name] += span.raised
            if span.parent < 0:
                root += span.end - span.start
        self.spans.clear()
        self.op += 1
        return root
