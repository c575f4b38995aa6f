"""seqfit benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload long-lowdeg --seed 1 --seconds 38 --trace 0

Runs seqfit from the source tree beside this directory (``src/``), in a closed
loop with one client: library workloads call ``seqfit.fit`` in this process,
the ``cli`` workload runs ``python -m seqfit.cli`` one child at a time.  Every
outcome is checked against references computed in ``workloads.py``.

With ``--trace 0`` it reports the end-to-end metrics over a seeded stream of
cases.  With ``--trace 1`` it runs each case untraced and traced back to back
and reports per-layer metrics and the tracing overhead; the CLI is then run
in-process through ``seqfit.cli.main``.  Times are scaled to a reference host
speed by a calibration kernel timed between ops (see HostClock).  Every metric
is printed by name and unit; the last line of standard output is the JSON
result.  The exit code is nonzero when an op whose expected outcome is success
fails its check.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

SRC = workloads.ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / ".out" / str(os.getpid())  # CLI children's stdout and stderr, apart for each run
SETUP_REPEATS = 15  # fresh interpreters timed for set-up
WARMUP_OPS = 3  # first ops of a run, checked but not timed
CLI_TIMEOUT_S = 60
CAL_EVERY_NS = 150_000_000  # an op is followed by a calibration once this long has passed since the last
CAL_WINDOW = 9  # the calibrations, nearest in time, whose median scales one timing
CAL_REF_NS = 7_700_000  # the calibration kernel's median time on the reference host (see HostClock)
CAL_VALUES = tuple(Fraction(3 * i**3 - 2 * i * i + 5, 7) + Fraction(i, 11) for i in range(70))

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def pin_one_cpu():
    """Keep this process and the children it starts on one CPU, where the calibrations run too."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def calibration_kernel():
    """Fixed work of the kind seqfit does: a rational difference table and big-integer Stirling rows."""
    workloads.difference_rows(CAL_VALUES)
    workloads.stirling_rows(110)


class HostClock:
    """Scales wall times to the speed of a reference host.

    The host is shared: other load on it slows every process here, by up to
    about 1.8x and for seconds to minutes at a time, so raw wall times of the
    same code differ between runs by more than any bound.  The benchmark
    therefore times a fixed calibration kernel of its own on the ops' CPU
    between ops, and scales each timing by CAL_REF_NS over the median of the
    CAL_WINDOW calibrations nearest to it in time.  The kernel runs no seqfit
    code, so a change to seqfit moves scaled times as it moves raw ones; only
    the host's speed cancels out.  CAL_REF_NS is the kernel's median time
    measured on a shared 2-vCPU Intel Xeon VM with CPython 3.11.7, so scaled
    times read as times on that VM; the unscaled figures are printed too.
    """

    def __init__(self):
        self.samples: list[tuple[int, int]] = []  # (midpoint, duration), perf_counter ns
        self.last_ns = 0

    def calibrate(self):
        t0 = time.perf_counter_ns()
        calibration_kernel()
        self.last_ns = time.perf_counter_ns()
        self.samples.append(((t0 + self.last_ns) // 2, self.last_ns - t0))

    def calibrate_if_due(self):
        if time.perf_counter_ns() - self.last_ns >= CAL_EVERY_NS:
            self.calibrate()

    def factor(self, at_ns: int | None = None) -> float:
        """How many times slower than the reference the host ran around at_ns (None: over the run)."""
        near = self.samples if at_ns is None else sorted(self.samples, key=lambda s: abs(s[0] - at_ns))[:CAL_WINDOW]
        return statistics.median(d for _, d in near) / CAL_REF_NS

    def scaled(self, timings) -> list[float]:
        """Durations, in ns at the reference speed, of (midpoint, duration) timings."""
        return [d / self.factor(mid) for mid, d in timings]


def import_times(stmt: str, repeats: int, clock: HostClock) -> list[tuple[int, int]]:
    """(midpoint, wall time) in ns of fresh interpreters each running stmt, calibrated between."""
    env = child_env()
    timings = []
    for _ in range(repeats):
        clock.calibrate()
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", stmt], env=env, check=True)
        t1 = time.perf_counter_ns()
        timings.append(((t0 + t1) // 2, t1 - t0))
    clock.calibrate()
    return timings


class CliChildren:
    """The cli op: one `python -m seqfit.cli` child per call, spawned by spawner.py."""

    def __init__(self):
        OUT.mkdir(parents=True, exist_ok=True)
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py"), str(OUT)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=child_env(),
        )

    def _ask(self, request: dict | None) -> dict:
        if request is None:
            self.spawner.stdin.close()
        else:
            self.spawner.stdin.write(json.dumps(request) + "\n")
            self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("spawner.py ended early")
        return json.loads(reply)

    def __call__(self, case: workloads.CliCase) -> workloads.CliOutcome:
        code = self._ask({"args": case.args, "stdin": case.stdin, "timeout": CLI_TIMEOUT_S})["code"]
        if code is None:
            raise TimeoutError(f"no exit within {CLI_TIMEOUT_S} s")
        out, err = (OUT / "stdout").read_text(), (OUT / "stderr").read_text()
        return workloads.CliOutcome(code, out, err, "Traceback (most recent call last)" in err)

    def close(self) -> float:
        """Stop the spawner; return the largest child's peak RSS in MB."""
        maxrss_kb = self._ask(None)["maxrss_kb"]
        self.spawner.wait()
        for name in ("stdout", "stderr"):
            (OUT / name).unlink(missing_ok=True)
        OUT.rmdir()
        try:
            OUT.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass
        return maxrss_kb / 1024


def make_ops(workload: str, in_process_cli: bool, wrap=lambda name, fn: fn):
    """(run, check) for one case: run is the timed op, check returns its problems.

    wrap(span, fn) lets the traced run put a span around the library's fit call,
    which is made from here.
    """
    if workload == "cli":
        if not in_process_cli:
            return CliChildren(), workloads.check_cli
        from click.testing import CliRunner
        from seqfit.cli import main

        def run_in_process(case):
            result = CliRunner().invoke(main, list(case.args), input=case.stdin)
            crashed = result.exception is not None and not isinstance(result.exception, SystemExit)
            return workloads.CliOutcome(result.exit_code, result.stdout, result.stderr, crashed)

        return run_in_process, workloads.check_cli

    import seqfit
    from seqfit.errors import NotPolynomialError, SeqfitError

    fit = wrap("solver.fit", seqfit.fit)

    def run_fit(case):
        try:
            return fit(case.values, seqfit.AffineMap(case.x0, case.h), convention=case.convention), None
        except SeqfitError as exc:
            return None, exc

    def check(case, outcome):
        return workloads.check_fit(case, *outcome, NotPolynomialError)

    return run_fit, check


class Stats:
    """Latencies and failures of the ops of one run."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.timings: list[tuple[int, int]] = []  # (midpoint, wall time) of each op, in ns
        self.failed = 0
        self.failed_success_case = 0
        self.problems: list[str] = []

    @property
    def latencies_ns(self) -> list[int]:
        return [dt for _, dt in self.timings]

    def record(self, case, problems: list[str], t0_ns: int, dt_ns: int):
        if problems:
            self.failed += 1
            self.failed_success_case += case.expect_success
            if len(self.problems) < 5:
                self.problems.append(f"{getattr(case, 'kind', 'fit')}: {'; '.join(problems)}")
            dt_ns = int(self.seconds * 1e9)  # a failed op misses any latency limit
        self.timings.append((t0_ns + dt_ns // 2, dt_ns))

    def merge(self, other: "Stats"):
        self.timings += other.timings
        self.failed += other.failed
        self.failed_success_case += other.failed_success_case
        self.problems += other.problems


def until(cases, seconds: float):
    """The closed loop: the next case only after the previous op and its check."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        yield next(cases)


def timed(run, check, case):
    """Run one op; return its problems, its start and its wall time in ns."""
    t0 = time.perf_counter_ns()
    try:
        outcome = run(case)
    except Exception as exc:  # an exception the input does not call for: a failed op
        return [f"{type(exc).__name__}: {exc}"], t0, time.perf_counter_ns() - t0
    dt = time.perf_counter_ns() - t0
    return check(case, outcome), t0, dt


def host_speed_ns() -> int:
    """Time of a short fixed loop: how fast the host runs this process just now."""
    t0 = time.perf_counter_ns()
    x = 0
    for i in range(4000):
        x = (x * 31 + i) % 1000003
    return time.perf_counter_ns() - t0


def pin_fastest_cpu() -> int:
    """Pin this process, and the children it starts next, to the faster of two allowed CPUs.

    Other load on the host slows each CPU at its own times, so the op runs on
    whichever of two (sampled) CPUs runs host_speed_ns() faster just now.
    Returns that reading.
    """
    readings = []
    for cpu in random.sample(CPUS, min(2, len(CPUS))):
        os.sched_setaffinity(0, {cpu})
        readings.append((host_speed_ns(), cpu))
    reading, cpu = min(readings)
    os.sched_setaffinity(0, {cpu})
    return reading


def best_times(cases: list, run, check, seconds: float, seed: int, stats: Stats, midway) -> list[int]:
    """Each case's fastest time, in ns, within `seconds`.

    The host is shared: other load slows every process on it, by up to about
    1.8x and for up to tens of seconds at a time.  A case's fastest run is the
    program's own cost, which is what a change to the program moves.  To get
    one, each op runs on the faster of two CPUs (pin_fastest_cpu), and
    host_speed_ns() is timed there before and after the op.  The first pass
    runs every case; each later pass re-runs the cases that have not yet run
    while the host ran within SLACK of its usual fast speed (the tenth
    percentile of the readings so far), slowest first, and once all have,
    every case runs again in a fresh seeded order.  A case that ever failed keeps
    the failure time.  midway() is called once, between ops, half way
    through; its time is not taken from the ops.
    """
    best = [math.inf] * len(cases)
    host = [math.inf] * len(cases)  # per case, the best of its runs' slower host reading
    failed = [False] * len(cases)
    readings: list[int] = []
    rng = random.Random(f"passes/{seed}")
    deadline = time.perf_counter() + seconds
    halfway = deadline - seconds / 2
    while True:
        todo = [i for i, b in enumerate(best) if b == math.inf]
        if not todo:
            # the slowest cases first: they weigh most in ops_per_s and p90
            todo = sorted((i for i, h in enumerate(host) if h > SLACK * readings[len(readings) // 10]),
                          key=best.__getitem__, reverse=True)
        if not todo:
            todo = list(range(len(cases)))
            rng.shuffle(todo)
        for i in todo:
            now = time.perf_counter()
            if midway and now >= halfway:
                midway()
                midway = None
                deadline += time.perf_counter() - now
            if time.perf_counter() >= deadline:
                penalty = int(seconds * 1e9)  # a failed op misses any latency limit
                return [penalty if f else b for b, f in zip(best, failed) if b != math.inf]
            before = pin_fastest_cpu()
            problems, dt = timed(run, check, cases[i])
            after = host_speed_ns()
            stats.record(cases[i], problems, dt)
            bisect.insort(readings, before)
            bisect.insort(readings, after)
            host[i] = min(host[i], max(before, after))
            best[i] = min(best[i], dt)
            failed[i] |= bool(problems)


def percentile_ms(latencies_ns: list[float], pct: int) -> float:
    if len(latencies_ns) < 2:
        return latencies_ns[0] / 1e6
    return statistics.quantiles(latencies_ns, n=100, method="inclusive")[pct - 1] / 1e6


def oversize_probe(seed: int, children: CliChildren) -> int:
    """Run the >4300-digit input once; return 1 when it does not exit 2 without a traceback.

    It stays out of the timed ops and their failure count, since the runs
    must have no failing op while this input still fails; it is reported here
    and as cli.oversize_probe_failed instead.
    """
    case = workloads.oversize_case(seed)
    problems = workloads.check_cli(case, children(case))
    print(f"probe {case.kind}: {'; '.join(problems) if problems else 'ok'}")
    return int(bool(problems))


def end_to_end(workload: str, seed: int, seconds: float):
    pin_one_cpu()
    clock = HostClock()
    entry = "import seqfit.cli" if workload == "cli" else "import seqfit"
    import_times(entry, 1, clock)  # warm the file cache, and write .pyc files where that is enabled
    setup = import_times(entry, SETUP_REPEATS, clock)
    run, check = make_ops(workload, in_process_cli=False)
    stats = Stats(seconds)
    try:
        if workload == "cli":
            oversize_probe(seed, run)
        for case in until(workloads.WORKLOADS[workload](seed), seconds):
            stats.record(case, *timed(run, check, case))
            clock.calibrate_if_due()
    finally:
        peak_rss_mb = run.close() if workload == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    clock.calibrate()
    ops = stats.timings[WARMUP_OPS:]
    lat = clock.scaled(ops)
    raw = [dt for _, dt in ops]
    print(f"{len(stats.timings)} ops, the first {WARMUP_OPS} untimed; {len(clock.samples)} calibrations, "
          f"host {clock.factor():.3f}x the reference time")
    print(f"unscaled: setup_s {statistics.median(dt for _, dt in setup) / 1e9:.6f}, "
          f"ops_per_s {len(raw) / (sum(raw) / 1e9):.6f}, latency_p50_ms {percentile_ms(raw, 50):.6f}, "
          f"latency_p90_ms {percentile_ms(raw, 90):.6f}")
    metrics = {
        "setup_s": statistics.median(clock.scaled(setup)) / 1e9,
        "ops_per_s": len(lat) / (sum(lat) / 1e9),
        "latency_p50_ms": percentile_ms(lat, 50),
        "latency_p90_ms": percentile_ms(lat, 90),
        "peak_rss_mb": peak_rss_mb,
    }
    return stats, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def per_layer(workload: str, seed: int, seconds: float):
    pin_one_cpu()
    clock = HostClock()
    interp, cli = "pass", "import seqfit.cli"
    import_times(cli, 1, clock)  # warm the file cache, and write .pyc files where that is enabled
    setup = {stmt: statistics.median(clock.scaled(import_times(stmt, SETUP_REPEATS, clock))) / 1e9
             for stmt in (interp, cli)}
    probe_failed = 0
    if workload == "cli":
        children = CliChildren()
        try:
            probe_failed = oversize_probe(seed, children)
        finally:
            children.close()
    run, check = make_ops(workload, in_process_cli=True)
    tracer = tracing.Tracer()
    traced_run = tracer.wrap("op", make_ops(workload, in_process_cli=True, wrap=tracer.wrap)[0])
    plain, traced = Stats(seconds), Stats(seconds)
    # each case runs untraced and traced back to back, in alternating order, so
    # that the overhead is measured on the same inputs at the same machine speed
    for i, case in enumerate(until(workloads.WORKLOADS[workload](seed), seconds)):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain.record(case, *timed(run, check, case))
                continue
            tracer.install()
            try:
                problems_t0_dt = timed(traced_run, check, case)
            finally:
                tracer.uninstall()
            tracer.end_op()
            traced.record(case, *problems_t0_dt)
        clock.calibrate_if_due()
    clock.calibrate()

    # per-op times are scaled by the run's median calibration, like the end-to-end times
    ops, factor = len(traced.timings), clock.factor()
    plain_ms = sum(plain.latencies_ns) / ops / 1e6 / factor
    traced_ms = sum(traced.latencies_ns) / ops / 1e6 / factor
    m: dict[str, tuple[float, str]] = {}
    for span, calls_name in tracing.SPANS.items():
        m[f"{span}.self_ms"] = (tracer.self_ns[span] / ops / 1e6 / factor, "ms")
        if calls_name:
            m[calls_name] = (tracer.calls[span] / ops, "count/op")
            m[f"{span}.raised"] = (tracer.raised[span] / ops, "count/op")
    built, useful = tracer.counts["difftable.cells_built"], tracer.counts["difftable.useful_cells"]
    m["difftable.cells_built"] = (built / ops, "count/op")
    m["difftable.useful_cells"] = (useful / ops, "count/op")
    m["difftable.useful_cell_ratio"] = (useful / built if built else 0.0, "ratio")
    m["difftable.rows_inspected"] = (tracer.counts["difftable.rows_inspected"] / ops, "count/op")
    m["solver.coeff_bits_max"] = (tracer.counts["solver.coeff_bits_max"], "bits")
    m["cli.interpreter_ms"] = (setup[interp] * 1e3, "ms")
    m["cli.import_ms"] = ((setup[cli] - setup[interp]) * 1e3, "ms")
    m["cli.oversize_probe_failed"] = (probe_failed, "count")
    m["trace.ops"] = (ops, "count")
    m["trace.op_ms"] = (traced_ms, "ms")
    m["trace.self_sum_ms"] = (sum(tracer.self_ns.values()) / ops / 1e6 / factor, "ms")
    m["trace.untraced_op_ms"] = (plain_ms, "ms")
    m["trace.overhead_ms"] = (traced_ms - plain_ms, "ms")
    m["trace.untraced_ops_per_s"] = (1e3 / plain_ms, "1/s")
    m["trace.traced_ops_per_s"] = (1e3 / traced_ms, "1/s")
    m["trace.overhead_ops_per_s"] = (1e3 / plain_ms - 1e3 / traced_ms, "1/s")
    m["host.calibration_ms"] = (clock.factor() * CAL_REF_NS / 1e6, "ms")
    print(f"self times sum to {m['trace.self_sum_ms'][0]:.3f} ms of the {traced_ms:.3f} ms traced op; "
          f"less the {traced_ms - plain_ms:.3f} ms tracing overhead that is the {plain_ms:.3f} ms untraced op")
    plain.merge(traced)
    return plain, m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seqfit" / "__init__.py").is_file():
        print(f"error: no seqfit source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import seqfit

    if workloads.ROOT.resolve() not in Path(seqfit.__file__).resolve().parents:
        print(f"error: imported seqfit from {seqfit.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    measure = per_layer if args.trace else end_to_end
    stats, metrics = measure(args.workload, args.seed, args.seconds)
    attempted = len(stats.latencies_ns)
    for problem in stats.problems:
        print(f"FAILED {problem}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops, {stats.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}")
    correct = stats.failed_success_case == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
