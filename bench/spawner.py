"""Runs `python -m seqfit.cli` children one at a time for run.py.

A child's ru_maxrss also counts the memory of the process that spawned it,
so the children are spawned from this small process, not from run.py, whose
case pool and output checks hold more memory than a CLI run does.

    python3 bench/spawner.py OUTDIR

Reads one JSON request a line, {"args": [...], "stdin": "...", "timeout": s},
runs the child with its stdout and stderr in OUTDIR/stdout and OUTDIR/stderr,
and answers {"code": exit code, or null on timeout}.  At the end of its input
it answers {"maxrss_kb": the largest child's peak resident memory}.
"""
import json
import resource
import subprocess
import sys
import threading
from pathlib import Path


def run_child(args: list[str], stdin: str, timeout: float, out_dir: Path) -> int | None:
    # a timer kills a child that overruns, so that the wait stays a blocking
    # waitpid; Popen.wait(timeout) would poll, adding up to 50 ms to each op
    with open(out_dir / "stdout", "wb") as out, open(out_dir / "stderr", "wb") as err:
        child = subprocess.Popen([sys.executable, "-m", "seqfit.cli", *args], stdin=subprocess.PIPE,
                                 stdout=out, stderr=err)
        killed = threading.Event()
        timer = threading.Timer(timeout, lambda: (killed.set(), child.kill()))
        timer.start()
        try:
            child.communicate(stdin.encode())
        finally:
            timer.cancel()
    return None if killed.is_set() else child.returncode


def main() -> None:
    out_dir = Path(sys.argv[1])
    for line in sys.stdin:
        request = json.loads(line)
        code = run_child(request["args"], request["stdin"], request["timeout"], out_dir)
        print(json.dumps({"code": code}), flush=True)
    print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
