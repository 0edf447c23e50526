"""Benchmark for gordian: four seeded workloads, independently checked.

    python3 bench/run.py --workload abelian|mingle|hilbert|cli --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.  A run
goes through a fixed number of rounds of problems, sized to take about
``--seconds`` (``workloads.rounds_for``), in a closed loop (one client, one
problem at a time), times set-up in fresh interpreters spread over the run,
checks every answer with ``check.py``, and prints one JSON line:
``correct``, ``attempted``, ``failed`` and the metrics.  With ``--trace 0``
they are the end-to-end metrics; with ``--trace 1`` the loop runs under
:class:`tracing.Tracer` and they are the per-layer metrics.  Results and
traces are also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 60
# A run stops at the end of a round once this many times --seconds of loop
# time have passed, even if rounds remain: a guard on a slow host, which
# changes the work done and so should not come into play.
OVERTIME = 1.15

WORKLOADS = ("abelian", "mingle", "hilbert", "cli")

# Run in a fresh interpreter: import gordian, then one warm-up problem per
# logic (ops.warm_up).  Prints the import time and the set-up time, import
# plus warm-up, in seconds; importing the benchmark's own modules is not
# counted.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
import gordian
imported = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ops
warm = time.perf_counter()
ops.warm_up(sys.argv[2:])
print(imported - start, imported - start + time.perf_counter() - warm)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Setup:
    """Set-up timed in fresh interpreters, one at a time.  The samples are
    spread over the run, between rounds, so that their median does not
    hang on the host's speed during one second or two."""

    def __init__(self, logics, env):
        self.logics, self.env = logics, env
        self.imports: list[float] = []
        self.setups: list[float] = []
        self.seconds = 0.0  # wall time spent here, kept out of the loop's clock

    def sample(self) -> None:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(HERE), *self.logics],
            env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        first, whole = (float(v) for v in done.stdout.split())
        self.imports.append(first)
        self.setups.append(whole)
        self.seconds += time.perf_counter() - start

    def due(self, fraction: float) -> bool:
        """Whether a sample is due once ``fraction`` of the run is done."""
        return len(self.setups) < 1 + fraction * (SETUP_REPEATS - 1)

    def medians(self) -> tuple[float, float]:
        """(import time, set-up time), topped up to SETUP_REPEATS samples."""
        while len(self.setups) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.imports), statistics.median(self.setups)


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class Loop:
    """Closed loop over whole rounds, with the tallies every metric needs.
    Set-up samples taken between rounds are off the loop's clock."""

    def __init__(self, workload: str, seed: int, seconds: float, tracer=None):
        self.workload, self.seed, self.seconds, self.tracer = workload, seed, seconds, tracer
        self.latencies: list[float] = []
        self.busy = 0.0
        self.attempted = self.failed = self.decided = 0
        self.correct = True
        self.child_rss_mb = 0.0
        self.process_ms: list[float] = []
        self.main_ms: list[float] = []
        self.rounds = 0
        self.round_ms: list[float] = []
        self.errors: list[str] = []

    def run(self, env, scratch: Path, setup: Setup) -> None:
        import workloads

        rounds = workloads.rounds_for(self.workload, self.seconds)
        start, paused = time.perf_counter(), setup.seconds
        while self.rounds < rounds:
            problems = workloads.round_problems(self.workload, self.seed, self.rounds)
            busy_before = self.busy
            for index, problem in enumerate(problems):
                rng = Random(f"check:{self.seed}:{self.rounds}:{index}")
                if self.tracer is not None:
                    self.tracer.problem = self.attempted
                self.attempted += 1
                if self.workload == "cli":
                    self._cli_problem(problem, env, scratch, rng)
                else:
                    self._library_problem(problem, rng)
            self.round_ms.append(round((self.busy - busy_before) * 1e3, 1))
            self.rounds += 1
            if time.perf_counter() - start - (setup.seconds - paused) > OVERTIME * self.seconds:
                return
            if setup.due(self.rounds / rounds):
                setup.sample()

    def _record(self, problem, elapsed: float, outcome, rng) -> None:
        import ops

        self.busy += elapsed
        if outcome is None:
            self.failed += 1
            return
        ok, decided = ops.verify(problem, outcome, rng)
        if not ok:
            self.correct = False
            self.errors.append(f"{problem.label} {problem.logic} {problem.kind}")
            return
        self.latencies.append(elapsed)
        self.decided += decided

    def _library_problem(self, problem, rng) -> None:
        import ops

        start = time.perf_counter()
        try:
            raw = ops.run_library(problem)
        except Exception as exc:  # a fault of the program: count it
            self._record(problem, time.perf_counter() - start, None, rng)
            self.errors.append(f"failed {problem.label}: {type(exc).__name__}")
            return
        elapsed = time.perf_counter() - start
        self._record(problem, elapsed, ops.outcome_from_library(problem, raw), rng)

    def _cli_problem(self, problem, env, scratch: Path, rng) -> None:
        import ops

        path = scratch / "problem.txt"
        argv, body = ops.cli_argv(problem, path)
        path.write_text(body, encoding="utf-8")
        start = time.perf_counter()
        code, stdout, rss_mb = ops.run_cli(argv, env)
        elapsed = time.perf_counter() - start
        self.child_rss_mb = max(self.child_rss_mb, rss_mb)
        self.process_ms.append(elapsed * 1e3)
        if self.tracer is not None:
            self.main_ms.append(self._in_process_main(argv))
        self._record(problem, elapsed, ops.outcome_from_cli(problem, code, stdout), rng)

    @staticmethod
    def _in_process_main(argv) -> float:
        from gordian import cli

        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(argv)
            except RecursionError:
                pass  # the same fault the child process shows
        return (time.perf_counter() - start) * 1e3

    def end_to_end(self, setup_s: float) -> dict:
        done = len(self.latencies)
        if self.workload == "cli":
            rss = self.child_rss_mb
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": (setup_s, "s"),
            "problems_per_s": (done / self.busy if self.busy else 0.0, "1/s"),
            "problem_p50_ms": (statistics.median(self.latencies) * 1e3 if done else 0.0, "ms"),
            "problem_p90_ms": (percentile(self.latencies, 0.9) * 1e3 if done else 0.0, "ms"),
            "goals_decided": (self.decided, "count"),
            "peak_rss_mb": (rss, "MB"),
        }
        return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gordian" / "__init__.py").is_file():
        print(f"error: the gordian sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    env = child_env()
    setup = Setup(workloads.LOGICS[args.workload], env)
    setup.sample()

    import ops

    ops.warm_up(workloads.LOGICS[args.workload])  # the same warm-up, in this process

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(extra_modules=[ops])
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    loop = Loop(args.workload, args.seed, args.seconds, tracer)
    try:
        loop.run(env, scratch, setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()
    import_s, setup_s = setup.medians()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {
        "workload": args.workload, "seed": args.seed, "rounds": loop.rounds,
        "attempted": loop.attempted, "failed": loop.failed, "busy_s": loop.busy,
        "mean_ms": loop.busy / loop.attempted * 1e3, "round_ms": loop.round_ms,
        "errors": loop.errors[:20],
    }
    if tracer is not None:
        metrics = tracer.metrics(
            import_s,
            statistics.median(loop.process_ms) if loop.process_ms else 0.0,
            statistics.median(loop.main_ms) if loop.main_ms else 0.0,
        )
        tracer.write(OUT / f"{stem}.trace.json", summary)
    else:
        metrics = loop.end_to_end(setup_s)
    result = {"correct": loop.correct, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}
    (OUT / f"{stem}.result.json").write_text(json.dumps({"summary": summary, **result}, indent=1))
    for line in loop.errors[:20]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
