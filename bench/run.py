"""Benchmark of polyproper: one closed-loop client, one task at a time.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1   # each workload in its own process
    python3 bench/run.py --smoke                    # every workload at a tiny size

Workloads (see README.md): ``corpus``, ``dense-fibers``, ``automorphisms``.
The program is imported from ``src/`` of the checkout this file sits in.

A run sets up and runs the workload's pass of tasks in rounds, each round
on freshly parsed inputs, for as many whole rounds as fit in ``--seconds``
(at least ``MIN_ROUNDS``).  The host is shared and its speed drifts, so every
timing is corrected to a reference speed by a kernel timed around it (see
hostspeed.py), and a task's time is its median over the rounds.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
every task twice, untraced and traced in alternating order, and reports the
per-layer metrics and the tracing overhead.  Lines before the last are for
people; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when an answer
is wrong and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("corpus", "dense-fibers", "automorphisms")

#: Fresh interpreters timed importing polyproper, for setup_s.
IMPORT_REPEATS = 5
#: Each task's time is the median of at least this many runs.
MIN_ROUNDS = 3
#: A run starts no further task after this long, even below MIN_ROUNDS.
MAX_RUN_S = 120.0
#: A task still running after this long is stopped and counts as failed, so
#: that a run ends in time even when a change makes some task hang.  The
#: slowest task takes about 4 s on a 2-core Xeon; some automorphisms of
#: degree 3 in three variables, outside the pool, took 6-30 s to answer.
TASK_TIMEOUT_S = 15.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "cpu_s_per_task": "s",
    "peak_rss_mb": "MB",
}


class TaskTimeout(BaseException):
    """Raised inside a task by the alarm.

    It derives from BaseException so that no ``except Exception`` in the
    program can swallow it.
    """


def _on_alarm(signum, frame):
    raise TaskTimeout(f"no answer within {TASK_TIMEOUT_S:g} s")


def import_program() -> None:
    """Import polyproper from the checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import polyproper

    if Path(polyproper.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"polyproper was imported from {polyproper.__file__}, not from {SRC}")


def fresh_import_s() -> float:
    """Seconds a new interpreter takes to import polyproper, at reference speed.

    The new interpreter times the host's speed itself: timings taken in this
    process around the child follow the start and end of the child, not its
    speed.  It loads hostspeed (and with it fractions) before the import.
    """
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; import hostspeed; t = time.perf_counter()\n"
        "with hostspeed.Probe() as probe:\n    import polyproper\n"
        "print(probe.corrected(time.perf_counter() - t))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout)


def host_info() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": [round(v, 2) for v in os.getloadavg()],
        "threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Outcomes:
    """Tallies task outcomes; only a wrong answer makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.kinds: dict[str, int] = {}
        self.examples: list[str] = []

    def record(self, task, run_result) -> None:
        from workloads import Unknown, Wrong

        self.attempted += 1
        kind = None
        if isinstance(run_result, TaskTimeout):
            kind, detail = "timeout", str(run_result)
        elif isinstance(run_result, Exception):
            kind, detail = "raised", f"{type(run_result).__name__}: {run_result}"
        else:
            try:
                task.check(run_result)
            except Wrong as exc:
                kind = "known-defect" if str(exc) in task.known else "wrong"
                detail = str(exc)
            except Unknown as exc:
                kind, detail = "unknown", str(exc)
        if kind is None:
            return
        self.failed += 1
        self.wrong += kind == "wrong"
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        if len(self.examples) < 5:
            self.examples.append(f"{kind} [{task.key}] {detail}"[:300])

    def summary(self) -> str:
        return f"{self.failed}/{self.attempted} {self.kinds}"


def attempt(task) -> object:
    """Run one task under the timeout; return its result or the exception it raised."""
    signal.setitimer(signal.ITIMER_REAL, TASK_TIMEOUT_S)
    try:
        return task.run()
    except (Exception, TaskTimeout) as exc:  # a failing task is a result, see Outcomes
        return exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def timed(task) -> tuple[object, float, float]:
    """Run one task; return its result (or exception), wall and CPU seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    result = attempt(task)
    return result, time.perf_counter() - wall, time.process_time() - cpu


def nearest_rank(sorted_values: list[float], q: float) -> tuple[float, int]:
    """The q-quantile by nearest rank, and how many samples lie above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def measure(workload, seconds: float, min_rounds: int = MIN_ROUNDS) -> tuple[dict, Outcomes, dict]:
    """End-to-end metrics from rounds of the same pass of tasks.

    A round sets up the pass afresh and runs every task once, each after a
    garbage collection.  Every set-up and every task is timed under a
    hostspeed.Probe and corrected to the reference speed.  Rounds go on
    while the next one, as long as the last, still ends within ``seconds``.
    A task's time is the median of its corrected times over the rounds;
    throughput and CPU time per task are taken over these, one per task of
    the pass.  The median latency is taken over all corrected task runs.
    """
    outcomes = Outcomes()
    setups: list[float] = []
    walls: list[list[float]] = []
    cpus: list[list[float]] = []
    runs: list[float] = []
    raw: list[float] = []
    kernel_s: list[float] = []
    rounds = 0
    start = time.perf_counter()
    while time.perf_counter() - start < MAX_RUN_S:
        round_start = time.perf_counter()
        with hostspeed.Probe() as probe:
            tasks = workload.make_pass()
        setups.append(probe.corrected(time.perf_counter() - round_start))
        kernel_s += probe.kernel_s
        walls = walls or [[] for _ in tasks]
        cpus = cpus or [[] for _ in tasks]
        for i, task in enumerate(tasks):
            gc.collect()
            wall, cpu = time.perf_counter(), time.process_time()
            with hostspeed.Probe() as probe:
                result = attempt(task)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            outcomes.record(task, result)
            walls[i].append(probe.corrected(wall))
            cpus[i].append(probe.corrected(cpu))
            runs.append(walls[i][-1])
            raw.append(wall - probe.spent_s)
            kernel_s += probe.kernel_s
            if time.perf_counter() - start >= MAX_RUN_S:
                break
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and now - start + (now - round_start) > seconds:
            break
    elapsed = time.perf_counter() - start
    task_wall = [statistics.median(w) for w in walls if w]
    task_cpu = [statistics.median(c) for c in cpus if c]
    raw.sort()
    p50, _ = nearest_rank(raw, 0.5)
    p90, above = nearest_rank(raw, 0.9)
    metrics = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": len(task_wall) / sum(task_wall),
        "task_p50_ms": statistics.median(runs) * 1e3,
        "cpu_s_per_task": sum(task_cpu) / len(task_cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = sorted(len(w) for w in walls)
    each = f"median over {counts[0]}-{counts[-1]} rounds of each of {len(task_wall)} tasks, at reference speed"
    notes = {
        "setup_s": f"median of {IMPORT_REPEATS} fresh imports + median of {len(setups)} set-ups of the pass, "
        "at reference speed",
        "tasks_per_s": f"{each}; {len(raw)} task runs in {elapsed:.1f} s",
        "task_p50_ms": f"n={len(runs)} task runs, at reference speed",
        "cpu_s_per_task": each,
        "peak_rss_mb": "whole process",
        "host_speed": f"reference kernel median {statistics.median(kernel_s) * 1e3:.4g} ms "
        f"(quiet: {hostspeed.REFERENCE_S * 1e3:g} ms) over {len(kernel_s)} timings",
        "measured": f"p50 {p50 * 1e3:.6g} ms, p90 {p90 * 1e3:.6g} ms over all {len(raw)} task runs "
        f"({above} above p90); as timed, not corrected, not gated",
        "failed_ratio": outcomes.summary(),
    }
    return metrics, outcomes, notes


def measure_traced(workload, seconds: float, min_tasks: int = 1) -> tuple[dict, Outcomes, dict]:
    """Per-layer metrics, and the overhead of tracing on the same tasks."""
    from spans import Tracer

    tracer = Tracer()
    outcomes = Outcomes()
    plain_s = traced_s = 0.0
    tasks_done = passes = 0
    start = time.perf_counter()
    while True:
        with tracer:
            tasks = workload.make_pass()
        for i, task in enumerate(tasks):
            for traced in (i % 2 == 0, i % 2 == 1):
                if traced:
                    with tracer:
                        result, wall, _ = timed(task)
                    traced_s += wall
                    outcomes.record(task, result)
                else:
                    _, wall, _ = timed(task)
                    plain_s += wall
            tasks_done += 1
            if time.perf_counter() - start >= MAX_RUN_S:
                break
        passes += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and tasks_done >= min_tasks) or elapsed >= MAX_RUN_S:
            break
    metrics = tracer.metrics(tasks_done)
    metrics["trace.overhead_s_per_task"] = (traced_s - plain_s) / tasks_done
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    notes = {
        "tasks": f"{tasks_done} tasks in {passes} passes, each run untraced and traced",
        "missing_bindings": sorted(tracer.missing),
        "failed_ratio": outcomes.summary(),
    }
    return metrics, outcomes, notes


def run_one(args) -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        import_program()
        from spans import metric_units
        from workloads import WORKLOADS, load_frozen

        workload = WORKLOADS[args.workload](args.seed, False, load_frozen())
        host = host_info()
        if args.trace:
            metrics, outcomes, notes = measure_traced(workload, args.seconds)
            units = metric_units()
        else:
            import_s = statistics.median(fresh_import_s() for _ in range(IMPORT_REPEATS))
            metrics, outcomes, notes = measure(workload, args.seconds)
            metrics["setup_s"] += import_s
            units = END_TO_END_UNITS
    except (ImportError, OSError, ValueError, KeyError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name}: {note}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value:.6g} {units[name]}{note}")
    for example in outcomes.examples:
        print(f"  failure: {example}")
    correct = outcomes.wrong == 0
    result = {
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; the exit code is the worst of them."""
    worst, summary = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            return 2
        worst = max(worst, proc.returncode)
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return worst


def smoke() -> int:
    """One pass of each workload at a tiny size, untraced and traced."""
    signal.signal(signal.SIGALRM, _on_alarm)
    import_program()
    from workloads import WORKLOADS, load_frozen

    frozen = load_frozen()
    failures = 0
    for name, cls in WORKLOADS.items():
        for runner in (measure, measure_traced):
            _, outcomes, _ = runner(cls(0, True, frozen), 0.0, 1)
            status = "ok" if outcomes.failed == 0 else f"FAILED {outcomes.examples}"
            print(f"smoke {name} {runner.__name__}: {outcomes.attempted} tasks {status}")
            failures += outcomes.failed
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
