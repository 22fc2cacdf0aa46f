"""The benchmark still imports, runs and checks the program (bench/run.py --smoke)."""

import subprocess
import sys
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_bench_smoke_run():
    proc = subprocess.run(
        [sys.executable, str(BENCH_RUN), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("smoke ")]
    # three workloads, each measured untraced and traced
    assert len(lines) == 6, proc.stdout
    assert all(line.endswith(" ok") for line in lines), proc.stdout
