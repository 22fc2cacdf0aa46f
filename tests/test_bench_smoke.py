"""The benchmark still imports, runs and checks the program (bench/run.py --smoke)."""

import importlib.util
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


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_RUN.parent / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bindings_resolve():
    """Every traced function is still bound where the spans patch it.

    A binding that no longer resolves drops that layer from the per-layer
    numbers without an error; the only stale ones are the deleted
    ``PolyMatrix.evaluate``, ``nonproper.solve_fiber`` (the locus solves no
    fiber) and ``rabier.smallest_singular_value`` (a witness samples no
    singular value).
    """
    stale = set()
    for name, sites in _load_spans().layer_sites():
        for owner, attr in sites:
            bound = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if not callable(bound):
                stale.add(name)
    assert stale == {
        "polymap.PolyMatrix.evaluate",
        "nonproper.solve_fiber",
        "rabier.smallest_singular_value",
    }
