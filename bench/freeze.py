"""Regenerate frozen.json, the ground truth the benchmark checks against.

    python3 bench/freeze.py

It records the digest of each corpus report and, for each map of the fixed
dense pool, the digest of its text and its generic fiber count.  The solver
eliminates in the order the variables are declared, so the count is taken
under every order, at several seeded targets, and every point is checked
with the generator's own evaluator; the frozen count is the largest found.

Last, it runs the dense and automorphism passes of a few seeds and records
every wrong answer a task gives as a known defect of that input.  The
benchmark counts a known defect as a failed task; any other wrong answer
makes a run incorrect.

The values come from the program at the time of freezing, so re-freezing
changes the benchmark: do it only when a change is meant to alter these
answers, and say so.
"""

from __future__ import annotations

import itertools
import json
import random
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from polyproper import corpus, polymap, solver  # noqa: E402

from generators import dense_map  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    CORPUS_IDS,
    DENSE_POOL,
    DENSE_POOL_SEED,
    FIBER_TOL,
    FROZEN_PATH,
    AutomorphismWorkload,
    DenseFiberWorkload,
    Unknown,
    Wrong,
    canonical_digest,
    text_digest,
)

FREEZE_TARGETS = 12
FREEZE_SEEDS = 4


def collect_wrong_answers(cls, frozen: dict) -> dict[str, list[str]]:
    """Wrong answers per input over the pass of each of FREEZE_SEEDS seeds."""
    wrong: dict[str, set[str]] = {}
    for seed in range(FREEZE_SEEDS):
        for task in cls(seed, False, frozen).make_pass():
            result = run.attempt(task)
            if isinstance(result, BaseException):
                continue
            try:
                task.check(result)
            except Wrong as exc:
                wrong.setdefault(task.key, set()).add(str(exc))
            except Unknown:
                pass
    print(cls.name, "known defects", wrong, file=sys.stderr)
    return {key: sorted(messages) for key, messages in sorted(wrong.items())}


def main() -> int:
    signal.signal(signal.SIGALRM, run._on_alarm)
    frozen = {"corpus": {}, "dense": {}}
    for name in CORPUS_IDS:
        entry = corpus.run_entry(name)
        if not entry["expected_pass"]:
            print(f"corpus {name}: {entry['mismatches']}", file=sys.stderr)
            return 1
        frozen["corpus"][name] = canonical_digest(entry)
    rng = random.Random(DENSE_POOL_SEED)
    for (n, d), maps in DENSE_POOL.items():
        for m in range(maps):
            gen = dense_map(rng, n, d)
            key = f"{n}x{d}#{m}"
            by_order = {}
            for order in itertools.permutations(gen.vars):
                f = polymap.parse_map_text(gen.text(order))
                back = [order.index(v) for v in gen.vars]
                target_rng = np.random.default_rng([2**20, n, d, m])
                counts = set()
                for _ in range(FREEZE_TARGETS):
                    y = solver.sample_target(target_rng, n)
                    try:
                        sols = solver.solve_fiber(f, y)
                    except solver.PositiveDimensionalFiberError:
                        counts.add("raises")
                        continue
                    for s in sols:
                        residual, scale = gen.residual([s.point[i] for i in back], y)
                        if not residual <= FIBER_TOL + 1e-12 * scale:
                            print(f"dense {key}: unverified point {s.point}", file=sys.stderr)
                            return 1
                    counts.add(len(sols))
                by_order[" ".join(order)] = sorted(counts, key=str)
            found = [c for counts in by_order.values() for c in counts if c != "raises"]
            frozen["dense"][key] = {
                "sha256": text_digest(gen.text()),
                "count": max(found),
                "counts_by_order": by_order,
            }
            print(key, frozen["dense"][key]["count"], by_order, file=sys.stderr)
    frozen["known_defects"] = {
        cls.name: collect_wrong_answers(cls, frozen) for cls in (DenseFiberWorkload, AutomorphismWorkload)
    }
    FROZEN_PATH.write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
