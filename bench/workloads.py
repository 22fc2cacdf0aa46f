"""The three benchmark workloads: inputs per pass, one task each, and checks.

A workload hands the runner its inputs as a *pass*: a list of tasks, each
one call into the program with the check of its answer.  The runner sets up
and runs the same pass in rounds, parsing the maps afresh every round, and
times each task by its median over the rounds.  The workload seed picks the
inputs of the pass; nothing is picked or dropped by how the program fares
on it.

Tasks call the program through module attributes at call time, so the
tracer's wrappers see every call.  Checks use the generators' own data and
numpy, or frozen values, never a second answer from the program (the one
exception is the ``verify_inverse`` negative control, which must be a call).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from polyproper import corpus, polymap, nonproper, solver
from polyproper.scalar import GaussianRational

from generators import TAME_LADDER, VARS, dense_map, map_text, tame_automorphism

FROZEN_PATH = Path(__file__).with_name("frozen.json")

#: The dense pool is fixed: every run solves fibers of the same maps, whose
#: fiber counts are frozen; the workload seed picks the targets.  The (3, 3)
#: rung has two maps, as one of its fibers costs ten times the others'; an
#: odd pool also keeps the median task inside one map's samples.
DENSE_POOL_SEED = 1807
DENSE_POOL = {(2, 3): 3, (2, 6): 3, (3, 2): 3, (3, 3): 2}
DENSE_TARGETS_PER_MAP = 4

#: The automorphism pool is fixed too: the first TAME_MAPS_PER_RUNG maps that
#: the generator seeded by (TAME_POOL_SEED, rung) draws, for each rung of
#: generators.TAME_LADDER, every one of them kept.
TAME_POOL_SEED = 2018
TAME_MAPS_PER_RUNG = 4

#: Corpus ids in the order a pass cycles through them.
CORPUS_IDS = ("example-3-6", "x-xy", "x2-y")

#: Residual bound for a fiber point, on top of float rounding of the terms.
FIBER_TOL = 1e-8
#: Two fiber points closer than this (max-norm) count as one point.
DISTINCT_RADIUS = 1e-6


class Wrong(Exception):
    """The program answered, and the answer contradicts the ground truth."""


class Unknown(Exception):
    """The program declined to answer where the ground truth is known."""


@dataclass(frozen=True)
class Task:
    """One call into the program, with the check of its answer.

    ``key`` names the input (a corpus entry or a pool map).  ``known`` holds
    the wrong answers frozen.json records for that input: the benchmark
    counts them as failed tasks, known defects, and any other wrong answer
    makes the run incorrect.
    """

    key: str
    run: Callable[[], object]
    check: Callable[[object], None]  # raises Wrong or Unknown
    known: frozenset = frozenset()


def known_defects(frozen: dict, workload: str, key: str) -> frozenset:
    return frozenset(frozen.get("known_defects", {}).get(workload, {}).get(key, ()))


def load_frozen() -> dict:
    return json.loads(FROZEN_PATH.read_text())


def canonical_digest(entry: dict) -> str:
    """sha256 of an entry in the CLI's JSON layout (sorted keys, indent 2)."""
    return hashlib.sha256(json.dumps(entry, indent=2, sort_keys=True).encode()).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- corpus ---------------------------------------------------------------------


class CorpusWorkload:
    """``corpus.run_entry(id)`` over the built-in entries, one entry per task.

    Entries run with their default seed, as ``polyproper --corpus all`` does,
    so every report must match its frozen digest; the workload seed picks the
    order in which a pass cycles through the entries.
    """

    name = "corpus"

    def __init__(self, seed: int, tiny: bool, frozen: dict):
        self.seed = seed
        self.digests = frozen["corpus"]

    def make_pass(self) -> list[Task]:
        start = random.Random(f"corpus/{self.seed}").randrange(len(CORPUS_IDS))
        names = CORPUS_IDS[start:] + CORPUS_IDS[:start]
        return [
            Task(
                name,
                lambda name=name: corpus.run_entry(name),
                lambda entry, name=name: self._check(name, entry),
            )
            for name in names
        ]

    def _check(self, name: str, entry: dict) -> None:
        if not entry["expected_pass"]:
            raise Wrong(f"mismatches {entry['mismatches']}")
        if canonical_digest(entry) != self.digests[name]:
            raise Wrong("report differs from the frozen digest")


# -- dense fibers -----------------------------------------------------------------


class DenseFiberWorkload:
    """``solver.solve_fiber`` on the fixed dense pool at seeded targets."""

    name = "dense-fibers"

    def __init__(self, seed: int, tiny: bool, frozen: dict):
        self.seed = seed
        self.tiny = tiny
        self.targets_per_map = 1 if tiny else DENSE_TARGETS_PER_MAP
        self.frozen = frozen

    def make_pass(self) -> list[Task]:
        pool_rng = random.Random(DENSE_POOL_SEED)
        tasks = []
        for (n, d), maps in DENSE_POOL.items():
            for m in range(maps):
                gen = dense_map(pool_rng, n, d)
                key = f"{n}x{d}#{m}"
                text = gen.text()
                if text_digest(text) != self.frozen["dense"][key]["sha256"]:
                    raise RuntimeError(f"dense pool map {key} differs from frozen.json")
                f = polymap.parse_map_text(text)
                target_rng = np.random.default_rng([self.seed, n, d, m])
                for _ in range(self.targets_per_map):
                    y = solver.sample_target(target_rng, n)
                    tasks.append(
                        Task(
                            key,
                            lambda f=f, y=y: solver.solve_fiber(f, y),
                            lambda sols, gen=gen, y=y, key=key: self._check(gen, y, key, sols),
                            known_defects(self.frozen, self.name, key),
                        )
                    )
                if self.tiny:
                    return tasks
        return tasks

    def _check(self, gen, y, key: str, solutions) -> None:
        expected = self.frozen["dense"][key]["count"]
        if len(solutions) > gen.bezout:
            raise Wrong(f"{len(solutions)} points exceed the Bezout bound {gen.bezout}")
        for s in solutions:
            residual, scale = gen.residual(s.point, y)
            if not residual <= FIBER_TOL + 1e-12 * scale:
                raise Wrong(f"point {s.point} has residual {residual:.3g}")
        points = np.array([s.point for s in solutions], dtype=complex).reshape(len(solutions), -1)
        for i in range(len(points)):
            gaps = np.abs(points[i + 1 :] - points[i]).max(axis=1, initial=0.0)
            if np.any(gaps < DISTINCT_RADIUS):
                raise Wrong(f"point {points[i]} is returned twice")
        if len(solutions) != expected:
            raise Wrong(f"{len(solutions)} points, frozen count {expected}")


# -- tame automorphisms ---------------------------------------------------------


#: The geometric degree of an automorphism is 1, known by construction.
MU_ONE = solver.DegreeEstimate(mu=1, histogram={1: 1}, samples=1, seed=0, degenerate=0, box=2.0)


class AutomorphismWorkload:
    """Exact checks on tame automorphisms, one map per task.

    The maps form a fixed pool, kept whole, so every run analyses the same
    maps; the workload seed picks the target of each task.  A pass parses
    every pool map afresh and uses it once.
    """

    name = "automorphisms"

    def __init__(self, seed: int, tiny: bool, frozen: dict):
        self.seed = seed
        self.tiny = tiny
        self.frozen = frozen

    def make_pass(self) -> list[Task]:
        target_rng = random.Random(f"automorphisms/{self.seed}")
        # The negative control costs about half a verify_inverse, so a pass
        # runs it on one map, picked by the seed.
        control = target_rng.randrange(len(TAME_LADDER) * TAME_MAPS_PER_RUNG)
        tasks = []
        for n, d in TAME_LADDER:
            pool_rng = random.Random(f"{TAME_POOL_SEED}/{n}x{d}")
            for m in range(TAME_MAPS_PER_RUNG):
                tame = tame_automorphism(pool_rng, n, d)
                names = VARS[:n]
                f = polymap.parse_map_text(map_text(names, tame.forward_texts()))
                inverse = tame.inverse_texts()
                g = polymap.parse_map_text(map_text(names, inverse))
                g_bad = None
                if len(tasks) == control:
                    bad = [inverse[0] + " + 1", *inverse[1:]]
                    g_bad = polymap.parse_map_text(map_text(names, bad))
                # The target is the exact image of a point x0 on a 1/16 grid,
                # so the fiber is {x0}; y has denominators 16**d, exact in
                # double precision.
                x0 = [
                    (Fraction(target_rng.randint(-8, 8), 16), Fraction(target_rng.randint(-8, 8), 16))
                    for _ in names
                ]
                y = tuple(complex(float(re), float(im)) for re, im in tame.forward_exact(x0))
                point = np.array([complex(float(re), float(im)) for re, im in x0])
                key = f"{n}x{d}#{m}"
                tasks.append(
                    Task(
                        key,
                        lambda f=f, g=g, y=y: self._run(f, g, y),
                        lambda out, f=f, g_bad=g_bad, tame=tame, p=point: self._check(
                            f, g_bad, tame, p, out
                        ),
                        known_defects(self.frozen, self.name, key),
                    )
                )
                if self.tiny:
                    return tasks
        return tasks

    @staticmethod
    def _run(f, g, y):
        verdict = f.nonsingularity()
        inverse_ok = polymap.verify_inverse(f, g)
        locus = nonproper.nonproperness_set(f, degree_estimate=MU_ONE)
        fiber = solver.solve_fiber(f, y)
        return verdict, inverse_ok, locus, fiber

    @staticmethod
    def _check(f, g_bad, tame, x0, out) -> None:
        verdict, inverse_ok, locus, fiber = out
        if not verdict.is_nonsingular or verdict.constant != GaussianRational(tame.det):
            raise Wrong(f"Jacobian determinant {verdict.determinant}, expected {tame.det}")
        if inverse_ok is not True:
            raise Wrong("verify_inverse rejected the exact inverse")
        if g_bad is not None and polymap.verify_inverse(f, g_bad) is not False:
            raise Wrong("verify_inverse accepted a perturbed inverse")
        if locus.is_unknown:
            raise Unknown(f"locus: {locus}")
        if not locus.is_empty:
            raise Wrong(f"locus {locus}, expected empty")
        if len(fiber) != 1:
            raise Wrong(f"fiber has {len(fiber)} points, expected the single point {x0}")
        gap = np.abs(np.array(fiber[0].point) - x0).max()
        if not gap <= 1e-6:
            raise Wrong(f"fiber point {fiber[0].point} is {gap:.3g} from {x0}")


WORKLOADS = {w.name: w for w in (CorpusWorkload, DenseFiberWorkload, AutomorphismWorkload)}
