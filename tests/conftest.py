"""Shared generators and fixtures for the test suite.

Random objects are produced from explicit ``random.Random`` instances so
every test is reproducible; numeric assertions use numpy only where the
code under test already does.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from polyproper import GaussianRational, PolyMap, Polynomial
from polyproper.corpus import example_3_6_inverse, example_3_6_map


BENCH = Path(__file__).resolve().parents[1] / "bench"
#: The benchmark's dense pool (bench/workloads.py): generator seed and maps
#: per (n, d), in the order they are drawn.
DENSE_POOL_SEED = 1807
DENSE_POOL = {(2, 3): 3, (2, 6): 3, (3, 2): 3, (3, 3): 2}
DENSE_KEYS = [f"{n}x{d}#{m}" for (n, d), count in DENSE_POOL.items() for m in range(count)]


@functools.cache
def bench_generators():
    """The benchmark's map generators, bench/generators.py, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_generators", BENCH / "generators.py")
    generators = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = generators  # its dataclasses look the module up
    spec.loader.exec_module(generators)
    return generators


@functools.cache
def dense_pool() -> dict[str, tuple[str, int]]:
    """Map text and frozen fiber count of each dense pool map, by key (e.g. ``"3x3#1"``).

    Each text is drawn as the workload draws it and checked against the
    digest in bench/frozen.json.
    """
    frozen = json.loads((BENCH / "frozen.json").read_text())["dense"]
    rng = random.Random(DENSE_POOL_SEED)
    pool = {}
    for (n, d), count in DENSE_POOL.items():
        for m in range(count):
            key = f"{n}x{d}#{m}"
            text = bench_generators().dense_map(rng, n, d).text()
            assert hashlib.sha256(text.encode()).hexdigest() == frozen[key]["sha256"]
            pool[key] = (text, frozen[key]["count"])
    return pool


def random_rational(rng: random.Random, span: int = 6) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, 4)
    return Fraction(num, den)


def random_scalar(rng: random.Random, complex_ok: bool = True, span: int = 6) -> GaussianRational:
    re = random_rational(rng, span)
    im = random_rational(rng, span) if complex_ok and rng.random() < 0.4 else 0
    return GaussianRational(re, im)


def random_polynomial(
    rng: random.Random,
    variables: tuple[str, ...],
    max_degree: int = 3,
    max_terms: int = 5,
    complex_ok: bool = True,
) -> Polynomial:
    n = len(variables)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        budget = rng.randint(0, max_degree)
        exps = [0] * n
        for _ in range(budget):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = random_scalar(rng, complex_ok)
    return Polynomial(variables, terms)


def random_nonzero_polynomial(rng, variables, max_degree=3, max_terms=5, complex_ok=True):
    while True:
        p = random_polynomial(rng, variables, max_degree, max_terms, complex_ok)
        if not p.is_zero():
            return p


def random_map(
    rng: random.Random,
    variables: tuple[str, ...],
    max_degree: int = 3,
    max_terms: int = 4,
    complex_ok: bool = True,
) -> PolyMap:
    comps = [
        random_nonzero_polynomial(rng, variables, max_degree, max_terms, complex_ok)
        for _ in variables
    ]
    return PolyMap(variables, comps)


def random_point(rng: random.Random, n: int, scale: float = 1.5) -> tuple[complex, ...]:
    return tuple(
        complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(n)
    )


@pytest.fixture(scope="session")
def shear_map() -> PolyMap:
    """The degree-10 triangular shear automorphism of C^3."""
    return example_3_6_map()


@pytest.fixture(scope="session")
def shear_inverse() -> PolyMap:
    return example_3_6_inverse()


@pytest.fixture(scope="session")
def x_xy() -> PolyMap:
    return PolyMap.from_exprs(("x", "y"), ["x", "x*y"])


@pytest.fixture(scope="session")
def x2_y() -> PolyMap:
    return PolyMap.from_exprs(("x", "y"), ["x^2", "y"])
