"""The symbolic-target elimination plan, its exact specialisation and budget.

``geometric_degree`` solves each sampled fiber through one elimination of
(f - y) with y symbolic, specialised at the target; these tests hold it to
exact substitution and to the per-target cascade of :func:`fiber_count`,
including the fallbacks and the work budget.
"""

import functools
import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyproper import GaussianRational, PolyMap, Polynomial, nonproper, solver
from polyproper.corpus import EXAMPLE_3_6_TEXT, X2_Y_TEXT, X_XY_TEXT
from polyproper.elimination import eliminate, normalized
from polyproper.nonproper import fiber_count_diagnostic, nonproperness_set
from polyproper.poly import Specialisation, WorkLimitExceeded, work_limit
from polyproper.polymap import parse_map_text
from polyproper.solver import (
    DEGREE_SAMPLES,
    DegreeEstimate,
    PositiveDimensionalFiberError,
    _planned_fibers,
    fiber_count,
    geometric_degree,
    sample_target,
    solve_fiber,
    target_plan,
)
from conftest import DENSE_KEYS, bench_generators, dense_pool
from oracles import evaluate_exact

#: The benchmark's tame automorphism pool: generator seed and maps per rung.
TAME_POOL_SEED = 2018
TAME_MAPS_PER_RUNG = 4

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)
gaussians = st.builds(GaussianRational, rationals, rationals)


@functools.cache
def _tame_pool() -> dict[tuple[int, int, int], object]:
    """The benchmark's tame automorphisms, by (n, d, m): the m-th map of rung (n, d)."""
    gen = bench_generators()
    pool = {}
    for n, d in gen.TAME_LADDER:
        rng = random.Random(f"{TAME_POOL_SEED}/{n}x{d}")
        for m in range(TAME_MAPS_PER_RUNG):
            pool[n, d, m] = gen.tame_automorphism(rng, n, d)
    return pool


@functools.cache
def _tame_texts() -> dict[str, str]:
    """The map texts of the benchmark's tame automorphism pool, by key (e.g. ``"2x4#3"``)."""
    gen = bench_generators()
    return {
        f"{n}x{d}#{m}": gen.map_text(gen.VARS[:n], tame.forward_texts())
        for (n, d, m), tame in _tame_pool().items()
    }


def _dense_map(key: str) -> PolyMap:
    """A freshly parsed map of the dense pool, with no plan built yet."""
    return parse_map_text(dense_pool()[key][0])


def _per_target_histogram(f: PolyMap, seed: int) -> tuple[dict, int]:
    """What geometric_degree tallies, with every fiber solved by fiber_count."""
    histogram: dict[int, int] = {}
    degenerate = 0
    for child in np.random.SeedSequence(seed).spawn(DEGREE_SAMPLES):
        y = sample_target(np.random.default_rng(child), f.target_dim)
        try:
            count = fiber_count(f, y)
        except PositiveDimensionalFiberError:
            degenerate += 1
            continue
        histogram[count] = histogram.get(count, 0) + 1
    return histogram, degenerate


def _substituted(p: Polynomial, head: tuple[str, ...], values) -> Polynomial:
    images = {v: Polynomial.variable(head, v) for v in head}
    images.update(
        (v, Polynomial.constant(head, c)) for v, c in zip(p.vars[len(head) :], values)
    )
    return p.substitute(images)


@st.composite
def tail_polynomials(draw):
    """Polynomials over (x, y, w1, w2) and values for the trailing w1, w2."""
    names = ("x", "y", "w1", "w2")
    exps = st.tuples(*[st.integers(0, 3)] * 4)
    polys = draw(
        st.lists(st.dictionaries(exps, gaussians, max_size=6), min_size=1, max_size=3)
    )
    values = draw(st.tuples(gaussians, gaussians))
    return [Polynomial(names, terms) for terms in polys], values


@settings(max_examples=60, deadline=None)
@given(tail_polynomials())
def test_specialisation_matches_substitute(case):
    polys, values = case
    head = ("x", "y")
    got = Specialisation(polys, 2).at(values)
    assert got == [_substituted(p, head, values) for p in polys]


@st.composite
def small_maps(draw):
    """A 2 x 2 map of degree <= 3 and a dyadic target."""
    names = ("x", "y")
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: sum(e) <= 3)
    comps = [
        Polynomial(names, draw(st.dictionaries(exps, gaussians, min_size=1, max_size=4)))
        for _ in names
    ]
    seed = draw(st.integers(0, 2**32 - 1))
    return PolyMap(names, comps), sample_target(np.random.default_rng(seed), 2)


def _image(f: PolyMap, y) -> list[GaussianRational]:
    """y' = M·y for the map's row echelon form g = M·f, in GaussianRationals."""
    names = solver.target_variables(f)
    values = [GaussianRational.coerce(v) for v in y]
    point = [Polynomial.variable(names, v) for v in names]
    return [evaluate_exact(f.row_echelon().pullback(p), values) for p in point]


@settings(max_examples=60, deadline=None)
@given(small_maps())
def test_plan_pivots_and_finals_match_substitute(case):
    """The plan at y is its polynomials substituted exactly at y' = M·y.

    Each stage keeps its variable and mode, and its E is specialised with
    its pivot; a stage without E has none at y either.  Where a pivot, an E
    or the final vanishes at y', the plan does not apply there: None.
    """
    f, y = case
    plan = target_plan(f)
    if not plan.usable:
        return
    cascade = plan.at(y)
    values = _image(f, y)
    res = plan.result
    pivots = [_substituted(s.pivot, f.vars, values) for s in res.stages]
    finals = [_substituted(p, f.vars, values) for p in res.finals]
    elements = [
        _substituted(s.element, f.vars, values) for s in res.stages if s.element is not None
    ]
    if cascade is None:
        assert not all(pivots + finals + elements)
        return
    assert [s.pivot for s in cascade.stages] == pivots
    assert cascade.finals == finals
    assert [s.element for s in cascade.stages if s.element is not None] == elements
    for stage, special in zip(res.stages, cascade.stages, strict=True):
        assert (special.var, special.mode) == (stage.var, stage.mode)
        assert (special.element is None) == (stage.element is None)


@pytest.mark.parametrize("name", ["3-6", "x-xy", "x2-y"] + DENSE_KEYS)
def test_plan_at_a_target_is_the_per_target_cascade(name):
    """At generic targets the plan's cascade is the one eliminated at the target.

    The stages eliminate the same variables in the same modes, and the
    finals agree up to a constant factor, so both routes hand the numeric
    tail the same cascade.
    """
    texts = {"3-6": EXAMPLE_3_6_TEXT, "x-xy": X_XY_TEXT, "x2-y": X2_Y_TEXT}
    f = parse_map_text(texts[name] if name in texts else dense_pool()[name][0])
    rng = np.random.default_rng(43)
    for _ in range(5):
        y = sample_target(rng, f.target_dim)
        planned = target_plan(f).at(y)
        direct = eliminate(solver._shifted_system(f, y), list(f.vars[:-1]))
        assert [(s.var, s.mode) for s in planned.stages] == [
            (s.var, s.mode) for s in direct.stages
        ], y
        assert [normalized(p) for p in planned.finals] == [normalized(p) for p in direct.finals], y


@pytest.mark.parametrize("text", [EXAMPLE_3_6_TEXT, X_XY_TEXT, X2_Y_TEXT], ids=["3-6", "x-xy", "x2-y"])
@pytest.mark.parametrize("seed", [0, 1, 218638802])
def test_geometric_degree_matches_per_target_on_corpus(text, seed):
    est = geometric_degree(parse_map_text(text), seed=seed)
    expected = _per_target_histogram(parse_map_text(text), seed)
    assert (est.histogram, est.degenerate) == expected


@pytest.mark.parametrize("key", DENSE_KEYS)
def test_geometric_degree_matches_per_target_on_dense_maps(key):
    est = geometric_degree(_dense_map(key), seed=3)
    assert target_plan(_dense_map(key)).usable
    assert (est.histogram, est.degenerate) == _per_target_histogram(_dense_map(key), 3)


@pytest.mark.parametrize(
    "name, special",
    [
        # (0, 1) has an empty fiber; at (0, 0) the fiber is the line x = 0
        ("x-xy", [(0, 1), (0, 0)]),
        ("example-3-6", []),
        ("2x6#0", []),
    ],
)
def test_batched_fibers_match_solve_fiber(name, special, monkeypatch):
    """One batch of generic and special targets gives each target's own fiber."""
    texts = {"x-xy": X_XY_TEXT, "example-3-6": EXAMPLE_3_6_TEXT}
    f = parse_map_text(texts[name] if name in texts else dense_pool()[name][0])
    rng = np.random.default_rng(17)
    ys = [sample_target(rng, f.target_dim) for _ in range(8)]
    for k, y in enumerate(special):
        ys.insert(3 * k + 1, y)
    fibers = _planned_fibers(f, ys)
    assert len(fibers) == len(ys)
    fresh = parse_map_text(texts[name] if name in texts else dense_pool()[name][0])
    for y, fiber in zip(ys, fibers):
        try:
            want = solve_fiber(fresh, y)  # no plan on the map: the per-target path
        except PositiveDimensionalFiberError:
            assert isinstance(fiber, PositiveDimensionalFiberError), y
            continue
        assert len(fiber) == len(want), y
        for w in want:
            gap = min(max(abs(a - b) for a, b in zip(s.point, w.point)) for s in fiber)
            assert gap <= 1e-10 * max(1.0, max(map(abs, w.point))), (y, w)
    if special:
        assert fibers[1] == [] and isinstance(fibers[4], PositiveDimensionalFiberError)
        # geometric_degree tallies the batch: (0, 0) as degenerate, (0, 1) as
        # count 0; its 50 samples are five rounds of the 10 targets
        targets = itertools.cycle(ys)
        monkeypatch.setattr(solver, "sample_target", lambda rng, n: next(targets))
        est = geometric_degree(f)
        assert (est.histogram, est.degenerate) == ({0: 5, 1: 40}, 5)


def test_positive_dimensional_fiber_raises_on_both_paths():
    f = PolyMap.from_exprs(("x", "y"), ["x", "x*y"])
    assert target_plan(f).usable
    # at (0, 0) every final vanishes, so the plan falls back and the cascade raises
    assert isinstance(_planned_fibers(f, [(0, 0)])[0], PositiveDimensionalFiberError)
    with pytest.raises(PositiveDimensionalFiberError):
        solve_fiber(f, (0, 0))
    with pytest.raises(PositiveDimensionalFiberError):
        solve_fiber(PolyMap.from_exprs(("x", "y"), ["x", "x*y"]), (0, 0))  # no plan


def test_constant_final_gives_empty_fiber_on_both_paths():
    f = PolyMap.from_exprs(("x", "y"), ["x", "x*y"])
    assert _planned_fibers(f, [(0, 1)])[0] == []
    assert fiber_count(f, (0, 1)) == 0
    assert fiber_count(PolyMap.from_exprs(("x", "y"), ["x", "x*y"]), (0, 1)) == 0  # no plan


def _fiber_counts(f: PolyMap, ys) -> list:
    out = []
    for y in ys:
        try:
            out.append(fiber_count(f, y))
        except PositiveDimensionalFiberError:
            out.append("positive-dimensional")
    return out


def _fibers(f: PolyMap, ys) -> list:
    out = []
    for y in ys:
        try:
            out.append(solve_fiber(f, y))
        except PositiveDimensionalFiberError:
            out.append("positive-dimensional")
    return out


@pytest.mark.parametrize(
    "name, special",
    [("example-3-6", []), ("x-xy", [(0, 1), (0, 0)]), ("x2-y", [])]
    + [(key, []) for key in _tame_texts()],
)
def test_solve_fiber_counts_same_with_and_without_a_plan(name, special, monkeypatch):
    """solve_fiber neither builds nor reads a plan: its fibers are equal bit for bit.

    Each target goes through the per-target cascade, which gives the exact
    point of every generic target of the triangular maps, and of none of
    x2-y, nor of the special targets of x-xy (an empty fiber and a line).
    """
    texts = {"example-3-6": EXAMPLE_3_6_TEXT, "x-xy": X_XY_TEXT, "x2-y": X2_Y_TEXT}
    f = parse_map_text(texts.get(name) or _tame_texts()[name])
    rng = np.random.default_rng(23)
    ys = special + [sample_target(rng, f.target_dim) for _ in range(4)]
    cascades, exact = [], []
    cascade, one_point = solver._cascade_fiber, solver._one_point
    monkeypatch.setattr(solver, "_cascade_fiber", lambda *a: cascades.append(a[1]) or cascade(*a))
    monkeypatch.setattr(solver, "_one_point", lambda *a: exact.append(a[1]) or one_point(*a))
    before = _fibers(f, ys)
    assert f._target_plan is None
    assert cascades == ys
    assert exact == ([] if name == "x2-y" else ys[len(special) :])
    assert target_plan(f).usable
    assert repr(_fibers(f, ys)) == repr(before)
    assert cascades == ys + ys


@pytest.mark.parametrize("name", ["x2-y"] + DENSE_KEYS)
def test_solve_fiber_gives_equal_fibers_with_and_without_a_plan(name):
    """A plan without an exact point at y leaves solve_fiber's fiber as it was, bit for bit."""
    f = parse_map_text(X2_Y_TEXT if name == "x2-y" else dense_pool()[name][0])
    rng = np.random.default_rng(37)
    ys = [sample_target(rng, f.target_dim) for _ in range(12)]
    before = [solve_fiber(f, y) for y in ys]
    target_plan(f)
    assert [solve_fiber(f, y) for y in ys] == before


def _no_batch(*args):
    raise AssertionError("solve_fiber solved its one target as a batch through the plan")


@pytest.mark.parametrize(
    "name, special",
    [("example-3-6", []), ("x-xy", [(0, 1), (0, 0)]), ("x2-y", []), ("2x6#0", []), ("3x3#1", [])],
)
def test_solve_fiber_with_a_plan_never_takes_the_batch(name, special, monkeypatch):
    """The plan gives solve_fiber its exact point or nothing, 3x3#1's plan included."""
    texts = {"example-3-6": EXAMPLE_3_6_TEXT, "x-xy": X_XY_TEXT, "x2-y": X2_Y_TEXT}
    f = parse_map_text(texts.get(name) or dense_pool()[name][0])
    target_plan(f)
    monkeypatch.setattr(solver, "_planned_fibers", _no_batch)
    monkeypatch.setattr(solver.TargetPlan, "at", _no_batch)
    rng = np.random.default_rng(41)
    ys = special + [sample_target(rng, f.target_dim) for _ in range(3)]
    counts = _fiber_counts(f, ys)
    assert counts[: len(special)] == [0, "positive-dimensional"][: len(special)]
    assert all(isinstance(c, int) and c > 0 for c in counts[len(special) :])


def test_planned_fibers_computes_no_exact_point(monkeypatch):
    """geometric_degree counts the targets with an exact point before its batch.

    So the batch solves every target it is given through the specialised
    plan, also where a triangular plan would have an exact point.
    """
    f = parse_map_text(X_XY_TEXT)
    monkeypatch.setattr(solver.TargetPlan, "single_point_at", _no_point)
    monkeypatch.setattr(solver, "_one_point", _no_point)
    empty, line, (point,) = _planned_fibers(f, [(0, 1), (0, 0), (3, 6)])
    assert empty == [] and isinstance(line, PositiveDimensionalFiberError)
    assert max(abs(a - b) for a, b in zip(point.point, (3, 2))) < 1e-12


def test_over_budget_plan_gives_same_histogram(monkeypatch):
    text = EXAMPLE_3_6_TEXT
    expected = geometric_degree(parse_map_text(text), seed=1)
    monkeypatch.setattr(solver, "MAX_SYMBOLIC_WORK", 5)
    f = parse_map_text(text)
    est = geometric_degree(f, seed=1)
    plan = target_plan(f)
    assert plan.result is None and "budget" in plan.reason
    assert est == expected


def test_locus_with_an_over_budget_plan_is_unknown(monkeypatch):
    """The last coordinate's elimination is the plan; over budget, the locus says so.

    Only the plan's budget is lowered: the other coordinates' eliminations
    keep theirs and finish.
    """
    monkeypatch.setattr(solver, "MAX_SYMBOLIC_WORK", 5)
    f = parse_map_text(EXAMPLE_3_6_TEXT)
    estimate = DegreeEstimate(mu=1, histogram={1: 1}, samples=1, seed=0, degenerate=0, box=2.0)
    locus = nonproperness_set(f, degree_estimate=estimate)
    assert target_plan(f).result is None
    assert locus.is_unknown
    assert "budget of 5 term pairs" in locus.reason


def test_work_limit_meters_products_only_inside_the_block():
    p = Polynomial(("x", "y"), {(1, 0): 1, (0, 1): 2, (2, 1): 3, (0, 0): 1})
    with work_limit(16):
        p * p  # 16 term pairs
        with pytest.raises(WorkLimitExceeded):
            p * p
    p * p * p * p  # no limit outside the block


def test_dense_locus_over_budget_is_unknown_within_seconds():
    """Its symbolic elimination once ran for over a minute without finishing."""
    f = _dense_map("3x3#1")
    estimate = DegreeEstimate(mu=14, histogram={14: 1}, samples=1, seed=0, degenerate=0, box=2.0)
    start = time.perf_counter()
    locus = nonproperness_set(f, degree_estimate=estimate)
    assert time.perf_counter() - start < 20
    assert locus.is_unknown and "budget" in locus.reason


def test_dense_3x3_1_plan_fits_and_its_batch_matches_per_target():
    """Killing y, which the first equation lacks, before x keeps the plan within budget.

    Killing x first formed a resultant of two resultants, and the plan ran
    over budget; the over-budget fallback is held by the tests above, with
    the budget lowered.
    """
    f = _dense_map("3x3#1")
    est = geometric_degree(f, seed=5)
    assert target_plan(f).result is not None and est.histogram == {14: 50}
    assert (est.histogram, est.degenerate) == _per_target_histogram(_dense_map("3x3#1"), 5)


def test_dense_3x3_1_fiber_of_the_seed_1915_bench_target():
    """The benchmark's second dense-fibers target of 3x3#1 at seed 1915 has 14 points.

    Its final was A·B⁶ with deg A = 14, and a point was lost next to the
    six-fold factor: 13 came back, none flagged ``multiple``.
    bench/frozen.json still lists it as a known defect of the dense-fibers
    workload.  The cascade now divides B⁶ out (Res_y(a, b)^(3·2) of its
    first pivot a·x + b), and all 14 points come back.
    """
    f = _dense_map("3x3#1")
    rng = np.random.default_rng([1915, 3, 3, 1])
    sample_target(rng, 3)
    assert fiber_count(f, sample_target(rng, 3)) == 14


def test_dense_3x3_1_fibers_of_seeds_1900_to_1919_are_whole_and_simple():
    """Every bench target of 3x3#1 at these seeds has 14 points, none flagged ``multiple``.

    With the six-fold factor of the final in place, seed 1915 lost a point
    and seed 1905 flagged one.
    """
    f = _dense_map("3x3#1")
    for seed in range(1900, 1920):
        rng = np.random.default_rng([seed, 3, 3, 1])
        for _ in range(4):
            fiber = solve_fiber(f, sample_target(rng, 3))
            assert (len(fiber), sum(s.multiple for s in fiber)) == (14, 0), seed


def test_dense_fiber_keeps_root_with_small_leading_coefficient():
    """A pivot's leading coefficient is small at a root but above its round-off.

    Trimmed against the largest coefficient, it lost one of the 14 points
    of this fiber (the benchmark's first dense-fibers target at seed 1).
    """
    f = _dense_map("3x3#1")
    y = sample_target(np.random.default_rng([1, 3, 3, 1]), 3)
    assert fiber_count(f, y) == 14


# -- maps whose components share leading monomials -----------------------------


def test_dense_3x2_1_fibers_have_five_points():
    """The components share leading monomials.

    Eliminated as given, a resultant vanished identically and
    ``solve_fiber`` raised "elimination degenerated to zero" at each of the
    benchmark's targets of seeds 0-2; on the row echelon form every fiber
    has its 5 points.
    """
    f = _dense_map("3x2#1")
    for seed in range(3):
        rng = np.random.default_rng([seed, 3, 2, 1])
        for _ in range(4):
            assert len(solve_fiber(f, sample_target(rng, 3))) == 5


def test_tame_fibers_at_generic_targets_are_the_inverse_image():
    """Each fiber of an automorphism is one point, g(y) for the exact inverse g.

    At 10 generic targets per map (200 fibers), 24 were wrong when the
    components were eliminated as given (6 on 2x3#1, 8 on 2x4#1 and 10 on
    2x4#2): resultants brought extra points next to g(y), at |x| up to 5e4,
    whose residuals passed as round-off.  The row echelon form substitutes
    instead.  The benchmark does not see these targets: its targets are
    images of points with |x0| <= 1/2.
    """
    gen = bench_generators()
    wrong = []
    for (n, d, m), tame in _tame_pool().items():
        names = gen.VARS[:n]
        f = parse_map_text(gen.map_text(names, tame.forward_texts()))
        g = parse_map_text(gen.map_text(names, tame.inverse_texts()))
        rng = np.random.default_rng([7, n, d, m])
        for _ in range(10):
            y = sample_target(rng, n)
            x = np.array([evaluate_exact(c, y).to_complex() for c in g.components])
            points = [s.point for s in solve_fiber(f, y)]
            gap = np.abs(np.array(points[0]) - x).max() if points else np.inf
            if len(points) != 1 or gap > 1e-6 * (1 + np.abs(x).max()):
                wrong.append((f"{n}x{d}#{m}", y, len(points)))
    assert not wrong, f"{len(wrong)} of 200 fibers wrong: {wrong}"


def _no_newton(*args):
    raise AssertionError("Newton ran on a fiber whose cascade is triangular")


def test_tame_fibers_at_bench_targets_are_exact(monkeypatch):
    """With its plan built, each tame pool map solves y = f(x0) to x0 itself, bit for bit.

    As in the benchmark, x0 lies on the 1/16 grid and y is its exact image,
    exact in double precision.  Every cascade at these targets is
    triangular, so the point is computed exactly and rounded once, and
    Newton never runs; the plan the locus leaves on the map is not read.
    """
    monkeypatch.setattr(solver, "_newton_batch", _no_newton)
    for (n, d, m), tame in _tame_pool().items():
        f = parse_map_text(_tame_texts()[f"{n}x{d}#{m}"])
        target_plan(f)
        rng = random.Random(f"exact/{n}x{d}#{m}")
        for _ in range(5):
            x0 = [
                (Fraction(rng.randint(-8, 8), 16), Fraction(rng.randint(-8, 8), 16))
                for _ in range(n)
            ]
            y = tuple(complex(float(re), float(im)) for re, im in tame.forward_exact(x0))
            (point,) = solve_fiber(f, y)
            assert point.point == tuple(complex(float(re), float(im)) for re, im in x0)
            assert not point.multiple


@pytest.mark.parametrize("name", ["example-3-6", "x-xy"] + list(_tame_texts()))
def test_fresh_maps_solve_exact_images_exactly(name, monkeypatch):
    """A freshly parsed triangular map solves y = f(x0) to x0, with no plan and no Newton.

    x0 lies on the 1/16 grid with no zero coordinate (x-xy's fiber over
    x = 0 is a line), and y = f(x0) is exact in double precision.  The
    per-target cascade at y is triangular, so its one point is exact and
    rounded once; no plan is built or read.
    """
    texts = {"example-3-6": EXAMPLE_3_6_TEXT, "x-xy": X_XY_TEXT}
    f = parse_map_text(texts.get(name) or _tame_texts()[name])
    monkeypatch.setattr(solver, "_newton_batch", _no_newton)
    rng = random.Random(f"fresh/{name}")
    grid = [Fraction(k, 16) for k in range(-8, 9) if k]
    for _ in range(5):
        x0 = [GaussianRational(rng.choice(grid), rng.choice(grid)) for _ in f.vars]
        images = [evaluate_exact(c, x0) for c in f.components]
        y = tuple(v.to_complex() for v in images)
        assert [GaussianRational.coerce(v) for v in y] == images
        (point,) = solve_fiber(f, y)
        assert point.point == tuple(v.to_complex() for v in x0)
        assert not point.multiple
    assert f._target_plan is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_triangular_route_leaves_special_targets_to_the_numeric_path(monkeypatch):
    """Where the final loses its linear term at y, or a coordinate overflows, no point is given.

    The cascade of (x, x*y) at y is the substitution x = y1 and the final
    y1*y - y2: the point (3, 2) over (3, 6), an inconsistency over (0, 1)
    and a line over (0, 0).  Over (1e30, 0) the point of (x, y + x^10) fits
    a float, and so does its residual, though f - y there is about 1e284,
    whose square overflows.
    """
    monkeypatch.setattr(solver, "_newton_batch", _no_newton)
    f = PolyMap.from_exprs(("x", "y"), ["x", "x*y"])
    (point,) = solve_fiber(f, (3, 6))
    assert point.point == (3, 2) and not point.multiple
    assert solve_fiber(f, (0, 1)) == []
    with pytest.raises(PositiveDimensionalFiberError):
        solve_fiber(f, (0, 0))
    shear = PolyMap.from_exprs(("x", "y"), ["x", "y + x^10"])
    # y = -x^10 rounded once, from the exact value of the float 1e30
    (point,) = solve_fiber(shear, (1e30, 0))
    assert point.point == (1e30, -(int(1e30) ** 10) / 1) and 0 < point.residual < 1e285
    with pytest.raises(ValueError, match="beyond float range"):
        solve_fiber(shear, (1e31, 0))  # y = -1e310
    assert f._target_plan is None and shear._target_plan is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_triangular_fiber_beyond_float_range_raises():
    """Over (1e31, 0) the one point of (x, y + x^10) has y = -1e310: no float holds it.

    The cascade at the target is triangular, so the fiber is not empty: its
    one point is computed exactly, and rounding it overflows.  So
    ``solve_fiber`` raises, on a fresh map and on one that holds a plan,
    whose count reads the one point from A(y') alone.  On (y, x + y^10) the
    point's x = -y1^10 overflows; back-substitution through Newton raised
    "all candidate branches degenerated" there.
    """
    for exprs in (["x", "y + x^10"], ["y", "x + y^10"]):
        for target in ((1e31, 0), (1e40, 0)):
            fresh = PolyMap.from_exprs(("x", "y"), exprs)
            with pytest.raises(ValueError, match="beyond float range"):
                solve_fiber(fresh, target)
            assert fresh._target_plan is None
    f = PolyMap.from_exprs(("x", "y"), ["x", "y + x^10"])
    assert target_plan(f).single_point_at((1e31, 0))  # one point, which no float holds
    with pytest.raises(ValueError, match="beyond float range"):
        solve_fiber(f, (1e31, 0))
    assert fiber_count_diagnostic(f, (1e31, 0), 1).verdict == "undetermined"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_newton_near_float_range_keeps_its_point():
    """Over (2e30, 1) the point of (y, x + y^10) has x = 1 - y1^10, about -1.024e303.

    Newton's residual and round-off floor there square entries of about
    1e303 if taken by ``np.linalg.norm``; the floor overflowed to inf, the
    point was rejected and the fiber came back empty.  ``solve_fiber`` now
    gives this triangular fiber's point exactly, so Newton runs here from a
    start next to it.
    """
    f = PolyMap.from_exprs(("x", "y"), ["y", "x + y^10"])
    (exact,) = solve_fiber(f, (2e30, 1))
    assert exact.point == ((1 - int(2e30) ** 10) / 1, 2e30)
    start = np.array([[exact.point[0] * (1 + 1e-9), exact.point[1] * (1 + 1e-12)]])
    best, residual, floor = solver._newton_batch(f.evaluator(), np.array([2e30, 1]), start, False)
    assert np.isfinite(floor).all() and residual[0] <= floor[0]
    np.testing.assert_allclose(best[0], exact.point, rtol=1e-15, atol=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_geometric_degree_counts_a_fiber_beyond_float_range():
    """Where A(y') != 0 the fiber is one point, whether or not a float holds it.

    Every fiber of (x, y + 10^308 x^10) over the sample box has its point
    at |y| up to about 1e311; the degree is still 1.  ``solve_fiber``
    still raises at such a target: it returns the point, and no float
    holds it.
    """
    f = PolyMap.from_exprs(("x", "y"), ["x", "y + 10^308*x^10"])
    est = geometric_degree(f)
    assert (est.mu, est.histogram, est.degenerate) == (1, {1: 50}, 0)
    with pytest.raises(ValueError, match="beyond float range"):
        solve_fiber(f, (1.5, 0))


def test_coefficient_beyond_float_range_raises_value_error():
    """The Jacobian entry 10^309·y^9 of (y^2, x + 10^308·y^10) holds no float.

    Building the map's evaluator raised a bare ``OverflowError`` from the
    int division.
    """
    f = PolyMap.from_exprs(("x", "y"), ["y^2", "x + 10^308*y^10"])
    with pytest.raises(ValueError, match="beyond float range"):
        solve_fiber(f, (1, 1))
    with pytest.raises(ValueError, match="beyond float range"):
        geometric_degree(f)


def _no_point(*args):
    raise AssertionError("a fiber point was computed where A(y') != 0 settles the count")


@pytest.mark.parametrize("name", ["example-3-6", "x-xy"] + list(_tame_texts()))
def test_geometric_degree_of_a_triangular_plan_computes_no_point(name, monkeypatch):
    """Each sampled target of a triangular plan is counted from A(y') alone.

    example-3-6 and every tame pool map have a constant A, so no target is
    even drawn; x-xy has A = y1', nonzero at every sampled target.
    """
    texts = {"example-3-6": EXAMPLE_3_6_TEXT, "x-xy": X_XY_TEXT}
    f = parse_map_text(texts.get(name) or _tame_texts()[name])
    patched = [
        (solver.TargetPlan, "at"),
        (solver, "_newton_batch"),
        (solver, "roots_of_each"),
        (solver, "_cascade_fiber"),
    ]
    if name != "x-xy":
        patched.append((solver, "sample_target"))
    for target in patched:
        monkeypatch.setattr(*target, _no_point)
    est = geometric_degree(f)
    assert (est.mu, est.histogram, est.degenerate) == (1, {1: 50}, 0)


@pytest.mark.parametrize("name, count", [("x2-y", 2), ("2x6#0", 24), ("x, y^2 + x", 2)])
def test_plans_that_are_not_triangular_take_the_numeric_route(name, count, monkeypatch):
    """Newton refines the fibers of plans that are not triangular.

    x2-y has a ``single`` stage of degree 2 and 2x6#0 a resultant stage.
    (x, y^2 + x) has one stage, which substitutes, but its final
    y^2 - y2' has degree 2 in y.
    """
    if name == "x, y^2 + x":
        f = PolyMap.from_exprs(("x", "y"), ["x", "y^2 + x"])
        assert [s.mode for s in target_plan(f).result.stages] == ["substitution"]
    else:
        f = parse_map_text(X2_Y_TEXT if name == "x2-y" else dense_pool()[name][0])
    plan = target_plan(f)
    assert plan.usable
    y = sample_target(np.random.default_rng([1, 2, 6, 0]), 2)
    assert not plan.single_point_at(y)
    monkeypatch.setattr(solver, "_one_point", _no_point)
    rows = []
    newton = solver._newton_batch

    def counted_newton(ev, y, x, *args):
        rows.append(len(x))
        return newton(ev, y, x, *args)

    monkeypatch.setattr(solver, "_newton_batch", counted_newton)
    assert len(solve_fiber(f, y)) == count
    assert rows and rows[0] >= count


def _known_maps() -> dict[str, tuple[str, int]]:
    """Text and geometric degree of the corpus maps and the dense and tame pool maps."""
    maps = {"example-3-6": (EXAMPLE_3_6_TEXT, 1), "x-xy": (X_XY_TEXT, 1), "x2-y": (X2_Y_TEXT, 2)}
    maps.update((f"dense {key}", entry) for key, entry in dense_pool().items())
    maps.update((f"tame {key}", (text, 1)) for key, text in _tame_texts().items())
    return maps


def _recorded_cascades(f: PolyMap, mu: int, y, monkeypatch) -> list:
    """Every cascade the solver and the locus run on f, as they run.

    The plan, each coordinate's relation in ``nonproperness_set`` (with the
    count checks of a nonsingular map's factors) and the per-target cascade
    at y.
    """
    results = []
    for module in (solver, nonproper):
        run = module.eliminate
        monkeypatch.setattr(
            module, "eliminate", lambda *a, run=run: results.append(run(*a)) or results[-1]
        )
    target_plan(f)
    estimate = DegreeEstimate(mu=mu, histogram={mu: 1}, samples=1, seed=0, degenerate=0, box=2.0)
    nonproperness_set(f, degree_estimate=estimate)
    try:
        solver._cascade_fiber(f, y)
    except PositiveDimensionalFiberError:
        pass
    return results


def _assert_one_final_or_a_problem(results: list) -> None:
    for res in results:
        # every stage takes one equation away: two finals only with a free variable
        assert len(res.finals) <= 1 or res.free_vars
        assert (res.problem is None) == (len(res.finals) == 1)


@pytest.mark.parametrize("name", list(_known_maps()))
def test_each_cascade_ends_with_one_final_or_says_why_not(name, monkeypatch):
    text, mu = _known_maps()[name]
    f = parse_map_text(text)
    y = sample_target(np.random.default_rng(29), f.target_dim)
    _assert_one_final_or_a_problem(_recorded_cascades(f, mu, y, monkeypatch))


@settings(max_examples=40, deadline=None)
@given(small_maps())
def test_each_cascade_of_a_small_map_ends_with_one_final_or_says_why_not(case):
    f, y = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_one_final_or_a_problem(_recorded_cascades(f, 1, y, monkeypatch))
