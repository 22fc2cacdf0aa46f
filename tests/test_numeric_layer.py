"""The compiled numeric layer: batch evaluation, batched Newton, root polish."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyproper import GaussianRational, PolyMap, Polynomial, univariate_roots
from polyproper import solver
from polyproper.corpus import example_3_6_map
from polyproper.numeric import ROUNDOFF, MapEvaluator, TermTable
from polyproper.numlin import _cluster
from polyproper.elimination import eliminate
from polyproper.polymap import parse_map_text
from polyproper.solver import (
    _deduplicated,
    _newton_batch,
    _shifted_system,
    _UnivariateView,
    sample_target,
    solve_fiber,
)
from conftest import DENSE_KEYS, dense_pool
from oracles import evaluate_exact, pairwise_deduplicated, univariate_table

VARS = ("x", "y", "z")

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=8)
gaussians = st.builds(GaussianRational, rationals, rationals)


@st.composite
def monomials(draw, n, max_degree=10):
    exps = [0] * n
    for _ in range(draw(st.integers(0, max_degree))):
        exps[draw(st.integers(0, n - 1))] += 1
    return tuple(exps)


@st.composite
def maps(draw):
    """Maps of up to 3 components of degree <= 10, some zero or constant."""
    n = draw(st.integers(1, 3))
    variables = VARS[:n]
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["zero", "constant", "general", "general"]))
        if kind == "zero":
            comps.append(Polynomial.zero(variables))
        elif kind == "constant":
            comps.append(Polynomial.constant(variables, draw(gaussians)))
        else:
            terms = draw(st.dictionaries(monomials(n), gaussians, min_size=1, max_size=8))
            comps.append(Polynomial(variables, terms))
    return PolyMap(variables, comps)


def term_magnitude(p: Polynomial, point) -> float:
    """sum_t |c_t| |x^e_t|, computed from exact coordinates."""
    total = 0.0
    for e, c in p.terms.items():
        mag = abs(c.to_complex())
        for x, k in zip(point, e):
            mag *= abs(x.to_complex()) ** k
        total += mag
    return total


def evaluate_batch(f: PolyMap, points):
    ev = f.evaluator()
    tables = ev.powers(np.array(points, dtype=complex))
    vals, sums = ev.values(tables)
    return vals, sums, ev.jacobian(tables)


@settings(max_examples=80, deadline=None)
@given(maps(), st.data())
def test_compiled_evaluator_matches_exact(f, data):
    n = f.source_dim
    points = [
        [data.draw(gaussians) for _ in range(n)] for _ in range(data.draw(st.integers(1, 4)))
    ]
    vals, sums, jac = evaluate_batch(f, [[c.to_complex() for c in pt] for pt in points])
    assert vals.shape == sums.shape == (len(points), f.target_dim)
    assert jac.shape == (len(points), f.target_dim, n)
    for k, pt in enumerate(points):
        for i, comp in enumerate(f.components):
            bound = term_magnitude(comp, pt)
            exact = evaluate_exact(comp, pt).to_complex()
            assert abs(vals[k, i] - exact) <= 1e-12 * bound
            assert sums[k, i] == pytest.approx(bound, rel=1e-12, abs=0.0)
            for j, v in enumerate(f.vars):
                partial = comp.diff(v)
                exact = evaluate_exact(partial, pt).to_complex()
                assert abs(jac[k, i, j] - exact) <= 1e-12 * term_magnitude(partial, pt)


def test_polynomial_and_map_evaluate_use_the_compiled_form():
    f = PolyMap.from_exprs(("x", "y"), ["x^2 - y", "3", "0"])
    assert f.evaluate((2, 1)) == (3, 3, 0)
    assert f.components[0].evaluate((1j, 0)) == -1
    with pytest.raises(ValueError, match="dimension"):
        f.evaluate((1, 2, 3))


class TestBatchedNewton:
    # f = (x^2, y): the Jacobian diag(2x, 1) is singular at x = 0.
    f = PolyMap.from_exprs(("x", "y"), ["x^2", "y"])
    y = np.array([1.0 + 0j, 2.0 + 0j])
    starts = np.array(
        [
            [0.9, 2.1],  # converges to (1, 2)
            [0.0, 1.0],  # singular Jacobian at the start
            [-1.2, 1.5],  # converges to (-1, 2)
            [1e-310, 2.0],  # the step 1/(2x) overflows: not finite
        ],
        dtype=complex,
    )

    def test_frozen_candidates_keep_their_start(self):
        best, res, _ = _newton_batch(self.f.evaluator(), self.y, self.starts, False)
        assert np.array_equal(best[1], self.starts[1])
        assert np.array_equal(best[3], self.starts[3])
        assert res[1] == pytest.approx(2**0.5) and res[3] == pytest.approx(1.0)
        assert np.abs(best[0] - [1, 2]).max() < 1e-14 and res[0] < 1e-14
        assert np.abs(best[2] - [-1, 2]).max() < 1e-14 and res[2] < 1e-14

    def test_each_candidate_as_if_alone(self):
        ev = self.f.evaluator()
        best, res, _ = _newton_batch(ev, self.y, self.starts, False)
        for k in range(len(self.starts)):
            alone, alone_res, _ = _newton_batch(ev, self.y, self.starts[k : k + 1], False)
            assert np.array_equal(best[k], alone[0])
            assert res[k] == alone_res[0]


def test_newton_returns_the_roundoff_floor_at_the_best_iterate(shear_map):
    """The floor _newton_batch returns is ROUNDOFF * ||sums + |y||| recomputed at its best iterate.

    Both norms are taken by hypot, which does not square the entries.
    """
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal((24, 3)) + 1j * rng.standard_normal((24, 3))
    x0[:, 2] *= np.repeat([1.0, 1e3, 1e7], 8)  # up to where the floor exceeds 1e-8
    ev = shear_map.evaluator()
    y = ev.values(ev.powers(x0))[0]
    # every other start is too far out to converge in 40 steps
    noise = rng.standard_normal((24, 3)) + 1j * rng.standard_normal((24, 3))
    starts = x0 + noise * np.tile([1e-3, 0.3], 12)[:, None] * np.abs(x0)
    best, res, floor = _newton_batch(ev, y, starts, False)
    vals, sums = ev.values(ev.powers(best))
    assert np.array_equal(res, np.hypot.reduce(np.abs(vals - y), axis=1))
    # one matmul over the whole batch may round its last bit unlike the live subsets
    np.testing.assert_allclose(
        floor, ROUNDOFF * np.hypot.reduce(sums + np.abs(y), axis=1), rtol=1e-14, atol=0
    )
    assert (res <= floor).any() and (res > floor).any()


def test_shear_fiber_stops_at_the_roundoff_floor(monkeypatch):
    """Newton evaluates a shear of example-3-6 a handful of times per candidate, not 40+.

    The map is example-3-6 with f2 = y^2.  Its cascade at a target
    substitutes x and then takes a resultant in y, so it is not triangular
    and its fibers of 2 points go through Newton.  On example-3-6 itself
    the cascade is triangular and its point exact.
    """
    f1, f2, f3 = example_3_6_map().components
    shear_map = PolyMap(VARS, [f1, f2**2, f3])
    rows, candidates = [0], [0]
    values, newton = MapEvaluator.values, solver._newton_batch

    def counting_values(self, tables):
        rows[0] += tables[0].shape[0]
        return values(self, tables)

    def counting_newton(ev, y, x, *args):
        candidates[0] += len(x)
        return newton(ev, y, x, *args)

    monkeypatch.setattr(MapEvaluator, "values", counting_values)
    monkeypatch.setattr(solver, "_newton_batch", counting_newton)
    rng = np.random.default_rng(7)
    for _ in range(10):
        assert len(solve_fiber(shear_map, sample_target(rng, 3))) == 2
    assert candidates[0] >= 10
    assert rows[0] <= 8 * candidates[0]


@st.composite
def candidate_sets(draw):
    """Refined candidates in clusters: near-duplicates at about the dedup radius.

    Offsets straddle DEDUP_RADIUS (1e-6), so chains of points can join one
    cluster or two depending on which member represents it; residuals come
    from a small set, so ties occur.
    """
    n = draw(st.integers(1, 3))
    parts = st.sampled_from([-1.5, -0.25, 0.0, 0.5, 2.0])
    centers = draw(
        st.lists(st.tuples(*[st.builds(complex, parts, parts)] * n), min_size=1, max_size=4)
    )
    offsets = st.sampled_from([0.0, 1e-8, 4e-7, 6e-7, 9.9e-7, 1e-6, 1.5e-6, 1e-3])
    signs = st.sampled_from([1, -1, 1j, -1j, (1 + 1j) / 2])
    candidates = []
    for _ in range(draw(st.integers(0, 12))):
        center = draw(st.sampled_from(centers))
        point = tuple(c + draw(offsets) * draw(signs) for c in center)
        residual = draw(st.sampled_from([0.0, 1e-12, 3e-10, 1e-9]))
        candidates.append((point, residual, draw(st.integers(1, 3))))
    return candidates


@settings(max_examples=300, deadline=None)
@given(candidate_sets())
def test_deduplicated_matches_the_pairwise_loop(candidates):
    assert _deduplicated(candidates) == pairwise_deduplicated(candidates)


def _reference_roots(coeffs, radius=1e-6):
    """Companion eigenvalues, 12 plain Newton steps each, then clustering."""
    c = np.array(coeffs, dtype=complex)
    arr = c / np.abs(c).max()
    deg = len(arr) - 1
    comp = np.zeros((deg, deg), dtype=complex)
    if deg > 1:
        comp[1:, :-1] = np.eye(deg - 1)
    comp[:, -1] = -(arr / arr[-1])[:-1]
    dp = np.polynomial.polynomial.polyder(arr)
    polished = []
    for z in np.linalg.eigvals(comp):
        best, best_val = z, abs(np.polynomial.polynomial.polyval(z, arr))
        for _ in range(12):
            fz = np.polynomial.polynomial.polyval(z, arr)
            dz = np.polynomial.polynomial.polyval(z, dp)
            if dz == 0 or not np.isfinite(dz) or not np.isfinite(fz):
                break
            z = z - fz / dz
            val = abs(np.polynomial.polynomial.polyval(z, arr))
            if val < best_val:
                best, best_val = z, val
            if val == 0.0:
                break
        polished.append(complex(best))
    clusters = _cluster(polished, radius)
    return sorted(
        ((sum(pts) / len(pts), len(pts)) for pts in clusters),
        key=lambda r: (r[0].real, r[0].imag),
    )


@pytest.mark.parametrize("degree", range(1, 31))
def test_univariate_roots_unchanged(degree):
    rng = np.random.default_rng(degree)
    for _ in range(3):
        coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        got = univariate_roots(coeffs)
        want = _reference_roots(coeffs)
        assert [r.multiplicity for r in got.roots] == [m for _, m in want]
        for r, (z, _) in zip(got.roots, want):
            assert abs(r.value - z) <= 1e-9 * max(1.0, abs(z))


def test_univariate_roots_multiplicities():
    # (z - 1)^2 (z + 2)^2 (z - i)
    coeffs = np.polynomial.polynomial.polyfromroots([1, 1, -2, -2, 1j])
    roots = univariate_roots(coeffs).roots
    got = {(round(r.value.real, 6), round(r.value.imag, 6)): r.multiplicity for r in roots}
    assert len(roots) == 3
    assert got == {(1.0, 0.0): 2, (-2.0, 0.0): 2, (0.0, 1.0): 1}


@pytest.mark.parametrize(
    "roots, want",
    [
        # a triple root splits into copies ~eps^(1/3) apart before merging
        ([1, 1, -2, -2, -2, 1j], {-2: 3, 1: 2, 1j: 1}),
        ([0.5, 0.5, 0.5, 0.5, 3], {0.5: 4, 3: 1}),
        # the copies of a 5-fold root lie ~2.5e-3 apart, inside its rounding radius
        ([2] * 5 + [1j] * 3, {2: 5, 1j: 3}),
        # distinct roots 1e-4 apart lie outside a triple root's rounding radius
        ([1, 1 + 1e-4, 1 + 2e-4], {1: 1, 1 + 1e-4: 1, 1 + 2e-4: 1}),
    ],
)
def test_univariate_roots_higher_multiplicities(roots, want):
    got = univariate_roots(np.polynomial.polynomial.polyfromroots(roots)).roots
    assert len(got) == len(want)
    for z, m in want.items():
        nearest = min(got, key=lambda r: abs(r.value - z))
        assert abs(nearest.value - z) < 1e-4 and nearest.multiplicity == m, (z, got)


class TestCachedOnTheMap:
    def test_same_object_on_repeated_calls(self, shear_map):
        assert shear_map.jacobian() is shear_map.jacobian()
        assert shear_map.nonsingularity() is shear_map.nonsingularity()
        assert shear_map.evaluator() is shear_map.evaluator()

    def test_caches_do_not_leak_between_equal_maps(self):
        f = PolyMap.from_exprs(("x", "y"), ["x + y^2", "y"])
        g = PolyMap.from_exprs(("x", "y"), ["x + y^2", "y"])
        assert f == g and hash(f) == hash(g)
        assert f.jacobian() is not g.jacobian()
        assert f.nonsingularity().constant == g.nonsingularity().constant == 1

    def test_jacobian_table_is_built_at_its_first_use(self, monkeypatch):
        """The exact point's residual reads f only; Newton's first step builds the Jacobian's table.

        TermTable.of builds one table per call, with a column per
        polynomial: 3 for f, 9 for the Jacobian of a map of C^3.
        """
        built = []
        of = TermTable.of.__func__
        monkeypatch.setattr(
            TermTable, "of", classmethod(lambda cls, polys, n: built.append(len(polys)) or of(cls, polys, n))
        )
        f = example_3_6_map()
        (point,) = solve_fiber(f, (1, 2, 3))
        assert built == [3]
        ev = f.evaluator()
        start = np.array([point.point]) * (1 + 1e-9)
        for _ in range(2):
            _newton_batch(ev, np.array([1, 2, 3], dtype=complex), start, False)
        assert built == [3, 9]

    @pytest.mark.parametrize("key", DENSE_KEYS)
    def test_jacobian_values_equal_the_table_built_up_front(self, key):
        """The Jacobian table built on first use gives, bit for bit, the table of the Jacobian's entries."""
        f = parse_map_text(dense_pool()[key][0])
        rng = np.random.default_rng(11)
        points = rng.uniform(-2, 2, (6, f.source_dim)) + 1j * rng.uniform(-2, 2, (6, f.source_dim))
        ev = f.evaluator()
        tables = ev.powers(points)
        table = TermTable.of([p for row in f.jacobian().entries for p in row], f.source_dim)
        expected = table.values(tables).reshape(6, f.target_dim, f.source_dim)
        assert np.array_equal(ev.jacobian(tables), expected)

    @pytest.mark.parametrize(
        "name", ["vars", "components", "_jacobian", "_nonsingularity", "_evaluator", "other"]
    )
    def test_map_stays_immutable(self, name):
        f = PolyMap.from_exprs(("x",), ["x^3"])
        f.jacobian()
        with pytest.raises(AttributeError):
            setattr(f, name, None)
        with pytest.raises(AttributeError):
            f.components[0].terms = {}
        assert f.jacobian()[0, 0] == Polynomial(("x",), {(2,): Fraction(3)})


def _planted_batch(seed: int):
    """The dimension and a seeded batch of rows (target, point, residual, mult) of targets 0-5, shuffled.

    Even targets get planted near-duplicates, offsets straddling
    DEDUP_RADIUS, and a point that shares another's Re x_1 but lies far from
    it; odd targets get five uniform points of the box [-2, 2]^2n only.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    rows = []
    for t in range(6):
        points = [tuple(complex(*rng.uniform(-2, 2, 2)) for _ in range(n)) for _ in range(5)]
        if t % 2 == 0:
            for offset in (0.0, 1e-8, 4e-7, 9.9e-7, 1e-6, 1.5e-6):
                base = points[int(rng.integers(len(points)))]
                points.append(tuple(c + offset * rng.choice([1, -1, 1j, -1j]) for c in base))
            points.append((points[0][0], *(c + 1 for c in points[0][1:])))
        for point in points:
            rows.append((t, point, float(rng.choice([0.0, 1e-12, 3e-10])), int(rng.integers(1, 4))))
    order = rng.permutation(len(rows))
    return n, [rows[i] for i in order]


def _bits(solutions):
    return [
        ([(c.real.hex(), c.imag.hex()) for c in s.point], s.residual.hex(), s.multiple)
        for s in solutions
    ]


@pytest.mark.parametrize("seed", range(8))
def test_batch_deduplication_matches_each_target_alone(seed, monkeypatch):
    """One sort over the batch gives what ``_deduplicated`` gives per target, bit for bit.

    Only the targets with planted near-duplicates go through
    ``_deduplicated``; the others take their sorted rows as they are.
    """
    n, rows = _planted_batch(seed)
    owner = np.array([t for t, _, _, _ in rows], dtype=np.intp)
    points = np.array([p for _, p, _, _ in rows], dtype=complex).reshape(len(rows), n)
    residuals = np.array([r for _, _, r, _ in rows])
    mults = np.array([m for _, _, _, m in rows], dtype=np.intp)
    calls = []
    monkeypatch.setattr(solver, "_deduplicated", lambda c: calls.append(c) or _deduplicated(c))
    batch = solver._solutions(7, owner, points, residuals, mults)
    assert len(calls) == 3
    alone = [_deduplicated([(p, r, m) for u, p, r, m in rows if u == t]) for t in range(7)]
    assert [_bits(s) for s in batch] == [_bits(s) for s in alone]
    merged = [len(alone[t]) < sum(u == t for u, _, _, _ in rows) for t in range(6)]
    assert merged == [True, False] * 3 and batch[6] == []


@pytest.mark.parametrize("key", DENSE_KEYS)
def test_univariate_view_equals_the_polynomial_build(key):
    """The view's table, filled from the stored form, is the one built through ``as_univariate``.

    On every stage of the per-target cascades of a dense pool map at its
    bench targets of seeds 1-4 (four per seed), for each pivot and E alone
    and for the pivots and the Es of one stage as a batch: the same
    exponent rows in the same order, the same coefficients bit for bit and
    the same degrees.
    """
    f = parse_map_text(dense_pool()[key][0])
    n, d, m = (int(k) for k in key.replace("x", " ").replace("#", " ").split())
    cascades = []
    for seed in range(1, 5):
        rng = np.random.default_rng([seed, n, d, m])
        for _ in range(4):
            y = sample_target(rng, n)
            cascades.append(eliminate(_shifted_system(f, y), list(f.vars[:-1])).stages)
    views = []
    for j, first in enumerate(cascades[0]):
        stages = [c[j] for c in cascades if c[j].var == first.var]
        elements = [s.element for s in stages if s.element is not None]
        views += [([s.pivot], first.var) for s in stages] + [([e], first.var) for e in elements]
        views += [([s.pivot for s in stages], first.var)] + ([(elements, first.var)] if elements else [])
    for polys, var in views:
        view = _UnivariateView(polys, var)
        table, degrees = univariate_table(polys, var)
        assert view.degrees == degrees
        assert view.table.exps.dtype == table.exps.dtype
        assert view.table.exps.tolist() == table.exps.tolist()
        assert view.table.coeffs.shape == table.coeffs.shape
        assert view.table.coeffs.tobytes() == table.coeffs.tobytes()
        assert view.table.degrees == table.degrees
