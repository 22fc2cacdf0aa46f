"""Fiber solving, counting, and geometric-degree estimation."""

import random

import numpy as np
import pytest

from polyproper import (
    PolyMap,
    PositiveDimensionalFiberError,
    bezout_bound,
    fiber_count,
    geometric_degree,
    solve_fiber,
    solver,
)
from polyproper.polymap import parse_map_text
from polyproper.solver import sample_target
from conftest import DENSE_KEYS, dense_pool, random_map

V2 = ("x", "y")


def _watch_candidates(monkeypatch) -> dict[str, int]:
    """Record the number of final roots and of the rows Newton refines in solve_fiber.

    A row Newton drops at its first evaluation keeps an infinite residual.
    """
    seen = {}
    roots, newton = solver.univariate_roots, solver._newton_batch

    def counted_roots(coeffs):
        out = roots(coeffs)
        seen["final_roots"] = len(out.roots)
        return out

    def counted_newton(*args):
        out = newton(*args)
        seen["rows"] = int(np.isfinite(out[1]).sum())
        return out

    monkeypatch.setattr(solver, "univariate_roots", counted_roots)
    monkeypatch.setattr(solver, "_newton_batch", counted_newton)
    return seen


class TestSolveFiber:
    def test_linear_invertible_single_solution(self):
        f = PolyMap.from_exprs(V2, ["x + y", "x - y"])
        sols = solve_fiber(f, (3, 1))
        assert len(sols) == 1
        assert sols[0].point == pytest.approx((2 + 0j, 1 + 0j))

    def test_two_branches(self, x2_y):
        sols = solve_fiber(x2_y, (4, 5))
        points = sorted((s.point for s in sols), key=lambda p: p[0].real)
        assert len(points) == 2
        assert points[0] == pytest.approx((-2, 5))
        assert points[1] == pytest.approx((2, 5))

    def test_shear_fiber_matches_inverse_formula(self, shear_map, shear_inverse):
        rng = np.random.default_rng(123)
        for _ in range(10):
            # moderate targets: at the box corners the Jacobian condition
            # number (~1e5) eats the comparison budget even though the
            # residual contract still holds
            y = sample_target(rng, 3, box=1.0)
            sols = solve_fiber(shear_map, y)
            assert len(sols) == 1
            expected = shear_inverse.evaluate(y)
            err = max(abs(a - b) for a, b in zip(sols[0].point, expected))
            assert err < 1e-8

    def test_residuals_below_tolerance(self, shear_map):
        rng = np.random.default_rng(5)
        for _ in range(5):
            y = sample_target(rng, 3)
            for s in solve_fiber(shear_map, y, tol=1e-8):
                assert s.residual < 1e-8

    def test_point_at_the_roundoff_floor_is_kept(self, shear_map):
        """The shear map is an automorphism: every fiber has exactly one point.

        Here the point has |z| ~ 7e6 and degree-10 terms of ~1e7 that
        cancel, so its residual, ~1e-8, is within the round-off of
        evaluating f there and may exceed tol by a hair of rounding.
        """
        y = (
            1.23095703125 - 1.08740234375j,
            -1.85888671875 + 1.785400390625j,
            1.103271484375 - 1.920654296875j,
        )
        assert fiber_count(shear_map, y) == 1
        assert geometric_degree(shear_map, n_samples=50, seed=218638802).histogram == {1: 50}
        children = np.random.SeedSequence(8).spawn(50)
        targets = [sample_target(np.random.default_rng(child), 3) for child in children]
        assert {fiber_count(shear_map, t) for t in targets} == {1}

    def test_merged_double_root_flagged(self, x2_y):
        sols = solve_fiber(x2_y, (0, 3))
        assert len(sols) == 1
        assert sols[0].multiple

    def test_scale_contract(self):
        f = PolyMap.from_exprs(("x",), ["x^11"])
        with pytest.raises(ValueError, match="desk-scale"):
            solve_fiber(f, (1,))
        g = PolyMap.from_exprs(V2, ["x"])
        with pytest.raises(ValueError, match="square"):
            solve_fiber(g, (1,))


class TestScreen:
    """Back-substitution candidates off the fiber are dropped before Newton."""

    def test_extraneous_candidates_do_not_reach_newton(self, monkeypatch):
        """Dense 2x6#0 at its first seed-1 bench target: 24 points, one row per final root.

        Its resultant stage keeps every root of its pivot, so 96 rows reach
        Newton.  Unscreened, the extraneous ones would converge onto points
        that others already found and flag them ``multiple``; Newton drops
        them at its first evaluation and refines 24.
        """
        text, count = dense_pool()["2x6#0"]
        f = parse_map_text(text)
        y = sample_target(np.random.default_rng([1, 2, 6, 0]), 2)
        seen = _watch_candidates(monkeypatch)
        fiber = solve_fiber(f, y)
        assert len(fiber) == count == 24
        assert not any(s.multiple for s in fiber)
        assert seen["rows"] <= seen["final_roots"]

    @pytest.mark.parametrize(
        "exprs, count",
        [
            (["x^2 + y^2", "x^4 + y^3 + y"], 8),
            (["x^2 + y + z", "x^4 + y^2 - z", "y*z + x^2 + z^3"], 12),
        ],
    )
    def test_screen_keeps_sibling_points(self, exprs, count, monkeypatch):
        """On maps symmetric under x -> -x, two fiber points share each root of the final."""
        f = PolyMap.from_exprs(("x", "y", "z")[: len(exprs)], exprs)
        y = sample_target(np.random.default_rng(3), len(exprs))
        with monkeypatch.context() as m:
            seen = _watch_candidates(m)
            assert fiber_count(f, y) == count
        assert seen["rows"] == count == 2 * seen["final_roots"]
        assert geometric_degree(f, n_samples=50, seed=0).histogram == {count: 50}

    @pytest.mark.parametrize("key", ["3x2#0", "3x3#1"])
    def test_no_false_multiple_flags_at_dense_bench_targets(self, key):
        """No point of the fibers at the seed-1 bench targets is flagged ``multiple``.

        Keeping the best candidate of each root of the final, extraneous or
        not, let extraneous candidates converge onto fiber points and
        flagged 11 of them, though each is simple: σ_min/σ_max of Df is at
        least 1.6e-3 at every point so flagged over seeds 0-9.
        """
        text, count = dense_pool()[key]
        f = parse_map_text(text)
        n, d, m = (int(part) for part in key.replace("x", "#").split("#"))
        rng = np.random.default_rng([1, n, d, m])
        for _ in range(4):
            fiber = solve_fiber(f, sample_target(rng, n))
            assert len(fiber) == count
            assert not any(s.multiple for s in fiber)

    def test_no_screen_without_a_resultant_stage(self, x2_y, monkeypatch):
        """x2-y has one ``single`` stage: both candidates of each root lie on the fiber."""
        newton = solver._newton_batch

        def unscreened(ev, y, x, screen=False):
            assert not screen, "screened a cascade without a resultant stage"
            return newton(ev, y, x, screen)

        monkeypatch.setattr(solver, "_newton_batch", unscreened)
        assert solve_fiber(x2_y, (4, 5)) and fiber_count(x2_y, (1.25 + 0.5j, -0.75)) == 2
        assert geometric_degree(x2_y, n_samples=50, seed=0).histogram == {2: 50}

    @pytest.mark.xfail(strict=True, reason="each branch inherits the multiplicity of its root")
    def test_simple_points_of_a_square_final_are_not_multiple(self):
        """|det Jf| >= 6.2 at each of the 8 points, yet each root of the final has multiplicity 2.

        The final in y is a square, so every branch inherits that
        multiplicity and every point is flagged ``multiple``.
        """
        f = PolyMap.from_exprs(V2, ["x^2 + y^2", "x^4 + y^3 + y"])
        fiber = solve_fiber(f, sample_target(np.random.default_rng(3), 2))
        assert len(fiber) == 8
        assert not any(s.multiple for s in fiber)

    @pytest.mark.parametrize("key", DENSE_KEYS)
    def test_dense_pool_counts(self, key):
        text, count = dense_pool()[key]
        assert geometric_degree(parse_map_text(text), n_samples=50, seed=0).histogram == {
            count: 50
        }


class TestFiberCount:
    def test_hand_solved_counts(self, x_xy):
        assert fiber_count(x_xy, (3, 6)) == 1
        assert fiber_count(x_xy, (0, 1)) == 0

    def test_point_value(self, x_xy):
        sols = solve_fiber(x_xy, (3, 6))
        assert sols[0].point == pytest.approx((3, 2))

    def test_generic_count_of_double_cover(self, x2_y):
        assert fiber_count(x2_y, (1.25 + 0.5j, -0.75)) == 2

    def test_positive_dimensional_fiber(self, x_xy):
        with pytest.raises(PositiveDimensionalFiberError):
            fiber_count(x_xy, (0, 0))


class TestGeometricDegree:
    def test_shear_degree_one(self, shear_map):
        est = geometric_degree(shear_map, n_samples=50, seed=0)
        assert est.mu == 1
        assert est.histogram == {1: 50}
        assert est.degenerate == 0

    def test_double_cover(self, x2_y):
        est = geometric_degree(x2_y, n_samples=50, seed=0)
        assert est.mu == 2
        assert est.histogram == {2: 50}

    def test_blowdown_map(self, x_xy):
        est = geometric_degree(x_xy, n_samples=50, seed=0)
        assert est.mu == 1

    def test_determinism(self, x2_y):
        a = geometric_degree(x2_y, n_samples=20, seed=42)
        b = geometric_degree(x2_y, n_samples=20, seed=42)
        assert a == b
        c = geometric_degree(x2_y, n_samples=20, seed=43)
        assert c.seed != a.seed

    def test_histogram_accounts_for_every_sample(self, x_xy):
        est = geometric_degree(x_xy, n_samples=30, seed=9)
        assert sum(est.histogram.values()) + est.degenerate == est.samples


class TestBezoutBound:
    def test_value(self, shear_map):
        assert bezout_bound(shear_map) == 10 * 1 * 9

    def test_never_exceeded_on_random_maps(self):
        rng = random.Random(61)
        solved = 0
        for _ in range(60):
            n = rng.choice((1, 1, 2, 2, 3))
            variables = ("x", "y", "z")[:n]
            deg = 2 if n == 3 else 3
            f = random_map(rng, variables, max_degree=deg, max_terms=3, complex_ok=False)
            target_rng = np.random.default_rng(rng.randrange(2**32))
            y = sample_target(target_rng, n)
            try:
                count = fiber_count(f, y)
            except (PositiveDimensionalFiberError, RuntimeError):
                continue
            assert count <= bezout_bound(f)
            solved += 1
        assert solved >= 40
