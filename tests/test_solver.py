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
)
from polyproper.solver import sample_target
from conftest import random_map

V2 = ("x", "y")


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
