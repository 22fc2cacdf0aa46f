"""Fiber solving, counting, and geometric-degree estimation."""

import contextlib
import math
import random
import warnings
from fractions import Fraction

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
from polyproper.elimination import eliminate
from polyproper.nonproper import fiber_count_diagnostic
from polyproper.numlin import poly_to_coeffs, univariate_roots
from polyproper.polymap import parse_map_text
from polyproper.solver import RESIDUAL_TOL, sample_target
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
            # moderate targets, halved into [-1, 1]: at the sample box's
            # corners the Jacobian condition number (~1e5) eats the
            # comparison budget even though the residual contract still holds
            y = tuple(v / 2 for v in sample_target(rng, 3))
            sols = solve_fiber(shear_map, y)
            assert len(sols) == 1
            expected = shear_inverse.evaluate(y)
            err = max(abs(a - b) for a, b in zip(sols[0].point, expected))
            assert err < 1e-8

    def test_residuals_below_tolerance(self, shear_map):
        rng = np.random.default_rng(5)
        for _ in range(5):
            y = sample_target(rng, 3)
            for s in solve_fiber(shear_map, y):
                assert s.residual < RESIDUAL_TOL

    def test_point_at_the_roundoff_floor_is_kept(self, shear_map):
        """The shear map is an automorphism: every fiber has exactly one point.

        Here the point has |z| ~ 7e6 and degree-10 terms of ~1e7 that
        cancel, so its residual, ~1e-8, is within the round-off of
        evaluating f there and may exceed RESIDUAL_TOL by a hair of rounding.
        """
        y = (
            1.23095703125 - 1.08740234375j,
            -1.85888671875 + 1.785400390625j,
            1.103271484375 - 1.920654296875j,
        )
        assert fiber_count(shear_map, y) == 1
        assert geometric_degree(shear_map, seed=218638802).histogram == {1: 50}
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

    @pytest.mark.parametrize(
        "bad", [float("inf"), float("-inf"), float("nan"), complex(0, float("inf"))]
    )
    def test_non_finite_target_is_rejected(self, x2_y, bad):
        """inf raised a bare OverflowError and NaN an unrelated ValueError."""
        for solve in (solve_fiber, fiber_count):
            with pytest.raises(ValueError) as info:
                solve(x2_y, (1, bad))
            assert str(info.value) == f"target {(1, bad)} has a coordinate that is not finite"

    def test_int_target_beyond_float_range_is_rejected(self, x2_y):
        """complex(10**400) overflows: a bare OverflowError once left the finiteness check."""
        target = (10**400, 0)
        with pytest.raises(ValueError) as info:
            solve_fiber(x2_y, target)
        assert str(info.value) == f"target {target} has a coordinate that is not finite"
        assert fiber_count_diagnostic(x2_y, target, 2).verdict == "undetermined"

    def test_roundoff_floor_near_float_max_does_not_overflow(self, x2_y):
        """Over (1e308, 0) the fiber is ±1e154, where the term sum plus |y| is 2e308.

        That sum overflowed in the round-off floor, with a RuntimeWarning,
        which the test suite turns into a failure; its halves do not.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fiber = solve_fiber(x2_y, (1e308, 0))
        assert {s.point for s in fiber} == {(-1e154, 0), (1e154, 0)}
        assert not any(s.multiple for s in fiber)

    def test_map_overflowing_at_its_candidates_is_rejected(self):
        """Over (1e308, 1e308) the candidates of (x^2 + y^2, x*y) lie near 1e154.

        There |x^2| + |y^2| exceeds float max, so f has no residual at
        them: evaluating it warned of an overflow, and without the warning
        the fiber came back empty.  It is the ValueError that names the
        target.
        """
        f = PolyMap.from_exprs(V2, ["x^2 + y^2", "x*y"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                solve_fiber(f, (1e308, 1e308))
        assert str(info.value) == f"the fiber point over {(1e308, 1e308)} lies beyond float range"

    @pytest.mark.parametrize("scale, count", [(1, 4), (1e100, 4), (1e200, None), (1e300, None)])
    def test_final_that_loses_a_coefficient_to_scaling_is_rejected(self, scale, count):
        """Over (s, s) the final of (x^2 + y^2, x*y) is y^4 - s*y^2 + s^2 (up to a constant).

        From s = 1e200 on its coefficients span more than the float range,
        and scaling them into it flushes the leading 1 to 0.0: rooted so,
        the final had degree 2 and the fiber came back empty, where its
        four points lie at |x| = |y| = sqrt(s).  It is the ValueError that
        names the target.
        """
        f = PolyMap.from_exprs(V2, ["x^2 + y^2", "x*y"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if count is not None:
                assert len(solve_fiber(f, (scale, scale))) == count
                return
            with pytest.raises(ValueError) as info:
                solve_fiber(f, (scale, scale))
        assert str(info.value) == f"the fiber point over {(scale, scale)} lies beyond float range"

    @pytest.mark.parametrize(
        "variables, exprs, y",
        [
            (V2, ["x", "y + 2*x^2"], (1e154, 1.5e308)),
            (("x", "y", "z"), ["x", "y + x^2 - z^2", "z"], (1.5e154, 1, 1.5e154)),
        ],
    )
    def test_exact_point_where_f_overflows_has_an_infinite_residual(self, variables, exprs, y):
        """A triangular fiber's exact point is returned where f overflows a float there.

        At x = 1e154, 2x^2 exceeds float max; at x = z = 1.5e154, x^2 and
        z^2 do, with opposite signs, so evaluating f gives NaN.  Both read
        as residual inf, with no RuntimeWarning.
        """
        f = PolyMap.from_exprs(variables, exprs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (sol,) = solve_fiber(f, y)
        x = Fraction(y[0])
        exact = (x, Fraction(y[1]) - 2 * x * x) if len(y) == 2 else (x, Fraction(1), Fraction(y[2]))
        assert sol.point == tuple(complex(float(c)) for c in exact)
        assert sol.residual == math.inf and not sol.multiple

    def test_roots_whose_residual_overflows_raise_no_warning(self):
        """|p| at a root of a final can overflow a float; that root's residual is then inf.

        The final of (x^3 + y^2, xy) over (1e150, 1e10) is
        y^5 - 1e150·y^3 + 1e30 up to a constant, with roots near ±1e75,
        where its value times its scale passes float max; rooting warned
        "overflow encountered in multiply".  On (x^4 + y, xy^2 + x) over
        (1e250, 1) the polish of the final's roots overflowed too.
        """
        f = PolyMap.from_exprs(V2, ["x^3 + y^2", "x*y"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            final = eliminate(solver._shifted_system(f, (1e150, 1e10)), ["x"]).finals[0]
            roots = univariate_roots(poly_to_coeffs(final)).roots
            solve_fiber(f, (1e150, 1e10))
            with contextlib.suppress(PositiveDimensionalFiberError):  # a false verdict, pinned below
                solve_fiber(PolyMap.from_exprs(V2, ["x^4 + y", "x*y^2 + x"]), (1e250, 1))
        far = [r for r in roots if abs(r.value) > 1e70]
        assert len(far) == 2 and all(r.residual == math.inf for r in far)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 12: roots of modulus 1e-40 merge into one")
    def test_small_roots_of_a_final_with_a_wide_span_are_kept_apart(self):
        """(x^3 + y^2, xy) over (1e150, 1e10) has 5 points; 2 are returned, silently.

        Its final y^5 - 1e150·y^3 + 1e30 has three roots of modulus 1e-40,
        the cube roots of 1e-120.  They lie within the absolute
        ``numlin.CLUSTER_RADIUS`` of each other, so they merge into one
        triple root 0 with residual 1e30, and its branch gives no point.
        """
        f = PolyMap.from_exprs(V2, ["x^3 + y^2", "x*y"])
        assert len(solve_fiber(f, (1e150, 1e10))) == 5

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 15: a finite fiber read as positive-dimensional")
    def test_finite_fiber_with_a_far_root_is_not_positive_dimensional(self):
        """(x^4 + y, xy^2 + x) over (1e250, 1) has 9 points, and none is returned.

        x = 1/(y^2 + 1) leaves (1e250 - y)(y^2 + 1)^4 = 1: one root near
        1e250 and eight within about 1e-62 of ±i.  The final's coefficients
        span 250 decades, and its roots come out as one 9-fold root at
        1e250, so every branch degenerates and ``solve_fiber`` raises
        ``PositiveDimensionalFiberError``.
        """
        f = PolyMap.from_exprs(V2, ["x^4 + y", "x*y^2 + x"])
        assert len(solve_fiber(f, (1e250, 1))) == 9


class TestScreen:
    """Back-substitution candidates off the fiber are dropped before Newton."""

    def test_extraneous_candidates_do_not_reach_newton(self, monkeypatch):
        """Dense 2x6#0 at its first seed-1 bench target: 24 points, one row per final root.

        Back-substitution roots E, linear here, so 24 rows reach Newton.
        Rooting the stage's pivot, of degree 4, sent 96, and unscreened the
        extraneous ones would converge onto points that others already
        found and flag them ``multiple``; the screen is what keeps the
        count right wherever a pivot is still rooted.
        """
        text, count = dense_pool()["2x6#0"]
        f = parse_map_text(text)
        y = sample_target(np.random.default_rng([1, 2, 6, 0]), 2)
        seen = _watch_candidates(monkeypatch)
        fiber = solve_fiber(f, y)
        assert len(fiber) == count == 24
        assert not any(s.multiple for s in fiber)
        assert seen["rows"] <= seen["final_roots"]

    @pytest.mark.parametrize("key", DENSE_KEYS)
    def test_one_row_per_point_reaches_newton(self, key, monkeypatch):
        """At the seed-1 bench targets, the rows that reach Newton are the fiber's points.

        E of each resultant stage is linear at every branch on a root of
        the final that is a fiber point.  3x2#0 also sends one row from an
        extraneous root of its final, where E is linear too, and Newton
        drops it.
        """
        text, count = dense_pool()[key]
        f = parse_map_text(text)
        n, d, m = (int(part) for part in key.replace("x", "#").split("#"))
        rng = np.random.default_rng([1, n, d, m])
        rows, newton = [], solver._newton_batch

        def counted(ev, y, x, screen=False):
            rows.append(len(x))
            return newton(ev, y, x, screen)

        monkeypatch.setattr(solver, "_newton_batch", counted)
        for _ in range(4):
            assert len(solve_fiber(f, sample_target(rng, n))) == count
        assert rows == [count + (key == "3x2#0")] * 4

    def test_no_resultant_pivot_is_rooted(self, monkeypatch):
        """On 2x6#0, whose resultant stage has a pivot of degree 4, every row handed to
        roots_of_each is linear: E's.  Where E's leading entry vanishes, at the root 0 of
        the final, the pivot is a nonzero constant and the branch ends there."""
        text, count = dense_pool()["2x6#0"]
        f = parse_map_text(text)
        rng = np.random.default_rng([1, 2, 6, 0])
        widths, roots_of_each = set(), solver.roots_of_each

        def counted(rows):
            widths.update(len(row) for row in rows)
            return roots_of_each(rows)

        monkeypatch.setattr(solver, "roots_of_each", counted)
        for _ in range(4):
            assert len(solve_fiber(f, sample_target(rng, 2))) == count
        assert widths == {2}

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
        assert geometric_degree(f, seed=0).histogram == {count: 50}

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
        assert geometric_degree(x2_y, seed=0).histogram == {2: 50}

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
        assert geometric_degree(parse_map_text(text), seed=0).histogram == {count: 50}


class TestNewton:
    def test_diverging_iterate_is_frozen_before_its_powers_overflow(self):
        """At x = 1 + 1e-150i the Jacobian of (x^3 - 3x + y, y) is nearly singular, and the
        step lands near 1e149, whose cube overflows the power tables: it is not taken."""
        ev = PolyMap.from_exprs(V2, ["x^3 - 3*x + y", "y"]).evaluator()
        y = np.array([0.25, 0.5], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = np.array([[1 + 1e-150j, 0.5]])
            best, residual, floor = solver._newton_batch(ev, y, start, False)
        assert np.isfinite(best).all()
        assert not (residual[0] < 1e-8 or residual[0] <= floor[0])


class TestKillOrder:
    """Random 3-variable maps whose fibers killing y before x mended.

    In each, y is missing from one equation; killing x first formed a
    resultant of two resultants.  Every count below is the map's sampled
    geometric degree, so a fiber of that many points has only simple ones.
    """

    V3 = ("x", "y", "z")

    @pytest.mark.parametrize("j", [0, 1])
    def test_no_point_at_infinity_is_accepted(self, j):
        """Killing x first, two points with |x| ~ 3e16 and residual 8 passed at the round-off floor."""
        exprs = ["5*y*z^2 - 3/2*x*y + 2/3", "4/3*x*z^2 - 1/2*x - 2", "2*x*y^2 + 13/2"]
        f = PolyMap.from_exprs(self.V3, exprs)
        fiber = solve_fiber(f, sample_target(np.random.default_rng([276, j]), 3))
        assert len(fiber) == 8
        assert all(np.isfinite(c) and abs(c) < 1e6 for s in fiber for c in s.point)

    @pytest.mark.parametrize(
        "seed, exprs, count",
        [
            (61, ["-y*z - y + 5*z - 3", "6*x^2 - 4*z + 7/3", "x*y - 2*z + 1"], 4),
            (
                176,
                [
                    "-1/3*x^2 - 4*z - 6",
                    "-2/3*x*z + 5*y*z - 2/3*y - 1/3",
                    "5/3*y^2 - 1/3*y*z - 5/2*z^2 - 23/6",
                ],
                8,
            ),
        ],
    )
    @pytest.mark.parametrize("j", [0, 1])
    def test_simple_points_are_not_flagged(self, seed, exprs, count, j):
        """Killing x first flagged every point of these fibers ``multiple``."""
        f = PolyMap.from_exprs(self.V3, exprs)
        fiber = solve_fiber(f, sample_target(np.random.default_rng([seed, j]), 3))
        assert (len(fiber), sum(s.multiple for s in fiber)) == (count, 0)


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
        est = geometric_degree(shear_map, seed=0)
        assert est.mu == 1
        assert est.histogram == {1: 50}
        assert est.degenerate == 0

    def test_double_cover(self, x2_y):
        est = geometric_degree(x2_y, seed=0)
        assert est.mu == 2
        assert est.histogram == {2: 50}

    def test_blowdown_map(self, x_xy):
        est = geometric_degree(x_xy, seed=0)
        assert est.mu == 1

    def test_determinism(self, x2_y):
        a = geometric_degree(x2_y, seed=42)
        b = geometric_degree(x2_y, seed=42)
        assert a == b
        c = geometric_degree(x2_y, seed=43)
        assert c.seed != a.seed

    def test_histogram_accounts_for_every_sample(self, x_xy):
        est = geometric_degree(x_xy, seed=9)
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
