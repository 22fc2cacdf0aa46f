"""Asymptotic-critical-value witnesses: divergence, limits, decay, verdicts."""

import math
from fractions import Fraction

import numpy as np
import pytest

from polyproper import (
    LaurentPath,
    PolyMap,
    check_rabier_witness,
    image_limit,
    path_diverges,
    smallest_singular_value,
)
from oracles import laurent_value, min_gram_eigenvalue, sigma_min_along_path

LAMBDA = "t, t^-2, 0"
GAMMA = "t^-1, t^2, t^-3"
DELTA = "t, t^-2, t^3"


def path(text):
    return LaurentPath.from_text(text)


def point_at(text, t):
    return tuple(laurent_value(c, t) for c in path(text).coordinates)


def jacobian_at(g, pt):
    ev = g.evaluator()
    return ev.jacobian(ev.powers(np.array([pt], dtype=complex)))[0]


class TestPathDivergence:
    def test_escape_path(self):
        d = path_diverges(path(LAMBDA))
        assert d.diverges and d.coordinates == (1,)

    def test_bounded_path(self):
        assert not path_diverges(path("t^-1, t^-2"))

    def test_two_coordinates_diverge(self):
        d = path_diverges(path(DELTA))
        assert d.coordinates == (1, 3)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            LaurentPath.from_text("0, 0")


class TestImageLimit:
    def test_first_two_components_along_lambda(self, shear_map):
        g = shear_map.drop_component(3)
        lim = image_limit(g, path(LAMBDA))
        assert lim.finite
        assert [str(v) for v in lim.value] == ["0", "0"]
        assert lim.decay_order == -2

    def test_outer_components_along_gamma(self, shear_map):
        g = shear_map.drop_component(2)  # (f1, f3)
        lim = image_limit(g, path(GAMMA))
        assert lim.finite
        assert [str(v) for v in lim.value] == ["0", "0"]

    def test_wrong_pair_diverges_along_delta(self, shear_map):
        wrong = PolyMap(shear_map.vars, (shear_map.components[0], shear_map.components[2]))
        lim = image_limit(wrong, path(DELTA))
        assert not lim.finite
        assert lim.diverging_component == 1

    def test_dimension_mismatch(self, shear_map):
        with pytest.raises(ValueError, match="dimension"):
            image_limit(shear_map, path("t, t^-2"))

    def test_limit_approximates_float_evaluation(self, shear_map):
        # the exact Laurent order bounds the numeric convergence rate
        for drop, text in ((3, LAMBDA), (2, GAMMA), (1, DELTA)):
            g = shear_map.drop_component(drop)
            lim = image_limit(g, path(text))
            t0 = 1e3
            numeric = g.evaluate(point_at(text, t0))
            for a, b in zip(numeric, (v.to_complex() for v in lim.value)):
                assert abs(a - b) <= 10.0 / t0


class TestSigmaAlongPath:
    def test_exact_inverse_square_decay(self, shear_map):
        g = shear_map.drop_component(3)
        samples = sigma_min_along_path(g, path(LAMBDA), [10.0, 100.0])
        for (t, nu), expected in zip(samples, (1e-2, 1e-4)):
            assert nu == pytest.approx(expected, rel=1e-9)

    def test_cubic_decay_pair(self, shear_map):
        g = shear_map.drop_component(1)  # (f2, f3)
        samples = sigma_min_along_path(g, path(DELTA), [10.0, 100.0])
        # sigma = t^-3 * (1 + O(t^-4)) here, so compare at matching slack
        assert samples[0][1] == pytest.approx(10.0**-3, rel=1e-3)
        assert samples[1][1] == pytest.approx(100.0**-3, rel=1e-3)
        assert samples[1][1] < samples[0][1]

    def test_identity_is_flat(self):
        ident = PolyMap.identity(("x", "y"))
        samples = sigma_min_along_path(ident, path("t, 0"), [10.0, 100.0, 1000.0])
        assert all(nu == pytest.approx(1.0, rel=1e-12) for _, nu in samples)

    def test_monotonicity_validation(self, shear_map):
        with pytest.raises(ValueError, match="positive and increasing"):
            sigma_min_along_path(shear_map, path(LAMBDA), [100.0, 10.0])

    def test_matches_gram_cross_check(self, shear_map):
        g = shear_map.drop_component(3)
        pts = [point_at(LAMBDA, t) for t in (10.0, 100.0)]
        samples = sigma_min_along_path(g, path(LAMBDA), [10.0, 100.0])
        for (t, nu), pt in zip(samples, pts):
            gram = min_gram_eigenvalue(jacobian_at(g, pt))
            assert nu**2 == pytest.approx(gram, rel=1e-9, abs=1e-18)


class TestCheckWitness:
    def test_three_accepted_witnesses(self, shear_map):
        for drop, text in ((3, LAMBDA), (2, GAMMA), (1, DELTA)):
            g = shear_map.drop_component(drop)
            outcome = check_rabier_witness(g, path(text))
            assert outcome.accepted, (drop, getattr(outcome, "reason", None))
            assert [str(v) for v in outcome.limit] == ["0", "0"]
            assert outcome.sigma_order < 0
            # beyond t = 10^2 the float Jacobian of drop1 is round-off (0.0 at 10^4)
            (_, at_10), (_, at_100) = sigma_min_along_path(g, path(text), [10.0, 100.0])
            assert at_100 < 1e-3 and at_100 < at_10
            assert round(math.log10(at_100 / at_10)) == outcome.sigma_order

    def test_negative_control_image_diverges(self, shear_map):
        wrong = PolyMap(shear_map.vars, (shear_map.components[0], shear_map.components[2]))
        outcome = check_rabier_witness(wrong, path(DELTA))
        assert not outcome.accepted
        assert outcome.reason == "image diverges"

    def test_bounded_path_rejected(self, shear_map):
        outcome = check_rabier_witness(shear_map.drop_component(3), path("t^-1, t^-2, 0"))
        assert not outcome.accepted
        assert outcome.reason == "path bounded"

    def test_flat_sigma_rejected(self):
        # single component y along (t, 0): image converges to 0, but the
        # gradient (0, 1) keeps sigma pinned at 1
        g = PolyMap(("x", "y"), (PolyMap.identity(("x", "y")).components[1],))
        outcome = check_rabier_witness(g, path("t, 0"))
        assert not outcome.accepted
        assert outcome.clause == "singular value decay"
        assert outcome.details["sigma_order"] == 0

    def test_witness_clauses_reassertable(self, shear_map):
        g = shear_map.drop_component(3)
        w = check_rabier_witness(g, path(LAMBDA))
        # every clause of the acceptance is recomputable from the fields
        assert path_diverges(w.path).coordinates == w.divergence_coordinates
        lim = image_limit(w.map, w.path)
        assert lim.finite and lim.value == w.limit
        (_, low), (_, high) = sigma_min_along_path(w.map, w.path, [100.0, 1000.0])
        assert w.sigma_order < 0
        assert round(math.log10(high / low)) == w.sigma_order


class TestSigmaOrder:
    """The exact decay clause: sigma_min ~ c * t^sigma_order along the path."""

    # (map components, path, first t of the sampled decay check)
    CASES = [
        # sigma = 2/t + 1e-5: decreasing on the grid, yet bounded away from 0
        (["y^2 + y/100000"], "t, t^-1", 1e7),
        # sigma = 200/t: tends to 0, but stays above 1e-3 up to t = 10^4
        (["100*y^2"], "t, t^-1", 100.0),
        (["y"], "t, 0", 100.0),
    ]

    @staticmethod
    def order_of(outcome):
        return outcome.sigma_order if outcome.accepted else outcome.details["sigma_order"]

    def test_slow_bounded_decay_rejected(self):
        g = PolyMap.from_exprs(("x", "y"), ["y^2 + y/100000"])
        outcome = check_rabier_witness(g, path("t, t^-1"))
        assert not outcome.accepted
        assert outcome.clause == "singular value decay"
        assert outcome.details["sigma_order"] == 0

    def test_slow_decay_to_zero_accepted(self):
        g = PolyMap.from_exprs(("x", "y"), ["100*y^2"])
        outcome = check_rabier_witness(g, path("t, t^-1"))
        assert outcome.accepted
        assert outcome.sigma_order == -1
        ((_, nu),) = sigma_min_along_path(g, path("t, t^-1"), [1e4])
        assert nu == pytest.approx(200 / 1e4, rel=1e-12)

    def test_identically_singular_accepted(self):
        g = PolyMap.from_exprs(("x", "y"), ["x + y", "2*x + 2*y"])
        outcome = check_rabier_witness(g, path("t, -t"))
        assert outcome.accepted
        assert outcome.sigma_order is None
        assert [str(v) for v in outcome.limit] == ["0", "0"]

    def test_overflowing_sample_is_inf(self):
        # rank 1 along the path, with Jacobian entries of degree 91 in t: the
        # order is exact where a float sample of sigma_min overflows
        g = PolyMap.from_exprs(("x", "y", "z"), ["y - z", "x^10*(y^10 - z^10)"])
        outcome = check_rabier_witness(g, path("t^10, t^-1, t^-1"))
        assert outcome.accepted and outcome.sigma_order is None
        assert sigma_min_along_path(g, path("t^10, t^-1, t^-1"), [1e4]) == [(1e4, math.inf)]

    def test_corpus_orders(self, shear_map):
        for drop, text, order in ((3, LAMBDA, -2), (2, GAMMA, -2), (1, DELTA, -3)):
            outcome = check_rabier_witness(shear_map.drop_component(drop), path(text))
            assert outcome.accepted and outcome.sigma_order == order, drop

    def test_more_rows_than_columns(self):
        g = PolyMap.from_exprs(("x", "y"), ["x*y", "y", "y^2"])
        with pytest.raises(ValueError, match="rows"):
            check_rabier_witness(g, path("t, t^-1"))

    def test_order_matches_sampled_decay(self, shear_map):
        # the first case leaves its 1/t regime only past t = 2e5, so it is
        # sampled at 10^7 and 10^8; every other case at 10^2 and 10^3
        cases = [(PolyMap.from_exprs(("x", "y"), e), text, t) for e, text, t in self.CASES]
        for d, text in ((3, LAMBDA), (2, GAMMA), (1, DELTA)):
            cases.append((shear_map.drop_component(d), text, 100.0))
        for g, text, t in cases:
            order = self.order_of(check_rabier_witness(g, path(text)))
            (_, low), (_, high) = sigma_min_along_path(g, path(text), [t, 10 * t])
            assert round(math.log10(high / low)) == order, (g, text)

    @pytest.mark.parametrize(
        "a", [((1, 2), (3, 4)), ((Fraction(1, 2), 0), (1, 3)), ((0, 1), (-1, Fraction(1, 3)))]
    )
    def test_affine_image_keeps_order(self, shear_map, a):
        # A o g + b: sigma_min moves by at most the factors sigma_min(A) and ||A||
        shift = (Fraction(5, 2), -7)
        for drop, text in ((3, LAMBDA), (2, GAMMA), (1, DELTA)):
            g = shear_map.drop_component(drop)
            moved = PolyMap(
                g.vars,
                tuple(
                    row[0] * g.components[0] + row[1] * g.components[1] + b
                    for row, b in zip(a, shift)
                ),
            )
            w = check_rabier_witness(g, path(text))
            moved_w = check_rabier_witness(moved, path(text))
            assert moved_w.accepted and moved_w.sigma_order == w.sigma_order
            limit = tuple(row[0] * w.limit[0] + row[1] * w.limit[1] + b for row, b in zip(a, shift))
            assert moved_w.limit == limit


def test_sigma_min_vs_row_norm_identity():
    # one-row Jacobians: the singular value equals the gradient norm
    g = PolyMap.from_exprs(("x", "y"), ["x^2 + y"])
    for pt in ((1.0, 2.0), (0.5j, -1.0), (2.0 + 1.0j, 0.25)):
        row = jacobian_at(g, pt)
        nu = smallest_singular_value(row)
        norm = math.sqrt(sum(abs(v) ** 2 for v in row[0]))
        assert nu == pytest.approx(norm, rel=1e-12)
