"""Nonproperness locus, cylinder structure, clearance, and certificates."""

import dataclasses
import random

import numpy as np
import pytest

from polyproper import (
    DegreeEstimate,
    GaussianRational,
    Hypersurface,
    PolyMap,
    Polynomial,
    automorphism_from_empty_locus,
    fiber_count,
    fiber_count_diagnostic,
    geometric_degree,
    hyperplane_clearance,
    is_cylinder,
    nonproperness_set,
    parse_map_text,
    parse_polynomial,
    target_variables,
    verify_inverse,
)
from polyproper import nonproper, solver
from polyproper.elimination import gcd_poly
from polyproper.nonproper import _points_on_zero_set, _varieties_intersect, gcd_free_basis
from conftest import dense_pool, random_nonzero_polynomial, random_scalar
from oracles import evaluate_exact, sampling_clearance

T2 = ("y1", "y2")
MU_ONE = DegreeEstimate(mu=1, histogram={1: 1}, samples=1, seed=0, degenerate=0, box=2.0)


class TestLocusComputation:
    def test_blowdown_locus(self, x_xy):
        locus = nonproperness_set(x_xy, seed=0)
        assert locus.is_hypersurface
        assert str(locus.poly) == "y1"

    def test_gcd_free_basis_lists_each_factor_once(self):
        y1, y1y2 = parse_polynomial("y1", T2), parse_polynomial("y1*y2", T2)
        basis = gcd_free_basis([y1, y1, y1y2])
        assert sorted(map(str, basis)) == ["y1", "y2"]
        for i, a in enumerate(basis):
            for b in basis[i + 1 :]:
                assert gcd_poly(a, b).is_constant()

    def test_double_cover_is_proper(self, x2_y):
        assert nonproperness_set(x2_y, seed=0).is_empty

    def test_linear_invertible_map(self):
        f = PolyMap.from_exprs(("x", "y"), ["x + 2*y", "x - y"])
        assert nonproperness_set(f, seed=0).is_empty

    def test_shear_map_empty_locus(self, shear_map):
        assert nonproperness_set(shear_map, seed=0).is_empty

    def test_nonsingular_locus_is_empty_or_hypersurface(self, shear_map):
        locus = nonproperness_set(shear_map, seed=0)
        assert locus.is_empty or (
            locus.is_hypersurface and not locus.poly.is_constant()
        )

    def test_target_variable_naming_avoids_source(self):
        f = PolyMap.from_exprs(("y1", "y2"), ["y1", "y1*y2"])
        assert target_variables(f) == ("w1", "w2")
        locus = nonproperness_set(f, seed=0)
        assert locus.is_hypersurface and str(locus.poly) == "w1"

    def test_swapped_components_follow_the_other_axis(self):
        f = PolyMap.from_exprs(("x", "y"), ["x*y", "x"])
        locus = nonproperness_set(f, seed=0)
        assert str(locus.poly) == "y2"

    def test_quadratic_cover_with_escape_locus(self):
        f = PolyMap.from_exprs(("x", "y"), ["x^2", "x*y"])
        locus = nonproperness_set(f, seed=0)
        assert str(locus.poly) == "y1"

    def test_triangular_three_variable_automorphism(self):
        f = PolyMap.from_exprs(
            ("x", "y", "z"), ["x + (y + z^2)^2", "y + z^2", "z"]
        )
        assert f.nonsingularity().is_nonsingular
        assert nonproperness_set(f, seed=0).is_empty

    def test_gaussian_coefficients(self):
        f = PolyMap.from_exprs(("x", "y"), ["x", "(x - i)*y"])
        locus = nonproperness_set(f, seed=0)
        assert locus.is_hypersurface
        assert str(locus.poly) == "y1 - i"

    def test_cascade_problem_makes_the_locus_unknown(self):
        """(x, x) is not dominant: eliminating y for x's relation finds y free."""
        f = PolyMap.from_exprs(("x", "y"), ["x", "x"])
        locus = nonproperness_set(f, degree_estimate=MU_ONE)
        assert locus.is_unknown
        assert locus.reason == "variables ['y'] are unconstrained"

    def test_relation_free_of_its_coordinate_makes_the_locus_unknown(self):
        """(x + y, (x + y)^2): the one final for x is y1^2 - y2, which x does not enter."""
        f = PolyMap.from_exprs(("x", "y"), ["x + y", "(x + y)^2"])
        locus = nonproperness_set(f, degree_estimate=MU_ONE)
        assert locus.is_unknown
        assert locus.reason == "no relation ties 'x' to the target coordinates"

    def test_unvalidated_factor_of_a_nonsingular_map_is_dropped(self, shear_map, monkeypatch):
        """A spurious factor (y1 - 2)·x + 1 on the x-relation gives the candidate y1 - 2.

        The shear is an automorphism, so no fiber count drops on {y1 = 2}.
        """
        eliminate = nonproper.eliminate

        def with_spurious_factor(system, kill):
            res = eliminate(system, kill)
            if kill != ["y", "z"]:
                return res
            (phi,) = res.finals
            x, y1 = (Polynomial.variable(phi.vars, v) for v in ("x", "y1"))
            return dataclasses.replace(res, finals=[phi * ((y1 - 2) * x + 1)])

        monkeypatch.setattr(nonproper, "eliminate", with_spurious_factor)
        locus = nonproperness_set(shear_map, seed=0)
        assert locus.is_empty
        assert locus.notes == ("dropped unvalidated elimination factor: y1 - 2",)


#: The loci of the dense bench pool at seed 0 with the frozen mu.  Every pool
#: map is singular, so each is the gcd-free basis of its elimination factors;
#: the fiber length over F_p is below mu on each line (3 of 6 on 2x3#1's,
#: 21 and 17 of 24 on y1 = 3/2 and y2 = 1 for 2x6#2).
DENSE_LOCI = {
    "2x3#0": "empty",
    "2x3#1": "{ y1 + 4/15*y2 + 83/10 = 0 }",
    "2x3#2": "empty",
    "2x6#0": "{ y1 = 0 }",
    "2x6#1": "empty",
    "2x6#2": "{ y1*y2 - y1 - 3/2*y2 + 3/2 = 0 }",
    "3x2#0": "{ y1 - 2/3*y2 - 4/3 = 0 }",
    "3x2#1": "{ y1 + 4/3*y2 - 197/27 = 0 }",
    "3x2#2": "unknown (elimination degenerated to zero at variable 'z')",
    "3x3#0": "unknown (symbolic elimination: exact work exceeds the budget of 500000 term pairs)",
    "3x3#1": "unknown (symbolic elimination: exact work exceeds the budget of 500000 term pairs)",
}


def _refuse(*args, **kwargs):
    raise AssertionError("no fiber is solved or sampled here")


class TestSingularLocus:
    """A singular map's locus is its elimination factors, with no fiber solved."""

    @pytest.fixture
    def no_fibers(self, monkeypatch):
        for owner, name in ((nonproper, "fiber_count"), (nonproper, "geometric_degree"), (solver, "solve_fiber")):
            monkeypatch.setattr(owner, name, _refuse)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_slowly_escaping_preimages_are_kept(self, k):
        """(x, x*y^k + y): as y1 -> 0, k - 1 preimages escape like |y1|^(-1/(k-1))."""
        f = PolyMap.from_exprs(("x", "y"), ["x", f"x*y^{k} + y"])
        locus = nonproperness_set(f, seed=0)
        assert (str(locus), locus.notes) == ("{ y1 = 0 }", ())

    @pytest.mark.parametrize("key", sorted(DENSE_LOCI))
    def test_dense_pool_loci(self, key):
        text, count = dense_pool()[key]
        mu = DegreeEstimate(mu=count, histogram={count: 1}, samples=1, seed=0, degenerate=0, box=2.0)
        locus = nonproperness_set(parse_map_text(text), seed=0, degree_estimate=mu)
        assert (str(locus), locus.notes) == (DENSE_LOCI[key], ())

    def test_locus_killing_the_rarer_variable_first_fits_the_budget(self):
        """y is missing from the second equation; killing x first ran over the exact-work budget.

        Over F_p, the fiber length at points of y3 = 0 is L = 9 < mu = 12,
        and the numeric counts agree.
        """
        exprs = ["-5*x^2*y + 5*y^2*z - x", "4*x^2*z - 5/3", "2*x*y^2 + 3*y^3 - 2/3*y"]
        f = PolyMap.from_exprs(("x", "y", "z"), exprs)
        locus = nonproperness_set(f, seed=0)
        assert (str(locus), locus.notes) == ("{ y3 = 0 }", ())
        assert fiber_count(f, (0.5 + 0.25j, -1.25 + 0.5j, 0.75 - 1j)) == 12
        assert fiber_count(f, (0.5 + 0.25j, -1.25 + 0.5j, 0)) == 9

    def test_no_fiber_is_solved_or_sampled(self, no_fibers):
        cases = [
            (PolyMap.from_exprs(("x", "y"), ["x", "x*y"]), "{ y1 = 0 }"),
            (PolyMap.from_exprs(("x", "y"), ["x^2", "x*y"]), "{ y1 = 0 }"),
            (parse_map_text(dense_pool()["2x3#1"][0]), DENSE_LOCI["2x3#1"]),
        ]
        for f, expected in cases:
            assert str(nonproperness_set(f, seed=0)) == expected

    def test_zero_determinant_without_estimate_raises_before_sampling(self, no_fibers):
        f = PolyMap.from_exprs(("x", "y"), ["x*y", "x*y"])
        with pytest.raises(ValueError, match="Jacobian determinant is zero"):
            nonproperness_set(f, seed=0)

    def test_component_degree_above_the_contract_is_rejected(self):
        f = PolyMap.from_exprs(("x", "y"), ["x", "x*y^11"])
        with pytest.raises(ValueError, match="desk-scale"):
            nonproperness_set(f, seed=0)


class TestSampleDiagnostic:
    def test_shear_targets_off_locus(self, shear_map):
        diag = fiber_count_diagnostic(shear_map, (0.3 + 0.2j, -1.0, 0.5j), mu=1)
        assert diag.verdict == "off-locus"
        assert diag.count == 1
        assert diag.warnings == ()

    def test_identity_off_locus(self):
        ident = PolyMap.identity(("x", "y"))
        assert fiber_count_diagnostic(ident, (5, -3), mu=1).verdict == "off-locus"

    def test_count_drop_on_singular_map_warns(self, x_xy):
        diag = fiber_count_diagnostic(x_xy, (0, 1), mu=1)
        assert diag.verdict == "in-locus"
        assert diag.count == 0
        assert any("singular" in w for w in diag.warnings)

    def test_positive_dimensional_fiber_is_in_locus(self, x_xy):
        diag = fiber_count_diagnostic(x_xy, (0, 0), mu=1)
        assert diag.verdict == "in-locus"
        assert diag.count is None


class TestCylinder:
    def test_axis_aligned_examples(self):
        s = Hypersurface.of(parse_polynomial("y1", T2))
        assert is_cylinder(s, 2)
        assert not is_cylinder(s, 1)
        s2 = Hypersurface.of(parse_polynomial("y2", T2))
        assert not is_cylinder(s2, 2)

    def test_computed_locus_is_cylinder(self, x_xy):
        locus = nonproperness_set(x_xy, seed=0)
        assert is_cylinder(locus, 2)

    def test_empty_is_vacuously_cylindrical(self):
        assert is_cylinder(Hypersurface.empty(T2), 1)

    def test_scaling_invariance(self):
        p = parse_polynomial("y1", T2)
        scaled = p * GaussianRational(3, -2)
        assert is_cylinder(Hypersurface.of(p), 2) == is_cylinder(Hypersurface.of(scaled), 2)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            is_cylinder(Hypersurface.unknown(T2, "degenerate"), 1)


class TestClearance:
    def test_empty_locus_clears_and_certifies(self, shear_map):
        targets = target_variables(shear_map)
        h = parse_polynomial("y1", targets)
        verdict = hyperplane_clearance(shear_map, h)
        assert verdict.intersects == "no"
        assert verdict.certificate is not None
        assert verdict.certificate.claim == "automorphism"
        # graph hypersurface: biregular to C^(n-1) by construction
        assert "automatic" in verdict.certificate.hypotheses["test set biregular to C^(n-1)"]

    def test_non_graph_test_set_clears_without_certificate(self, shear_map):
        """Biregularity of a test set that is not a graph is not decided."""
        h = parse_polynomial("y1^2 + y2^2 - 1", target_variables(shear_map))
        verdict = hyperplane_clearance(shear_map, h)
        assert verdict.intersects == "no"
        assert verdict.certificate is None

    def test_identical_hypersurface_intersects(self, x_xy):
        h = parse_polynomial("y1", T2)
        verdict = hyperplane_clearance(x_xy, h)
        assert verdict.intersects == "yes"
        assert verdict.certificate is None  # singular map never certifies

    def test_parallel_hyperplane_clears_without_certificate(self, x_xy):
        h = parse_polynomial("y1 - 1", T2)
        verdict = hyperplane_clearance(x_xy, h)
        assert verdict.intersects == "no"
        assert verdict.certificate is None
        assert any("singular" in w for w in verdict.warnings)

    def test_constant_hyperplane_rejected(self, x_xy):
        with pytest.raises(ValueError, match="nonconstant"):
            hyperplane_clearance(x_xy, parse_polynomial("3", T2))

    def test_symbolic_and_sampling_agree_on_corpus(self, shear_map, x_xy):
        # (x^2, y) with h = y1 is deliberately absent: its fiber count drops
        # on the discriminant even though the map is proper there, and the
        # count diagnostic is only decisive for nonsingular maps
        cases = [
            (shear_map, "y1", target_variables(shear_map)),
            (x_xy, "y1", T2),
            (x_xy, "y1 - 1", T2),
        ]
        for f, expr, targets in cases:
            h = parse_polynomial(expr, targets)
            sym = hyperplane_clearance(f, h)
            samp = sampling_clearance(f, h, seed=0)
            assert sym.intersects == samp.intersects, (str(f), expr)

    def test_mismatched_context_fails_before_the_locus(self, x_xy, monkeypatch):
        def no_locus(*args, **kwargs):
            raise AssertionError("the locus was computed for a mismatched hypersurface")

        monkeypatch.setattr(nonproper, "nonproperness_set", no_locus)
        with pytest.raises(ValueError, match="does not match target context"):
            hyperplane_clearance(x_xy, parse_polynomial("u1 - 1", ("u1", "u2")))

    def test_disjoint_variable_supports_always_meet(self, x_xy):
        h = parse_polynomial("y2 - 4", T2)
        verdict = hyperplane_clearance(x_xy, h)
        assert verdict.intersects == "yes"


def _random_nonconstant(rng, variables):
    while True:
        p = random_nonzero_polynomial(rng, variables)
        if not p.is_constant():
            return p


class TestVarietiesIntersect:
    """The exact rule: shear one polynomial monic, then one resultant decides."""

    def test_pairs_through_a_common_point_meet(self):
        rng = random.Random(11)
        for variables in [T2, ("y1", "y2", "y3")] * 20:
            point = [random_scalar(rng) for _ in variables]
            s, h = (_random_nonconstant(rng, variables) for _ in range(2))
            s, h = s - evaluate_exact(s, point), h - evaluate_exact(h, point)
            if s.is_zero() or h.is_zero():
                continue
            verdict, evidence = _varieties_intersect(s, h)
            assert verdict == "yes", (s, h, evidence)

    def test_translates_by_a_nonzero_constant_miss(self):
        rng = random.Random(12)
        for variables in [T2, ("y1", "y2", "y3")] * 20:
            s = _random_nonconstant(rng, variables)
            c = random_scalar(rng)
            if c.is_zero():
                continue
            verdict, evidence = _varieties_intersect(s, s + c)
            assert verdict == "no", (s, c, evidence)

    @pytest.mark.parametrize(
        "s, h, variables",
        [
            ("y1*y2 - 1", "y1*y2 - 2", T2),
            ("y1*y2 - y3", "y1*y2 - y3 - 1", ("y1", "y2", "y3")),
        ],
    )
    def test_parallel_hyperbolas_miss_after_a_shear(self, s, h, variables):
        # neither is monic in y1, and Res_y1 is a nonzero constant only after
        # the shear y2 -> y2 + y1 makes s monic
        verdict, evidence = _varieties_intersect(
            parse_polynomial(s, variables), parse_polynomial(h, variables)
        )
        assert verdict == "no"
        assert evidence["shear"] == "y2 -> y1 + y2"

    def test_clearance_of_a_supplied_locus_on_a_singular_map(self, x_xy):
        locus = Hypersurface.of(parse_polynomial("y1*y2 - 1", T2))
        verdict = hyperplane_clearance(x_xy, parse_polynomial("y1*y2 - 2", T2), locus=locus)
        assert verdict.intersects == "no"
        assert verdict.certificate is None  # x-xy is singular

    def test_points_on_zero_set_lie_on_it(self):
        rng = random.Random(13)
        np_rng = np.random.default_rng(13)
        found = 0
        for variables in [("y1",), T2, ("y1", "y2", "y3")] * 20:
            poly = _random_nonconstant(rng, variables)
            for point in _points_on_zero_set(poly, np_rng):
                scale = sum(
                    abs(c.to_complex()) * float(np.prod([abs(z) ** k for z, k in zip(point, e)]))
                    for e, c in poly.terms.items()
                )
                assert abs(poly.evaluate(point)) <= 1e-9 * scale, (poly, point)
                found += 1
        assert found > 60


class TestCertificates:
    def test_empty_locus_certificate(self, shear_map):
        locus = nonproperness_set(shear_map, seed=0)
        cert = automorphism_from_empty_locus(shear_map, locus)
        assert cert is not None
        assert cert.claim == "automorphism"
        assert "determinant" in cert.evidence
        payload = cert.to_dict()
        assert payload["hypotheses"]["nonproperness locus"].startswith("verified")

    def test_nagata_automorphism_is_certified(self):
        # a wild automorphism (Shestakov-Umirbaev 2004); t = xz + y^2 is invariant
        t = "(x*z + y^2)"
        xyz = ("x", "y", "z")
        f = PolyMap.from_exprs(xyz, [f"x - 2*{t}*y - {t}^2*z", f"y + {t}*z", "z"])
        inverse = [f"x + 2*{t}*y - {t}^2*z", f"y - {t}*z", "z"]
        assert f.jacobian_det() == Polynomial.constant(xyz, 1)
        assert verify_inverse(f, PolyMap.from_exprs(xyz, inverse))
        assert not verify_inverse(f, PolyMap.from_exprs(xyz, [inverse[0] + " + 1", *inverse[1:]]))
        degree = geometric_degree(f, seed=0)
        assert degree.histogram == {1: 50}
        locus = nonproperness_set(f, degree_estimate=degree)
        assert locus.is_empty
        assert automorphism_from_empty_locus(f, locus) is not None

    def test_singular_map_never_certified(self, x2_y):
        locus = nonproperness_set(x2_y, seed=0)
        assert locus.is_empty
        assert automorphism_from_empty_locus(x2_y, locus) is None

    def test_agreement_counts_off_locus(self, x_xy, x2_y):
        # generic targets off the computed locus attain the geometric degree
        import numpy as np

        from polyproper import fiber_count, geometric_degree
        from polyproper.solver import sample_target

        for f, mu in ((x_xy, 1), (x2_y, 2)):
            locus = nonproperness_set(f, seed=0)
            rng = np.random.default_rng(77)
            hits = 0
            while hits < 25:
                y = sample_target(rng, 2)
                if locus.is_hypersurface:
                    exact = evaluate_exact(
                        locus.poly, tuple(GaussianRational.coerce(v) for v in y)
                    )
                    if exact.is_zero():
                        continue
                assert fiber_count(f, y) == mu
                hits += 1
            est = geometric_degree(f, seed=3)
            assert est.mu == mu
