"""Acceptance suite: the eight pinned criteria, each printing one line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance and runtime budget is asserted, not just reported.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import numpy as np
import pytest

from polyproper import (
    GaussianRational,
    LaurentPath,
    PolyMap,
    PositiveDimensionalFiberError,
    bezout_bound,
    check_rabier_witness,
    fiber_count,
    geometric_degree,
    is_cylinder,
    nonproperness_set,
    parse_polynomial,
    smallest_singular_value,
    univariate_roots,
    verify_inverse,
)
from polyproper.cli import main
from polyproper.corpus import example_3_6_inverse, example_3_6_map
from polyproper.solver import sample_target
from conftest import random_map, random_polynomial
from oracles import evaluate_exact, min_gram_eigenvalue, sigma_min_along_path
from test_numlin import _separated_roots, coeffs_from_roots


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s > {budget_s}s"
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_exact_unit_determinant():
    with criterion(1, "shear map determinant is the constant 1, exactly", 1.0):
        f = example_3_6_map()
        det = f.jacobian_det()
        assert det == parse_polynomial("1", f.vars)
        verdict = f.nonsingularity()
        assert verdict.is_nonsingular and verdict.constant == GaussianRational(1)


def test_criterion_2_exact_inverse_verification():
    with criterion(2, "inverse verified by exact expansion of both compositions", 30.0):
        f = example_3_6_map()
        g = example_3_6_inverse()
        assert verify_inverse(f, g)


def test_criterion_3_witnesses_and_negative_control():
    with criterion(3, "three path witnesses accepted, wrong pairing rejected", 5.0):
        f = example_3_6_map()
        cases = [
            (f.drop_component(3), "t, t^-2, 0"),
            (f.drop_component(2), "t^-1, t^2, t^-3"),
            (f.drop_component(1), "t, t^-2, t^3"),
        ]
        for g, text in cases:
            outcome = check_rabier_witness(g, LaurentPath.from_text(text))
            assert outcome.accepted, getattr(outcome, "reason", None)
            assert [str(v) for v in outcome.limit] == ["0", "0"]  # exact constants
            assert outcome.sigma_order < 0

        # the first pairing decays exactly like t^-2
        g, lam = f.drop_component(3), LaurentPath.from_text("t, t^-2, 0")
        assert check_rabier_witness(g, lam).sigma_order == -2
        for t, nu in sigma_min_along_path(g, lam, [10.0, 100.0, 1e3, 1e4]):
            assert nu == pytest.approx(t**-2, rel=1e-9)

        wrong_pair = PolyMap(f.vars, (f.components[0], f.components[2]))
        control = check_rabier_witness(wrong_pair, LaurentPath.from_text("t, t^-2, t^3"))
        assert not control.accepted
        assert control.reason == "image diverges"


def test_criterion_4_symbolic_locus_and_cylinder():
    with criterion(4, "nonproperness loci exact; blowdown locus is a cylinder", 1.0):
        x_xy = PolyMap.from_exprs(("x", "y"), ["x", "x*y"])
        locus = nonproperness_set(x_xy, seed=0)
        assert locus.is_hypersurface
        assert str(locus.poly) == "y1"
        assert is_cylinder(locus, 2)

        x2_y = PolyMap.from_exprs(("x", "y"), ["x^2", "y"])
        assert nonproperness_set(x2_y, seed=0).is_empty


def test_criterion_5_constant_fiber_count():
    with criterion(5, "shear map: fiber count 1 at 50 seeded targets, histogram {1: 50}", 30.0):
        f = example_3_6_map()
        est = geometric_degree(f, seed=0)
        assert est.mu == 1
        assert est.histogram == {1: 50}
        children = np.random.SeedSequence(0).spawn(50)
        for child in children:
            rng = np.random.default_rng(child)
            assert fiber_count(f, sample_target(rng, 3)) == 1


def test_criterion_6_generic_counts_off_locus():
    with criterion(6, "generic targets off the locus attain mu; count drops to 0 at (0,1)", 30.0):
        cases = [
            (PolyMap.from_exprs(("x", "y"), ["x^2", "y"]), 2),
            (PolyMap.from_exprs(("x", "y"), ["x", "x*y"]), 1),
        ]
        for f, mu in cases:
            locus = nonproperness_set(f, seed=0)
            rng = np.random.default_rng(SEED_OFF_LOCUS)
            taken = 0
            while taken < 50:
                y = sample_target(rng, 2)
                if locus.is_hypersurface:
                    val = evaluate_exact(
                        locus.poly, tuple(GaussianRational.coerce(v) for v in y)
                    )
                    if val.is_zero():
                        continue
                assert fiber_count(f, y) == mu
                taken += 1
        blowdown = cases[1][0]
        assert fiber_count(blowdown, (0, 1)) == 0


SEED_OFF_LOCUS = 2024


def test_criterion_7_property_suites():
    with criterion(7, "six property suites, >= 200 random cases each", 120.0):
        _suite_parser_round_trip(200)
        _suite_product_rule(200)
        _suite_chain_rule(200)
        _suite_sigma_cross_check(200)
        _suite_root_recovery(200)
        _suite_bezout_bound(200)


def _suite_parser_round_trip(cases: int):
    rng = random.Random(101)
    variables = ("x", "y", "z")
    for _ in range(cases):
        p = random_polynomial(rng, variables, max_degree=5, max_terms=6)
        assert parse_polynomial(str(p), variables) == p


def _suite_product_rule(cases: int):
    rng = random.Random(103)
    variables = ("x", "y")
    for _ in range(cases):
        p = random_polynomial(rng, variables)
        q = random_polynomial(rng, variables)
        v = rng.choice(variables)
        assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)


def _suite_chain_rule(cases: int):
    rng = random.Random(107)
    for _ in range(cases):
        n = rng.choice((1, 2, 3))
        variables = ("x", "y", "z")[:n]
        f = random_map(rng, variables, max_degree=3, max_terms=3)
        g = random_map(rng, variables, max_degree=3, max_terms=3)
        lhs = f.compose(g).jacobian_det()
        rhs = f.jacobian_det().substitute(dict(zip(variables, g.components)))
        assert lhs == rhs * g.jacobian_det()


def _suite_sigma_cross_check(cases: int):
    rng = np.random.default_rng(109)
    for _ in range(cases):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 5))
        a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        nu = smallest_singular_value(a)
        assert nu**2 == pytest.approx(min_gram_eigenvalue(a), rel=1e-10, abs=1e-12)


def _suite_root_recovery(cases: int):
    rng = random.Random(113)
    for _ in range(cases):
        roots = _separated_roots(rng, 8)
        rs = univariate_roots(coeffs_from_roots(roots))
        assert rs.total_multiplicity() == rs.degree == 8
        found = sorted(rs.values(), key=lambda z: (z.real, z.imag))
        expected = sorted(roots, key=lambda z: (z.real, z.imag))
        assert all(abs(a - b) < 1e-8 for a, b in zip(found, expected))
        assert all(r.residual / rs.coeff_norm < 1e-8 for r in rs.roots)


def _suite_bezout_bound(cases: int):
    rng = random.Random(127)
    solved = 0
    attempts = 0
    while solved < cases and attempts < 3 * cases:
        attempts += 1
        n = rng.choice((1, 1, 2, 2, 3))
        variables = ("x", "y", "z")[:n]
        deg = 2 if n == 3 else 3
        f = random_map(rng, variables, max_degree=deg, max_terms=3, complex_ok=False)
        y = sample_target(np.random.default_rng(rng.randrange(2**32)), n)
        try:
            count = fiber_count(f, y)
        except (PositiveDimensionalFiberError, RuntimeError):
            continue
        assert count <= bezout_bound(f)
        solved += 1
    assert solved >= cases


def test_criterion_8_byte_identical_corpus_reports():
    with criterion(8, "full corpus twice with one seed: byte-identical JSON", 120.0):
        outputs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["--corpus", "all", "--seed", "0"])
            assert code == 0
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert report["pass"] is True
