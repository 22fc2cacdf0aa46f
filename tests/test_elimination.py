"""Exact division, resultants (against a Sylvester oracle), gcd, cascades."""

import random

import numpy as np
import pytest

from polyproper import PolyMap, Polynomial, elimination, parse_polynomial
from polyproper.elimination import (
    NotDivisibleError,
    as_univariate,
    eliminate,
    exact_div,
    gcd_poly,
    lead_in,
    linear_solution,
    normalized,
    poly_matrix_det,
    pseudo_rem,
    resultant,
    squarefree_part,
)
from polyproper.nonproper import is_graph_hypersurface
from polyproper.poly import WorkLimitExceeded, work_limit
from polyproper.polymap import parse_map_text
from polyproper.solver import _shifted_system, sample_target, solve_fiber
from conftest import (
    DENSE_POOL,
    bench_generators,
    dense_pool,
    random_nonzero_polynomial,
    random_polynomial,
)
from oracles import subresultant, sylvester_matrix

V = ("x", "y")
V3 = ("x", "y", "z")


def P(text, variables=V):
    return parse_polynomial(text, variables)


class TestExactDivision:
    def test_simple(self):
        assert exact_div(P("x^2 - y^2"), P("x - y")) == P("x + y")

    def test_not_divisible(self):
        with pytest.raises(NotDivisibleError):
            exact_div(P("x^2 + 1"), P("x - y"))

    def test_random_products(self):
        rng = random.Random(13)
        for _ in range(80):
            a = random_nonzero_polynomial(rng, V, max_degree=3)
            b = random_nonzero_polynomial(rng, V, max_degree=3)
            assert exact_div(a * b, b) == a


class TestDeterminant:
    def test_two_by_two(self):
        m = [[P("x"), P("y")], [P("1"), P("x")]]
        assert poly_matrix_det(m) == P("x^2 - y")

    def test_row_swap_sign(self):
        m = [[P("0"), P("1")], [P("1"), P("0")]]
        assert poly_matrix_det(m) == P("-1")

    def test_zero_column(self):
        m = [[P("0"), P("x")], [P("0"), P("y")]]
        assert poly_matrix_det(m).is_zero()

    def test_matches_cofactor_expansion_random(self):
        rng = random.Random(37)
        for _ in range(25):
            m = [
                [random_nonzero_polynomial(rng, V, max_degree=2, max_terms=3) for _ in range(3)]
                for _ in range(3)
            ]
            bareiss = poly_matrix_det(m)
            cof = Polynomial.zero(V)
            for j in range(3):
                minor = poly_matrix_det([row[:j] + row[j + 1 :] for row in m[1:]])
                term = m[0][j] * minor
                cof = cof + (term if j % 2 == 0 else -term)
            assert bareiss == cof


class TestUnivariateView:
    def test_degree_of_zero_is_minus_one(self):
        assert Polynomial.zero(V).degree_in("x") == -1
        assert lead_in(Polynomial.zero(V), "x") == (-1, Polynomial.zero(V))

    def test_lead_in(self):
        assert lead_in(P("3*x^2*y + x^2 - y + 4"), "x") == (2, P("3*y + 1"))
        assert lead_in(P("y^2 - 1"), "x") == (0, P("y^2 - 1"))

    def test_graph_hypersurface(self):
        t = ("y1", "y2")
        assert is_graph_hypersurface(P("y1 - y2^2", t)) == "y1"
        assert is_graph_hypersurface(P("y1*y2 - 1", t)) is None
        assert is_graph_hypersurface(P("2*y2 + y1^3", t)) == "y2"


class TestPseudoRemainder:
    @staticmethod
    def check(f, g, var="x"):
        """lc(g)^(deg f - deg g + 1) * f - prem is a multiple of g, and deg prem < deg g."""
        prem = pseudo_rem(f, g, var)
        gu = as_univariate(g, var)
        df, dg = f.degree_in(var), max(gu)
        lcg = gu[dg]
        assert prem.degree_in(var) < dg
        exact_div(lcg ** (df - dg + 1) * f - prem, g)  # raises unless g divides it
        return prem

    def test_leftover_power_paid_at_the_end(self):
        # one reduction step leaves y^2 - x, of degree 1 < 2; the second
        # power of lc(g) = y is paid afterwards
        prem = self.check(P("x^3 + y"), P("y*x^2 + 1"))
        assert prem == P("y^3 - x*y")

    def test_random_pairs(self):
        rng = random.Random(61)
        checked = 0
        for _ in range(60):
            f = random_nonzero_polynomial(rng, V, max_degree=4, max_terms=4)
            g = random_nonzero_polynomial(rng, V, max_degree=3, max_terms=3)
            if f.degree_in("x") < g.degree_in("x"):
                assert pseudo_rem(f, g, "x") == f
                continue
            self.check(f, g)
            checked += 1
        assert checked >= 30


class TestResultant:
    def test_univariate_values(self):
        # res(x - a, x - b) = a - b with a, b numbers
        assert resultant(P("x - 2"), P("x - 5"), "x") == P("-3")
        # res(x^2 + 1, x + 1) = (i+1)(-i+1) = 2
        assert resultant(P("x^2 + 1"), P("x + 1"), "x") == P("2")

    def test_common_factor_gives_zero(self):
        f = P("(x - y)*(x + y)")
        g = P("(x - y)*(x + 1)")
        assert resultant(f, g, "x").is_zero()

    def test_classical_discriminant_shape(self):
        # res_x(x^2 - y, 2x) = 4y up to sign
        r = resultant(P("x^2 - y"), P("x^2 - y").diff("x"), "x")
        assert normalized(r) == P("y")

    @staticmethod
    def check(f, g, var):
        """Res_var(f, g) equals the Sylvester determinant and, for degrees >= 2, the PRS."""
        res = resultant(f, g, var)
        assert res == poly_matrix_det(sylvester_matrix(f, g, var))
        df, dg = f.degree_in(var), g.degree_in(var)
        if df >= 2 and dg >= 2:
            assert res == elimination._subresultant_prs(f, g, var, df, dg)[0]
        return res

    def test_against_sylvester_oracle(self):
        rng = random.Random(41)
        agreements = by_values = gaussian = 0
        for _ in range(40):
            f = random_nonzero_polynomial(rng, V, max_degree=4, max_terms=4)
            g = random_nonzero_polynomial(rng, V, max_degree=4, max_terms=4)
            if f.is_constant() or g.is_constant():
                continue
            # eliminating x leaves u = y after it, eliminating y leaves u = x before it
            for var in V:
                if var not in f.support_vars() or var not in g.support_vars():
                    continue
                self.check(f, g, var)
                agreements += 1
                if f.degree_in(var) >= 2 and g.degree_in(var) >= 2:
                    by_values += 1
                    gaussian += any(im for _, im in (*f.nums.values(), *g.nums.values())) and (
                        f.den > 1 or g.den > 1
                    )
        assert agreements >= 40 and by_values >= 15 and gaussian >= 5
        # linear pivots a*x + b with a non-constant a in C[y, z], on either side
        x = Polynomial.variable(V3, "x")
        linear = 0
        while linear < 10:
            a, b = (random_polynomial(rng, ("y", "z")) for _ in range(2))
            g = random_nonzero_polynomial(rng, V3, max_degree=4, max_terms=4)
            if a.is_constant() or g.degree_in("x") <= 0:
                continue
            pivot = _lift_yz(a) * x + _lift_yz(b)
            for p, q in ((pivot, g), (g, pivot)):
                assert resultant(p, q, "x") == poly_matrix_det(sylvester_matrix(p, q, "x"))
            linear += 1
        # three variables of which only y and one other occur, declared before or after
        checked = 0
        while checked < 10:
            other = rng.choice(("x", "z"))
            names = ("y", other)
            f, g = (
                random_nonzero_polynomial(rng, names, 4, 5).in_context(V3) for _ in range(2)
            )
            if f.degree_in("y") < 2 or g.degree_in("y") < 2:
                continue
            self.check(f, g, "y")
            checked += 1

    def test_leading_coefficients_vanishing_at_the_first_integers(self, monkeypatch):
        # lc_x(f) = y(y-1)(y-2)(y-3) and lc_x(g) = (y-4)(2y+i): the values start at y = 5
        f = P("y*(y-1)*(y-2)*(y-3)*x^3 + (2*y - 1/3)*x^2 + (i*y^2 + 1)*x - 5*y + 2")
        g = P("(y-4)*(2*y+i)*x^2 + (y^3 - 7/2)*x + 3*i*y - 1")
        assert not self.check(f, g, "x").is_zero()
        assert not _by_both_routes(f, g, "x", monkeypatch).is_zero()
        # a common factor gives the zero resultant
        common = P("x^2 + (1/2 + i)*y*x - 3")
        assert self.check(f * common, g * common, "x").is_zero()
        assert _by_both_routes(f * common, g * common, "x", monkeypatch).is_zero()

    def test_no_other_variable(self):
        f, g = P("x^3 - (2 + i)*x + 1/3"), P("3/2*x^2 + i*x - 5")
        assert self.check(f, g, "x").is_constant()
        assert self.check(f * g, g * P("x^2 + 1"), "x").is_zero()

    def test_bivariate_pairs_never_reach_the_prs(self, monkeypatch):
        """The packed and interpolated routes take every pair in two variables, with no
        silent fallback."""

        def no_prs(*args):
            raise AssertionError("pseudo_rem called on a bivariate resultant")

        rng = random.Random(7)
        pairs = []
        while len(pairs) < 5:
            f, g = (random_nonzero_polynomial(rng, V, max_degree=5, max_terms=6) for _ in range(2))
            if f.degree_in("x") >= 2 and g.degree_in("x") >= 2:
                pairs.append((f, g))
        with monkeypatch.context() as m:
            m.setattr(elimination, "pseudo_rem", no_prs)
            results = [resultant(f, g, "x") for f, g in pairs]
        for (f, g), res in zip(pairs, results):
            assert res == poly_matrix_det(sylvester_matrix(f, g, "x"))

    def test_interpolated_route_is_metered(self):
        # N = min(tdeg f * tdeg g, deg f * deg_y g + deg g * deg_y f) + 1 points
        f = P("x^6 + y^6*x^3 + 2*y*x - 1")
        g = P("3*x^6 - y^5*x^2 + y^3 + 7")
        charge = (min(9 * 7, 6 * 5 + 6 * 6) + 1) * 6 * 6
        with pytest.raises(WorkLimitExceeded):
            with work_limit(charge - 1):
                resultant(f, g, "x")
        with work_limit(charge):
            res = resultant(f, g, "x")
        assert res == self.check(f, g, "x")

    def test_values_route_is_metered_as_the_packed_route(self, monkeypatch):
        f = P("x^6 + y^6*x^3 + 2*y*x - 1")
        g = P("3*x^6 - y^5*x^2 + y^3 + 7")
        monkeypatch.setattr(elimination, "PACK_MAX_BITS", 0)
        charge = (min(9 * 7, 6 * 5 + 6 * 6) + 1) * 6 * 6
        with pytest.raises(WorkLimitExceeded):
            with work_limit(charge - 1):
                resultant(f, g, "x")
        with work_limit(charge):
            res = resultant(f, g, "x")
        assert res == poly_matrix_det(sylvester_matrix(f, g, "x"))

    def test_packed_route_in_two_other_variables_is_metered(self):
        # S = prod_u (min(tdeg f * tdeg g, deg f * deg_u g + deg g * deg_u f) + 1) slots
        f = P("x^2*y + z^2*x - 3*y*z + 1", V3)
        g = P("2*x^3 - y^2*x + z", V3)
        slots = (min(4 * 3, 2 * 2 + 3 * 1) + 1) * (min(4 * 3, 2 * 1 + 3 * 2) + 1)
        charge = slots * 2 * 3
        with pytest.raises(WorkLimitExceeded):
            with work_limit(charge - 1):
                resultant(f, g, "x")
        with work_limit(charge):
            res = resultant(f, g, "x")
        assert res == self.check(f, g, "x")


class TestPackedResultant:
    """The packed route against the Sylvester determinant and the route above PACK_MAX_BITS."""

    def test_gaussian_rationals_with_denominators(self, monkeypatch):
        rng = random.Random(29)
        checked = 0
        while checked < 12:
            f, g = (random_nonzero_polynomial(rng, V, max_degree=4, max_terms=5) for _ in range(2))
            if f.degree_in("x") < 2 or g.degree_in("x") < 2:
                continue
            if f.den == 1 or not any(im for _, im in (*f.nums.values(), *g.nums.values())):
                continue
            _by_both_routes(f, g, "x", monkeypatch)
            checked += 1

    def test_signed_digit_borrows(self, monkeypatch):
        # Res_x(x^2 + A, x^2 + B) = (B - A)^2 for A, B free of x
        f = P("x^2 + 3*y^2 - (2 - i)*y + 1/2")
        g = P("x^2 - (4 - 7*i)*y^3 + (2 + 5*i)*y^2 - 9*y - 3*i")
        res = _by_both_routes(f, g, "x", monkeypatch)
        assert res == (g - f) ** 2
        row = [c for _, c in sorted((e[1], c) for e, c in res.terms.items())]
        assert len(row) == 7
        # adjacent digits, and the real and imaginary parts of one digit, of opposite signs
        assert any(a.re * b.re < 0 for a, b in zip(row, row[1:]))
        assert any(a.im * b.im < 0 for a, b in zip(row, row[1:]))
        assert any(c.re * c.im < 0 for c in row)

    def test_two_other_variables(self, monkeypatch):
        rng = random.Random(53)
        checked = 0
        while checked < 12:
            f, g = (random_nonzero_polynomial(rng, V3, 4, 5) for _ in range(2))
            if f.degree_in("x") < 2 or g.degree_in("x") < 2:
                continue
            if {"y", "z"} <= set(f.support_vars()) | set(g.support_vars()):
                _by_both_routes(f, g, "x", monkeypatch)
                checked += 1


def _by_both_routes(f: Polynomial, g: Polynomial, var: str, monkeypatch) -> Polynomial:
    """Res_var(f, g), packed into one scalar resultant, once more by the route above
    PACK_MAX_BITS, and as the Sylvester determinant; all three must agree."""
    with monkeypatch.context() as m:
        calls = _count_scalar_resultants(m)
        packed = resultant(f, g, var)
        assert len(calls) == 1
        m.setattr(elimination, "PACK_MAX_BITS", 0)
        old = resultant(f, g, var)
    assert packed == old == poly_matrix_det(sylvester_matrix(f, g, var))
    return packed


def _count_scalar_resultants(monkeypatch) -> list:
    """A list that gets one entry per call of elimination._scalar_resultant from now on."""
    calls = []
    scalar = elimination._scalar_resultant

    def counted(a, b):
        calls.append(None)
        return scalar(a, b)

    monkeypatch.setattr(elimination, "_scalar_resultant", counted)
    return calls


def _resultant_stages(f, y, monkeypatch) -> list[tuple[Polynomial, Polynomial, str]]:
    """The pairs (p, q, v) of degrees >= 2 in v of the per-target cascade of f at y."""
    stages = []
    inner = elimination._resultant_and_element

    def spy(p, q, v):
        if p.degree_in(v) >= 2 and q.degree_in(v) >= 2:
            stages.append((p, q, v))
        return inner(p, q, v)

    with monkeypatch.context() as m:
        m.setattr(elimination, "_resultant_and_element", spy)
        eliminate(_shifted_system(f, y), list(f.vars[:-1]))
    return stages


def _slots(p: Polynomial, q: Polynomial, v: str) -> int:
    """S, the product over the other variables u of min(tdeg p * tdeg q, Sylvester bound) + 1."""
    dp, dq, bezout = p.degree_in(v), q.degree_in(v), p.total_degree() * q.total_degree()
    out = 1
    for u in p.vars:
        if u != v and (p.degree_in(u) > 0 or q.degree_in(u) > 0):
            out *= min(bezout, dp * q.degree_in(u) + dq * p.degree_in(u)) + 1
    return out


class TestRouteSelection:
    def test_pool_stage_makes_one_scalar_resultant(self, monkeypatch):
        f = parse_map_text(dense_pool()["2x6#0"][0])
        (stage,) = _resultant_stages(f, sample_target(np.random.default_rng(1), 2), monkeypatch)
        assert _slots(*stage) > 20
        calls = _count_scalar_resultants(monkeypatch)
        resultant(*stage)
        assert len(calls) == 1

    def test_ladder_stage_above_the_constant_makes_one_per_node(self, monkeypatch):
        text = bench_generators().dense_map(random.Random(13), 2, 10).text()
        f = parse_map_text(text)
        y = sample_target(np.random.default_rng([13, 2, 10]), 2)
        (stage,) = _resultant_stages(f, y, monkeypatch)
        n = _slots(*stage)
        calls = _count_scalar_resultants(monkeypatch)
        monkeypatch.setattr(elimination, "PACK_MAX_BITS", 2 * elimination.PACK_MAX_BITS)
        by_values = resultant(*stage)
        assert len(calls) == n > 50
        monkeypatch.setattr(elimination, "PACK_MAX_BITS", float("inf"))
        assert resultant(*stage) == by_values
        assert len(calls) == n + 1

    def test_dense_pool_resultants_are_the_same_on_every_route(self, monkeypatch):
        """Every resultant stage of the dense-fibers tasks at bench seeds 1-4 is packed and
        equals the route above PACK_MAX_BITS."""
        pool, stages = dense_pool(), []
        for (n, d), count in DENSE_POOL.items():
            for m in range(count):
                f = parse_map_text(pool[f"{n}x{d}#{m}"][0])
                for seed in (1, 2, 3, 4):
                    targets = np.random.default_rng([seed, n, d, m])
                    for _ in range(4):
                        stages += _resultant_stages(f, sample_target(targets, n), monkeypatch)
        assert len(stages) == 144
        calls = _count_scalar_resultants(monkeypatch)
        packed = [resultant(*stage) for stage in stages]
        assert len(calls) == len(stages)
        monkeypatch.setattr(elimination, "PACK_MAX_BITS", 0)
        assert [resultant(*stage) for stage in stages] == packed


def test_dense_3x3_cascade_is_the_same_by_values_and_by_prs(monkeypatch):
    """Both resultant stages of dense 3x3#1, a (2, 2) stage in y with x and z left and a
    (3, 6) stage in x with z left: packed, by values with the PRS on the first, and by the PRS."""
    text, count = dense_pool()["3x3#1"]
    f = parse_map_text(text)
    y = sample_target(np.random.default_rng([1, 3, 3, 1]), 3)
    system = _shifted_system(f, y)
    first, second = _resultant_stages(f, y, monkeypatch)
    assert [(p.degree_in(v), q.degree_in(v), v) for p, q, v in (first, second)] == [
        (2, 2, "y"),
        (3, 6, "x"),
    ]
    calls = _count_scalar_resultants(monkeypatch)
    packed = eliminate(system, list(f.vars[:-1]))
    assert len(calls) == 2
    monkeypatch.setattr(elimination, "PACK_MAX_BITS", 0)
    by_values = eliminate(system, list(f.vars[:-1]))
    assert len(calls) == 2 + _slots(*second)
    monkeypatch.setattr(
        elimination,
        "_resultant_by_values",
        lambda f, g, var, sizes: elimination._subresultant_prs(
            f, g, var, f.degree_in(var), g.degree_in(var)
        ),
    )
    by_prs = eliminate(system, list(f.vars[:-1]))
    assert [s.mode for s in packed.stages].count("resultant") == 2
    assert packed.finals == by_values.finals == by_prs.finals
    assert [s.pivot for s in packed.stages] == [s.pivot for s in by_values.stages]
    assert [s.pivot for s in packed.stages] == [s.pivot for s in by_prs.stages]
    assert len(solve_fiber(f, y)) == count == 14


class TestChainElement:
    """E, the last element of positive degree of the subresultant chain, against the
    determinants of Sylvester submatrices (``oracles.subresultant``)."""

    @staticmethod
    def check(f, g, var, j, monkeypatch, scalar_calls=1):
        """E of (f, g) is +-S_j(f, g), on the route that ``scalar_calls`` scalar chains show."""
        calls = _count_scalar_resultants(monkeypatch)
        res, e = elimination._resultant_and_element(f, g, var)
        assert len(calls) == scalar_calls
        assert res == resultant(f, g, var) == subresultant(f, g, var, 0)
        assert e.degree_in(var) > 0
        assert e in (subresultant(f, g, var, j), -subresultant(f, g, var, j))
        return e

    def test_packed_in_one_other_variable(self, monkeypatch):
        """Random Gaussian-rational pairs: E is +-S_j for some j >= deg E, one scalar chain each."""
        rng = random.Random(17)
        checked = 0
        while checked < 8:
            f, g = (random_nonzero_polynomial(rng, V, max_degree=4, max_terms=5) for _ in range(2))
            df, dg = f.degree_in("x"), g.degree_in("x")
            if df < 2 or dg < 2 or (f.den == 1 and g.den == 1):
                continue
            with monkeypatch.context() as m:
                calls = _count_scalar_resultants(m)
                res, e = elimination._resultant_and_element(f, g, "x")
            if res.is_zero() or e in (f, g):  # no E, or the chain ends at an input
                continue
            assert len(calls) == 1 and res == subresultant(f, g, "x", 0)
            subs = [subresultant(f, g, "x", j) for j in range(e.degree_in("x"), min(df, dg))]
            assert any(e in (s, -s) for s in subs)
            checked += 1

    def test_packed_in_two_other_variables(self, monkeypatch):
        f = P("x^2*y + z^2*x - 3*y*z + 1", V3)
        g = P("2*x^3 - y^2*x + (1/2 + i)*z", V3)
        assert self.check(f, g, "x", 1, monkeypatch).support_vars() == V3

    def test_packed_where_the_total_degrees_bound_the_other_degree(self, monkeypatch):
        """tdeg f * tdeg g = 9 is below the column bound deg f * deg_y g + deg g * deg_y f = 18,
        so n_y comes from the total degrees, and E still fits in its slots.

        The chain is f, g and the linear 2f - g, so E is S_2, of degree 1.
        """
        f, g = P("x^3 + y^3 + 1/2*x*y + 1"), P("2*x^3 - (1 - i)*y^3 + x + y - 3")
        assert f.total_degree() * g.total_degree() == 9 < 3 * 3 + 3 * 3
        e = self.check(f, g, "x", 2, monkeypatch)
        assert e.degree_in("x") == 1 and e.degree_in("y") == 3

    def test_polynomial_prs_route(self, monkeypatch):
        f = P("x^2*y + z^2*x - 3*y*z + 1", V3)
        g = P("2*x^3 - y^2*x + (1/2 + i)*z", V3)
        monkeypatch.setattr(elimination, "PACK_MAX_BITS", 0)
        self.check(f, g, "x", 1, monkeypatch, scalar_calls=0)

    def test_no_element_by_values(self, monkeypatch):
        f, g = P("x^3 + y^3 + 1/2*x*y + 1"), P("2*x^3 - (1 - i)*y^3 + x + y - 3")
        monkeypatch.setattr(elimination, "PACK_MAX_BITS", 0)
        res, e = elimination._resultant_and_element(f, g, "x")
        assert res == subresultant(f, g, "x", 0) and e is None

    def test_non_normal_chain_of_the_screen_sibling(self, monkeypatch):
        """(x^2 + y^2, x^4 + y^3 + y) at a target: the principal coefficient of S_1 vanishes
        identically, and E, of degree 2, is the pivot, S_2.  The stage keeps no E of its own,
        as rooting E is rooting the pivot."""
        f = PolyMap.from_exprs(V, ["x^2 + y^2", "x^4 + y^3 + y"])
        pivot, partner = _shifted_system(f, sample_target(np.random.default_rng(3), 2))
        assert subresultant(pivot, partner, "x", 1).degree_in("x") == 0
        assert self.check(pivot, partner, "x", 2, monkeypatch) is pivot
        (stage,) = eliminate([pivot, partner], ["x"]).stages
        assert (stage.mode, stage.pivot, stage.element) == ("resultant", pivot, None)

    def test_linear_pivot_stores_no_element(self):
        """A pivot a*x + b with a not a constant is its own E, and the stage keeps none."""
        res = eliminate([P("y*x + 1"), P("x^2 + y^2 - 3")], ["x"])
        assert [(s.mode, s.element) for s in res.stages] == [("resultant", None)]


def _lift_yz(p: Polynomial) -> Polynomial:
    """A polynomial in (y, z) as one in (x, y, z)."""
    return Polynomial(V3, {(0, *e): c for e, c in p.terms.items()})


class TestGcd:
    def test_univariate(self):
        assert gcd_poly(P("x^2 - 1"), P("x - 1")) == P("x - 1")

    def test_coprime(self):
        assert gcd_poly(P("x - 1"), P("x + 1")).is_constant()

    def test_multivariate(self):
        g = P("x + y")
        a = g * P("x - 2*y")
        b = g * P("x*y + 1")
        assert gcd_poly(a, b) == normalized(g)

    def test_random_common_factor(self):
        rng = random.Random(53)
        for _ in range(30):
            g = random_nonzero_polynomial(rng, V, max_degree=2, max_terms=2)
            if g.is_constant():
                continue
            a = g * random_nonzero_polynomial(rng, V, max_degree=2, max_terms=2)
            b = g * random_nonzero_polynomial(rng, V, max_degree=2, max_terms=2)
            d = gcd_poly(a, b)
            # the common factor divides the gcd
            exact_div(d, gcd_poly(d, normalized(g)))  # no exception
            assert not (exact_div(a, d).is_zero() or exact_div(b, d).is_zero())


class TestSquarefree:
    def test_strips_multiplicity(self):
        assert squarefree_part(P("(x - y)^3")) == normalized(P("x - y"))

    def test_already_squarefree(self):
        p = P("x^2 - y")
        assert squarefree_part(p) == normalized(p)

    def test_keeps_factors_missing_the_first_variable(self):
        p = P("(x + y)^2 * (y - 1)^2")
        assert squarefree_part(p) == normalized(P("(x + y)*(y - 1)"))
        assert squarefree_part(P("x^2*y^2", ("x", "y"))) == P("x*y", ("x", "y"))


class TestCascade:
    def test_triangular_substitution(self):
        system = [P("x - 2", V3), P("x*y - 6", V3), P("z - y", V3)]
        res = eliminate(system, ["x", "y"])
        assert not res.degenerate and not res.inconsistent
        assert len(res.finals) == 1
        assert normalized(res.finals[0]) == normalized(P("z - 3", V3))

    def test_inconsistency_detected(self):
        system = [P("x", V), P("x - 1", V)]
        res = eliminate(system, ["x"])
        assert res.inconsistent

    def test_free_variable_detected(self):
        system = [P("y - 1", V)]
        res = eliminate(system, ["x"])
        assert res.free_vars == ["x"]

    def test_stage_modes_in_order(self):
        v4 = ("w", "x", "y", "z")
        system = [P(t, v4) for t in ("w - 2", "x^2 + y^2 - w*z", "x^2 - y*z")]
        res = eliminate(system, ["w", "x", "y"])
        assert [(s.var, s.mode) for s in res.stages] == [
            ("w", "substitution"),
            ("x", "resultant"),
            ("y", "single"),
        ]

    def test_vanishing_resultant_is_degenerate(self):
        res = eliminate([P("(x - y)*(x + 1)"), P("(x - y)*(x + 2)")], ["x"])
        assert res.degenerate_var == "x"
        assert not res.inconsistent and res.finals == []

    def test_constant_resultant_is_inconsistent(self):
        res = eliminate([P("x^2 + 1"), P("x^2 + 2")], ["x"])
        assert res.inconsistent and not res.degenerate
        assert [s.mode for s in res.stages] == ["resultant"]
        assert res.finals == []

    def test_resultant_stage(self):
        system = [P("x^2 + y^2 - 1"), P("x - y")]
        res = eliminate(system, ["x"])
        assert len(res.finals) == 1
        assert normalized(res.finals[0]) == normalized(P("2*y^2 - 1"))

    def test_kill_variable_in_fewest_equations_goes_first(self):
        """y is missing from the first equation, so it goes before x, against kill order.

        The final is then Res_x(e1, Res_y(e2, e3)), with no resultant of two
        resultants and so no extraneous factor.
        """
        e1, e2, e3 = (P(t, V3) for t in ("x^2 + z^2 - 1", "x*y^2 + z*y - 2", "y^2 + x*z^2 - 3"))
        res = eliminate([e1, e2, e3], ["x", "y"])
        assert [(s.var, s.mode) for s in res.stages] == [("y", "resultant"), ("x", "resultant")]
        inner = poly_matrix_det(sylvester_matrix(e2, e3, "y"))
        (final,) = res.finals
        assert normalized(final) == normalized(poly_matrix_det(sylvester_matrix(e1, inner, "x")))

    @pytest.mark.parametrize("kill", [["x", "y"], ["y", "x"]])
    def test_tie_keeps_kill_order(self, kill):
        system = [P(t, V3) for t in ("x^2 + y^2 - z", "x*y^2 + z*x^2 - 2", "y^2*z + x*z^2 - 3")]
        res = eliminate(system, kill)
        assert [(s.var, s.mode) for s in res.stages] == [(v, "resultant") for v in kill]


class TestIteratedResultantFactor:
    """A stage kills x with a*x + b and two partners; the next kills y from their two resultants.

    Res_y(Res_x(p, g2), Res_x(p, g3)) has the factor Res_y(a, b)^(d2*d3),
    d2 and d3 the partners' degrees in x (Busé and Mourrain, Math. Comp. 78,
    2009); the cascade's final is the iterated resultant with it divided out.
    """

    @staticmethod
    def iterated(p: Polynomial, g2: Polynomial, g3: Polynomial) -> Polynomial:
        """Res_y(Res_x(p, g2), Res_x(p, g3)) from Sylvester determinants."""
        r2, r3 = (poly_matrix_det(sylvester_matrix(p, g, "x")) for g in (g2, g3))
        return poly_matrix_det(sylvester_matrix(r2, r3, "y"))

    @staticmethod
    def cascade(system, monkeypatch) -> tuple:
        """Kill x then y: the result, its stages and (resultant, quotient) per division tried."""
        divided = []

        def spy(r, *args):
            quotient = without_extraneous(r, *args)
            divided.append((r, quotient))
            return quotient

        without_extraneous = elimination._without_extraneous
        with monkeypatch.context() as m:
            m.setattr(elimination, "_without_extraneous", spy)
            res = eliminate(system, ["x", "y"])
        stages = [(s.var, s.mode) for s in res.stages]
        return res, stages, divided

    def test_final_times_the_factor_is_the_iterated_resultant(self, monkeypatch):
        rng = random.Random(29)
        x = Polynomial.variable(V3, "x")
        checked = 0
        for _ in range(1000):
            a, b = (random_nonzero_polynomial(rng, ("y", "z"), 2, 3) for _ in range(2))
            g2, g3 = (random_nonzero_polynomial(rng, V3, 3, 4) for _ in range(2))
            if min(a.degree_in("y"), b.degree_in("y"), g2.degree_in("x"), g3.degree_in("x")) < 1:
                continue
            factor = poly_matrix_det(sylvester_matrix(a, b, "y"))
            p = _lift_yz(a) * x + _lift_yz(b)
            if factor.is_constant() or any(linear_solution(q, v) for q in (p, g2, g3) for v in V3):
                continue  # no substitution or inter-reduction runs before the first stage
            res, stages, divided = self.cascade([p, g2, g3], monkeypatch)
            if stages != [("x", "resultant"), ("y", "resultant")] or not divided or res.problem:
                continue  # the resultants of the first stage were reduced before the second
            (final,) = res.finals
            k = g2.degree_in("x") * g3.degree_in("x")
            assert divided == [(final * _lift_yz(factor) ** k, final)]
            assert normalized(final * _lift_yz(factor) ** k) == normalized(self.iterated(p, g2, g3))
            checked += 1
        assert checked >= 20

    def test_constant_factor_divides_nothing(self, monkeypatch):
        """Res_y(y + z, y + z + 1) = 1: a and b never vanish together."""
        p = P("(y + z)*x + y + z + 1", V3)
        g2 = P("x^2*y + z^2 - 3*y^2 + 2", V3)
        g3 = P("x*y^2 - z^2*x + 5*y*z - 1/2", V3)
        res, stages, divided = self.cascade([p, g2, g3], monkeypatch)
        assert stages == [("x", "resultant"), ("y", "resultant")]
        (final,) = res.finals
        assert divided == [(final, final)]
        assert normalized(final) == normalized(self.iterated(p, g2, g3))

    def test_common_root_at_infinity_divides_only_the_finite_part(self, monkeypatch):
        """a = (z - 2)*y + z - 1 and b = (z - 2)*(z + 1 - y): both leads in y vanish at z = 2.

        Res_y(a, b) = (z - 2)*(z^2 - 3); (z^2 - 3)^2 divides the iterated
        resultant, but z - 2, the common root at infinity, does not, so only
        (z^2 - 3)^2 is divided out.
        """
        p = P("((z - 2)*y + z - 1)*x + (z - 2)*(z + 1 - y)", V3)
        g2 = P("x*z^3 + x*y*z + x*z^2 - y*z", V3)
        g3 = P("x^2*z + y^2*z + z^2 + 1", V3)
        res, stages, divided = self.cascade([p, g2, g3], monkeypatch)
        assert stages == [("x", "resultant"), ("y", "resultant")]
        (final,) = res.finals
        finite = P("(z^2 - 3)^2", V3)
        assert divided == [(final * finite, final)]
        assert normalized(final * finite) == normalized(self.iterated(p, g2, g3))
        assert final.degree_in("z") == 19

    def test_dense_3x3_1_final_has_degree_mu(self):
        """Killing x first gave A*B^6, deg A = 14 and B^6 = Res_y(a, b)^(3*2); killing y first gives A."""
        text, count = dense_pool()["3x3#1"]
        f = parse_map_text(text)
        rng = np.random.default_rng([1, 3, 3, 1])
        for _ in range(4):
            system = _shifted_system(f, sample_target(rng, 3))
            (final,) = eliminate(system, list(f.vars[:-1])).finals
            assert final.degree_in("z") == count == 14

    def test_dense_3x3_1_kills_y_first_and_divides_nothing(self, monkeypatch):
        """y is missing from the first equation, so no stage takes a resultant of two resultants."""
        f = parse_map_text(dense_pool()["3x3#1"][0])
        rng = np.random.default_rng([1, 3, 3, 1])
        monkeypatch.setattr(elimination, "_without_extraneous", _refuse_division)
        for _ in range(4):
            res = eliminate(_shifted_system(f, sample_target(rng, 3)), list(f.vars[:-1]))
            assert [(s.var, s.mode) for s in res.stages] == [("y", "resultant"), ("x", "resultant")]
            (final,) = res.finals
            assert final.degree_in("z") == 14


def _refuse_division(*args):
    raise AssertionError("the cascade divided out an iterated resultant's factor")
