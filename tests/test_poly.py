"""Polynomial core: arithmetic, calculus, substitution, evaluation, printing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyproper import GaussianRational, LaurentPoly, Polynomial, parse_polynomial
from conftest import random_nonzero_polynomial, random_point, random_polynomial

V2 = ("x", "y")
V3 = ("x", "y", "z")


def P(text, variables=V3):
    return parse_polynomial(text, variables)


H = "z - 3*x^5*y + 2*x^7*y^2"

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)
gaussians = st.builds(GaussianRational, rationals, rationals)


class TestArithmetic:
    def test_add_cancels_to_zero(self):
        x = Polynomial.variable(V2, "x")
        assert (x + (-x)).is_zero()
        assert str(x - x) == "0"

    def test_difference_of_squares(self):
        assert P("x + y", V2) * P("x - y", V2) == P("x^2 - y^2", V2)

    def test_context_mismatch_rejected(self):
        with pytest.raises(ValueError, match="context"):
            Polynomial.variable(V2, "x") + Polynomial.variable(V3, "x")

    def test_product_matches_evaluation_oracle(self):
        rng = random.Random(11)
        for _ in range(60):
            p = random_polynomial(rng, V2)
            q = random_polynomial(rng, V2)
            pt = random_point(rng, 2)
            lhs = (p * q).evaluate(pt)
            rhs = p.evaluate(pt) * q.evaluate(pt)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))

    def test_no_zero_coefficients_survive(self):
        rng = random.Random(5)
        for _ in range(100):
            p = random_polynomial(rng, V3)
            q = random_polynomial(rng, V3)
            for result in (p + q, p - q, p * q, p - p):
                assert all(not c.is_zero() for c in result.terms.values())

    def test_zero_degree_undefined(self):
        with pytest.raises(ValueError, match="undefined"):
            Polynomial.zero(V2).total_degree()


class TestDifferentiation:
    def test_basic(self):
        assert P("x^2 - y", V2).diff("x") == P("2*x", V2)

    def test_shear_partials(self):
        h = P(H)
        assert h.diff("y") == P("-3*x^5 + 4*x^7*y")
        assert h.diff("z") == P("1")

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            P("x", V2).diff("w")

    def test_linearity_and_product_rule(self):
        rng = random.Random(23)
        for _ in range(60):
            p = random_polynomial(rng, V2)
            q = random_polynomial(rng, V2)
            v = rng.choice(V2)
            assert (p + q).diff(v) == p.diff(v) + q.diff(v)
            assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)


class TestSubstitution:
    def test_simple(self):
        p = P("x + y", V2)
        target = ("u", "v")
        image = p.substitute(
            {"x": P("u^2", target), "y": P("v", target)}
        )
        assert image == P("u^2 + v", target)

    def test_rename(self):
        p = Polynomial.variable(("x",), "x")
        out = p.substitute({"x": P("p - q*r", ("p", "q", "r"))})
        assert out == P("p - q*r", ("p", "q", "r"))

    def test_missing_assignment(self):
        with pytest.raises(ValueError, match="missing assignment"):
            P("x + y", V2).substitute({"x": Polynomial.variable(V2, "x")})

    def test_identity_assignment_is_identity(self):
        rng = random.Random(7)
        for _ in range(40):
            p = random_polynomial(rng, V3)
            ident = {v: Polynomial.variable(V3, v) for v in V3}
            assert p.substitute(ident) == p

    def test_shear_composed_with_inverse_expands(self, shear_map, shear_inverse):
        h = P(H)
        assignment = dict(zip(V3, shear_inverse.components))
        composed = h.substitute(assignment)
        # z - 3x^5 y + 2x^7 y^2 composed with the inverse collapses to r
        assert composed == Polynomial.variable(("p", "q", "r"), "r")


class TestLaurentSubstitution:
    def test_product_path(self):
        p = P("x*y", V2)
        path = (LaurentPoly("t", {1: 1}), LaurentPoly("t", {-2: 1}))
        assert p.substitute_path(path) == LaurentPoly("t", {-1: 1})

    def test_first_component_vanishes_along_escape_path(self, shear_map):
        path = (LaurentPoly("t", {1: 1}), LaurentPoly("t", {-2: 1}), LaurentPoly.zero("t"))
        assert shear_map.components[0].substitute_path(path).is_zero()

    def test_exact_cancellation_along_second_path(self):
        h = P(H)
        path = (LaurentPoly("t", {-1: 1}), LaurentPoly("t", {2: 1}), LaurentPoly("t", {-3: 1}))
        assert h.substitute_path(path).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="coordinates"):
            P("x*y", V2).substitute_path((LaurentPoly("t", {1: 1}),))

    def test_commutes_with_evaluation(self):
        rng = random.Random(31)
        for _ in range(50):
            p = random_polynomial(rng, V2, max_degree=4)
            path = tuple(
                LaurentPoly("t", {rng.randint(-2, 2): random_rat(rng)}) for _ in V2
            )
            t0 = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            lhs = p.substitute_path(path).evaluate(t0)
            rhs = p.evaluate(tuple(c.evaluate(t0) for c in path))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def random_rat(rng):
    return GaussianRational(Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)))


class TestEvaluation:
    def test_examples(self):
        assert P("x^2 - y", V2).evaluate((2, 1)) == 3
        assert P(H).evaluate((0, 0, 5)) == 5

    def test_matches_term_sum_oracle(self):
        rng = random.Random(41)
        for _ in range(100):
            p = random_polynomial(rng, V3, max_degree=5, max_terms=7)
            pt = random_point(rng, 3)
            naive = sum(
                (
                    c.to_complex()
                    * pt[0] ** e[0]
                    * pt[1] ** e[1]
                    * pt[2] ** e[2]
                    for e, c in p.terms.items()
                ),
                0j,
            )
            assert abs(p.evaluate(pt) - naive) <= 1e-12 * (1 + abs(naive))

    def test_exact_evaluation(self):
        p = P("x^2 - y", V2)
        val = p.evaluate_exact((GaussianRational(Fraction(1, 2)), GaussianRational(2)))
        assert val == GaussianRational(Fraction(-7, 4))

    def test_exact_evaluation_of_zero_and_in_the_empty_context(self):
        assert Polynomial.zero(V2).evaluate_exact((1, GaussianRational(2, 3))) == 0
        assert Polynomial.zero(()).evaluate_exact(()) == 0
        c = GaussianRational(Fraction(3, 2), -1)
        assert Polynomial.constant((), c).evaluate_exact(()) == c
        with pytest.raises(ValueError, match="dimension"):
            Polynomial.zero(V2).evaluate_exact((1,))

    @settings(max_examples=80, deadline=None)
    @given(
        st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), gaussians, max_size=6),
        st.lists(gaussians, min_size=3, max_size=3),
    )
    def test_exact_evaluation_is_substitution_of_constants(self, terms, point):
        p = Polynomial(V3, terms)
        images = {v: Polynomial.constant((), c) for v, c in zip(V3, point)}
        assert p.evaluate_exact(point) == p.substitute(images).constant_value()

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="dimension"):
            P("x", V2).evaluate((1,))


scalars = st.one_of(
    st.integers(-(10**20), 10**20),
    rationals,
    st.floats(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    gaussians,
)


class TestConstruction:
    """Both constructors read every scalar type exactly into the stored form."""

    @settings(max_examples=80, deadline=None)
    @given(st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), scalars, max_size=6))
    def test_polynomial_terms_are_the_coerced_coefficients(self, terms):
        expected = {e: GaussianRational.coerce(c) for e, c in terms.items()}
        assert Polynomial(V3, terms).terms == {e: c for e, c in expected.items() if c}

    @settings(max_examples=80, deadline=None)
    @given(st.dictionaries(st.integers(-6, 6), scalars, max_size=6))
    def test_laurent_terms_are_the_coerced_coefficients(self, terms):
        expected = {e: GaussianRational.coerce(c) for e, c in terms.items()}
        assert LaurentPoly("t", terms).terms == {e: c for e, c in expected.items() if c}

    def test_other_scalar_types_are_rejected(self):
        with pytest.raises(TypeError):
            Polynomial(V2, {(0, 0): "1"})
        with pytest.raises(TypeError):
            LaurentPoly("t", {0: None})


class TestPrinting:
    def test_zero_prints_as_zero(self):
        assert str(Polynomial.zero(V2)) == "0"
        assert parse_polynomial("0", V2).is_zero()

    def test_canonical_order_is_graded_lex(self):
        p = P("y + x^2*y + x", V2)
        assert str(p) == "x^2*y + x + y"

    def test_mixed_complex_coefficients_round_trip(self):
        p = Polynomial(V2, {(1, 0): GaussianRational(1, -2), (0, 0): GaussianRational(0, 1)})
        assert parse_polynomial(str(p), V2) == p

    def test_round_trip_random(self):
        rng = random.Random(59)
        for _ in range(200):
            p = random_polynomial(rng, V3, max_degree=5, max_terms=6)
            assert parse_polynomial(str(p), V3) == p


class TestLaurentPoly:
    def test_degree_order(self):
        p = LaurentPoly("t", {3: 1, -2: 5})
        assert p.degree() == 3 and p.order() == -2

    def test_zero_degree_errors(self):
        with pytest.raises(ValueError):
            LaurentPoly.zero().degree()

    def test_negative_power_of_monomial(self):
        t = LaurentPoly("t", {1: 1})
        assert t**-2 == LaurentPoly("t", {-2: 1})
        with pytest.raises(ValueError, match="multi-term"):
            (t + 1) ** -1

    def test_zero_power_zero_is_one(self):
        assert LaurentPoly.zero() ** 0 == LaurentPoly.one()

    def test_evaluation_with_poles(self):
        p = LaurentPoly("t", {-1: 1})
        assert abs(p.evaluate(4.0) - 0.25) < 1e-15
        with pytest.raises(ZeroDivisionError):
            p.evaluate(0)
