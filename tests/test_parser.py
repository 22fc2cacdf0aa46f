"""Expression grammar: accepted forms, rejections, error positions."""

import time

import pytest

from polyproper import ParseError, parse_laurent, parse_path, parse_polynomial
from polyproper.parser import MAX_PARSE_DEGREE, MAX_PARSE_TERMS, MAX_PARSE_WORK
from polyproper.poly import LaurentPoly, Polynomial
from polyproper.scalar import GaussianRational

V = ("x", "y")


def test_basic_terms():
    p = parse_polynomial("x^2 - y", V)
    assert p.terms == {(2, 0): GaussianRational(1), (0, 1): GaussianRational(-1)}


def test_shear_component_shape():
    p = parse_polynomial("z - 3*x^5*y + 2*x^7*y^2", ("x", "y", "z"))
    assert len(p.terms) == 3
    assert p.total_degree() == 9


def test_products_expand():
    p = parse_polynomial("x + y*(z - 3*x^5*y + 2*x^7*y^2)", ("x", "y", "z"))
    assert len(p.terms) == 4
    assert p.total_degree() == 10


def test_rational_literals():
    p = parse_polynomial("1/2*x - 2/3", V)
    assert p == Polynomial(V, {(1, 0): GaussianRational.coerce(0.5), (0, 0): GaussianRational(-2, 0) / 3})


def test_imaginary_unit():
    p = parse_polynomial("i*x + 2*i", V)
    assert p.terms[(1, 0)] == GaussianRational(0, 1)
    assert p.terms[(0, 0)] == GaussianRational(0, 2)


def test_power_binds_tighter_than_unary_minus():
    assert parse_polynomial("-x^2", V) == -parse_polynomial("x^2", V)


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("2x", V)


def test_unknown_identifier_with_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + w", V)
    assert "unknown identifier 'w'" in str(err.value)
    assert err.value.position == 4


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + ", V)
    assert err.value.position == 4


def test_stray_character():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_polynomial("x + $", V)


def test_division_by_nonconstant_rejected():
    with pytest.raises(ParseError, match="constants"):
        parse_polynomial("x / y", V)


def test_division_by_zero_rejected():
    with pytest.raises(ParseError, match="zero"):
        parse_polynomial("x / 0", V)


def test_nonnegative_exponent_only_in_polynomial_mode():
    with pytest.raises(ParseError, match="negative exponents"):
        parse_polynomial("x^-2", V)


def test_parenthesized_groups():
    p = parse_polynomial("(x + y)*(x - y)", V)
    assert p == parse_polynomial("x^2 - y^2", V)


def test_imaginary_unit_not_declarable():
    with pytest.raises(ValueError, match="reserved"):
        parse_polynomial("i", ("i", "x"))


def test_laurent_negative_exponents():
    assert parse_laurent("t^-2") == LaurentPoly("t", {-2: 1})
    assert parse_laurent("3*t^2 - t^-1 + 1") == LaurentPoly("t", {2: 3, -1: -1, 0: 1})


def test_path_literal():
    path = parse_path("t, t^-2, 0")
    assert path[0] == LaurentPoly("t", {1: 1})
    assert path[1] == LaurentPoly("t", {-2: 1})
    assert path[2].is_zero()


def test_empty_path_rejected():
    with pytest.raises(ParseError):
        parse_path("  ")


def test_oversized_power_fails_fast():
    start = time.perf_counter()
    with pytest.raises(ParseError, match="degree 200 exceeds the parse limit 32"):
        parse_polynomial("(x+y+z)^200", ("x", "y", "z"))
    assert time.perf_counter() - start < 0.1


def test_oversized_product_fails_before_expanding():
    with pytest.raises(ParseError, match="degree 33") as info:
        parse_polynomial("(x+y)^16*(x-y)^17", V)
    assert info.value.position == 8  # the '*'


def test_large_expansion_fails_before_expanding():
    # each factor alone has 20 349 terms: C(21, 5) monomials of degree 16 in 6 variables
    start = time.perf_counter()
    with pytest.raises(ParseError, match="20349 terms exceeds the parse limit") as info:
        parse_polynomial("(a+b+c+d+e+f)^16*(a-b+c-d+e-f)^16", tuple("abcdef"))
    assert time.perf_counter() - start < 0.1
    assert info.value.position == 13  # the first '^'


def test_expansion_within_the_term_limit_is_accepted():
    # at most C(35, 3) = 6545 monomials of degree <= 32 in 3 variables
    p = parse_polynomial("(x+y+z+1)^16*(x-y+2*z-3)^16", ("x", "y", "z"))
    assert len(p.terms) == 6529 <= MAX_PARSE_TERMS


def test_sum_of_admitted_products_fails_on_the_work_budget():
    # each summand costs ~1.1e6 units of work; the second product passes MAX_PARSE_WORK
    summand = "(x+y+z+1)^16*(x-y+2*z-3)^16"
    with pytest.raises(ParseError, match="more work than the parse limit") as info:
        parse_polynomial(" + ".join([summand] * 3), ("x", "y", "z"))
    assert info.value.position == len(summand) + 3 + summand.index("*")  # the second '*'


def test_long_chain_of_divisions_fails_on_the_work_budget():
    # each '/' builds all 969 coefficients of the power again
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"more work than the parse limit {MAX_PARSE_WORK}"):
        parse_polynomial("(x+y+z+1)^16" + "/2" * 2000, ("x", "y", "z"))
    assert time.perf_counter() - start < 5.0


def test_degree_at_the_parse_limit_is_accepted():
    assert parse_polynomial("x^16*y^16", V).total_degree() == MAX_PARSE_DEGREE
    assert min(parse_laurent("t^-32").terms) == -MAX_PARSE_DEGREE
    with pytest.raises(ParseError, match="parse limit"):
        parse_laurent("t^-33")
