"""The cleared-numerator product kernel against the schoolbook product.

Every exact layer (powers, composition, pseudo-remainders, resultants,
Bareiss, exact division, parsing) multiplies through one kernel, so it is
checked against :func:`oracles.schoolbook_product` on inputs that stress its
clearing, packing and normalisation: mixed denominators and imaginary
parts, coefficients that cancel, zero and constant operands, exponents that
fill the packing base, and Laurent operands with negative exponents.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyproper import GaussianRational, LaurentPoly, Polynomial, parse_polynomial
from polyproper.elimination import NotDivisibleError, _substitute_var, exact_div
from polyproper.scalar import ZERO
from oracles import schoolbook_product

VARS = ("x", "y", "z")

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)
reals = st.builds(GaussianRational, rationals)
gaussians = st.one_of(reals, st.builds(GaussianRational, rationals, rationals))


@st.composite
def polynomials(draw, n, max_exponent=4):
    """Zero, constant or general; general terms favour the largest exponent."""
    kind = draw(st.sampled_from(["zero", "constant", "general", "general", "general"]))
    if kind == "zero":
        return Polynomial.zero(VARS[:n])
    if kind == "constant":
        return Polynomial.constant(VARS[:n], draw(gaussians))
    exps = st.lists(st.sampled_from([0, 1, max_exponent - 1, max_exponent]), min_size=n, max_size=n)
    terms = draw(st.dictionaries(exps.map(tuple), gaussians, max_size=6))
    return Polynomial(VARS[:n], terms)


@st.composite
def polynomial_pairs(draw):
    n = draw(st.integers(0, 3))
    return draw(polynomials(n)), draw(polynomials(n, draw(st.integers(1, 6))))


laurents = st.dictionaries(st.integers(-5, 5), gaussians, max_size=5).map(
    lambda terms: LaurentPoly("t", terms)
)


def power_oracle(p, k, one):
    out = one.terms
    for _ in range(k):
        out = schoolbook_product(out, p.terms)
    return out


@settings(max_examples=100, deadline=None)
@given(polynomial_pairs())
def test_polynomial_product_matches_schoolbook(pair):
    p, q = pair
    assert (p * q).terms == schoolbook_product(p.terms, q.terms)


@settings(max_examples=40, deadline=None)
@given(polynomial_pairs())
def test_cross_terms_cancel(pair):
    a, b = pair
    # (a + b)(a - b) = a^2 - b^2: the cross terms cancel coefficient by coefficient
    product = ((a + b) * (a - b)).terms
    assert product == schoolbook_product((a + b).terms, (a - b).terms)
    squares = [Polynomial(a.vars, schoolbook_product(p.terms, p.terms)) for p in (a, b)]
    assert product == (squares[0] - squares[1]).terms


@settings(max_examples=40, deadline=None)
@given(polynomial_pairs(), st.integers(0, 4))
def test_polynomial_power_matches_schoolbook(pair, k):
    p, _ = pair
    assert (p**k).terms == power_oracle(p, k, Polynomial.constant(p.vars, 1))


@settings(max_examples=60, deadline=None)
@given(laurents, laurents, st.integers(0, 5))
def test_laurent_product_and_power_match_schoolbook(a, b, k):
    assert (a * b).terms == schoolbook_product(a.terms, b.terms)
    assert (a**k).terms == power_oracle(a, k, LaurentPoly.one("t"))


def substitution_oracle(p, images, one):
    """The terms of sum c * prod_i images[i]^e[i] over the terms {e: c} of p, schoolbook."""
    ((key, _),) = one.terms.items()
    out: dict = {}
    for e, c in p.terms.items():
        term = {key: c}
        for image, k in zip(images, e):
            term = schoolbook_product(term, power_oracle(image, k, one))
        for m, v in term.items():
            out[m] = out.get(m, ZERO) + v
    return {m: v for m, v in out.items() if not v.is_zero()}


laurent_images = st.dictionaries(st.integers(-3, 3), gaussians, max_size=4).map(
    lambda terms: LaurentPoly("t", terms)
)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_substitution_matches_schoolbook_sum(n, data):
    p = data.draw(polynomials(n, 3))
    images = [data.draw(polynomials(2, 2)) for _ in range(n)]
    want = substitution_oracle(p, images, Polynomial.constant(VARS[:2], 1))
    assert p.substitute(dict(zip(p.vars, images))) == Polynomial(VARS[:2], want)
    path = [data.draw(laurent_images) for _ in range(n)]
    want = substitution_oracle(p, path, LaurentPoly.one("t"))
    assert p.substitute_path(path) == LaurentPoly("t", want)


@settings(max_examples=40, deadline=None)
@given(polynomials(3, 3), st.sampled_from(VARS), polynomials(3, 2))
def test_one_variable_substitution_is_composition(p, var, image):
    assignment = {v: image if v == var else Polynomial.variable(VARS, v) for v in VARS}
    assert _substitute_var(p, var, image) == p.substitute(assignment)


@settings(max_examples=60, deadline=None)
@given(polynomial_pairs())
def test_exact_division_recovers_the_factor(pair):
    p, q = pair
    assume(not q.is_zero())
    product = Polynomial(p.vars, schoolbook_product(p.terms, q.terms))
    assert exact_div(product, q) == p
    if not q.is_constant():
        with pytest.raises(NotDivisibleError):
            exact_div(product + 1, q)


@pytest.mark.parametrize("divisor", ["2*x + 1", "(1+i)*x + 1"])
def test_division_inexact_in_the_coefficients_raises(divisor):
    # every leading monomial divides, but x^3 / (2x + 1) would need 1/8
    x = ("x",)
    with pytest.raises(NotDivisibleError):
        exact_div(parse_polynomial("x^3", x), parse_polynomial(divisor, x))
