"""The stored form and the int product kernel against scalar oracles.

Every exact layer (powers, composition, pseudo-remainders, resultants,
Bareiss, exact division, parsing) multiplies through one kernel, so it is
checked against :func:`oracles.schoolbook_product` on inputs that stress its
reduction and packing: mixed denominators and imaginary parts, coefficients
that cancel, zero and constant operands, exponents up to the packing limit,
and Laurent operands with negative exponents.  Every route that builds a
polynomial must give the reduced stored form (positive denominator,
numerators sharing no factor with it, no zero entry), equal polynomials
must store the same form, and ring operations must not build scalars.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyproper import GaussianRational, LaurentPoly, Polynomial, parse_laurent, parse_polynomial
from polyproper.elimination import NotDivisibleError, _substitute_var, exact_div
from polyproper.poly import MAX_DEGREE, Specialisation, mul_power
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


# -- the stored form: reduced, canonical, built without scalars ----------------------


def assert_stored_form(p):
    """den > 0, gcd(den, every numerator) = 1, no (0, 0) entry, and a terms view that agrees."""
    assert isinstance(p.den, int) and p.den > 0
    assert all(re or im for re, im in p.nums.values())
    assert math.gcd(p.den, *(x for c in p.nums.values() for x in c)) == 1
    assert len(p.terms) == len(p.nums)
    assert all(not c.is_zero() for c in p.terms.values())


def scalar_sum(a, b, sign):
    """The terms of a + sign * b, one GaussianRational sum per shared key."""
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, ZERO) + (c if sign > 0 else -c)
        if s.is_zero():
            out.pop(e, None)
        else:
            out[e] = s
    return out


def assert_same_stored_form(p, q):
    assert (p.den, p.nums) == (q.den, q.nums) and p == q and hash(p) == hash(q)


@settings(max_examples=80, deadline=None)
@given(polynomial_pairs(), st.integers(0, 3), st.data())
def test_every_route_gives_the_reduced_canonical_form(pair, k, data):
    p, q = pair
    names = p.vars
    results = {
        "constructor": (p, None),
        "parser": (parse_polynomial(str(p), names), p.terms),
        "sum": (p + q, scalar_sum(p.terms, q.terms, 1)),
        "difference": (p - q, scalar_sum(p.terms, q.terms, -1)),
        "product": (p * q, schoolbook_product(p.terms, q.terms)),
        "power": (p**k, power_oracle(p, k, Polynomial.constant(names, 1))),
        "negation": (-p, {e: -c for e, c in p.terms.items()}),
    }
    if not q.is_zero():
        results["quotient"] = (exact_div(p * q, q), p.terms)
    if names:
        images = [data.draw(polynomials(2, 2)) for _ in names]
        want = substitution_oracle(p, images, Polynomial.constant(VARS[:2], 1))
        results["substitute"] = (p.substitute(dict(zip(names, images))), want)
        values = [data.draw(gaussians) for _ in names[1:]]
        (special,) = Specialisation([p], 1).at(values)
        head = {names[0]: Polynomial.variable(names[:1], names[0])}
        head.update((v, Polynomial.constant(names[:1], c)) for v, c in zip(names[1:], values))
        results["specialisation"] = (special, p.substitute(head).terms)
    for route, (r, oracle) in results.items():
        assert_stored_form(r)
        if oracle is not None:
            assert r.terms == oracle, route
    # equal polynomials built by different routes store the same form
    assert_same_stored_form(results["parser"][0], p)
    assert_same_stored_form((p + q) - q, p)
    assert_same_stored_form(p * q, q * p)
    assert_same_stored_form(Polynomial(names, (p * q).terms), p * q)
    assert_same_stored_form(p * Polynomial.constant(names, 1), p)
    if not q.is_zero():
        assert_same_stored_form(results["quotient"][0], p)


@settings(max_examples=60, deadline=None)
@given(laurents, laurents, st.integers(0, 3))
def test_laurent_routes_give_the_reduced_canonical_form(a, b, k):
    for r, oracle in [
        (a + b, scalar_sum(a.terms, b.terms, 1)),
        (a - b, scalar_sum(a.terms, b.terms, -1)),
        (a * b, schoolbook_product(a.terms, b.terms)),
        (a**k, power_oracle(a, k, LaurentPoly.one("t"))),
    ]:
        assert_stored_form(r)
        assert r.terms == oracle
    assert_same_stored_form((a + b) - b, a)
    assert_same_stored_form(a * b, b * a)
    assert_same_stored_form(LaurentPoly("t", (a * b).terms), a * b)


def test_denominators_cancel_to_the_reduced_form():
    x = ("x", "y")
    half = parse_polynomial("x/2 + y/2", x)
    assert half.den == 2 and set(half.nums.values()) == {(1, 0)}
    total = half + half
    assert total.den == 1 and total == parse_polynomial("x + y", x)
    assert_same_stored_form(half * 2, parse_polynomial("x + y", x))
    assert (parse_polynomial("x/2", x) - parse_polynomial("x/2", x)).den == 1


def test_total_degree_above_the_packing_limit_raises():
    names = ("x", "y")
    top = Polynomial(names, {(MAX_DEGREE - 1, 0): 1})
    x, y = Polynomial.variable(names, "x"), Polynomial.variable(names, "y")
    # up to the limit every exponent keeps its own digit
    assert (top * x).terms == {(MAX_DEGREE, 0): GaussianRational(1)}
    assert (top * y).terms == {(MAX_DEGREE - 1, 1): GaussianRational(1)}
    assert (top * y).degree_in("y") == 1 and (top * y).total_degree() == MAX_DEGREE
    with pytest.raises(ValueError, match="exceeds the limit"):
        top * x * y
    with pytest.raises(ValueError, match="exceeds the limit"):
        Polynomial(names, {(MAX_DEGREE, 1): 1})
    with pytest.raises(ValueError, match="exceeds the limit"):
        mul_power(top, "y", 2)


def test_ring_operations_build_no_scalars(monkeypatch):
    """Products, sums, differences and exact division stay in int arithmetic.

    A ``GaussianRational`` is built by calling the class, and its parts are
    ``Fraction``s: both constructors count what they build.
    """
    names = ("x", "y", "z")
    a = parse_polynomial("(1/3 + 2*i)*x^2*y - 5/7*y*z + 3", names)
    b = parse_polynomial("x*y - (2 - i/4)*z^2 + 1/6", names)
    s, t = parse_laurent("t^-2/3 + (1+i)*t", "t"), parse_laurent("5*t^3 - t^-1/2", "t")
    built = []
    init, new = GaussianRational.__init__, Fraction.__new__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(GaussianRational, "__init__", counting_init)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    product = a * b
    a + b, a - b, exact_div(product, b), exact_div(product, a)
    s * t, s + t, s - t
    assert built == []
