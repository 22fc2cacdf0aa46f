"""Smallest singular values and univariate root finding."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyproper import (
    GaussianRational,
    Polynomial,
    parse_polynomial,
    smallest_singular_value,
    univariate_roots,
)
from polyproper.numeric import TermTable
from polyproper.numlin import poly_to_coeffs, roots_of_each
from oracles import fraction_route_coeffs, min_gram_eigenvalue, scalar_univariate_roots


class TestSmallestSingularValue:
    def test_identity(self):
        assert smallest_singular_value(np.eye(2)) == pytest.approx(1.0)

    def test_zero_wide_matrix(self):
        assert smallest_singular_value(np.zeros((2, 3))) == pytest.approx(0.0, abs=1e-14)

    def test_row_vector_is_euclidean_norm(self):
        val = smallest_singular_value([[1.0, 2.0j]])
        assert val == pytest.approx(math.sqrt(5.0), rel=1e-12)

    def test_jacobian_shape_along_escape_path(self):
        t = 10.0
        m = [[0.0, 0.0, t**-2], [0.0, 1.0, 0.0]]
        assert smallest_singular_value(m) == pytest.approx(0.01, rel=1e-12)

    def test_rejects_tall_and_empty(self):
        with pytest.raises(ValueError):
            smallest_singular_value(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            smallest_singular_value(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            smallest_singular_value([[np.nan, 1.0]])

    def test_gram_eigenvalue_cross_check(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = rng.integers(1, 4)
            n = rng.integers(m, 5)
            a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            nu = smallest_singular_value(a)
            lam = min_gram_eigenvalue(a)
            assert nu**2 == pytest.approx(lam, rel=1e-10, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
            q1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            q2, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            nu = smallest_singular_value(a)
            assert smallest_singular_value(q1 @ a) == pytest.approx(nu, rel=1e-10)
            assert smallest_singular_value(a @ q2) == pytest.approx(nu, rel=1e-10)


class TestUnivariateRoots:
    def test_quadratic(self):
        rs = univariate_roots([1, 0, 1])  # z^2 + 1
        values = sorted(rs.values(), key=lambda z: z.imag)
        assert values[0] == pytest.approx(-1j, abs=1e-10)
        assert values[1] == pytest.approx(1j, abs=1e-10)

    def test_multiplicity_clustering(self):
        # (z - 1)^2 (z + 2) = z^3 - 3z + 2
        rs = univariate_roots([2, -3, 0, 1])
        by_mult = {r.multiplicity: r for r in rs.roots}
        assert by_mult[2].value == pytest.approx(1.0, abs=1e-6)
        assert by_mult[1].value == pytest.approx(-2.0, abs=1e-8)
        assert rs.total_multiplicity() == 3

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            univariate_roots([0, 0])
        with pytest.raises(ValueError):
            univariate_roots([5])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_linear_root_beyond_float_range(self):
        """The root of 1 + 1e-310 z is -1e310: it comes back not finite, with no warning."""
        (root,) = univariate_roots([1, 1e-310]).roots
        assert not np.isfinite(root.value)

    def test_random_monic_recovery(self):
        rng = random.Random(19)
        for _ in range(50):
            roots = _separated_roots(rng, 8)
            rs = univariate_roots(coeffs_from_roots(roots))
            found = sorted(rs.values(), key=lambda z: (z.real, z.imag))
            expected = sorted(roots, key=lambda z: (z.real, z.imag))
            assert rs.total_multiplicity() == 8
            for a, b in zip(found, expected):
                assert abs(a - b) < 1e-8
            for r in rs.roots:
                assert r.residual / rs.coeff_norm < 1e-8


#: Polynomials with a double, triple, 4-fold and 5-fold root, as in
#: test_numeric_layer.py, plus three distinct roots 1e-4 apart.
MULTIPLE_ROOT_CASES = [
    [1, 1, -2, -2, 1j],
    [1, 1, -2, -2, -2, 1j],
    [0.5, 0.5, 0.5, 0.5, 3],
    [2] * 5 + [1j] * 3,
    [1, 1 + 1e-4, 1 + 2e-4],
]


def _assert_same_roots(got, want):
    """Same multiplicities; values within 1e-9 relative, 1e-7 for double roots.

    A double root is the mean of its two polished copies, which are only
    determined to about sqrt(eps) of it; a root of multiplicity >= 3 is
    polished on the derivative.
    """
    assert [r.multiplicity for r in got.roots] == [r.multiplicity for r in want.roots]
    assert (got.degree, got.coeff_norm) == (want.degree, want.coeff_norm)
    for r, w in zip(got.roots, want.roots):
        tol = 1e-7 if w.multiplicity == 2 else 1e-9
        assert abs(r.value - w.value) <= tol * max(1.0, abs(w.value)), (r, w)


class TestRootsOfEach:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 30), min_size=1, max_size=12),
        st.lists(st.sampled_from(range(len(MULTIPLE_ROOT_CASES))), max_size=4),
    )
    def test_mixed_batch_matches_scalar_oracle(self, seed, degrees, multiple):
        rng = np.random.default_rng(seed)
        rows = [rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1) for d in degrees]
        rows += [np.polynomial.polynomial.polyfromroots(MULTIPLE_ROOT_CASES[k]) for k in multiple]
        order = rng.permutation(len(rows))
        rows = [rows[i] for i in order]
        batch = roots_of_each(rows)
        assert len(batch) == len(rows)
        for row, got in zip(rows, batch):
            _assert_same_roots(got, scalar_univariate_roots(row))
            assert roots_of_each([row])[0] == got  # as if alone, to the bit

    def test_degree_one_in_closed_form(self, monkeypatch):
        def no_eigensolve(*args):
            raise AssertionError("a degree-1 row went through the eigensolver")

        rng = np.random.default_rng(41)
        rows = [
            rng.normal(size=2) * 10.0 ** rng.uniform(-3, 3, size=2) + 1j * rng.normal(size=2)
            for _ in range(200)
        ]
        rows.append([3, 2j, 0, 0])  # trailing zeros are trimmed first
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvals", no_eigensolve)
            batch = roots_of_each(rows)
        for row, got in zip(rows, batch):
            root = -complex(row[0]) / complex(row[1])
            assert got.degree == 1 and len(got.roots) == 1 and got.roots[0].multiplicity == 1
            assert abs(got.roots[0].value - root) <= 4 * 2.0**-52 * abs(root)
            _assert_same_roots(got, scalar_univariate_roots(row))

    def test_rejects_constant_rows_in_a_batch(self):
        with pytest.raises(ValueError):
            roots_of_each([[1, 2], [0, 0]])
        with pytest.raises(ValueError):
            roots_of_each([[1, 2, 3], [5, 0]])
        assert roots_of_each([]) == []


def _separated_roots(rng, count, min_dist=0.25):
    roots = []
    while len(roots) < count:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if all(abs(z - w) >= min_dist for w in roots):
            roots.append(z)
    return roots


def coeffs_from_roots(roots):
    """Ascending coefficients of the monic prod (z - r); the test oracle."""
    coeffs = [1.0 + 0j]
    for r in roots:
        new = [0j] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            new[k + 1] += c
            new[k] -= r * c
        coeffs = new
    return coeffs


def test_poly_to_coeffs():
    p = parse_polynomial("z^3 - 2*z + 1/2", ("z",))
    assert poly_to_coeffs(p) == [0.5, -2.0, 0j, 1.0]
    q = parse_polynomial("y^2 - 4", ("x", "y"))  # single-variable support in bigger ring
    assert poly_to_coeffs(q) == [-4.0, 0j, 1.0]
    with pytest.raises(ValueError, match="several variables"):
        poly_to_coeffs(parse_polynomial("x*y", ("x", "y")))


def _bits(values) -> list[tuple[str, str]]:
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


#: Rationals from far below 2^-500 to far above 2^500, with odd denominators
#: so that one common denominator does not reduce each part.
wide_rationals = st.builds(
    lambda num, den, scale: Fraction(num, den) * Fraction(2) ** scale,
    st.integers(-(2**60), 2**60),
    st.integers(1, 2**60).map(lambda d: 2 * d + 1),
    st.sampled_from([-1400, -700, -520, -501, -60, 0, 60, 501, 520, 700, 1400]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(wide_rationals, wide_rationals), min_size=1, max_size=5))
def test_poly_to_coeffs_gives_the_fraction_route_floats(parts):
    """Stored numerators over one denominator round to the floats each Fraction gave."""
    terms = {(0, k + 1): GaussianRational(re, im) for k, (re, im) in enumerate(parts)}
    p = Polynomial(("x", "y"), terms)
    if len(p.support_vars()) != 1:
        return
    assert _bits(poly_to_coeffs(p)) == _bits(fraction_route_coeffs(p))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(wide_rationals, wide_rationals), min_size=1, max_size=5))
def test_term_table_gives_the_fraction_route_floats(parts):
    terms = {(k, 1): GaussianRational(re, im) for k, (re, im) in enumerate(parts)}
    p = Polynomial(("x", "y"), terms)
    try:
        want = {e: c.to_complex() for e, c in p.terms.items()}
    except OverflowError:
        with pytest.raises(OverflowError):
            TermTable([p], 2)
        return
    table = TermTable([p], 2)
    got = {tuple(int(k) for k in e): c for e, c in zip(table.exps, table.coeffs[:, 0])}
    assert sorted(want) == sorted(got)
    assert _bits(want[e] for e in sorted(want)) == _bits(got[e] for e in sorted(want))
