"""Smallest singular values and univariate root finding."""

import math
import random

import numpy as np
import pytest

from polyproper import parse_polynomial, smallest_singular_value, univariate_roots
from polyproper.numlin import poly_to_coeffs
from oracles import min_gram_eigenvalue


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
