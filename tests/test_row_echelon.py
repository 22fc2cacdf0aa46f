"""The row echelon form g = M·f that every elimination runs on, and affine invariance.

Elimination reads the fibers and the locus off g - M·y, whose pivot
monomials each occur in one equation only.  These tests hold the form to its
definition, and the answers to what an affine change of target coordinates
y -> A·y + b must leave alone: the determinant up to det A, the geometric
degree, and the locus, moved by the inverse change.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyproper import (
    DegreeEstimate,
    GaussianRational,
    PolyMap,
    Polynomial,
    fiber_count_diagnostic,
    geometric_degree,
    nonproperness_set,
    solve_fiber,
    solver,
)
from polyproper.corpus import EXAMPLE_3_6_TEXT, X2_Y_TEXT, X_XY_TEXT
from polyproper.elimination import normalized, poly_matrix_det
from polyproper.polymap import parse_map_text
from polyproper.solver import sample_target, symbolic_system, target_variables

CORPUS = {"example-3-6": EXAMPLE_3_6_TEXT, "x-xy": X_XY_TEXT, "x2-y": X2_Y_TEXT}
NAMES = ("x", "y", "z")


def _matrix(f: PolyMap) -> list[list[GaussianRational]]:
    """M of the map's row echelon form, the identity when it is stored as None."""
    echelon = f.row_echelon()
    n = f.target_dim
    if echelon.matrix is None:
        return [[GaussianRational(int(i == j)) for j in range(n)] for i in range(n)]
    return [
        [GaussianRational(Fraction(re, echelon.den), Fraction(im, echelon.den)) for re, im in row]
        for row in echelon.matrix
    ]


@st.composite
def integer_maps(draw):
    """A square map with n <= 3, integer or Gaussian-integer coefficients and degrees <= 3.

    Components are drawn as combinations of a few shared polynomials, so
    that they often share leading monomials.
    """
    n = draw(st.integers(1, 3))
    names = NAMES[:n]
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    ints = st.integers(-4, 4)
    ints = draw(st.sampled_from([ints, st.builds(GaussianRational, ints, ints)]))
    shared = [
        Polynomial(names, draw(st.dictionaries(exps, ints, min_size=1, max_size=4)))
        for _ in range(draw(st.integers(1, n + 1)))
    ]
    comps = []
    for _ in range(n):
        p = Polynomial(names, draw(st.dictionaries(exps, ints, max_size=2)))
        for q in shared:
            p = p + q * draw(ints)
        comps.append(p)
    return PolyMap(names, comps)


@settings(max_examples=80, deadline=None)
@given(integer_maps())
def test_row_echelon_form(f):
    echelon = f.row_echelon()
    m = _matrix(f)
    for g_j, row in zip(echelon.rows, m):
        combination = Polynomial.zero(f.vars)
        for c, f_k in zip(row, f.components):
            combination = combination + f_k * c
        assert g_j == combination
    constants = [[Polynomial.constant(("t",), c) for c in row] for row in m]
    assert poly_matrix_det(constants) == Polynomial.constant(("t",), 1)
    if echelon.matrix is None:
        assert echelon.rows == f.components
    for j, g_j in enumerate(echelon.rows):
        if g_j.is_zero():
            continue
        pivot = g_j.leading_term()[0]
        assert all(pivot not in other.terms for k, other in enumerate(echelon.rows) if k != j)


@settings(max_examples=40, deadline=None)
@given(integer_maps())
def test_pullback_is_the_matrix(f):
    """RowEchelon.pullback sends y'_j to sum_k M_jk y_k."""
    names = target_variables(f)
    units = [tuple(int(i == k) for i in range(len(names))) for k in range(len(names))]
    for v, row in zip(names, _matrix(f)):
        want = Polynomial(names, dict(zip(units, row)))
        assert f.row_echelon().pullback(Polynomial.variable(names, v)) == want


@settings(max_examples=40, deadline=None)
@given(integer_maps())
def test_symbolic_system_is_kept_on_the_map(f):
    """symbolic_system(f) is g_j - y'_j in the combined context, built once per map."""
    names = target_variables(f)
    combined = f.vars + names
    want = [
        row.in_context(combined) - Polynomial.variable(combined, y)
        for row, y in zip(f.row_echelon().rows, names)
    ]
    system = symbolic_system(f)
    assert list(system) == want
    assert [list(p.nums) for p in system] == [list(p.nums) for p in want]  # same term order
    assert symbolic_system(f) is system


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_maps_are_already_reduced(name):
    f = parse_map_text(CORPUS[name])
    assert f.row_echelon().matrix is None
    assert f.row_echelon().rows == f.components


def _combined(f: PolyMap, a, b) -> PolyMap:
    """A∘f: components sum_k a[j][k] * f_k + b[j]."""
    comps = []
    for row, shift in zip(a, b):
        p = Polynomial.constant(f.vars, shift)
        for c, f_k in zip(row, f.components):
            p = p + f_k * c
        comps.append(p)
    return PolyMap(f.vars, comps)


def _one_point_everywhere(f: PolyMap):
    start = time.perf_counter()
    estimate = geometric_degree(f, seed=0)
    locus = nonproperness_set(f, degree_estimate=estimate)
    assert time.perf_counter() - start < 1.0
    assert estimate.histogram == {1: 50}
    assert locus.is_empty


def test_shuffled_example_3_6_components():
    """(f1 - f2 - f3, f1 + f2, f1) has det 1; eliminated as given it raised after ~45-70 s."""
    f1, f2, f3 = parse_map_text(EXAMPLE_3_6_TEXT).components
    _one_point_everywhere(PolyMap(NAMES, [f1 - f2 - f3, f1 + f2, f1]))


def test_affine_image_of_example_3_6():
    """Eliminated with the y columns mixed into the rows, this map gave mu 7 and a false locus."""
    a = [[-2, 1, 1], [-2, -1, 1], [0, 2, 1]]
    _one_point_everywhere(_combined(parse_map_text(EXAMPLE_3_6_TEXT), a, (-3, 1, -3)))


# -- affine invariance on the target side -----------------------------------------


def _integer_affine(rng: random.Random, n: int):
    """An integer matrix with nonzero determinant, its exact inverse, and a shift."""
    while True:
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        inverse = _inverse([[Fraction(c) for c in row] for row in a])
        if inverse is not None:
            return a, inverse, tuple(rng.randint(-3, 3) for _ in range(n))


def _inverse(a: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Gauss-Jordan inverse over Q, None for a singular matrix."""
    n = len(a)
    rows = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [c / rows[col][col] for c in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                rows[r] = [c - rows[r][col] * p for c, p in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _moved(s: Polynomial, inverse, b) -> Polynomial:
    """s(A^-1 (y - b)), normalized."""
    y = [Polynomial.variable(s.vars, v) for v in s.vars]
    images = {}
    for v, row in zip(s.vars, inverse):
        image = Polynomial.zero(s.vars)
        for c, y_k, b_k in zip(row, y, b):
            image = image + (y_k - b_k) * c
        images[v] = image
    return normalized(s.substitute(images))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_target_affine_invariance(name, seed):
    f = parse_map_text(CORPUS[name])
    a, inverse, b = _integer_affine(random.Random(f"{name}/{seed}"), f.target_dim)
    moved = _combined(f, a, b)
    det_a = poly_matrix_det([[Polynomial.constant(f.vars, c) for c in row] for row in a])
    assert moved.jacobian_det() == f.jacobian_det() * det_a
    estimate = geometric_degree(f, seed=seed)
    moved_estimate = geometric_degree(moved, seed=seed)
    assert moved_estimate.mu == estimate.mu
    locus = nonproperness_set(f, seed=seed, degree_estimate=estimate)
    moved_locus = nonproperness_set(moved, seed=seed, degree_estimate=moved_estimate)
    assert moved_locus.status == locus.status
    if locus.is_hypersurface:
        assert moved_locus.poly == _moved(locus.poly, inverse, b)


def _source_shear() -> PolyMap:
    """example-3-6 ∘ (x + z, y, z), an automorphism."""
    f = parse_map_text(EXAMPLE_3_6_TEXT)
    x, y, z = (Polynomial.variable(NAMES, v) for v in NAMES)
    return f.compose(PolyMap(NAMES, [x + z, y, z]))


def test_source_shear_of_example_3_6():
    """example-3-6 ∘ (x + z, y, z) is an automorphism: mu 1 and an empty locus.

    Row reduction does not help: the components keep their monomials apart.
    The sampled fibers are solved through the plan, whose resultant stages
    are back-substituted through E, not by rooting their pivots of degree
    7, whose extra roots once passed Newton at the round-off floor and read
    mu 7.
    """
    sheared = _source_shear()
    estimate = geometric_degree(sheared, seed=0)
    locus = nonproperness_set(sheared, degree_estimate=estimate)
    assert (estimate.mu, locus.is_empty) == (1, True)


@pytest.mark.xfail(strict=True, reason="ROADMAP items 4 and 14: copies of one point pass Newton")
@pytest.mark.parametrize("draw", [1, 9])
def test_source_shear_fiber_is_one_point(draw):
    """The source shear is an automorphism, so each fiber is one point; it has 4 and 7 here.

    The targets are the 1st and the 9th draw of
    ``sample_target(default_rng(7), 3)``; over 40 draws the count is wrong
    8 times.  At both, the per-target cascade keeps no E at its x stage, so
    the branch roots the stage's pivot, of degree 7, whose root there is
    7-fold.  Newton accepts copies of the point: at the 1st draw 4 within
    1e-5 of each other, at the 9th 7 that lie 2-4 apart at the round-off
    floor, with residuals 11-29.  So the count-drop diagnostic reads
    ``in-locus`` at both targets.
    """
    sheared = _source_shear()
    rng = np.random.default_rng(7)
    for _ in range(draw):
        y = sample_target(rng, 3)
    assert len(solve_fiber(sheared, y)) == 1
    assert fiber_count_diagnostic(sheared, y, 1).verdict == "off-locus"


def test_source_shear_sends_one_row_per_target_to_newton(monkeypatch):
    """The plan's batch roots E, linear here: one Newton row for each of the 50 targets.

    Rooting the pivots instead sent 194 rows.
    """
    calls = []
    newton = solver._newton_batch

    def spied(ev, y, x, *args):
        calls.append((len(x), len({tuple(row) for row in y.tolist()})))
        return newton(ev, y, x, *args)

    monkeypatch.setattr(solver, "_newton_batch", spied)
    assert geometric_degree(_source_shear(), seed=0).histogram == {1: 50}
    assert calls == [(50, 50)]


def test_source_shear_locus_is_empty():
    """The relations of x and z have the lead y2^12 but the primitive lead -64 and 64.

    Their content y2^12 in C[y'] is no part of the locus, so no factor is
    left to check, whether the estimate is the sampled one or a given mu 1.
    """
    sheared = _source_shear()
    sampled = geometric_degree(sheared, seed=0)
    assert sampled.histogram == {1: 50}
    one = DegreeEstimate(mu=1, histogram={1: 1}, samples=1, seed=0, degenerate=0, box=2.0)
    for estimate in (sampled, one):
        locus = nonproperness_set(sheared, degree_estimate=estimate)
        assert locus.is_empty and locus.notes == ()
