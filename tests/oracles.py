"""Independent cross-checks that only the tests use.

Each oracle computes a quantity the package also computes, by a different
route: the schoolbook product, one exact scalar per pair of terms, for the
int product kernel; two ``Fraction``s per coefficient for the float
conversion of ``poly_to_coeffs``; a Sylvester matrix for the resultant and
determinants of its submatrices for the subresultants; the Gram matrix for
the smallest singular value; one companion eigensolve and scalar Newton
polish per polynomial for the batched root finder; numpy's SVD on any
sample grid for the witness check's singular values and their order in t;
fiber-count drops on sampled points of {h = 0} for the symbolic
hyperplane-clearance verdict; a comparison of every candidate with every
cluster in Python for the solver's deduplication; and one reduced
``Polynomial`` per coefficient for the term table of a univariate view.
:func:`laurent_value` evaluates a Laurent polynomial in floats for these
checks; the package decides witnesses exactly and evaluates no Laurent
polynomial in floats.
:func:`evaluate_exact` is a polynomial's exact value at a point, the
specialisation of every variable.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from polyproper import LaurentPoly, PolyMap, Polynomial
from polyproper.elimination import as_univariate, poly_matrix_det
from polyproper.numeric import EPS, TermTable
from polyproper.numlin import CLUSTER_RADIUS, Root, RootSet, _cluster, _merge_multiple
from polyproper.nonproper import ClearanceVerdict, _points_on_zero_set, fiber_count_diagnostic
from polyproper.poly import Specialisation
from polyproper.rabier import LaurentPath
from polyproper.scalar import ZERO, GaussianRational, ScalarLike
from polyproper.solver import DEDUP_RADIUS, FiberSolution, geometric_degree


def evaluate_exact(p: Polynomial, point: Sequence[ScalarLike]) -> GaussianRational:
    """p at Gaussian-rational coordinates, exactly: every variable specialised."""
    values = list(point)
    if len(values) != len(p.vars):
        raise ValueError(f"point has dimension {len(values)}, expected {len(p.vars)}")
    return Specialisation([p], 0).at(values)[0].constant_value()


def schoolbook_product(a: Mapping, b: Mapping) -> dict:
    """The product of two term dicts, with one GaussianRational per pair of terms.

    Keys are exponent tuples (added entrywise) or Laurent exponents (ints).
    """
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2)) if isinstance(e1, tuple) else e1 + e2
            s = out.get(e, ZERO) + c1 * c2
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return out


def sylvester_matrix(f: Polynomial, g: Polynomial, var: str) -> list[list[Polynomial]]:
    """Sylvester matrix with polynomial entries; its determinant is Res_var(f, g)."""
    fu, gu = as_univariate(f, var), as_univariate(g, var)
    df, dg = max(fu), max(gu)
    if df == 0 or dg == 0:
        raise ValueError("Sylvester matrix needs positive degrees in the variable")
    zero = Polynomial.zero(f.vars)
    size = df + dg
    rows = []
    for shift in range(dg):
        row = [zero] * size
        for k, c in fu.items():
            row[shift + df - k] = c
        rows.append(row)
    for shift in range(df):
        row = [zero] * size
        for k, c in gu.items():
            row[shift + dg - k] = c
        rows.append(row)
    return rows


def subresultant(f: Polynomial, g: Polynomial, var: str, j: int) -> Polynomial:
    """S_j(f, g), the j-th subresultant in ``var``, from determinants of Sylvester submatrices.

    With m = deg f and n = deg g, 0 <= j < min(m, n) or j = n < m, the
    rows are the n - j shifts var^s * f and the m - j shifts var^s * g
    over the powers var^(m+n-j-1) .. var^0; the coefficient of var^i,
    i <= j, is the determinant of their first m + n - 2j - 1 columns and
    the column of var^i.  S_0 is the resultant.
    """
    fu, gu = as_univariate(f, var), as_univariate(g, var)
    m, n = max(fu), max(gu)
    zero = Polynomial.zero(f.vars)
    width = m + n - j  # column c holds var^(width - 1 - c)
    rows = []
    for u, shifts in ((fu, n - j), (gu, m - j)):
        for s in range(shifts - 1, -1, -1):
            row = [zero] * width
            for k, c in u.items():
                row[width - 1 - (k + s)] = c
            rows.append(row)
    out = zero
    for i in range(j + 1):
        minor = [row[: width - j - 1] + [row[width - 1 - i]] for row in rows]
        out = out + poly_matrix_det(minor) * Polynomial.variable(f.vars, var) ** i
    return out


def scalar_univariate_roots(coeffs: Sequence[complex]) -> RootSet:
    """The roots of one polynomial, each root polished on its own.

    The companion matrix of the monic normalization gives the starts; each
    is polished by scalar Newton steps that keep the iterate of least |p|
    and stop within four ulps of |z|.  Clustering, merging of multiple
    roots and the derivative polish of an m-fold root (m >= 3) follow
    :func:`polyproper.numlin.roots_of_each`.
    """
    c = [complex(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if not c:
        raise ValueError("the zero polynomial has no well-defined roots")
    deg = len(c) - 1
    if deg == 0:
        raise ValueError("a nonzero constant has no roots")
    norm = max(abs(x) for x in c)
    arr = np.array(c, dtype=complex) / norm

    monic = arr / arr[-1]
    comp = np.zeros((deg, deg), dtype=complex)
    if deg > 1:
        comp[1:, :-1] = np.eye(deg - 1)
    comp[:, -1] = -monic[:-1]
    raw = np.linalg.eigvals(comp)

    poly = np.polynomial.polynomial
    dp = poly.polyder(arr)
    polished = [_scalar_newton_polish(z, arr, dp) for z in raw]
    clusters = _merge_multiple(_cluster(polished, CLUSTER_RADIUS), arr)
    roots = []
    for pts in clusters:
        m = len(pts)
        center = sum(pts) / m
        if m >= 3:
            z = _scalar_newton_polish(center, poly.polyder(arr, m - 1), poly.polyder(arr, m))
            if abs(z - center) <= max(abs(w - center) for w in pts):
                center = z
        residual = abs(poly.polyval(center, arr)) * norm
        roots.append(Root(complex(center), m, float(residual)))
    roots.sort(key=lambda r: (r.value.real, r.value.imag))
    return RootSet(tuple(roots), deg, float(norm))


def _scalar_newton_polish(z: complex, coeffs: np.ndarray, dcoeffs: np.ndarray, iters: int = 12) -> complex:
    best = z
    fz = np.polynomial.polynomial.polyval(z, coeffs)
    best_val = abs(fz)
    for _ in range(iters):
        dz = np.polynomial.polynomial.polyval(z, dcoeffs)
        if dz == 0 or not np.isfinite(dz) or not np.isfinite(fz):
            break
        step = fz / dz
        z = z - step
        fz = np.polynomial.polynomial.polyval(z, coeffs)
        val = abs(fz)
        if val < best_val:
            best, best_val = z, val
        if val == 0.0 or abs(step) <= 4 * EPS * abs(z):
            break
    return complex(best)


def min_gram_eigenvalue(matrix) -> float:
    """Least eigenvalue of A A^*; independent cross-check for sigma_min^2."""
    a = np.asarray(matrix, dtype=complex)
    gram = a @ a.conj().T
    return float(np.min(np.linalg.eigvalsh(gram)))


def laurent_value(p: LaurentPoly, t: complex) -> complex:
    """p(t) in floating point, term by term; ``inf`` where a power of t overflows.

    A pole at t = 0 raises ``ZeroDivisionError``.
    """
    tc = complex(t)
    try:
        return sum((c.to_complex() * tc**e for e, c in sorted(p.terms.items())), 0j)
    except OverflowError:
        return complex(math.inf)


def sigma_min_along_path(
    g: PolyMap, path: LaurentPath, t_values: Sequence[float]
) -> list[tuple[float, float]]:
    """Smallest singular value of Jac(g) at path(t) for each t, by numpy's SVD.

    Each Jacobian entry is composed with the path exactly first, so the
    cancellations along the path happen before any float is produced.
    Overflowing samples are reported with value ``inf`` rather than raised
    (:func:`laurent_value`).
    """
    ts = [float(t) for t in t_values]
    if any(t <= 0 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t values must be positive and increasing")
    jac = g.jacobian()
    rows, cols = jac.shape
    entries = [[jac[i, j].substitute_path(path.coordinates) for j in range(cols)] for i in range(rows)]
    out = []
    for t in ts:
        a = np.array([[laurent_value(e, t) for e in row] for row in entries], dtype=complex)
        sigma = np.linalg.svd(a, compute_uv=False)[-1] if np.isfinite(a).all() else np.inf
        out.append((t, float(sigma)))
    return out


def sampling_clearance(
    f: PolyMap, h: Polynomial, seed: int = 0, samples: int = 20
) -> ClearanceVerdict:
    """Clearance by count drops: does the fiber count fall below mu on {h = 0}?

    Points of {h = 0} are sampled and classified by
    :func:`polyproper.nonproper.fiber_count_diagnostic` against the sampled
    geometric degree; one count drop means "yes".  Decisive only for maps
    with constant nonzero Jacobian determinant.  No certificate is issued.
    """
    est = geometric_degree(f, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC1]))
    verdicts = []
    for _ in range(samples):
        pts = _points_on_zero_set(h, rng)
        if not pts:
            continue
        diag = fiber_count_diagnostic(f, pts[0], est.mu)
        if diag.verdict != "undetermined":
            verdicts.append(diag.verdict)
    if not verdicts:
        return ClearanceVerdict("undetermined", None, {"mode": "sampling", "usable_samples": 0})
    evidence = {
        "mode": "sampling",
        "usable_samples": len(verdicts),
        "count_drops": sum(v == "in-locus" for v in verdicts),
        "mu": est.mu,
    }
    return ClearanceVerdict("yes" if "in-locus" in verdicts else "no", None, evidence)


def fraction_route_coeffs(p: Polynomial) -> list[complex]:
    """Ascending complex coefficients of a univariate p, each read as two ``Fraction``s.

    The route ``poly_to_coeffs`` took over ``GaussianRational`` terms: the
    largest reduced magnitude picks a power-of-two shift above 2^500, then
    each part becomes ``numerator * 2^shift / denominator`` by int true
    division.
    """
    (var,) = p.support_vars()
    i = p.vars.index(var)
    exact = [ZERO] * (p.degree_in(var) + 1)
    for e, c in p.terms.items():
        exact[e[i]] = c
    top = -(10**9)
    for c in exact:
        for part in (c.re, c.im):
            if part:
                top = max(top, part.numerator.bit_length() - part.denominator.bit_length())
    shift = -top if abs(top) > 500 and top >= -(10**8) else 0

    def shifted(x):
        if shift >= 0:
            return (x.numerator << shift) / x.denominator
        return x.numerator / (x.denominator << -shift)

    return [complex(shifted(c.re), shifted(c.im)) for c in exact]


def pairwise_deduplicated(
    candidates: list[tuple[tuple[complex, ...], float, int]],
) -> list[FiberSolution]:
    """One solution per cluster of candidates closer than DEDUP_RADIUS, pair by pair.

    The loop ``solver._deduplicated`` replaced: candidates in sorted order,
    each compared in Python with every cluster kept so far, joining the
    first whose representative (its member of least residual) is within the
    radius in the max norm.
    """
    merged: list[list] = []  # [point, residual, total_mult, branches]
    for point, residual, mult in sorted(
        candidates, key=lambda t: tuple((c.real, c.imag) for c in t[0])
    ):
        for entry in merged:
            if max(abs(a - b) for a, b in zip(entry[0], point)) < DEDUP_RADIUS:
                entry[2] += mult
                entry[3] += 1
                if residual < entry[1]:
                    entry[0], entry[1] = point, residual
                break
        else:
            merged.append([point, residual, mult, 1])
    return [
        FiberSolution(point, residual, multiple=(total_mult > 1 or branches > 1))
        for point, residual, total_mult, branches in merged
    ]


def univariate_table(polys: Sequence[Polynomial], var: str) -> tuple[TermTable, list[int]]:
    """The term table and degrees of ``solver._UnivariateView``, built through ``Polynomial`` objects.

    The build the view replaced: one ``as_univariate`` view per polynomial,
    whose coefficient of each power of ``var`` is a reduced ``Polynomial``,
    tabled as one column per (polynomial, power).
    """
    views = [as_univariate(p, var) for p in polys]
    degrees = [max(u) for u in views]
    width = max(degrees) + 1
    zero = Polynomial.zero(polys[0].vars)
    columns = [u.get(k, zero) for u in views for k in range(width)]
    return TermTable.of(columns, len(polys[0].vars)), degrees
