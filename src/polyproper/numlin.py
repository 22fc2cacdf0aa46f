"""Dense complex numerics: smallest singular values and univariate roots.

These back the analytic side of the toolkit.  For a linear map A from C^n to
C^m (m <= n), the quantity computed by :func:`smallest_singular_value` is
inf over unit functionals phi of ||A^* phi||, i.e. the smallest of the m
singular values; it vanishes exactly when A drops rank.  For a scalar-valued
map (one row), it reduces to the Euclidean norm of the gradient.

Root finding uses companion-matrix eigenvalues with Newton polishing and
cluster merging, which is robust through the desk-scale degrees (~30) this
package targets.  It works on batches: :func:`roots_of_each` solves many
polynomials at once.  A row whose k lowest coefficients are exactly zero
gets the root 0 with multiplicity k, exactly, and only the shifted row goes
on: the per-target finals of the solver carry such a factor z^k where
every target shares roots at infinity, and rooted numerically it would
take the cluster merge below.  A degree-1 row is solved in closed form
and the rows of each higher degree with one eigensolve of their stacked
companion matrices and one vectorised Horner polish of all their roots;
only rows with roots within each other's rounding reach go through the
per-row cluster merge.  :func:`univariate_roots` is a batch of one.  Every
polynomial value and derivative, in the polish, the isolation test and the
cluster merge, comes from one vectorised Horner evaluator (:func:`_horner`,
:func:`_derivative`), and the isolation test and the merge take a root's
reach from one formula (:func:`_rounding_radii`), so they see the same
reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numeric import EPS
from .poly import Polynomial

#: Root polishing stops once a Newton step is at most this many ulps of |z|.
_POLISH_ULPS = 4
#: Root polishing takes at most this many Newton steps.
_POLISH_ITERS = 12
#: Polished roots closer than this are one root with a multiplicity.
CLUSTER_RADIUS = 1e-6


def smallest_singular_value(matrix) -> float:
    """Smallest singular value of a complex m x n matrix with m <= n.

    Parameters
    ----------
    matrix : array_like
        Complex matrix; must be nonempty, finite, and have no more rows
        than columns.

    Returns
    -------
    float
        sigma_min(A), which is 0 (to machine precision) iff rank(A) < m.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("expected a nonempty 2-d matrix")
    m, n = a.shape
    if m > n:
        raise ValueError(f"expected no more rows than columns, got {m}x{n}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return float(np.linalg.svd(a, compute_uv=False)[-1])


@dataclass(frozen=True)
class Root:
    value: complex
    multiplicity: int
    residual: float  # |q(value)|, unnormalized, q the row without its zero low coefficients


@dataclass(frozen=True)
class RootSet:
    """All roots of a univariate polynomial, clustered by multiplicity."""

    roots: tuple[Root, ...]
    degree: int
    coeff_norm: float  # max |coefficient|, the normalization for tolerances

    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)

    def values(self) -> list[complex]:
        """Roots repeated with multiplicity."""
        out: list[complex] = []
        for r in self.roots:
            out.extend([r.value] * r.multiplicity)
        return out


def univariate_roots(coeffs: Sequence[complex]) -> RootSet:
    """All complex roots of sum(coeffs[k] * z^k): :func:`roots_of_each` of one row.

    ``coeffs`` are ascending-degree coefficients; the leading coefficient
    must be nonzero after trimming trailing zeros.  Roots are never silently
    dropped (multiplicities always sum to the degree); callers compare
    ``residual / coeff_norm`` against their own tolerance.
    """
    return roots_of_each([coeffs])[0]


def roots_of_each(rows: Sequence[Sequence[complex]]) -> list[RootSet]:
    """The :class:`RootSet` of each row of ascending coefficients, found as one batch.

    Every row must stay nonconstant once trailing zeros are trimmed.  A row
    z^k * q(z) with q(0) != 0, its k lowest coefficients exactly zero, has
    the root 0 of multiplicity exactly k, with residual 0, and the roots of
    q found as those of a row of its own; a constant q adds none.  The
    root of a degree-1 q is -c0/c1.  The rows q of each higher degree are
    solved together: one eigensolve of their stacked companion matrices,
    then Newton polishing of all their roots at once (:func:`_polish`).
    Polished roots closer than :data:`CLUSTER_RADIUS` merge into one root,
    and nearby clusters merge as well when they fit one multiple root
    (:func:`_merge_multiple`); only a row with two roots within each other's
    reach takes that path.  The value of a root of multiplicity m >= 3 is
    polished as a simple root of the (m-1)-th derivative.  A row's result
    does not depend on the other rows of the batch.
    """
    trimmed = [_trimmed(c) for c in rows]
    # c = z^k * q(z) with q(0) != 0: the root 0 is exact, and only q is solved
    zeros = [0 if c[0] else next(k for k, x in enumerate(c) if x) for c in trimmed]
    by_degree: dict[int, list[int]] = {}
    for i, (c, k) in enumerate(zip(trimmed, zeros)):
        by_degree.setdefault(len(c) - k - 1, []).append(i)
    out: list = [None] * len(trimmed)
    for deg, members in by_degree.items():
        shifted = [trimmed[i][zeros[i] :] for i in members]
        norms = [max(map(abs, q)) for q in shifted]
        if deg:
            found = _roots_of_degree(np.array(shifted, dtype=complex), np.array(norms))
        else:
            found = [[] for _ in members]
        for i, roots, norm in zip(members, found, norms):
            if zeros[i]:
                roots.append(Root(0j, zeros[i], 0.0))
            roots.sort(key=lambda r: (r.value.real, r.value.imag))
            out[i] = RootSet(tuple(roots), len(trimmed[i]) - 1, norm)
    return out


def _trimmed(coeffs: Sequence[complex]) -> list[complex]:
    c = [complex(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if not c:
        raise ValueError("the zero polynomial has no well-defined roots")
    if len(c) == 1:
        raise ValueError("a nonzero constant has no roots")
    return c


def _roots_of_degree(coeffs: np.ndarray, norms: np.ndarray) -> list[list[Root]]:
    """The roots of each row of a k x (deg + 1) coefficient array, max |c| ``norms``."""
    k, deg = coeffs.shape[0], coeffs.shape[1] - 1
    arr = coeffs / norms[:, None]
    if deg == 1:
        with np.errstate(over="ignore", invalid="ignore"):  # a root beyond float range
            values = -coeffs[:, 0] / coeffs[:, 1]
            residuals = np.abs(_horner(arr, values)) * norms
        return [[Root(z, 1, r)] for z, r in zip(values.tolist(), residuals.tolist())]
    # companion matrices of the monic normalizations
    comp = np.zeros((k, deg, deg), dtype=complex)
    comp[:, 1:, :-1] = np.eye(deg - 1)
    comp[:, :, -1] = -(arr[:, :-1] / arr[:, -1:])
    rows = arr[np.repeat(np.arange(k), deg)]  # one row per root
    polished, values = _polish(rows, np.linalg.eigvals(comp).ravel())
    residuals = (values.reshape(k, deg) * norms[:, None]).tolist()
    # each root's reach in _merge_multiple, at multiplicity 1
    reach = 4.0 * _rounding_radii(rows, polished, 1)
    polished, reach = polished.reshape(k, deg), reach.reshape(k, deg)
    dist = np.abs(polished[:, :, None] - polished[:, None, :])
    close = (dist < CLUSTER_RADIUS) | (dist <= np.minimum(reach[:, :, None], reach[:, None, :]))
    close[:, np.arange(deg), np.arange(deg)] = False
    isolated = (np.isfinite(polished).all(axis=1) & ~close.any(axis=(1, 2))).tolist()
    rows_out = zip(arr, polished.tolist(), residuals, norms.tolist(), isolated)
    return [
        [Root(z, 1, r) for z, r in zip(points, res)]
        if alone
        else _clustered_roots(row, points, norm)
        for row, points, res, norm, alone in rows_out
    ]


def _clustered_roots(arr: np.ndarray, polished: list[complex], norm: float) -> list[Root]:
    """The roots of one normalized row from its polished points, clustered and merged."""
    roots = []
    for pts in _merge_multiple(_cluster(polished, CLUSTER_RADIUS), arr):
        m = len(pts)
        center = sum(pts) / m
        if m >= 3:
            # an m-fold root is a simple, well-conditioned root of p^(m-1)
            z = complex(_polish(_derivative(arr[None, :], m - 1), np.array([center]))[0][0])
            if abs(z - center) <= max(abs(w - center) for w in pts):
                center = z
        residual = abs(_horner(arr[None, :], np.array([center]))[0]) * norm
        roots.append(Root(complex(center), m, float(residual)))
    return roots


def _horner(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    """p_i(z_i) for the ascending coefficient rows p_i, by Horner's rule."""
    acc = rows[:, -1]
    for j in range(rows.shape[1] - 2, -1, -1):
        acc = rows[:, j] + acc * z
    return acc


def _derivative(rows: np.ndarray, order: int = 1) -> np.ndarray:
    """The ``order``-th derivatives of the ascending coefficient rows."""
    for _ in range(order):
        rows = rows[:, 1:] * np.arange(1, rows.shape[1])
    return rows


def _polish(rows: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton on the polynomial of each row from the matching start in ``z``.

    Returns each start's iterate with the least |p| and that |p|.  An
    iterate stops at an exact zero, once its step is within a few ulps of
    |z| (the round-off floor past which no step moves z), or where p' is
    zero or a value is not finite.
    """
    deriv = _derivative(rows)
    z = z.copy()
    fz = _horner(rows, z)
    best, best_val = z.copy(), np.abs(fz)
    live = np.arange(len(z))
    for _ in range(_POLISH_ITERS):
        dz = _horner(deriv[live], z[live])
        ok = (dz != 0) & np.isfinite(dz) & np.isfinite(fz[live])
        live, dz = live[ok], dz[ok]
        if not live.size:
            break
        step = fz[live] / dz
        z[live] = moved = z[live] - step
        fz[live] = value = _horner(rows[live], moved)
        val = np.abs(value)
        better = val < best_val[live]
        best[live[better]] = moved[better]
        best_val[live[better]] = val[better]
        done = (val == 0.0) | (np.abs(step) <= _POLISH_ULPS * EPS * np.abs(moved))
        live = live[~done]
    return best, best_val


def _cluster(points: Sequence[complex], radius: float) -> list[list[complex]]:
    """Greedy union of points at pairwise distance < radius (transitively)."""
    order = sorted(range(len(points)), key=lambda i: (points[i].real, points[i].imag))
    clusters: list[list[complex]] = []
    for i in order:
        z = points[i]
        for cl in clusters:
            if any(abs(z - w) < radius for w in cl):
                cl.append(z)
                break
        else:
            clusters.append([z])
    return clusters


def _merge_multiple(clusters: list[list[complex]], coeffs: np.ndarray) -> list[list[complex]]:
    """Merge nearby clusters that are the rounding spread of one multiple root.

    An m-fold root is only determined to within its rounding radius: p is
    within the evaluation's round-off EPS * S(c) of zero on a disk of
    radius r_m(c) = (EPS * S(c) / |p^(m)(c) / m!|)^(1/m) around the root c,
    where S(c) = sum |a_k| |c|^k, so companion eigenvalues and Newton polish
    (linear there) leave its copies up to about that far apart; for m >= 3
    this exceeds CLUSTER_RADIUS, and it has no fixed bound.  Each cluster
    reaches four of its own rounding radii, taken at its own multiplicity
    (a copy of an m-fold root has r_1 >= r_m / m, a well-separated root a
    tiny one).  Clusters that lie within each other's reach (transitively)
    merge when their combined multiplicity m is at least 3 and all their
    points lie within four rounding radii r_m of the common centre.  The
    reach must hold both ways because a copy near a root of p' has a huge
    r_1: one-sided, it would chain distinct roots into one group that fits
    no single root.  Isolated clusters skip the check, and distinct close
    roots, whose spread exceeds the radius, stay apart.
    """
    n = len(clusters)
    if n < 2 or sum(map(len, clusters)) < 3:
        return clusters
    centers = np.array([sum(pts) / len(pts) for pts in clusters])
    mults = np.array([len(pts) for pts in clusters])
    reach = np.empty(n)
    for m in set(mults.tolist()):
        at = mults == m
        reach[at] = 4.0 * _rounding_radii(coeffs[None, :], centers[at], m)
    near = np.abs(centers[:, None] - centers[None, :]) <= np.minimum(reach[:, None], reach[None, :])
    label = list(range(n))
    for i, j in zip(*np.nonzero(np.triu(near, 1))):
        old, new = label[j], label[i]
        label = [new if g == old else g for g in label]
    groups: dict[int, list[list[complex]]] = {}
    for g, pts in zip(label, clusters):
        groups.setdefault(g, []).append(pts)
    merged: list[list[complex]] = []
    for members in groups.values():
        points = [z for pts in members for z in pts]
        m = len(points)
        if len(members) > 1 and m >= 3:
            c = sum(points) / m
            radius = _rounding_radii(coeffs[None, :], np.array([c]), m)[0]
            if max(abs(z - c) for z in points) <= 4.0 * radius:
                merged.append(points)
                continue
        merged.extend(members)
    return merged


def _rounding_radii(rows: np.ndarray, z: np.ndarray, m: int) -> np.ndarray:
    """(EPS * S(z) / |p^(m)(z) / m!|)^(1/m): where an m-fold root of p at z is round-off.

    ``rows`` holds the ascending coefficients of p, one row per point of
    ``z`` or one row for all of them; S(z) = sum |a_k| |z|^k.  The radius
    is inf where p^(m)(z) = 0.
    """
    scale = _horner(np.abs(rows), np.abs(z))
    lead = np.abs(_horner(_derivative(rows, m), z)) / math.factorial(m)
    return np.divide(EPS * scale, lead, out=np.full(len(z), np.inf), where=lead != 0) ** (1.0 / m)


def poly_to_coeffs(p: Polynomial) -> list[complex]:
    """Ascending complex coefficients of a polynomial in a single variable.

    The polynomial may live in a larger context as long as only one variable
    occurs.  Coefficients are rescaled before float conversion when their
    magnitudes would overflow, which leaves the roots unchanged.  Each
    stored numerator over the denominator becomes a float by int true
    division, which rounds correctly.
    """
    support = p.support_vars()
    if len(support) > 1:
        raise ValueError(f"polynomial involves several variables: {support}")
    if p.is_zero():
        return []
    den = p.den
    if not support:
        ((re, im),) = p.nums.values()
        return [complex(re / den, im / den)]
    i = p.vars.index(support[0])
    exact = [(0, 0)] * (p.degree_in(support[0]) + 1)
    for e, re, im in p.stored_terms():
        exact[e[i]] = (re, im)
    shift = _scaling_shift([part for c in exact for part in c], den)
    return [
        complex(_shifted_float(re, den, shift), _shifted_float(im, den, shift)) for re, im in exact
    ]


def _scaling_shift(numerators: Sequence[int], den: int) -> int:
    """Power-of-two shift that brings the largest of the numerators / den near 1.

    Each magnitude is that of the reduced fraction, as ``Fraction`` keeps it.
    """
    top = -(10**9)
    for part in numerators:
        if part:
            g = math.gcd(part, den)
            top = max(top, (abs(part) // g).bit_length() - (den // g).bit_length())
    if top < -(10**8):
        return 0
    return -top if abs(top) > 500 else 0


def _shifted_float(num: int, den: int, shift: int) -> float:
    """num / den * 2**shift as a float; int true division rounds correctly."""
    if shift >= 0:
        return (num << shift) / den
    return num / (den << -shift)
