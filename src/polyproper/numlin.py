"""Dense complex numerics: smallest singular values and univariate roots.

These back the analytic side of the toolkit.  For a linear map A from C^n to
C^m (m <= n), the quantity computed by :func:`smallest_singular_value` is
inf over unit functionals phi of ||A^* phi||, i.e. the smallest of the m
singular values; it vanishes exactly when A drops rank.  For a scalar-valued
map (one row), it reduces to the Euclidean norm of the gradient.

Root finding uses companion-matrix eigenvalues with Newton polishing and
cluster merging, which is robust through the desk-scale degrees (~30) this
package targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .numeric import EPS
from .poly import Polynomial
from .scalar import GaussianRational

#: Root polishing stops once a Newton step is at most this many ulps of |z|.
_POLISH_ULPS = 4
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
    residual: float  # |p(value)|, unnormalized


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
    """All complex roots of sum(coeffs[k] * z^k).

    ``coeffs`` are ascending-degree coefficients; the leading coefficient
    must be nonzero after trimming trailing zeros.  Roots are never silently
    dropped (multiplicities always sum to the degree); callers compare
    ``residual / coeff_norm`` against their own tolerance.  Polished roots
    closer than :data:`CLUSTER_RADIUS` merge into one root, and nearby
    clusters merge as well when they fit one multiple root
    (:func:`_merge_multiple`).  The value of a root of multiplicity m >= 3
    is polished as a simple root of the (m-1)-th derivative.
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

    # companion matrix of the monic normalization
    monic = arr / arr[-1]
    comp = np.zeros((deg, deg), dtype=complex)
    if deg > 1:
        comp[1:, :-1] = np.eye(deg - 1)
    comp[:, -1] = -monic[:-1]
    raw = np.linalg.eigvals(comp)

    poly = np.polynomial.polynomial
    dp = poly.polyder(arr)
    polished = [_newton_polish(z, arr, dp) for z in raw]
    clusters = _merge_multiple(_cluster(polished, CLUSTER_RADIUS), arr)
    roots = []
    for pts in clusters:
        m = len(pts)
        center = sum(pts) / m
        if m >= 3:
            # an m-fold root is a simple, well-conditioned root of p^(m-1)
            z = _newton_polish(center, poly.polyder(arr, m - 1), poly.polyder(arr, m))
            if abs(z - center) <= max(abs(w - center) for w in pts):
                center = z
        residual = abs(poly.polyval(center, arr)) * norm
        roots.append(Root(complex(center), m, float(residual)))
    roots.sort(key=lambda r: (r.value.real, r.value.imag))
    return RootSet(tuple(roots), deg, float(norm))


def _newton_polish(z: complex, coeffs: np.ndarray, dcoeffs: np.ndarray, iters: int = 12) -> complex:
    """Newton on p from z; the iterate with the least |p|.

    Stops at an exact zero or once a step is within a few ulps of |z|, the
    round-off floor past which no step moves z.
    """
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
        if val == 0.0 or abs(step) <= _POLISH_ULPS * EPS * abs(z):
            break
    return complex(best)


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
    reach = np.array(
        [4.0 * _rounding_radius(coeffs, c, len(pts)) for c, pts in zip(centers, clusters)]
    )
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
            if max(abs(z - c) for z in points) <= 4.0 * _rounding_radius(coeffs, c, m):
                merged.append(points)
                continue
        merged.extend(members)
    return merged


def _rounding_radius(coeffs: np.ndarray, c: complex, m: int) -> float:
    """(EPS * S(c) / |p^(m)(c) / m!|)^(1/m): where an m-fold root at c is round-off."""
    poly = np.polynomial.polynomial
    scale = poly.polyval(abs(c), np.abs(coeffs))
    lead = abs(poly.polyval(c, poly.polyder(coeffs, m))) / math.factorial(m)
    return (EPS * scale / lead) ** (1.0 / m) if lead else math.inf


def poly_to_coeffs(p: Polynomial) -> list[complex]:
    """Ascending complex coefficients of a polynomial in a single variable.

    The polynomial may live in a larger context as long as only one variable
    occurs.  Coefficients are rescaled before float conversion when their
    magnitudes would overflow, which leaves the roots unchanged.
    """
    support = p.support_vars()
    if len(support) > 1:
        raise ValueError(f"polynomial involves several variables: {support}")
    if p.is_zero():
        return []
    if not support:
        return [p.constant_value().to_complex()]
    i = p.vars.index(support[0])
    deg = max(e[i] for e in p.terms)
    exact: list[GaussianRational] = [GaussianRational(0)] * (deg + 1)
    for e, c in p.terms.items():
        exact[e[i]] = c
    shift = _scaling_shift(exact)
    return [_shifted_float(c, shift) for c in exact]


def _scaling_shift(coeffs: Sequence[GaussianRational]) -> int:
    """Power-of-two shift that brings the largest coefficient near 1."""
    top = -(10**9)
    for c in coeffs:
        for part in (c.re, c.im):
            if part:
                mag = part.numerator.bit_length() - part.denominator.bit_length()
                top = max(top, mag)
    if top < -(10**8):
        return 0
    return -top if abs(top) > 500 else 0


def _shifted_float(c: GaussianRational, shift: int) -> complex:
    if shift == 0:
        return c.to_complex()
    return complex(
        _fraction_shift_float(c.re, shift), _fraction_shift_float(c.im, shift)
    )


def _fraction_shift_float(x: Fraction, shift: int) -> float:
    if not x:
        return 0.0
    if shift >= 0:
        return float(Fraction(x.numerator << shift, x.denominator))
    return float(Fraction(x.numerator, x.denominator << (-shift)))


def norm2(vector) -> float:
    return float(math.sqrt(sum(abs(x) ** 2 for x in vector)))
